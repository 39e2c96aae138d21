"""Fixed reference tasks that measure how fast the machine runs right now.

The benchmark's host gives it a share of a shared processor, and the speed of
that share moves by up to 50% within seconds and over minutes: a fixed
pure-Python loop timed back to back reads anywhere from 5.2 to 8.4 ms, and
CPU time moves with wall time.  Raw timings of the workloads follow it.

So samples of a reference task are taken between the requests of every pass,
outside the timing, and the pass's times are reported scaled to the speed at
which one sample takes its nominal time:

    scaled = measured * NOMINAL_S[kind] / median(samples of the pass)

Setup times are scaled the same way by a fresh process that imports numpy
and scipy.  The tasks use numpy, scipy and the standard library only, never
``prsplit``, and their inputs come from a fixed seed, so a change to the
program or to the workload seed cannot change them.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np
import scipy.linalg
from scipy import ndimage

# Time of one sample of each task at a typical speed of the machine this
# benchmark was written on (2 vCPUs, Python 3.11, numpy 2.4, OpenBLAS with
# one thread); medians there ranged from 0.7 to 1.5 times these.
NOMINAL_S = {"dense": 0.0035, "image": 0.0025, "mixed": 0.0035, "spawn": 0.6}

# What a fresh process pays before a workload's own imports start: the
# interpreter and the third-party imports of ``prsplit``.
SPAWN_TASK = "import numpy, scipy.linalg, scipy.ndimage"


class Reference:
    """One of three reference tasks, with its inputs built once.

    Work of one kind slows down more than work of another when the host is
    busy, so each workload is scaled by a task shaped like its own hot path:

    - ``dense``: short vectors through small Cholesky solves and norms, as in
      the solver loop of small least-squares problems;
    - ``image``: 2-D convolutions of a 64 x 64 image and inner products, as in
      conjugate gradients on a blur operator;
    - ``mixed``: half of each, plus JSON parsing.
    """

    def __init__(self, kind: str):
        rng = np.random.default_rng(20260117)
        m = rng.random((30, 20))
        self._factor = scipy.linalg.cho_factor(np.eye(20) + m.T @ m)
        self._vectors = rng.standard_normal((16, 20))
        self._image = rng.random((64, 64))
        self._kernel = np.full((5, 5), 1.0 / 25.0)
        self._blob = json.dumps(rng.random((24, 24)).tolist())
        self._task = {"dense": self._dense, "image": self._convolve, "mixed": self._mixed}[kind]
        self.nominal_s = NOMINAL_S[kind]

    def _dense(self, steps: int = 160) -> float:
        x = self._vectors[0]
        acc = 0.0
        for i in range(steps):
            x = scipy.linalg.cho_solve(self._factor, self._vectors[i % 16] + 0.5 * x)
            acc += float(np.linalg.norm(x))
            x = x / (1.0 + acc)
        return acc

    def _convolve(self, steps: int = 24) -> float:
        y = self._image
        acc = 0.0
        for _ in range(steps):
            y = ndimage.convolve(y, self._kernel, mode="wrap")
            acc += float(np.vdot(y, self._image))
        return acc

    def _mixed(self) -> float:
        acc = self._dense(80) + self._convolve(12)
        for _ in range(2):
            acc += len(json.loads(self._blob))
        return acc

    def sample(self, out: list[float]) -> None:
        """Time one run of the task and append it to ``out``."""
        start = perf_counter()
        self._task()
        out.append(perf_counter() - start)

    def samples(self, count: int) -> list[float]:
        out: list[float] = []
        for _ in range(count):
            self.sample(out)
        return out


    def scale(self, samples: list[float]) -> float:
        """Factor that turns a time measured next to ``samples`` into nominal seconds."""
        return self.nominal_s / statistics.median(samples)


def spawn_sample() -> float:
    """Time to start a fresh interpreter and import numpy and scipy: the
    reference for setup times, which are mostly process start and imports."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", SPAWN_TASK], check=True, timeout=60)
    return perf_counter() - start


def spawn_scale(samples: list[float]) -> float:
    return NOMINAL_S["spawn"] / statistics.median(samples)
