"""The benchmark's workloads: seeded inputs, the CLI requests of one pass, and
the correctness gate of each request.

A workload turns a seed into a fixed list of ``prsplit`` argument vectors (one
pass).  Every pass of a run repeats the same list, so per-pass counts repeat
exactly.  Gates read only what the CLI printed or wrote and never call into
``prsplit``, so a traced pass records no gate work.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class Verdict:
    """Outcome of one request's gate."""

    attempted: int  # solves checked
    failed: int
    iterations: list[int]  # per-solve iteration counts the CLI reported
    errors: list[str]


def _seeds(seed: int, count: int, key: int) -> list[int]:
    state = np.random.SeedSequence(entropy=seed, spawn_key=(key,)).generate_state(count)
    return [int(s) for s in state]


class Academic:
    """Random least-squares table, one ``bench-academic`` call per instance.

    (m, n, p) = (20, 30, 30): the paper's m = 20 vectors with A and B both
    tall.  With a square A (the 20,20,20 row) about 4% of random instances
    are nearly singular, classical PRS tuned on f (``prs1``) then exhausts
    its 50,000 iteration budget, and one instance costs up to 16 times the
    median, so no seeded pass of that row is both failure-free and steady.
    With a square B (20,30,20), about one instance in 600 has a B^T B whose
    smallest eigenvalue falls below the numerical rank tolerance, and
    ``prs2`` is then correctly reported undefined.
    """

    name = "academic"
    reference = "dense"  # reference task scaling its times (reference.py)
    ref_per_request = 1  # reference samples taken before each request
    dims = "20,30,30"
    instances = 100
    methods = ("prs_lev", "prs1", "prs2")
    untracked_solves = 0

    def __init__(self, seed: int, out: Path):
        self.out = out
        self.requests = [
            ["bench-academic", "--dims", self.dims, "--reps", "1", "--seed", str(s),
             "--out", str(out)]
            for s in _seeds(seed, self.instances, 0)
        ]
        self.warmup = self.requests[:1]

    def check(self, index: int, rc: int, stdout: str) -> Verdict:
        lines = (self.out / "bench_academic.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        by_method = {row["method"]: row for row in rows}
        iterations, errors = [], []
        for name in self.methods:
            row = by_method.get(name)
            if row is None or row["avg_iterations"] == "-":
                errors.append(f"request {index}: {name} undefined")
                continue
            iterations.append(int(float(row["avg_iterations"])))
            if row["unconverged"] != "0":
                errors.append(f"request {index}: {name} did not converge")
        if rc != 0:
            errors.append(f"request {index}: exit code {rc}")
        return Verdict(len(self.methods), len(errors), iterations, errors)

    def check_pass(self, verdicts: list[Verdict]) -> list[str]:
        """The paper's claim on this row: leveraged PRS needs the fewest iterations."""
        complete = [v.iterations for v in verdicts if len(v.iterations) == len(self.methods)]
        if not complete:
            return ["no complete instance to order"]
        med = dict(zip(self.methods, np.median(np.array(complete), axis=0)))
        if med["prs_lev"] < min(med["prs1"], med["prs2"]):
            return []
        return [f"median iterations not led by prs_lev: {med}"]


_RESTORE_LINE = re.compile(
    r"^\s+(\S+)\s+(\d+) iterations\s+status=(\S+)\s+\|x - x_ref\| = (\S+)$", re.M
)


class Restore:
    """Huber+Haar deblurring of three seeded 64 x 64 synthetic images.

    A pass is three requests rather than one 128 x 128 request of the same
    length, so that reference samples taken between requests follow the
    host's speed through the pass (see reference.py).  The iteration counts
    do not depend on the side, and the blur and its conjugate-gradient prox
    still take nearly all of the time.
    """

    name = "restore"
    reference = "image"
    ref_per_request = 12
    side = 64
    images = 3
    methods = ("prs_lev", "prs", "fista1", "fista2")
    # run_restoration_demo first computes its reference minimizer with one
    # extra prs_lev solve that the CLI does not report
    untracked_solves = 1
    agreement = 1e-6

    def __init__(self, seed: int, out: Path):
        self.requests = [["restore", "--side", str(self.side), "--seed", str(s),
                          "--out", str(out)]
                         for s in _seeds(seed, self.images, 2)]
        self.warmup = [["restore", "--side", "32", "--seed", str(seed),
                        "--out", str(out / "warmup")]]

    def check(self, index: int, rc: int, stdout: str) -> Verdict:
        found = {m[0]: m for m in _RESTORE_LINE.findall(stdout)}
        iterations, errors = [], []
        for name in self.methods:
            if name not in found:
                errors.append(f"{name}: no result line")
                continue
            _, iters, status, gap = found[name]
            iterations.append(int(iters))
            # the CLI prints the absolute gap; bounding it by 1e-6 is at least
            # as strict as criterion 9's 1e-6 * (1 + ||x_ref||)
            if status != "converged" or not float(gap) <= self.agreement:
                errors.append(f"{name}: status={status} gap={gap}")
        if rc != 0:
            errors.append(f"exit code {rc}")
        return Verdict(len(self.methods), len(errors), iterations, errors)

    def check_pass(self, verdicts: list[Verdict]) -> list[str]:
        return []


def _moduli(M: np.ndarray) -> tuple[float, float]:
    w = np.linalg.eigvalsh(M.T @ M)
    return float(w[0]), 1.0 / float(w[-1])


def _optimal_rate(rho: float, alpha: float, mu: float, beta: float) -> float:
    """The paper's closed-form r*, computed here independently of prsplit.rates."""
    lead = math.sqrt((1.0 + beta * rho) * (1.0 + alpha * mu))
    cross = math.sqrt((alpha + beta) * (rho + mu))
    return (lead - cross) / (lead + cross)


_SOLVE_LINE = re.compile(r"^status: (\S+) after (\d+) iterations$", re.M)


class Oneshot:
    """150 ``prsplit solve`` requests: 30 seeded problem files x 5 methods."""

    name = "oneshot"
    reference = "mixed"
    ref_per_request = 1
    files = 30
    m, n, p = 100, 150, 150
    methods = ("prs_lev", "prs", "drs", "fista1", "fista2")
    # A and B are drawn alike.  With B = 15 U(0,1), the academic generator's
    # scale, the stiff g needs --tol 1e-12 to meet the stationarity gate, and
    # at 1e-13 the float floor of z* breaks the ratio gate and fista2.
    scale = 0.5
    stationarity = 1e-8
    ratio_slack = 1e-8
    untracked_solves = 0

    def __init__(self, seed: int, out: Path):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
        problems = out / "problems"
        problems.mkdir(parents=True, exist_ok=True)
        self.out = out / "result"
        self.data = []
        self.requests = []
        for i in range(self.files):
            A = self.scale * rng.random((self.n, self.m))
            B = self.scale * rng.random((self.p, self.m))
            a = rng.standard_normal(self.n)
            b = rng.standard_normal(self.p)
            path = problems / f"problem_{i:02d}.json"
            path.write_text(json.dumps({"A": A.tolist(), "a": a.tolist(),
                                        "B": B.tolist(), "b": b.tolist()}))
            rho, alpha = _moduli(A)
            mu, beta = _moduli(B)
            delta = float(rng.uniform(-rho, mu))
            r_star = _optimal_rate(rho, alpha, mu, beta)
            for method in self.methods:
                argv = ["solve", "--problem-file", str(path), "--method", method,
                        "--out", str(self.out)]
                if method == "prs_lev":
                    argv += ["--delta", repr(delta)]
                self.requests.append(argv)
                self.data.append((A, a, B, b, method, r_star))
        self.warmup = self.requests[:1]

    def check(self, index: int, rc: int, stdout: str) -> Verdict:
        A, a, B, b, method, r_star = self.data[index]
        errors, iterations = [], []
        match = _SOLVE_LINE.search(stdout)
        if rc != 0 or match is None:
            return Verdict(1, 1, [], [f"request {index} ({method}): exit code {rc}"])
        iterations.append(int(match.group(2)))
        x = np.loadtxt(self.out / "solution.csv", delimiter=",")
        grad_f = A.T @ (A @ x - a)
        grad_g = B.T @ (B @ x - b)
        rel = float(np.linalg.norm(grad_f + grad_g) / (1.0 + np.linalg.norm(grad_f)))
        if not rel <= self.stationarity:
            errors.append(f"request {index} ({method}): stationarity {rel:.2e}")
        lines = (self.out / "trace.csv").read_text().splitlines()
        if len(lines) - 2 != iterations[0]:
            errors.append(f"request {index} ({method}): trace has {len(lines) - 2} rows")
        if method == "prs_lev":
            ratios = [float(cols[3]) for cols in (ln.split(",") for ln in lines[2:]) if cols[3]]
            worst = max(ratios, default=-math.inf)
            if not worst <= r_star + self.ratio_slack:
                errors.append(f"request {index}: ratio {worst!r} > r* {r_star!r} + 1e-8")
        return Verdict(1, 1 if errors else 0, iterations, errors)

    def check_pass(self, verdicts: list[Verdict]) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (Academic, Restore, Oneshot)}
