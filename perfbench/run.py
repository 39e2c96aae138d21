"""prsplit benchmark: one closed-loop, single-client workload per process.

    python3 perfbench/run.py --workload {academic,restore,oneshot} \
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all     # every workload, both modes

Run it from the repository root; it imports ``prsplit`` from ``src/`` and
writes only under ``perfbench/out/``.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it print every metric with its unit and the environment stamp.  Times
are scaled by interleaved samples of a fixed reference task (reference.py),
so that the host's drifting speed cancels out.  See perfbench/README.md for
the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread unless the caller sets one.  With OpenBLAS's default of one
# thread per core, its spinning worker made a pass up to 4x slower whenever
# another process wanted a core; one thread is as fast on these workloads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Seed used while this benchmark was written, and one kept back so that a
# later claim can be confirmed on inputs nobody tuned against.
DEV_SEED = 1
HOLDOUT_SEED = 2027

WORKLOAD_NAMES = ("academic", "restore", "oneshot")
SETUP_PROBES = 3  # fresh processes timed for setup_s
REF_PAD = 8  # reference samples before and after each pass
MIN_PASSES = 3  # untraced passes in an untraced run
MIN_TRACED_PASSES = 2  # of each kind in a traced run


def _require_sources() -> None:
    if not (SRC / "prsplit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no prsplit sources under {SRC}")


def _import_prsplit():
    _require_sources()
    sys.path.insert(0, str(SRC))
    import prsplit
    import prsplit.cli  # noqa: F401  (the entry point every request goes through)

    return prsplit


def _set_up(workload_name: str, seed: int, out: Path):
    """Imports, input generation and one warm-up request: what setup_s times."""
    prsplit = _import_prsplit()
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed, out)
    for argv in workload.warmup:
        with contextlib.redirect_stdout(io.StringIO()):
            prsplit.cli.main(argv)
    return prsplit, workload


def _probe_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Setup times of fresh processes, each from spawn to its warm-up's end.

    Returns the measured times and the same times scaled by the spawn
    reference (reference.py), sampled before, between and after the probes.
    """
    from reference import spawn_sample, spawn_scale

    cmd = [sys.executable, str(Path(__file__)), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    refs = [spawn_sample()]
    times, scaled = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
        # perf_counter is the system-wide monotonic clock, shared with the child
        times.append(float(done.stdout.strip().splitlines()[-1]) - start)
        refs.append(spawn_sample())
        scaled.append(times[-1] * spawn_scale(refs[-2:]))
    return times, scaled


def _run_request(prsplit, argv) -> tuple[int, str, float]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        try:
            rc = prsplit.cli.main(argv)
        except Exception:  # a failed request is counted, and the run goes on
            rc = -1
            traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - start
    return rc, buf.getvalue(), elapsed


def _run_pass(prsplit, workload, ref, tracer=None) -> dict:
    """All requests of one pass; gates run between requests, outside the timing.

    Reference samples are taken before and after the pass and before each
    request, outside the timing; ``scale`` turns the pass's times into
    nominal seconds (see reference.py).
    """
    latencies, verdicts, errors = [], [], []
    samples = ref.samples(REF_PAD)
    for index, argv in enumerate(workload.requests):
        if tracer is not None:
            tracer.request = index
        samples += ref.samples(workload.ref_per_request)
        rc, stdout, elapsed = _run_request(prsplit, argv)
        latencies.append(elapsed)
        verdict = workload.check(index, rc, stdout)
        if tracer is not None:
            errors += _cross_check(workload, index, verdict, tracer)
        verdicts.append(verdict)
        errors += verdict.errors
    errors += workload.check_pass(verdicts)
    samples += ref.samples(REF_PAD)
    return {
        "wall_s": sum(latencies),
        "latencies": latencies,
        "scale": ref.scale(samples),
        "iterations": sum(sum(v.iterations) for v in verdicts),
        "attempted": sum(v.attempted for v in verdicts),
        "failed": sum(v.failed for v in verdicts),
        "errors": errors,
    }


def _cross_check(workload, index, verdict, tracer) -> list[str]:
    """Iterations the solvers returned must equal what the CLI reported."""
    seen = [iters for req, iters, _ in tracer.solve_log if req == index]
    expected = len(verdict.iterations) + workload.untracked_solves
    if len(seen) == expected and seen[workload.untracked_solves:] == verdict.iterations:
        return []
    return [f"request {index}: traced iterations {seen} != reported {verdict.iterations}"]


def _request_medians(passes) -> list[float]:
    """Each request's median scaled latency over the passes of a run, in seconds.

    Every pass repeats the same requests on the same inputs, so a burst of
    outside load that slows one request in one pass does not move these.
    """
    scaled = ([t * p["scale"] for t in p["latencies"]] for p in passes)
    return [statistics.median(lat) for lat in zip(*scaled)]


def _quantile(values, q: int) -> float:
    """The q-th percentile (q in 10..90, step 10), interpolated inclusively."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def _repeat(step, seconds: float, minimum: int) -> None:
    """Call ``step`` at least ``minimum`` times, then while another fits in ``seconds``."""
    spent = []
    while len(spent) < minimum or sum(spent) + statistics.median(spent) <= seconds:
        start = time.perf_counter()
        step()
        spent.append(time.perf_counter() - start)


def _measure(prsplit, workload, ref, seconds: float) -> tuple[dict, dict]:
    passes = []
    _repeat(lambda: passes.append(_run_pass(prsplit, workload, ref)), seconds, MIN_PASSES)
    medians = _request_medians(passes)
    latencies_ms = [1e3 * t for t in medians]
    metrics = {
        "wall_s": (sum(medians), "s"),
        "solve_ms.p50": (_quantile(latencies_ms, 50), "ms"),
        "solve_ms.p90": (_quantile(latencies_ms, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_scale": [p["scale"] for p in passes],
        "solve_ms.samples": len(latencies_ms),
        "reported_iterations_per_pass": passes[0]["iterations"],
    }
    return metrics, _totals(passes, details)


def _measure_traced(prsplit, workload, ref, seconds: float) -> tuple[dict, dict]:
    """Untraced and traced passes in turn; per-layer figures are per pass."""
    from tracing import Tracer

    plain, traced, tracers = [], [], []

    def cycle():
        plain.append(_run_pass(prsplit, workload, ref))
        tracer = Tracer(prsplit)
        tracer.install()
        try:
            traced.append(_run_pass(prsplit, workload, ref, tracer))
        finally:
            tracer.uninstall()
        tracers.append(tracer)

    _repeat(cycle, seconds, MIN_TRACED_PASSES)
    OUT.mkdir(parents=True, exist_ok=True)
    tracers[-1].write_spans(OUT / f"spans_{workload.name}.csv")

    first = tracers[0]
    calls = first.layer_calls

    def self_s(layer: str) -> float:
        """Median over the traced passes, in nominal seconds like wall_s."""
        return statistics.median(t.layer_self_s(layer) * p["scale"]
                                 for t, p in zip(tracers, traced))

    def us_per_call(layer: str) -> float:
        return 1e6 * self_s(layer) / calls(layer) if calls(layer) else 0.0

    count = "count"
    metrics = {
        "solvers.calls": (calls("solvers"), count),
        "solvers.iterations": (first.iterations, count),
        "solvers.converged_ratio": (first.converged / max(calls("solvers"), 1), "1"),
        "solvers.self_s": (self_s("solvers"), "s"),
        "solvers.self_us_per_iter": (1e6 * self_s("solvers") / max(first.iterations, 1), "us"),
        "proxlib.ls_dense.calls": (calls("proxlib.ls_dense"), count),
        "proxlib.ls_dense.self_s": (self_s("proxlib.ls_dense"), "s"),
        "proxlib.ls_dense.us_per_call": (us_per_call("proxlib.ls_dense"), "us"),
        "proxlib.ls_dense.new_step_calls": (first.new_step_calls, count),
        "proxlib.ls_dense.grad_calls": (calls("proxlib.ls_dense.grad"), count),
        "proxlib.ls_dense.grad_self_s": (self_s("proxlib.ls_dense.grad"), "s"),
        "proxlib.ls_op.calls": (calls("proxlib.ls_op"), count),
        "proxlib.ls_op.self_s": (self_s("proxlib.ls_op"), "s"),
        "proxlib.ls_op.us_per_call": (us_per_call("proxlib.ls_op"), "us"),
        "proxlib.blur.applies": (calls("proxlib.blur"), count),
        "proxlib.blur.self_s": (self_s("proxlib.blur"), "s"),
        "proxlib.huber.calls": (calls("proxlib.huber"), count),
        "proxlib.huber.self_s": (self_s("proxlib.huber"), "s"),
        "proxlib.spectral.self_s": (self_s("proxlib.spectral"), "s"),
        "harness.run.self_s": (self_s("harness.run"), "s"),
        "harness.build.calls": (calls("harness.build"), count),
        "harness.build.self_s": (self_s("harness.build"), "s"),
        "harness.write.self_s": (self_s("harness.write"), "s"),
        "harness.write.bytes": (first.write_bytes, "B"),
        "cli.self_s": (self_s("cli"), "s"),
        "rates.calls": (calls("rates"), count),
        "rates.self_s": (self_s("rates"), "s"),
        "trace.overhead_frac": (
            sum(_request_medians(traced)) / sum(_request_medians(plain)) - 1.0, "1"),
    }
    passes = plain + traced
    details = {
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in plain],
        "traced_pass_wall_s": [p["wall_s"] for p in traced],
        "pass_scale": [p["scale"] for p in plain],
        "traced_pass_scale": [p["scale"] for p in traced],
        "spans_per_traced_pass": len(first.span_id),
    }
    details = _totals(passes, details)
    metrics["fail_frac"] = (details["fail_frac"], "1")
    details["errors"] += _repeat_errors(tracers)
    return metrics, details


def _repeat_errors(tracers) -> list[str]:
    """Exact counts must repeat across the traced passes of a run (same inputs)."""
    def counts(t):
        return (t.iterations, t.layer_calls("proxlib.ls_dense"), t.layer_calls("proxlib.blur"))

    ref = counts(tracers[0])
    return [f"traced pass {i}: counts {counts(t)} != {ref}"
            for i, t in enumerate(tracers) if counts(t) != ref]


def _totals(passes, details: dict) -> dict:
    details["attempted"] = sum(p["attempted"] for p in passes)
    details["failed"] = sum(p["failed"] for p in passes)
    details["errors"] = [e for p in passes for e in p["errors"]]
    details["fail_frac"] = details["failed"] / details["attempted"]
    return details


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads():
    """OpenBLAS thread count via its C API, or None when it cannot be asked."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "holdout_seed": HOLDOUT_SEED,
        "git_commit": _git_commit(),
    }


def run(args) -> int:
    _require_sources()
    OUT.mkdir(parents=True, exist_ok=True)
    from reference import Reference
    from workloads import WORKLOADS

    ref = Reference(WORKLOADS[args.workload].reference)
    ref.samples(REF_PAD)  # warm-up
    setup_times, setup_scaled = ([], []) if args.trace else _probe_setup(
        args.workload, args.seed)
    prsplit, workload = _set_up(args.workload, args.seed, OUT / args.workload)
    if args.trace:
        metrics, details = _measure_traced(prsplit, workload, ref, args.seconds)
    else:
        metrics, details = _measure(prsplit, workload, ref, args.seconds)
        metrics["setup_s"] = (statistics.median(setup_scaled), "s")
        details["setup_s.measured"] = setup_times
        details["setup_s.scaled"] = setup_scaled
    correct = not details["errors"]
    env = environment(args.seed)
    result = {
        "correct": correct,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "environment": env, "details": details, **result}
    name = f"result_{args.workload}_trace{args.trace}_seed{args.seed}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    for error in details["errors"][:20]:
        print(f"gate: {error}", file=sys.stderr)
    print(f"# {args.workload} trace={args.trace} seed={args.seed} "
          f"passes={details['passes']} fail_frac={details['fail_frac']!r}")
    for key, (value, unit) in metrics.items():
        print(f"{key:34s} {value!r:>24} {unit}")
    print(f"# times are scaled to nominal seconds; measured pass wall_s median "
          f"{statistics.median(details['pass_wall_s'])!r}, scale median "
          f"{statistics.median(details['pass_scale'])!r}")
    print("# environment " + json.dumps(env))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    code = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            code = max(code, subprocess.run(cmd, timeout=600).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        _set_up(args.workload, args.seed, OUT / "setup" / args.workload)
        print(repr(time.perf_counter()))
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
