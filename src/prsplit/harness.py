"""Experiments: random instances, benchmark loops, the tight contraction
check, image restoration, and CSV/plot emission.

Instances use numpy's seedable PCG64 generator (``default_rng``) with uniform
[0, 1) entries.  Wall times are measured with a monotonic clock and reported,
but excluded from the deterministic CSV output so that identical seeds
produce identical bytes.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import pgm
from .core import CompositeProblem, RegularityParams, SolveTrace
from .errors import NoLeverage, NotStronglyRegular
from .leverage import QuadraticFunction
from .proxlib import (
    BlurOperator,
    HuberFn,
    LeastSquaresFn,
    OperatorLeastSquares,
    _check_haar_shape,
    gaussian_kernel,
)
from .rates import METHODS, optimal_rate
from .solvers import Recording, SolverConfig, fista_solve, prs_lev_solve

__all__ = [
    "SOLVE_METHODS",
    "RESTORE_METHODS",
    "BENCH_METHODS",
    "solve_method",
    "make_least_squares_problem",
    "generate_instance",
    "run_tight_check",
    "MethodStats",
    "BenchmarkRow",
    "BenchmarkReport",
    "run_academic_benchmark",
    "synthetic_image",
    "MethodRun",
    "RestorationReport",
    "run_restoration_demo",
    "emit_trace",
    "emit_plot_script",
]


# --- one tuned solve per method name ------------------------------------------------

# the methods that solve, restore and bench-academic run: keys of rates.METHODS
SOLVE_METHODS = ("prs_lev", "prs", "drs", "fista1", "fista2")
RESTORE_METHODS = ("prs_lev", "prs", "fista1", "fista2")
BENCH_METHODS = ("prs_lev", "prs1", "prs2")


def solve_method(
    problem: CompositeProblem,
    method: str,
    config: SolverConfig,
    z0: Optional[np.ndarray] = None,
    delta: Optional[float] = None,
    tau: Optional[float] = None,
    recording: Optional[Recording] = None,
) -> tuple[np.ndarray, Optional[np.ndarray], SolveTrace]:
    """Solve by ``method``, a key of :data:`~prsplit.rates.METHODS`, as its record
    orients and tunes it, with ``delta`` or ``tau`` for the tuned shift or step;
    ``(x, z, trace)`` with ``z = None`` for FISTA.  An argument the method does
    not take, or an unknown name, raises ``ValueError``, and moduli its tuning
    cannot use :class:`~prsplit.errors.NotStronglyRegular`.
    """
    record = METHODS.get(method)
    if delta is not None and (record is None or record.kind != "prs_lev"):
        raise ValueError(f"method {method!r} takes no delta")
    if record is None:
        raise ValueError(f"unknown method {method!r}")
    if tau is not None and record.kind in ("prs_lev", "fista"):
        raise ValueError(f"method {method!r} takes no tau")
    reg = problem.regularity
    if record.swap_problem:
        problem = problem.swap()
    if record.kind == "fista":
        if recording is not None:
            raise ValueError(f"method {method!r} takes no recording")
        x, trace = fista_solve(problem, config)
        return x, None, trace
    lp, lam = record.tuning(reg.swap() if record.swap_moduli else reg, delta, tau)
    return prs_lev_solve(problem, lp, config, z0, lam=lam, recording=recording)


# --- random least-squares instances (academic benchmark) ---------------------------


def make_least_squares_problem(
    A: np.ndarray,
    a: Optional[np.ndarray],
    B: np.ndarray,
    b: Optional[np.ndarray],
) -> CompositeProblem:
    """Composite problem for half squared residuals of two linear systems.

    Attaches the normal-equations solution
    ``x* = (A^T A + B^T B)^{-1} (A^T a + B^T b)``, from which the solvers take
    their fixed points.  Raises :class:`NoLeverage` when ``A^T A + B^T B`` is
    singular, and an ``OverflowError`` naming the matrix when ``A^T A`` or
    ``A^T a`` (or their B terms) overflows.
    """
    terms = []
    for name, M, v in (("A", A, a), ("B", B, b)):
        try:
            terms.append(LeastSquaresFn(M, v))
        except OverflowError as exc:
            raise OverflowError(f"matrix {name!r}: {exc}") from None
    f, g = terms
    reg = RegularityParams(*f.moduli, *g.moduli)
    try:
        x_star = np.linalg.solve(f.gram + g.gram, f.at_a + g.at_a)
    except np.linalg.LinAlgError:
        raise NoLeverage(
            "A^T A + B^T B is singular, so neither data term is strongly convex "
            "(rho = mu = 0)"
        ) from None
    return CompositeProblem(
        f=f.to_prox_function(),
        g=g.to_prox_function(),
        regularity=reg,
        solution_oracle=x_star,
    )


def generate_instance(m: int, n: int, p: int, seed: int = 0) -> CompositeProblem:
    """Draw ``A = 0.5 * U(0,1)^(n x m)`` and ``B = 15 * U(0,1)^(p x m)``, with
    zero offsets, so that ``x* = 0``."""
    if min(m, n, p) < 1:
        raise ValueError("dimensions must be positive")
    rng = np.random.default_rng(seed)
    A = 0.5 * rng.random((n, m))
    B = 15.0 * rng.random((p, m))
    return make_least_squares_problem(A, None, B, None)


# --- tight two-dimensional contraction check ---------------------------------------


def run_tight_check(
    reg: RegularityParams, steps: int = 20, delta: Optional[float] = None
) -> tuple[float, int]:
    """Max deviation of the per-step contraction ratio from the optimal rate.

    Builds the diagonal quadratic pair whose coordinates contract by exactly
    the optimal factor each step, runs the leveraged recurrence from (1, 1),
    and returns ``(max_n |ratio_n - r*|, steps run)``, the maximum over the
    ratios of two distances of at least ``sqrt(tiny)``, below which their
    squares are subnormal.  The solve stops at the float floor, so fewer
    steps may run than asked.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if reg.alpha <= 0.0 or reg.beta <= 0.0:
        raise ValueError("the tight pair needs alpha > 0 and beta > 0")
    f = QuadraticFunction(0.0, np.zeros(2), np.diag([reg.rho, 1.0 / reg.alpha]))
    g = QuadraticFunction(0.0, np.zeros(2), np.diag([reg.mu, 1.0 / reg.beta]))
    problem = CompositeProblem(
        f=f.to_prox_function(), g=g.to_prox_function(), regularity=reg,
        solution_oracle=np.zeros(2),
    )
    config = SolverConfig(max_iter=steps, tol=1e-300, stopping="residual")
    _, _, trace = solve_method(problem, "prs_lev", config, z0=np.ones(2), delta=delta)
    d = np.asarray(trace.distances)
    kept = np.minimum(d[:-1], d[1:]) >= math.sqrt(np.finfo(float).tiny)
    gaps = np.abs(trace.ratios()[kept] - optimal_rate(reg))
    return float(np.max(gaps, initial=0.0)), trace.iterations


# --- academic benchmark --------------------------------------------------------------


@dataclass(frozen=True)
class MethodStats:
    """Aggregates of one method over the repetitions of one dimension tuple."""

    avg_iterations: float
    median_iterations: float
    avg_time_ms: float
    avg_final_error: float
    unconverged: int


@dataclass(frozen=True)
class BenchmarkRow:
    """The averaged moduli of one dims tuple's instances, and per method its
    aggregates, or ``None`` where its tuning is undefined."""

    dims: tuple[int, int, int]
    avg_moduli: RegularityParams
    methods: dict[str, Optional[MethodStats]]


@dataclass(frozen=True)
class BenchmarkReport:
    rows: list[BenchmarkRow]

    def to_csv(self, path) -> None:
        """Deterministic CSV (timings are excluded: they are hardware noise)."""
        floats = []
        for row in self.rows:
            reg = row.avg_moduli
            floats += (reg.rho, reg.alpha, reg.mu, reg.beta)
            for stats in row.methods.values():
                if stats is not None:
                    floats += (stats.avg_iterations, stats.median_iterations, stats.avg_final_error)
        cells = iter(_float_cells(floats))  # one call per report, spliced back in row order
        rows = []
        for row in self.rows:
            # dims may be numpy integers, which orjson does not write
            prefix = [*map(int, row.dims), *islice(cells, 4)]
            for name, stats in row.methods.items():
                tail = ["-"] * 4 if stats is None else [*islice(cells, 3), int(stats.unconverged)]
                rows.append(prefix + [name] + tail)
        head = b"m,n,p,avg_rho,avg_alpha,avg_mu,avg_beta,method,avg_iterations,median_iterations,avg_final_error,unconverged\n"
        pgm._write_in_place(path, head + _csv_lines(zip(*rows)))


def run_academic_benchmark(
    dims_list: Sequence[tuple[int, int, int]],
    repetitions: int = 30,
    tol: float = 1e-10,
    max_iter: int = 50000,
    seed: int = 0,
    out_path=None,
) -> BenchmarkReport:
    """Average/median iterations to ``||z_k - z*|| <= tol`` per method and dims.

    Each repetition draws a fresh instance (offsets zero, so x* = z* = 0 and
    the final error is ``||z_final||``) and a fresh random starting point.
    Methods whose step-size tuning hypotheses fail are reported as undefined
    (``None``), mirroring the "-" table entries; so is ``prs_lev`` when
    ``rho = mu = 0``.  Every dims tuple is checked before the first solve.
    The report goes to ``out_path``, if given, whose directory is created then.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if any(min(dims) < 1 for dims in dims_list):
        raise ValueError("dimensions must be positive")
    config = SolverConfig(
        max_iter=max_iter, tol=tol, stopping="fixed_point_distance", record_trace=False,
    )
    rows = []
    for di, (m, n, p) in enumerate(dims_list):
        moduli_acc = np.zeros(4)
        # per method, one (iterations, ms, error, converged) tuple per repetition,
        # or None where its tuning is undefined
        results: dict[str, list] = {name: [] for name in BENCH_METHODS}
        for rep in range(repetitions):
            inst_seed = np.random.SeedSequence(entropy=seed, spawn_key=(di, rep))
            problem = generate_instance(m, n, p, seed=int(inst_seed.generate_state(1)[0]))
            reg = problem.regularity
            moduli_acc += (reg.rho, reg.alpha, reg.mu, reg.beta)
            z_rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(di, rep, 1))
            )
            z0 = z_rng.standard_normal(m)
            for name in BENCH_METHODS:
                start = time.perf_counter()
                try:
                    _, z_final, trace = solve_method(problem, name, config, z0=z0)
                except (NoLeverage, NotStronglyRegular):
                    results[name].append(None)
                    continue
                elapsed = 1e3 * (time.perf_counter() - start)
                results[name].append((trace.iterations, elapsed, float(np.linalg.norm(z_final)),
                                      trace.status == "converged"))

        methods = {}
        for name, runs in results.items():
            if None in runs:
                methods[name] = None
                continue
            # integer sums below 2**53 are exact: numpy's mean and median, bit for bit
            iters = sorted(r[0] for r in runs)
            methods[name] = MethodStats(
                avg_iterations=sum(iters) / repetitions,
                median_iterations=(iters[(repetitions - 1) // 2] + iters[repetitions // 2]) / 2,
                avg_time_ms=sum(r[1] for r in runs) / repetitions,
                avg_final_error=float(np.mean([r[2] for r in runs])),
                unconverged=sum(not r[3] for r in runs),
            )
        avg_moduli = RegularityParams(*(moduli_acc / repetitions).tolist())
        rows.append(BenchmarkRow(dims=(m, n, p), avg_moduli=avg_moduli, methods=methods))
    report = BenchmarkReport(rows=rows)
    if out_path is not None:
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        report.to_csv(out_path)
    return report


# --- desk-scale image restoration ----------------------------------------------------


def synthetic_image(side: int = 64, seed: int = 0) -> np.ndarray:
    """Seeded piecewise-smooth test image in [0, 1]: gradient, blobs, one box."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:side, 0:side] / side
    img = 0.25 + 0.3 * xx + 0.15 * yy
    for _ in range(3):
        cx, cy = rng.uniform(0.2, 0.8, size=2)
        radius = rng.uniform(0.08, 0.2)
        amp = rng.uniform(0.2, 0.45)
        img += amp * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * radius ** 2))
    x0, y0 = rng.integers(side // 8, side // 2, size=2)
    w = side // 5
    img[y0:y0 + w, x0:x0 + w] += 0.2
    return np.clip(img, 0.0, 1.0)


@dataclass(frozen=True)
class MethodRun:
    iterations: int
    status: str
    final_x: np.ndarray
    normalized_errors: np.ndarray


@dataclass(frozen=True)
class RestorationReport:
    true_image: np.ndarray
    observed: np.ndarray
    reference: np.ndarray
    reference_status: str
    reference_iterations: int
    regularity: RegularityParams
    runs: dict[str, MethodRun]


def run_restoration_demo(
    image=None,
    side: int = 64,
    sigma: float = 0.5,
    lam: float = 0.07,
    epsilon: float = 0.01,
    level: int = 1,
    noise_var: float = 0.008,
    seed: int = 0,
    methods: Sequence[str] = RESTORE_METHODS,
    tol: float = 1e-12,
    max_iter: int = 1000,
    out_dir=None,
) -> RestorationReport:
    """Deblur a (synthetic or PGM) image with every requested method.

    The observation is a circular Gaussian blur plus seeded Gaussian noise.
    A high-precision leveraged solve provides the common reference minimizer;
    each method then runs with the normalized-error stopping rule against its
    own fixed point and reports its error curve.  ``lam`` is the penalty
    weight lambda.  Invalid parameters raise ``ValueError`` naming the
    parameter before any array is built, and a ``level`` too deep for the
    image raises before any solve.

    The ``prs_lev`` run starts where the reference did, with the same
    parameters, so its iterates are the reference's.  When ``prs_lev`` is
    among ``methods``, the reference solve records its first ``max_iter``
    iterates (a :class:`~prsplit.solvers.Recording`, ``8 N`` bytes per step
    for an image of N pixels), and the ``prs_lev`` run replays them instead
    of computing them again, with the same bits, count and status; the
    recording is dropped after that run.
    """
    if image is None and not side >= 2:
        raise ValueError(f"side must be at least 2, got {side}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    for name, value, ok, what in (
        ("lambda", lam, lam > 0.0, "positive"),
        ("epsilon", epsilon, epsilon > 0.0, "positive"),
        ("noise_var", noise_var, noise_var >= 0.0, "nonnegative"),
    ):
        if not (ok and math.isfinite(value)):
            raise ValueError(f"{name} must be finite and {what}, got {value!r}")
    for name in methods:
        if name not in RESTORE_METHODS:
            raise ValueError(f"unknown method {name!r}")
    config = SolverConfig(max_iter=max_iter, tol=tol, stopping="normalized_error")
    kernel = gaussian_kernel(5, sigma)
    if image is None:
        x_true = synthetic_image(side, seed)
    elif isinstance(image, (str, Path)):
        x_true = pgm.read_pgm(image)
    else:
        x_true = np.asarray(image, dtype=float)
    _check_haar_shape(x_true, level)
    shape = x_true.shape

    blur = BlurOperator(kernel)
    noise_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    observed = blur.apply(x_true) + math.sqrt(noise_var) * noise_rng.standard_normal(shape)

    data_term = OperatorLeastSquares(blur, observed)
    huber = HuberFn(epsilon, lam, level)
    reg = RegularityParams(*data_term.moduli, *huber.moduli)
    problem = CompositeProblem(
        f=data_term.to_prox_function(),
        g=huber.to_prox_function(shape),
        regularity=reg,
    )

    recording = Recording(max_iter) if "prs_lev" in methods else None
    reference, _, reference_trace = _restoration_reference(problem, recording)
    problem = replace(problem, solution_oracle=reference)

    runs: dict[str, MethodRun] = {}
    for name in methods:
        if name == "prs_lev":
            x, _, trace = solve_method(problem, name, config, recording=recording)
            recording = None  # freed before the other methods run
        else:
            x, _, trace = solve_method(problem, name, config)
        # the curve of z_0 ... z_{N-1}: one row per step
        dists = np.array(trace.distances[:-1])
        d0 = dists[0] if len(dists) and dists[0] > 0 else 1.0
        runs[name] = MethodRun(iterations=trace.iterations, status=trace.status,
                               final_x=x, normalized_errors=dists / d0)

    report = RestorationReport(
        true_image=x_true, observed=observed, reference=reference,
        reference_status=reference_trace.status,
        reference_iterations=reference_trace.iterations,
        regularity=reg, runs=runs,
    )
    if out_dir is not None:
        _write_restoration_outputs(report, out_dir)
    return report


def _restoration_reference(
    problem: CompositeProblem, recording: Optional[Recording] = None
) -> tuple[np.ndarray, np.ndarray, SolveTrace]:
    """``(x, z, trace)`` of the shared minimizer's ``prs_lev`` solve, far past
    stopping precision, recorded into ``recording`` when one is given.

    The residual tolerance is 1e-13 up to N = 64 x 64 pixels and grows as
    ``sqrt(N)`` beyond, as the roundoff floor of an N-term sum does (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002): a fixed 1e-13 lies
    under that floor from about 300 x 300 pixels on, and the solve would then
    spend its whole budget.
    """
    tol = 1e-13 * max(1.0, math.sqrt(problem.f.dimension) / 64.0)
    config = SolverConfig(max_iter=5000, tol=tol, stopping="residual")
    return solve_method(problem, "prs_lev", config, recording=recording)


def _write_restoration_outputs(report: RestorationReport, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pgm.write_pgm(out / "true.pgm", report.true_image)
    pgm.write_pgm(out / "observed.pgm", report.observed)
    traces = {}
    longest = 0
    for name, run in report.runs.items():
        pgm.write_pgm(out / f"restored_{name}.pgm", run.final_x)
        errors = _float_cells(run.normalized_errors)
        text = b"iter,normalized_error\n" + _csv_lines((range(len(errors)), errors))
        pgm._write_in_place(out / f"error_{name}.csv", text)
        traces[name] = str(out / f"error_{name}.csv")
        longest = max(longest, run.iterations)
    # the reference solve validated rho + mu > 0, and mu = 0, so rho > 0; the
    # kernel sums to 1, so alpha > 0: the classical tuning is defined too
    bounds = [(f"{name} bound", METHODS[name].rate(report.regularity), longest)
              for name in ("prs_lev", "prs")]
    emit_plot_script(traces, bounds, out / "plot_errors.py")


# --- trace and plot emission ----------------------------------------------------------


def _float_cells(values) -> list:
    """``values`` as Python floats for :func:`_csv_lines`, each one orjson would
    not write in repr's layout replaced by its repr text.

    For finite ``1e-4 <= |v| < 1e16`` and ``|v| < 1e-5`` orjson 3.8.3, the
    release this layout was read from (``pyproject.toml`` pins its 3.8 line),
    writes repr's shortest round-trip digits, and differs at most by a one-digit
    negative exponent (``e-7`` for repr's ``e-07``), which :func:`_csv_lines`
    widens.  It writes ``1e-5 <= |v| < 1e-4`` positionally, ``|v| >= 1e16``
    without the exponent's ``+``, and NaN and infinities as ``null``; those
    cells, a small share of a trace, pass through as repr text.
    """
    array = np.asarray(values, dtype=float)
    cells = array.tolist()
    magnitude = np.abs(array)  # NaN compares false, and passes through
    plain = (magnitude < 1e-5) | ((magnitude >= 1e-4) & (magnitude < 1e16))
    for i in np.flatnonzero(~plain).tolist():
        cells[i] = repr(cells[i])
    return cells


# a one-digit negative exponent ends a float cell, before "," or "]"
_SHORT_EXPONENT = re.compile(rb"e-(?=\d[,\]])")


def _csv_lines(columns) -> bytes:
    """CSV lines of the rows of ``columns`` (no bytes for no rows), whose cells
    are Python ints, strings without ``"``, ``,`` or escapes, and floats from
    :func:`_float_cells`.  Every CSV but ``solution.csv`` is written here.

    One ``orjson.dumps`` call writes every row; three passes over its bytes
    turn the JSON arrays into lines and the floats into repr's text.  orjson
    is imported here, so commands that write no CSV never load it.
    """
    import orjson

    rows = list(zip(*columns))
    text = _SHORT_EXPONENT.sub(b"e-0", orjson.dumps(rows))
    return text[2:-2].replace(b"],[", b"\n").replace(b'"', b"") + b"\n" if rows else b""


def emit_trace(trace: SolveTrace, path) -> None:
    """CSV with header ``iter,residual,dist,ratio`` plus a status comment line.

    Every float cell is ``repr(float(value))``; a row's dist is ``d_n``, and its
    ratio is blank where ``d_n`` is not positive, and both are blank without z*.
    """
    if not trace.residuals:
        raise ValueError("refusing to emit an empty trace")
    residuals = _float_cells(trace.residuals)
    if trace.distances:
        d = np.asarray(trace.distances, dtype=float)
        dist, ratio = _float_cells(d), _float_cells(trace.ratios())
        for i in np.flatnonzero(~(d[:len(ratio)] > 0.0)).tolist():
            ratio[i] = ""
    else:
        dist = ratio = [""] * len(residuals)
    head = f"# status={trace.status}\niter,residual,dist,ratio\n".encode()
    body = _csv_lines((range(len(residuals)), residuals, dist, ratio))
    pgm._write_in_place(path, head + body)


_PLOT_TEMPLATE = '''"""Auto-generated error-vs-iteration plot; run with python."""

import csv
from pathlib import Path

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

TRACES = {traces!r}
BOUNDS = {bounds!r}

fig, ax = plt.subplots(figsize=(7, 4.5))
for label, csv_path in TRACES.items():
    lines = [ln for ln in Path(csv_path).read_text().splitlines()
             if ln and not ln.startswith("#")]
    rows = list(csv.DictReader(lines))
    field = "dist" if rows and rows[0].get("dist") else "normalized_error"
    pts = [(int(r["iter"]), float(r[field])) for r in rows if r.get(field)]
    if pts:
        ax.semilogy([p[0] for p in pts], [p[1] for p in pts], label=label)
for label, values in BOUNDS.items():
    ax.semilogy(range(len(values)), values, "--", label=label)
ax.set_xlabel("iteration")
ax.set_ylabel("error")
ax.legend()
fig.tight_layout()
out = Path(__file__).with_suffix(".png")
fig.savefig(out, dpi=150)
print(f"wrote {{out}}")
'''


def emit_plot_script(
    traces: dict[str, str],
    bound_lines: Sequence[tuple[str, float, int]],
    path,
) -> None:
    """Standalone matplotlib script overlaying trace CSVs with theory lines.

    Each bound line ``(label, rate, length)`` is materialized as the literal
    sequence ``rate**n``, from 1 at n = 0, so the script carries its own data.
    """
    bounds = {}
    for label, rate, length in bound_lines:
        bounds[label] = [float(rate) ** n for n in range(length)]
    # str keys and lists of Python floats: repr writes each float as repr text
    text = _PLOT_TEMPLATE.format(
        traces={k: str(v) for k, v in traces.items()},
        bounds=bounds,
    )
    pgm._write_in_place(path, text.encode())
