"""Experiments: random instances, fixed-point oracles, benchmark loops,
rate-verification sweeps, and CSV/plot emission.

Instances use numpy's seedable PCG64 generator (``default_rng``) with uniform
[0, 1) entries.  Wall times are measured with a monotonic clock and reported,
but excluded from the deterministic CSV output so that identical seeds
produce identical bytes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import pgm
from .core import (
    CompositeProblem,
    LeverageParams,
    RegularityParams,
    SolveTrace,
    TraceRecord,
    validate_regularity,
)
from .errors import NoGradient, SplittingError
from .leverage import QuadraticFunction
from .proxlib import (
    BlurOperator,
    HaarTransform,
    HuberFn,
    LeastSquaresFn,
    OperatorLeastSquares,
    gaussian_kernel,
)
from .rates import (
    _factor,
    classical_prs_optimal,
    delta_star,
    optimal_params,
    optimal_rate,
)
from .solvers import SolverConfig, fista_solve, prs_classic_solve, prs_lev_solve

__all__ = [
    "InstanceSpec",
    "make_least_squares_problem",
    "generate_instance",
    "fixed_point_oracle",
    "run_tight_check",
    "GridRateSearch",
    "grid_search_rate",
    "MethodStats",
    "BenchmarkRow",
    "BenchmarkReport",
    "run_academic_benchmark",
    "synthetic_image",
    "MethodRun",
    "RestorationReport",
    "run_restoration_demo",
    "emit_trace",
    "read_trace",
    "emit_plot_script",
]


def _fmt(value) -> str:
    """Round-trippable decimal text for CSV cells."""
    return repr(float(value))


# --- random least-squares instances (academic benchmark) ---------------------------


@dataclass(frozen=True)
class InstanceSpec:
    """Dimensions, scales, offsets and seed of one random least-squares pair."""

    m: int
    n: int
    p: int
    scale_a: float = 0.5
    scale_b: float = 15.0
    seed: int = 0
    offset_a: Optional[np.ndarray] = None
    offset_b: Optional[np.ndarray] = None

    def __post_init__(self):
        if min(self.m, self.n, self.p) < 1:
            raise ValueError("dimensions must be positive")


def make_least_squares_problem(
    A: np.ndarray,
    a: Optional[np.ndarray],
    B: np.ndarray,
    b: Optional[np.ndarray],
) -> CompositeProblem:
    """Composite problem for half squared residuals of two linear systems.

    Attaches the normal-equations solution
    ``x* = (A^T A + B^T B)^{-1} (A^T a + B^T b)`` and :func:`fixed_point_oracle`.
    """
    f = LeastSquaresFn(A, a)
    g = LeastSquaresFn(B, b)
    reg = RegularityParams(f.moduli[0], f.moduli[1], g.moduli[0], g.moduli[1])
    problem = CompositeProblem(
        f=f.to_prox_function(),
        g=g.to_prox_function(),
        regularity=reg,
        solution_oracle=np.linalg.solve(f.gram + g.gram, f.at_a + g.at_a),
    )
    return replace(problem, fixed_point_oracle=partial(fixed_point_oracle, problem))


def generate_instance(spec: InstanceSpec) -> CompositeProblem:
    """Draw ``A = scale_a * U(0,1)^(n x m)`` and ``B = scale_b * U(0,1)^(p x m)``."""
    rng = np.random.default_rng(spec.seed)
    A = spec.scale_a * rng.random((spec.n, spec.m))
    B = spec.scale_b * rng.random((spec.p, spec.m))
    return make_least_squares_problem(A, spec.offset_a, B, spec.offset_b)


def fixed_point_oracle(problem: CompositeProblem, lp: LeverageParams) -> np.ndarray:
    """z* of the leveraged recurrence from a known minimizer and grad f.

    ``delta = eta = 0`` gives the classical fixed point ``x* + tau grad_f(x*)``.
    """
    if problem.f.gradient is None:
        raise NoGradient("fixed-point oracle needs a gradient oracle on f")
    if problem.solution_oracle is None:
        raise ValueError("fixed-point oracle needs a known minimizer")
    x_star = problem.solution_oracle
    span = lp.tau + lp.eta
    return (1.0 + lp.delta * span) * x_star + span * problem.f.gradient(x_star)


# --- tight two-dimensional contraction check ---------------------------------------


def run_tight_check(
    reg: RegularityParams,
    steps: int = 20,
    delta: Optional[float] = None,
    z0: Optional[np.ndarray] = None,
) -> float:
    """Max deviation of the per-step contraction ratio from the optimal rate.

    Builds the diagonal quadratic pair whose coordinates contract by exactly
    the optimal factor each step, runs the leveraged recurrence from (1, 1)
    by default, and returns ``max_n |ratio_n - r*|`` (0.0 when no ratio is
    defined, e.g. starting at the fixed point).
    """
    validate_regularity(reg, "leveraged")
    if reg.alpha <= 0.0 or reg.beta <= 0.0:
        raise ValueError("the tight pair needs alpha > 0 and beta > 0")
    f = QuadraticFunction(0.0, np.zeros(2), np.diag([reg.rho, 1.0 / reg.alpha]))
    g = QuadraticFunction(0.0, np.zeros(2), np.diag([reg.mu, 1.0 / reg.beta]))
    origin = np.zeros(2)
    problem = CompositeProblem(
        f=f.to_prox_function(), g=g.to_prox_function(), regularity=reg,
        solution_oracle=origin,
        fixed_point_oracle=lambda lp: origin,
    )
    lp = optimal_params(reg, delta_star(reg) if delta is None else delta)
    config = SolverConfig(max_iter=steps, tol=1e-300, stopping="residual")
    _, _, trace = prs_lev_solve(
        problem, lp, config, z0=np.ones(2) if z0 is None else z0
    )
    r_star = optimal_rate(reg)
    deviations = [
        abs(rec.contraction_ratio - r_star)
        for rec in trace.records
        if rec.contraction_ratio is not None
    ]
    return max(deviations, default=0.0)


# --- brute-force parameter search (verification oracle) ----------------------------


@dataclass(frozen=True)
class GridRateSearch:
    """Argmin and value of a 2-D grid minimization of the rate over (tau, eta)."""

    tau: float
    eta: float
    rate: float
    tau_resolution: float
    eta_resolution: float


def grid_search_rate(
    reg: RegularityParams,
    delta: float,
    grid: int = 41,
    refinements: int = 3,
) -> GridRateSearch:
    """Minimize ``r1*r2`` over the admissible (tau, eta) box at fixed delta.

    Pure brute force with repeated zooming; independent of the closed-form
    optimizer so it can serve as its oracle.  The initial tau cap comes from
    the branch-crossing values at the eta endpoints, which bound the optimum.
    """
    validate_regularity(reg, "leveraged")
    rho, alpha, mu, beta = reg.rho, reg.alpha, reg.mu, reg.beta
    if not (-rho < delta < mu):
        raise ValueError("grid search needs an interior delta")
    eta_lo = -alpha / (1.0 + alpha * delta)
    eta_hi = beta / (1.0 - beta * delta)
    pad = 1e-6 * (eta_hi - eta_lo)
    lo, hi = eta_lo + pad, eta_hi - pad
    af = alpha / (1.0 + alpha * delta)
    bg = beta / (1.0 - beta * delta)
    tau_cross_f = math.sqrt((af + hi) * (1.0 / (rho + delta) + hi))
    tau_cross_g = math.sqrt((bg - lo) * (1.0 / (mu - delta) - lo))
    tau_lo, tau_hi = 0.0, 2.0 * max(tau_cross_f, tau_cross_g)

    best = (math.inf, math.nan, math.nan)
    for _ in range(refinements + 1):
        taus = np.linspace(tau_lo, tau_hi, grid)
        etas = np.linspace(lo, hi, grid)
        tt, ee = np.meshgrid(taus, etas, indexing="ij")
        r1 = _factor(tt, ee, delta, rho, alpha)
        r2 = _factor(tt, -ee, -delta, mu, beta)
        rate = r1 * r2
        valid = (tt > np.abs(ee)) & (tt * abs(delta) < 1.0 + delta * ee)
        rate = np.where(valid, rate, math.inf)
        i, j = np.unravel_index(np.argmin(rate), rate.shape)
        best = (float(rate[i, j]), float(tt[i, j]), float(ee[i, j]))
        dt = taus[1] - taus[0]
        de = etas[1] - etas[0]
        # a 4-cell window keeps the narrow diagonal valley of the product
        # inside the zoom while still shrinking the span by 5x per pass
        tau_lo = max(0.0, taus[i] - 4.0 * dt)
        tau_hi = taus[i] + 4.0 * dt
        lo = max(eta_lo + pad, etas[j] - 4.0 * de)
        hi = min(eta_hi - pad, etas[j] + 4.0 * de)
    return GridRateSearch(
        tau=best[1], eta=best[2], rate=best[0],
        tau_resolution=float(dt), eta_resolution=float(de),
    )


# --- academic benchmark --------------------------------------------------------------


@dataclass(frozen=True)
class MethodStats:
    """Aggregates of one method over the repetitions of one dimension tuple."""

    method: str
    defined: bool
    avg_iterations: Optional[float] = None
    median_iterations: Optional[float] = None
    avg_time_ms: Optional[float] = None
    avg_final_error: Optional[float] = None
    unconverged: int = 0


@dataclass(frozen=True)
class BenchmarkRow:
    dims: tuple[int, int, int]
    avg_rho: float
    avg_alpha: float
    avg_mu: float
    avg_beta: float
    methods: dict[str, MethodStats] = field(default_factory=dict)


@dataclass(frozen=True)
class BenchmarkReport:
    rows: list[BenchmarkRow]
    repetitions: int
    tol: float
    seed: int

    def to_csv(self, path) -> None:
        """Deterministic CSV (timings are excluded: they are hardware noise)."""
        lines = ["m,n,p,avg_rho,avg_alpha,avg_mu,avg_beta,method,avg_iterations,median_iterations,avg_final_error,unconverged"]
        for row in self.rows:
            prefix = ",".join(
                [str(d) for d in row.dims]
                + [_fmt(row.avg_rho), _fmt(row.avg_alpha), _fmt(row.avg_mu), _fmt(row.avg_beta)]
            )
            for name, stats in row.methods.items():
                if stats.defined:
                    cells = [
                        _fmt(stats.avg_iterations),
                        _fmt(stats.median_iterations),
                        _fmt(stats.avg_final_error),
                        str(stats.unconverged),
                    ]
                else:
                    cells = ["-", "-", "-", "-"]
                lines.append(f"{prefix},{name}," + ",".join(cells))
        Path(path).write_text("\n".join(lines) + "\n")


_BENCH_METHODS = ("prs_lev", "prs1", "prs2")


def run_academic_benchmark(
    dims_list: Sequence[tuple[int, int, int]],
    repetitions: int = 30,
    tol: float = 1e-10,
    max_iter: int = 50000,
    seed: int = 0,
    out_path=None,
) -> BenchmarkReport:
    """Average/median iterations to ``||z_k - z*|| <= tol`` per method and dims.

    Each repetition draws a fresh instance (offsets zero, so x* = z* = 0) and
    a fresh random starting point.  Methods whose step-size tuning hypotheses
    fail are reported as undefined, mirroring the "-" table entries.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    rows = []
    for di, dims in enumerate(dims_list):
        m, n, p = dims
        moduli_acc = np.zeros(4)
        results: dict[str, list] = {name: [] for name in _BENCH_METHODS}
        defined: dict[str, bool] = {name: True for name in _BENCH_METHODS}
        for rep in range(repetitions):
            inst_seed = np.random.SeedSequence(entropy=seed, spawn_key=(di, rep))
            spec = InstanceSpec(m=m, n=n, p=p, seed=int(inst_seed.generate_state(1)[0]))
            problem = generate_instance(spec)
            reg = problem.regularity
            moduli_acc += (reg.rho, reg.alpha, reg.mu, reg.beta)
            z_rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(di, rep, 1))
            )
            z0 = z_rng.standard_normal(m)
            config = SolverConfig(
                max_iter=max_iter, tol=tol,
                stopping="fixed_point_distance", record_trace=False,
            )

            def _run(name, solve, step, lp):
                start = time.perf_counter()
                z_star = problem.fixed_point_oracle(lp)
                _, z_final, trace = solve(problem, step, config, z0=z0, z_star=z_star)
                elapsed = 1e3 * (time.perf_counter() - start)
                err = float(np.linalg.norm(z_final - z_star))
                results[name].append(
                    (trace.iterations, elapsed, err, trace.status == "converged")
                )

            lp = optimal_params(reg, delta_star(reg))
            _run("prs_lev", prs_lev_solve, lp, lp)
            if reg.rho > 0.0 and reg.alpha > 0.0:
                tau1 = classical_prs_optimal(reg)[0]
                _run("prs1", prs_classic_solve, tau1, LeverageParams(0.0, 0.0, tau1))
            else:
                defined["prs1"] = False
            if reg.mu > 0.0 and reg.beta > 0.0:
                tau2 = classical_prs_optimal(reg.swap())[0]
                _run("prs2", prs_classic_solve, tau2, LeverageParams(0.0, 0.0, tau2))
            else:
                defined["prs2"] = False

        moduli_avg = moduli_acc / repetitions
        methods = {}
        for name in _BENCH_METHODS:
            runs = results[name]
            if not defined[name] or not runs:
                methods[name] = MethodStats(method=name, defined=False)
                continue
            iters = np.array([r[0] for r in runs], dtype=float)
            methods[name] = MethodStats(
                method=name,
                defined=True,
                avg_iterations=float(iters.mean()),
                median_iterations=float(np.median(iters)),
                avg_time_ms=float(np.mean([r[1] for r in runs])),
                avg_final_error=float(np.mean([r[2] for r in runs])),
                unconverged=sum(1 for r in runs if not r[3]),
            )
        rows.append(
            BenchmarkRow(
                dims=(m, n, p),
                avg_rho=float(moduli_avg[0]),
                avg_alpha=float(moduli_avg[1]),
                avg_mu=float(moduli_avg[2]),
                avg_beta=float(moduli_avg[3]),
                methods=methods,
            )
        )
    report = BenchmarkReport(rows=rows, repetitions=repetitions, tol=tol, seed=seed)
    if out_path is not None:
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
    method: str
    iterations: int
    status: str
    final_x: np.ndarray
    normalized_errors: np.ndarray


@dataclass(frozen=True)
class RestorationReport:
    true_image: np.ndarray
    observed: np.ndarray
    reference: np.ndarray
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
    methods: Sequence[str] = ("prs_lev", "prs", "fista1", "fista2"),
    tol: float = 1e-12,
    max_iter: int = 1000,
    out_dir=None,
) -> RestorationReport:
    """Deblur a (synthetic or PGM) image with every requested method.

    The observation is a circular Gaussian blur plus seeded Gaussian noise.
    A high-precision leveraged solve provides the common reference minimizer;
    each method then runs with the normalized-error stopping rule against its
    own fixed point and reports its error curve.
    """
    if image is None:
        x_true = synthetic_image(side, seed)
    elif isinstance(image, (str, Path)):
        x_true = pgm.read_pgm(image)
    else:
        x_true = np.asarray(image, dtype=float)
    shape = x_true.shape

    blur = BlurOperator(gaussian_kernel(5, sigma))
    noise_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    observed = blur.apply(x_true) + math.sqrt(noise_var) * noise_rng.standard_normal(shape)

    data_term = OperatorLeastSquares(blur, observed)
    reg = RegularityParams(*data_term.moduli, 0.0, epsilon / lam)
    huber = HuberFn(epsilon, lam, HaarTransform(level))
    problem = CompositeProblem(
        f=data_term.to_prox_function(),
        g=huber.to_prox_function(shape),
        regularity=reg,
    )

    reference = _restoration_reference(problem)
    problem = replace(problem, solution_oracle=reference)
    problem = replace(problem, fixed_point_oracle=partial(fixed_point_oracle, problem))

    config = SolverConfig(max_iter=max_iter, tol=tol, stopping="normalized_error")
    runs: dict[str, MethodRun] = {}
    for name in methods:
        if name == "prs_lev":
            lp = optimal_params(reg, delta_star(reg))
            x, _, trace = prs_lev_solve(problem, lp, config)
        elif name == "prs":
            tau = classical_prs_optimal(reg)[0]
            x, _, trace = prs_classic_solve(problem, tau, config)
        elif name == "fista1":
            x, trace = fista_solve(problem, "forward_on_f", config)
        elif name == "fista2":
            x, trace = fista_solve(problem, "forward_on_g", config)
        else:
            raise ValueError(f"unknown method {name!r}")
        dists = trace.distances()
        d0 = dists[0] if len(dists) and dists[0] > 0 else 1.0
        runs[name] = MethodRun(
            method=name,
            iterations=trace.iterations,
            status=trace.status,
            final_x=x,
            normalized_errors=dists / d0,
        )

    report = RestorationReport(
        true_image=x_true, observed=observed, reference=reference,
        regularity=reg, runs=runs,
    )
    if out_dir is not None:
        _write_restoration_outputs(report, out_dir)
    return report


def _restoration_reference(problem: CompositeProblem) -> np.ndarray:
    """Shared minimizer at far-beyond-stopping precision (residual 1e-13)."""
    reg = problem.regularity
    config = SolverConfig(max_iter=5000, tol=1e-13, stopping="residual")
    try:
        validate_regularity(reg, "leveraged")
        lp = optimal_params(reg, delta_star(reg))
        x, _, _ = prs_lev_solve(problem, lp, config)
        return x
    except SplittingError:
        # degenerate moduli (e.g. an exactly quadratic data term): fall back
        # to plain PRS, which only needs rho > 0 and alpha > 0
        tau = classical_prs_optimal(reg)[0]
        x, _, _ = prs_classic_solve(problem, tau, config)
        return x


def _write_restoration_outputs(report: RestorationReport, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pgm.write_pgm(out / "true.pgm", report.true_image)
    pgm.write_pgm(out / "observed.pgm", report.observed)
    traces = {}
    longest = 0
    for name, run in report.runs.items():
        pgm.write_pgm(out / f"restored_{name}.pgm", run.final_x)
        lines = ["iter,normalized_error"]
        lines += [f"{i},{_fmt(v)}" for i, v in enumerate(run.normalized_errors)]
        (out / f"error_{name}.csv").write_text("\n".join(lines) + "\n")
        traces[name] = str(out / f"error_{name}.csv")
        longest = max(longest, run.iterations)
    bounds = []
    try:
        bounds.append(("prs_lev bound", optimal_rate(report.regularity), 1.0, longest))
    except SplittingError:
        pass
    try:
        bounds.append(
            ("prs bound", classical_prs_optimal(report.regularity)[1], 1.0, longest)
        )
    except SplittingError:
        pass
    emit_plot_script(traces, bounds, out / "plot_errors.py")


# --- trace and plot emission ----------------------------------------------------------


def emit_trace(trace: SolveTrace, path) -> None:
    """CSV with header ``iter,residual,dist,ratio`` plus a status comment line."""
    if not trace.records:
        raise ValueError("refusing to emit an empty trace")
    lines = [f"# status={trace.status}", "iter,residual,dist,ratio"]
    for rec in trace.records:
        dist = "" if rec.dist_to_fixed_point is None else _fmt(rec.dist_to_fixed_point)
        ratio = "" if rec.contraction_ratio is None else _fmt(rec.contraction_ratio)
        lines.append(f"{rec.iteration},{_fmt(rec.residual)},{dist},{ratio}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_trace(path) -> SolveTrace:
    """Inverse of :func:`emit_trace`."""
    lines = Path(path).read_text().strip().splitlines()
    status = lines[0].split("=", 1)[1]
    records = []
    for line in lines[2:]:
        it, residual, dist, ratio = line.split(",")
        records.append(
            TraceRecord(
                iteration=int(it),
                residual=float(residual),
                dist_to_fixed_point=float(dist) if dist else None,
                contraction_ratio=float(ratio) if ratio else None,
            )
        )
    return SolveTrace(records=records, status=status, total_iterations=len(records))


_PLOT_TEMPLATE = '''"""Auto-generated error-vs-iteration plot; run with python."""

import csv
from pathlib import Path

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

TRACES = {traces!r}
BOUNDS = {bounds_literal}

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
    bound_lines: Sequence[tuple[str, float, float, int]],
    path,
) -> None:
    """Standalone matplotlib script overlaying trace CSVs with theory lines.

    Each bound line ``(label, rate, dist0, length)`` is materialized as the
    literal sequence ``dist0 * rate**n`` so the script carries its own data.
    """
    bounds = {}
    for label, rate, dist0, length in bound_lines:
        bounds[label] = [float(dist0) * float(rate) ** n for n in range(length)]
    bounds_literal = (
        "{"
        + ", ".join(
            f"{label!r}: [" + ", ".join(_fmt(v) for v in values) + "]"
            for label, values in bounds.items()
        )
        + "}"
    )
    text = _PLOT_TEMPLATE.format(
        traces={k: str(v) for k, v in traces.items()},
        bounds_literal=bounds_literal,
    )
    Path(path).write_text(text)
