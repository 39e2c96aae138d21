"""Experiments: random instances, benchmark loops, the tight contraction
check, image restoration, and CSV/plot emission.

Instances use numpy's seedable PCG64 generator (``default_rng``) with uniform
[0, 1) entries.  Wall times are measured with a monotonic clock and reported,
but excluded from the deterministic CSV output so that identical seeds
produce identical bytes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import pgm
from .core import CompositeProblem, LeverageParams, RegularityParams, SolveTrace
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
from .rates import (
    classical_prs_optimal,
    delta_star,
    drs_optimal_rate,
    optimal_params,
    optimal_rate,
)
from .solvers import Recording, SolverConfig, fista_solve, prs_lev_solve

__all__ = [
    "SOLVE_METHODS",
    "RESTORE_METHODS",
    "BENCH_METHODS",
    "solve_method",
    "InstanceSpec",
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


def _fmt(value) -> str:
    """Round-trippable decimal text for CSV cells."""
    return repr(float(value))


# --- one tuned solve per method name ------------------------------------------------

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
    """Solve by ``method``, tuned by its closed form; ``(x, z, trace)`` with ``z = None`` for FISTA.

    ``prs_lev`` takes the shift ``delta``, else ``delta*``, else the midpoint
    of ``[-rho, mu]`` when ``alpha = 0`` or ``beta = 0`` (``delta*`` is then an
    endpoint, where ``eta = 0`` is out of range; ``r*`` is flat on the
    interval).  ``prs``/``prs1`` take the classical step ``tau`` on f's moduli
    and ``prs2`` on g's, ``drs`` its tuned step and relaxation, unless ``tau``
    is given: all four are one ``prs_lev_solve`` call, the classical ones at
    ``LeverageParams(0, 0, tau)``.  ``fista1`` steps forward on f from the
    origin, and ``fista2`` is ``fista1`` on ``problem.swap()``; ``z0`` starts
    the splitting methods, and ``recording`` goes to their ``prs_lev_solve``
    call.  A ``delta``, ``tau`` or ``recording`` the method does not take, or
    an unknown name, raises ``ValueError``; moduli a classical tuning cannot
    use raise :class:`~prsplit.errors.NotStronglyRegular`.
    """
    reg = problem.regularity
    if delta is not None and method != "prs_lev":
        raise ValueError(f"method {method!r} takes no delta")
    if tau is not None and method in ("prs_lev", "fista1", "fista2"):
        raise ValueError(f"method {method!r} takes no tau")
    if method in ("fista1", "fista2"):
        if recording is not None:
            raise ValueError(f"method {method!r} takes no recording")
        x, trace = fista_solve(problem if method == "fista1" else problem.swap(), config)
        return x, None, trace
    lam = 1.0
    if method == "prs_lev":
        if delta is None:
            endpoint = reg.alpha == 0.0 or reg.beta == 0.0  # where delta* lies then
            delta = (reg.mu - reg.rho) / 2.0 if endpoint else delta_star(reg)
        lp = optimal_params(reg, delta)
    elif method in ("prs", "prs1", "prs2", "drs"):
        if method == "drs":
            tau, lam, _ = drs_optimal_rate(reg, tau)
        elif tau is None:
            tau = classical_prs_optimal(reg.swap() if method == "prs2" else reg)[0]
        lp = LeverageParams(0.0, 0.0, tau)
    else:
        raise ValueError(f"unknown method {method!r}")
    return prs_lev_solve(problem, lp, config, z0, lam=lam, recording=recording)


# --- random least-squares instances (academic benchmark) ---------------------------


@dataclass(frozen=True)
class InstanceSpec:
    """Dimensions, offsets and seed of one random least-squares pair."""

    m: int
    n: int
    p: int
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
    reg = RegularityParams(f.moduli[0], f.moduli[1], g.moduli[0], g.moduli[1])
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


def generate_instance(spec: InstanceSpec) -> CompositeProblem:
    """Draw ``A = 0.5 * U(0,1)^(n x m)`` and ``B = 15 * U(0,1)^(p x m)``."""
    rng = np.random.default_rng(spec.seed)
    A = 0.5 * rng.random((spec.n, spec.m))
    B = 15.0 * rng.random((spec.p, spec.m))
    return make_least_squares_problem(A, spec.offset_a, B, spec.offset_b)


# --- tight two-dimensional contraction check ---------------------------------------


class TightDeviation(float):
    """``max_n |ratio_n - r*|``, with ``steps``, the number of steps that ran."""

    steps: int


def run_tight_check(
    reg: RegularityParams, steps: int = 20, delta: Optional[float] = None
) -> TightDeviation:
    """Max deviation of the per-step contraction ratio from the optimal rate.

    Builds the diagonal quadratic pair whose coordinates contract by exactly
    the optimal factor each step, runs the leveraged recurrence from (1, 1),
    and returns ``max_n |ratio_n - r*|`` over the ratios of two distances of
    at least ``sqrt(tiny)``, below which their squares are subnormal.  The
    solve stops at the float floor, so ``steps`` may be fewer than asked.
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
    deviation = TightDeviation(np.max(gaps, initial=0.0))
    deviation.steps = trace.iterations
    return deviation


# --- academic benchmark --------------------------------------------------------------


@dataclass(frozen=True)
class MethodStats:
    """Aggregates of one method over the repetitions of one dimension tuple."""

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
        pgm._write_in_place(path, ("\n".join(lines) + "\n").encode())


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
    Methods whose step-size tuning hypotheses fail are reported as undefined,
    mirroring the "-" table entries; so is ``prs_lev`` when ``rho = mu = 0``.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    config = SolverConfig(
        max_iter=max_iter, tol=tol, stopping="fixed_point_distance", record_trace=False,
    )
    rows = []
    for di, dims in enumerate(dims_list):
        m, n, p = dims
        moduli_acc = np.zeros(4)
        # per method, one (iterations, ms, error, converged) tuple per repetition,
        # or None where its tuning is undefined
        results: dict[str, list] = {name: [] for name in BENCH_METHODS}
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

        moduli_avg = moduli_acc / repetitions
        methods = {}
        for name in BENCH_METHODS:
            runs = results[name]
            if None in runs:
                methods[name] = MethodStats(defined=False)
                continue
            iters = np.array([r[0] for r in runs], dtype=float)
            methods[name] = MethodStats(
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
    report = BenchmarkReport(rows=rows)
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
    reg = RegularityParams(*data_term.moduli, 0.0, epsilon / lam)
    huber = HuberFn(epsilon, lam, level)
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
        lines = ["iter,normalized_error"]
        lines += [f"{i},{_fmt(v)}" for i, v in enumerate(run.normalized_errors)]
        pgm._write_in_place(out / f"error_{name}.csv", ("\n".join(lines) + "\n").encode())
        traces[name] = str(out / f"error_{name}.csv")
        longest = max(longest, run.iterations)
    # the reference solve validated rho + mu > 0, and mu = 0, so rho > 0; the
    # kernel sums to 1, so alpha > 0: the classical tuning is defined too
    bounds = [("prs_lev bound", optimal_rate(report.regularity), longest),
              ("prs bound", classical_prs_optimal(report.regularity)[1], longest)]
    emit_plot_script(traces, bounds, out / "plot_errors.py")


# --- trace and plot emission ----------------------------------------------------------


def emit_trace(trace: SolveTrace, path) -> None:
    """CSV with header ``iter,residual,dist,ratio`` plus a status comment line."""
    if not trace.residuals:
        raise ValueError("refusing to emit an empty trace")
    # _fmt's text, with the conversions mapped over whole columns
    d = trace.distances
    if d:
        # a row's dist is d_n, and its ratio is blank where d_n is not positive
        dist = map(repr, map(float, d))
        ratio = [repr(r) if prev > 0.0 else "" for prev, r in zip(d, trace.ratios().tolist())]
    else:
        dist = ratio = [""] * len(trace.residuals)
    residuals = map(repr, map(float, trace.residuals))
    lines = [f"# status={trace.status}", "iter,residual,dist,ratio"]
    lines += [f"{n},{res},{dn},{rn}"
              for n, (res, dn, rn) in enumerate(zip(residuals, dist, ratio))]
    pgm._write_in_place(path, ("\n".join(lines) + "\n").encode())


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
    pgm._write_in_place(path, text.encode())
