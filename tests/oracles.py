"""The paper's proof devices, kept as independent references for the tests.

The conjugate-shift closed forms, the regularity transfer, the shifted-prox
identities and solution recovery, prox sanity checks, a brute-force rate
search, the classical PRS rate, ``r*`` and the optimal classical PRS and
FISTA rates to 60 digits, the academic instance with offsets, the restore
demo's deblurring pair, per-cell writers of the trace, benchmark and
error-curve CSVs, the trace's reader, the affine splitting step, and the
recorded affine solves stepped one iterate at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from pathlib import Path
from typing import Any, Callable, Literal, Union

import numpy as np

from prsplit.core import (
    CompositeProblem,
    LeverageParams,
    ProxFunction,
    RegularityParams,
    SolveTrace,
    fixed_point_oracle,
    validate_regularity,
)
from prsplit.errors import NotStronglyRegular, SplittingError
from prsplit.harness import make_least_squares_problem, synthetic_image
from prsplit.leverage import QuadraticFunction
from prsplit.proxlib import BlurOperator, HuberFn, OperatorLeastSquares, gaussian_kernel
from prsplit.rates import _factor, delta_star, optimal_params
from prsplit.solvers import SolverConfig, _forward_backward, _Monitor, _norm


class StepDomain(SplittingError):
    pass


class ShiftDomain(SplittingError):
    pass


class TransferDomain(SplittingError):
    """Shift violates the hypotheses of the regularity-transfer formulas."""


def conjugate(q: QuadraticFunction) -> QuadraticFunction:
    """Fenchel conjugate (isotropic, positive curvature only)."""
    if not q.isotropic or q.quad <= 0:
        raise ValueError("conjugate in closed form needs isotropic curvature > 0")
    c = float(q.quad)
    bb = float(np.vdot(q.linear, q.linear))
    return QuadraticFunction(
        offset=bb / (2.0 * c) - q.offset,
        linear=-q.linear / c,
        quad=1.0 / c,
    )


@dataclass(frozen=True)
class AffinePart:
    """``x -> offset + <slope, x>`` (the conjugate collapsed to an affine map)."""

    offset: float
    slope: np.ndarray


@dataclass(frozen=True)
class PointIndicator:
    """``x -> offset`` at ``point``, +infinity elsewhere."""

    point: np.ndarray
    offset: float


@dataclass(frozen=True)
class MinusInfinity:
    """The doubly-shifted conjugate is identically -infinity (not a function)."""


ConjugateShiftResult = Union[QuadraticFunction, AffinePart, PointIndicator, MinusInfinity]


def quadratic_conjugate_shift(
    q: QuadraticFunction, delta: float, eta: float
) -> ConjugateShiftResult:
    """Closed form of the doubly-shifted conjugate of an isotropic quadratic.

    With ``h = a + <b,.> + (c/2)||.||^2`` and ``s = c + delta``:

    * ``delta = -c``      -> affine ``<b,.> + a - (eta/2)||b||^2``
    * ``eta = -1/s``      -> indicator of ``{-b/s}`` with offset ``a - ||b||^2/(2s)``
    * ``eta > -1/s``      -> quadratic with curvature ``s/(1 + eta*s)``
    * otherwise           -> identically -infinity
    """
    if not q.isotropic:
        raise ValueError("closed-form conjugate shifts need an isotropic quadratic")
    c = float(q.quad)
    if delta < -c:
        raise ValueError(f"delta={delta} below -curvature={-c}: shifted function not convex")
    a, b = q.offset, q.linear
    bb = float(np.vdot(b, b))
    if delta == -c:
        return AffinePart(offset=a - 0.5 * eta * bb, slope=b.copy())
    s = c + delta
    if eta == -1.0 / s:
        return PointIndicator(point=-b / s, offset=a - bb / (2.0 * s))
    if eta > -1.0 / s:
        curv = s / (1.0 + eta * s)
        # expand ||x + b/s||^2 / (2(eta + 1/s)) + a - ||b||^2/(2s)
        return QuadraticFunction(
            offset=a - bb / (2.0 * s) + curv * bb / (2.0 * s * s),
            linear=curv * b / s,
            quad=curv,
        )
    return MinusInfinity()


def regularity_transfer(
    moduli: tuple[float, float], delta: float, eta: float
) -> tuple[float, float]:
    """Moduli of the doubly-shifted function from the original ``(sc, coco)``.

    Strong convexity becomes ``(sc+delta)/(1+(sc+delta)*eta)`` (zero at the
    ``delta = -sc`` endpoint, where only plain convexity survives) and
    cocoercivity becomes ``coco/(1+coco*delta) + eta`` (zero at the lower eta
    endpoint).
    """
    sc, coco = moduli
    if sc < 0 or coco < 0 or sc * coco > 1.0:
        raise TransferDomain(f"moduli ({sc}, {coco}) violate sc*coco <= 1")
    if delta < -sc:
        raise TransferDomain(f"delta={delta} < -sc={-sc}")
    coco_shifted = coco / (1.0 + coco * delta)
    if eta < -coco_shifted:
        raise TransferDomain(f"eta={eta} < {-coco_shifted}")
    if sc + delta > 0:
        den = 1.0 + (sc + delta) * eta
        if den <= 0:
            raise TransferDomain("strong-convexity transfer denominator vanished")
        sc_out = (sc + delta) / den
    else:
        sc_out = 0.0
    coco_out = coco_shifted + eta if eta > -coco_shifted else 0.0
    return sc_out, coco_out


@dataclass(frozen=True)
class ShiftedProxSpec:
    """A base function together with the shifts it should be evaluated under.

    ``base`` is any function with ``prox(gamma, x)`` and its
    ``(strong convexity, cocoercivity)`` ``moduli``, as every concrete function
    in ``prsplit.proxlib`` has.  ``sign="plus"`` applies ``(delta, eta)`` (the
    f role); ``sign="minus"`` applies ``(-delta, -eta)`` (the g role).
    """

    base: Any
    delta: float
    eta: float
    sign: Literal["plus", "minus"] = "plus"

    def __post_init__(self):
        d, e = self.effective()
        sc, coco = self.base.moduli
        if d < -sc:
            raise ShiftDomain(f"effective delta={d} < -strong convexity={-sc}")
        # closed lower endpoint: at equality the shifted conjugate exists but
        # carries no smoothness (the transfer formulas report modulus 0)
        if e < -coco / (1.0 + coco * d):
            raise ShiftDomain(f"effective eta={e} < {-coco / (1.0 + coco * d)}")

    def effective(self) -> tuple[float, float]:
        if self.sign == "plus":
            return self.delta, self.eta
        return -self.delta, -self.eta


def _shifted_scale(spec: ShiftedProxSpec, tau: float) -> tuple[float, float, float]:
    d, e = spec.effective()
    if tau <= max(-e, 0.0):
        raise StepDomain(f"tau={tau} must exceed max(-eta, 0)={max(-e, 0.0)}")
    scale = 1.0 + d * (tau + e)
    if scale <= 0.0:
        raise ShiftDomain(f"1 + delta*(tau+eta) = {scale} must be positive")
    return d, e, scale


def shifted_prox(spec: ShiftedProxSpec, tau: float, x: np.ndarray) -> np.ndarray:
    """Prox of ``tau`` times the doubly-shifted function, via the base prox only."""
    _, e, scale = _shifted_scale(spec, tau)
    gamma = (tau + e) / scale
    p = spec.base.prox(gamma, x / scale)
    return (e * x + tau * p) / (tau + e)


def shifted_reflect(spec: ShiftedProxSpec, tau: float, x: np.ndarray) -> np.ndarray:
    """Reflected prox (``2*prox - id``) of the doubly-shifted function."""
    _, e, scale = _shifted_scale(spec, tau)
    gamma = (tau + e) / scale
    p = spec.base.prox(gamma, x / scale)
    return (2.0 * tau * p - (tau - e) * x) / (tau + e)


def recover_solution(
    z_tilde: np.ndarray, problem: CompositeProblem, lp: LeverageParams
) -> np.ndarray:
    """Map a solution of the shifted problem back to the original one.

    With ``eta = 0`` the solution sets coincide; otherwise one extra prox of f
    (``eta > 0``) or g (``eta < 0``) recovers the original minimizer.
    """
    if lp.eta == 0.0:
        return z_tilde
    den = 1.0 + lp.eta * lp.delta
    if den <= 0.0:
        raise ShiftDomain(f"1 + eta*delta = {den} must be positive")
    if lp.eta > 0.0:
        return problem.f.prox(lp.eta / den, z_tilde / den)
    return problem.g.prox(-lp.eta / den, z_tilde / den)


def firm_nonexpansiveness_gap(
    fn: ProxFunction,
    rng: np.random.Generator,
    pairs: int = 100,
    gammas: tuple[float, ...] = (0.5, 1.0, 2.0),
    scale: float = 10.0,
) -> float:
    """Worst violation of ``||p_x - p_y||^2 <= <p_x - p_y, x - y>`` over random pairs.

    Nonpositive (up to roundoff) for any genuine prox.
    """
    worst = -math.inf
    for k in range(pairs):
        gamma = gammas[k % len(gammas)]
        x = scale * rng.standard_normal(fn.shape)
        y = scale * rng.standard_normal(fn.shape)
        px = fn.prox(gamma, x)
        py = fn.prox(gamma, y)
        diff = px - py
        gap = float(np.vdot(diff, diff) - np.vdot(diff, x - y))
        worst = max(worst, gap)
    return worst


def moreau_gap(
    prox_h: Callable[[float, np.ndarray], np.ndarray],
    prox_conj: Callable[[float, np.ndarray], np.ndarray],
    gamma: float,
    x: np.ndarray,
) -> float:
    """``||prox_{gamma h}(x) + gamma * prox_{h*/gamma}(x/gamma) - x||`` (zero in exact arithmetic)."""
    lhs = prox_h(gamma, x) + gamma * prox_conj(1.0 / gamma, x / gamma)
    return float(np.linalg.norm(lhs - x))


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
    validate_regularity(reg)
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


def classical_prs_rate(tau: float, reg: RegularityParams):
    """Contraction factor of plain PRS with step ``tau`` (f strongly convex and smooth)."""
    if reg.rho <= 0.0 or reg.alpha <= 0.0:
        raise NotStronglyRegular("classical PRS tuning needs rho > 0 and alpha > 0")
    return np.maximum(
        (tau / reg.alpha - 1.0) / (tau / reg.alpha + 1.0),
        (1.0 - tau * reg.rho) / (1.0 + tau * reg.rho),
    )


def optimal_rate_reference(reg: RegularityParams) -> Decimal:
    """``r* = (1 - alpha*rho)(1 - beta*mu)/(ac + bd)^2`` in 60-digit decimal
    arithmetic on the exact values of the four doubles; below 0 where a
    product of two of them exceeds 1, though it rounds to 1."""
    with localcontext() as ctx:
        ctx.prec = 60
        rho, alpha, mu, beta = (Decimal(v) for v in (reg.rho, reg.alpha, reg.mu, reg.beta))
        s = ((1 + beta * rho).sqrt() * (1 + alpha * mu).sqrt()
             + (rho + mu).sqrt() * (alpha + beta).sqrt())
        return (1 - alpha * rho) * (1 - beta * mu) / (s * s)


def classical_prs_optimal_reference(reg: RegularityParams) -> Decimal:
    """The optimal classical PRS rate ``(1 - s)/(1 + s)``, ``s = sqrt(alpha*rho)``,
    in 60-digit decimal arithmetic on the exact doubles; below 0 where
    ``alpha*rho`` exceeds 1, though it rounds to 1."""
    with localcontext() as ctx:
        ctx.prec = 60
        s = (Decimal(reg.alpha) * Decimal(reg.rho)).sqrt()
        return (1 - s) / (1 + s)


def fista_rate_reference(reg: RegularityParams) -> Decimal:
    """FISTA's bound ``1 - sqrt(alpha (rho + mu)/(1 + alpha mu))``, forward on
    f, in 60-digit decimal arithmetic on the exact doubles."""
    with localcontext() as ctx:
        ctx.prec = 60
        rho, alpha, mu = (Decimal(v) for v in (reg.rho, reg.alpha, reg.mu))
        return 1 - (alpha * (rho + mu) / (1 + alpha * mu)).sqrt()


def offset_instance(m: int, n: int, p: int, seed: int, a: np.ndarray,
                    b: np.ndarray) -> CompositeProblem:
    """:func:`prsplit.harness.generate_instance`'s pair at ``seed``, with
    offsets ``a`` and ``b``."""
    rng = np.random.default_rng(seed)
    A = 0.5 * rng.random((n, m))
    B = 15.0 * rng.random((p, m))
    return make_least_squares_problem(A, a, B, b)


def restoration_pair(side: int = 16) -> tuple[CompositeProblem, LeverageParams]:
    """The restore demo's Huber+Haar deblurring pair, which has no resolvents,
    and its ``prs_lev`` parameters."""
    blur = BlurOperator(gaussian_kernel(5, 0.5))
    data_term = OperatorLeastSquares(blur, blur.apply(synthetic_image(side)))
    reg = RegularityParams(*data_term.moduli, 0.0, 0.01 / 0.07)
    problem = CompositeProblem(
        f=data_term.to_prox_function(),
        g=HuberFn(0.01, 0.07, level=1).to_prox_function((side, side)),
        regularity=reg,
    )
    return problem, optimal_params(reg, delta_star(reg))


def reference_trace_text(trace: SolveTrace) -> bytes:
    """The bytes :func:`prsplit.harness.emit_trace` writes, one ``repr(float(v))``
    and one f-string per cell: row ``n`` is ``n``, the residual, ``d_n`` and
    ``d_{n+1} / d_n``, that ratio blank where ``d_n`` is not positive, and both
    blank without z*."""
    d = trace.distances
    if d:
        dist = [repr(float(v)) for v in d]
        ratio = [repr(r) if prev > 0.0 else "" for prev, r in zip(d, trace.ratios().tolist())]
    else:
        dist = ratio = [""] * len(trace.residuals)
    lines = [f"# status={trace.status}", "iter,residual,dist,ratio"]
    lines += [f"{n},{float(res)!r},{dn},{rn}"
              for n, (res, dn, rn) in enumerate(zip(trace.residuals, dist, ratio))]
    return ("\n".join(lines) + "\n").encode()



def reference_report_text(report) -> bytes:
    """The bytes :meth:`prsplit.harness.BenchmarkReport.to_csv` writes, one
    ``repr(float(v))`` per float cell: a row per dims and method, whose four
    cells are ``-`` where the method is undefined (``None``)."""
    lines = ["m,n,p,avg_rho,avg_alpha,avg_mu,avg_beta,method,avg_iterations,"
             "median_iterations,avg_final_error,unconverged"]
    for row in report.rows:
        reg = row.avg_moduli
        moduli = (reg.rho, reg.alpha, reg.mu, reg.beta)
        prefix = [str(d) for d in row.dims] + [repr(float(v)) for v in moduli]
        for name, stats in row.methods.items():
            if stats is not None:
                cells = [repr(float(v)) for v in (stats.avg_iterations, stats.median_iterations,
                                                  stats.avg_final_error)]
                cells.append(str(stats.unconverged))
            else:
                cells = ["-"] * 4
            lines.append(",".join(prefix + [name] + cells))
    return ("\n".join(lines) + "\n").encode()


def reference_error_curve_text(errors) -> bytes:
    """The bytes of restore's ``error_<method>.csv``: its header, and row ``n``
    is ``n`` and ``repr(float(errors[n]))``."""
    lines = ["iter,normalized_error"] + [f"{n},{float(e)!r}" for n, e in enumerate(errors)]
    return ("\n".join(lines) + "\n").encode()

def read_trace(path) -> tuple[str, np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`prsplit.harness.emit_trace`: the status and the
    residual, dist and ratio columns, NaN where a cell is blank."""
    lines = Path(path).read_text().strip().splitlines()
    status = lines[0].split("=", 1)[1]
    cells = zip(*(line.split(",")[1:] for line in lines[2:]))
    residuals, dists, ratios = (
        np.array([float(c) if c else math.nan for c in column]) for column in cells
    )
    return status, residuals, dists, ratios


def affine_split_step(
    problem: CompositeProblem, lp: LeverageParams, lam: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """``(T, t)`` of ``prs_lev_solve``'s step ``z -> T z + t`` on a pair with
    two resolvents, built by the solver's own expressions, bit for bit."""
    t, e, sf, sg = lp.tau, lp.eta, lp.f_scale, lp.g_scale
    (M_f, b1), (M_g, b2) = problem.f.resolvent((t + e) / sf), problem.g.resolvent((t - e) / sg)
    A1, A2 = M_f / np.asarray(sf), np.asarray((t - e) / ((t + e) * sg)) * M_g
    c0 = 2.0 * t / (t - e)
    s = lam * c0
    return np.eye(b1.size) + s * (c0 * (A2 @ A1) - A2 - A1), s * (c0 * A2.dot(b1) + b2 - b1)


def stepwise_affine_split(
    problem: CompositeProblem,
    lp: LeverageParams,
    config: SolverConfig,
    z0: np.ndarray,
    z_star=None,
    lam: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, SolveTrace]:
    """``prs_lev_solve`` on a pair with two resolvents and the trace on, one
    step ``z -> T z + t`` at a time, each judged by ``_Monitor.update``.

    ``T`` and ``t`` are :func:`affine_split_step`'s, so the two agree bit for
    bit; only the stepping differs.
    """
    T, shift = affine_split_step(problem, lp, lam)
    t, e, sf = lp.tau, lp.eta, lp.f_scale
    gamma_f = (t + e) / sf
    s = lam * (2.0 * t / (t - e))
    if z_star is not None:
        z_star = np.asarray(z_star, dtype=float)
    elif problem.solution_oracle is not None and problem.f.gradient is not None:
        z_star = fixed_point_oracle(problem, lp)
    z = np.asarray(z0, dtype=float)
    monitor = _Monitor(config, z, z_star)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(config.max_iter):
            z_prev, z = z, T.dot(z) + shift
            if monitor.update(n, _norm(z - z_prev) / s, z):
                break
        return problem.f.prox(gamma_f, z / sf), z, monitor.trace


def stepwise_affine_fista(
    problem: CompositeProblem, config: SolverConfig
) -> tuple[np.ndarray, SolveTrace]:
    """``fista_solve`` on a pair whose step is affine, with the trace on, one
    step ``x = P y + p`` at a time, each judged by ``_Monitor.update``.  The
    momentum is the solver's product ``(-beta, 1 + beta) . (x_prev, x_next)``,
    on the two iterates stacked into a fresh array."""
    reg = problem.regularity
    gamma = reg.alpha
    q = min(gamma * (reg.rho + reg.mu), 1.0)
    beta = (1.0 - math.sqrt(q)) / (1.0 + math.sqrt(q))
    coef = np.array([-beta, 1.0 + beta])
    P, p = _forward_backward(problem.f, problem.g, gamma)
    x = y = problem.f.zero_point()
    monitor = _Monitor(config, x, problem.solution_oracle)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(config.max_iter):
            x_next = P.dot(y)
            x_next += p
            residual = _norm(x_next - y)
            y = coef.dot(np.stack([x, x_next]))
            x = x_next
            if monitor.update(n, residual, x):
                break
    return x, monitor.trace
