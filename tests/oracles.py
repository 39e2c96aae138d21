"""The paper's proof devices, kept as independent references for the tests.

The conjugate-shift closed forms, the regularity transfer, the shifted-prox
identities and solution recovery, prox sanity checks, a brute-force rate
search, the classical PRS rate and a trace reader.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Literal, Union

import numpy as np

from prsplit.core import (
    CompositeProblem,
    LeverageParams,
    ProxFunction,
    RegularityParams,
    SolveTrace,
    TraceRecord,
    validate_regularity,
)
from prsplit.errors import NotStronglyRegular, SplittingError
from prsplit.leverage import QuadraticFunction
from prsplit.rates import _factor


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
    """A base oracle together with the shifts it should be evaluated under.

    ``sign="plus"`` applies ``(delta, eta)`` (the f role); ``sign="minus"``
    applies ``(-delta, -eta)`` (the g role).
    """

    base: ProxFunction
    delta: float
    eta: float
    sign: Literal["plus", "minus"] = "plus"

    def __post_init__(self):
        d, e = self.effective()
        sc, coco = self.base.regularity
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
    shape = fn.shape if fn.shape is not None else (fn.dimension,)
    worst = -math.inf
    for k in range(pairs):
        gamma = gammas[k % len(gammas)]
        x = scale * rng.standard_normal(shape)
        y = scale * rng.standard_normal(shape)
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


def classical_prs_rate(tau: float, reg: RegularityParams):
    """Contraction factor of plain PRS with step ``tau`` (f strongly convex and smooth)."""
    if reg.rho <= 0.0 or reg.alpha <= 0.0:
        raise NotStronglyRegular("classical PRS tuning needs rho > 0 and alpha > 0")
    return np.maximum(
        (tau / reg.alpha - 1.0) / (tau / reg.alpha + 1.0),
        (1.0 - tau * reg.rho) / (1.0 + tau * reg.rho),
    )


def read_trace(path) -> SolveTrace:
    """Inverse of :func:`prsplit.harness.emit_trace`."""
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
    return SolveTrace(records=records, status=status, iterations=len(records))
