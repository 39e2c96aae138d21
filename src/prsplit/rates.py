"""Closed-form convergence-rate calculus for the leveraged scheme and baselines.

All functions are pure and accept numpy arrays in place of scalars, so grids
of parameters evaluate vectorized.  Shared subexpressions (the square roots
``a = sqrt(1+beta*rho)``, ``b = sqrt(rho+mu)``, ``c = sqrt(1+alpha*mu)``,
``d = sqrt(alpha+beta)``) are fused to limit cancellation: the flat-rate
identity is verified numerically to ~1e-12 and sloppy evaluation would eat
that budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import LeverageParams, RegularityParams, validate_delta, validate_regularity
from .errors import NotStronglyRegular

__all__ = [
    "RateBundle",
    "rate_r1",
    "rate_r2",
    "rate_bundle",
    "optimal_params",
    "optimal_rate",
    "delta_star",
    "rate_constancy_check",
    "classical_prs_optimal",
    "drs_optimal_rate",
    "fista_rate_bounds",
    "dominance_report",
]


@dataclass(frozen=True)
class RateBundle:
    """Both contraction factors at given parameters, their product, and the optimum."""

    r1: float
    r2: float
    r: float
    r_star: float


def _factor(tau, eta, delta, sc, coco):
    """max of the two Lipschitz branches of one reflected shifted-prox operator.

    ``sc``/``coco`` are the strong-convexity and cocoercivity moduli of the
    function the operator is built from; the g-side factor is the same
    expression under ``(eta, delta) -> (-eta, -delta)``.
    """
    w = 1.0 + coco * delta
    smooth = ((tau - eta) * w - coco) / ((tau + eta) * w + coco)
    curved = (1.0 - (tau - eta) * (sc + delta)) / (1.0 + (tau + eta) * (sc + delta))
    return np.maximum(smooth, curved)


def rate_r1(lp: LeverageParams, reg: RegularityParams):
    """Contraction factor of the f-side reflected operator."""
    return _factor(lp.tau, lp.eta, lp.delta, reg.rho, reg.alpha)


def rate_r2(lp: LeverageParams, reg: RegularityParams):
    """Contraction factor of the g-side reflected operator (mirrored signs)."""
    return _factor(lp.tau, -lp.eta, -lp.delta, reg.mu, reg.beta)


def rate_bundle(lp: LeverageParams, reg: RegularityParams) -> RateBundle:
    r1 = float(rate_r1(lp, reg))
    r2 = float(rate_r2(lp, reg))
    return RateBundle(r1=r1, r2=r2, r=r1 * r2, r_star=optimal_rate(reg))


def _sqrt_terms(reg: RegularityParams) -> tuple[float, float, float, float]:
    a = math.sqrt(1.0 + reg.beta * reg.rho)
    b = math.sqrt(reg.rho + reg.mu)
    c = math.sqrt(1.0 + reg.alpha * reg.mu)
    d = math.sqrt(reg.alpha + reg.beta)
    return a, b, c, d


def optimal_rate(reg: RegularityParams) -> float:
    """Best achievable contraction factor over all admissible (tau, eta, delta)."""
    validate_regularity(reg)
    a, b, c, d = _sqrt_terms(reg)
    # (ac)^2 - (bd)^2 = (1 - alpha*rho)(1 - beta*mu) >= 0, so r* is 0 at an
    # exact quadratic; rounding leaves it a few ulps either side of 0 there
    return max(0.0, (a * c - b * d) / (a * c + b * d))


def _param_denominator(reg: RegularityParams, delta):
    rho, alpha, mu, beta = reg.rho, reg.alpha, reg.mu, reg.beta
    return (rho + delta) * (mu - delta) * (alpha + beta) + (
        1.0 + alpha * delta
    ) * (1.0 - beta * delta) * (rho + mu)


def _eta_of(reg: RegularityParams, delta):
    rho, alpha, mu, beta = reg.rho, reg.alpha, reg.mu, reg.beta
    num = beta * rho - alpha * mu + delta * (
        alpha * (1.0 + beta * mu) + beta * (1.0 + alpha * rho)
    )
    return num / _param_denominator(reg, delta)


def _tau_of(reg: RegularityParams, delta):
    a, b, c, d = _sqrt_terms(reg)
    return (a * b * c * d) / _param_denominator(reg, delta)


def optimal_params(reg: RegularityParams, delta: float) -> LeverageParams:
    """Rate-optimal ``(eta, tau)`` for a given shift ``delta in [-rho, mu]``.

    At interior ``delta`` the result satisfies :func:`~prsplit.core.validate_leverage`;
    at the endpoints one eta-interval side degenerates and the returned triple
    is the boundary limit (still the right parameters for the rate formulas,
    but rejected by the strict solver validation), except where an exact
    quadratic makes them 0/0, which :func:`~prsplit.core.validate_delta` rejects.
    """
    validate_delta(delta, reg)  # and the moduli
    return LeverageParams(
        delta=float(delta),
        eta=float(_eta_of(reg, delta)),
        tau=float(_tau_of(reg, delta)),
    )


def delta_star(reg: RegularityParams) -> float:
    """The shift with vanishing dual shift: ``eta(delta*) = 0``.

    Lies in ``]-rho, mu[`` whenever both cocoercivity moduli are positive
    (it touches an endpoint exactly when alpha = 0 or beta = 0).
    """
    validate_regularity(reg)
    rho, alpha, mu, beta = reg.rho, reg.alpha, reg.mu, reg.beta
    return (alpha * mu - beta * rho) / (beta * (1.0 + alpha * mu) + alpha * (1.0 + beta * rho))


def rate_constancy_check(reg: RegularityParams, grid_size: int = 101) -> float:
    """Max deviation of ``r1*r2`` at optimal parameters from the flat optimum.

    Evaluates on an interior delta grid with margin ``1e-6*(rho+mu)`` to avoid
    the 0/0 endpoint degeneracies of ``eta(delta)``.
    """
    validate_regularity(reg)
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    margin = 1e-6 * (reg.rho + reg.mu)
    deltas = np.linspace(-reg.rho + margin, reg.mu - margin, grid_size)
    etas = _eta_of(reg, deltas)
    taus = _tau_of(reg, deltas)
    r1 = _factor(taus, etas, deltas, reg.rho, reg.alpha)
    r2 = _factor(taus, -etas, -deltas, reg.mu, reg.beta)
    return float(np.max(np.abs(r1 * r2 - optimal_rate(reg))))


# --- classical baselines -------------------------------------------------------


def classical_prs_optimal(reg: RegularityParams) -> tuple[float, float]:
    """Optimal step and rate for plain PRS: ``tau = sqrt(alpha/rho)``."""
    if reg.rho <= 0.0 or reg.alpha <= 0.0:
        raise NotStronglyRegular("classical PRS tuning needs rho > 0 and alpha > 0")
    tau = math.sqrt(reg.alpha / reg.rho)
    s = math.sqrt(reg.alpha * reg.rho)
    return tau, (1.0 - s) / (1.0 + s)


def drs_optimal_rate(reg: RegularityParams, tau: Optional[float] = None) -> tuple[float, float, float]:
    """Optimal relaxed-splitting rate when f is strongly convex and g smooth.

    Returns ``(tau, lambda, rate)`` with ``rate = 1/(1+sqrt(beta*rho))`` and the
    matching relaxation.  The tuned step is configurable; the default is
    ``sqrt(beta/rho)`` (the moduli the rate itself depends on).
    """
    if reg.rho <= 0.0 or reg.beta <= 0.0:
        raise NotStronglyRegular("DRS tuning needs rho > 0 and beta > 0")
    s = math.sqrt(reg.beta * reg.rho)
    if tau is None:
        tau = math.sqrt(reg.beta / reg.rho)
    lam = (1.0 + s / 2.0) / (1.0 + s)
    return tau, lam, 1.0 / (1.0 + s)


def _fista_rate(reg: RegularityParams) -> float:
    """Per-iteration rate bound of FISTA with its forward step on f."""
    if not (reg.alpha > 0.0 and reg.rho + reg.mu > 0.0):
        raise NotStronglyRegular("FISTA needs alpha > 0 and rho + mu > 0")
    return 1.0 - math.sqrt(reg.alpha * (reg.rho + reg.mu) / (1.0 + reg.alpha * reg.mu))


def _mirrored(formula, reg: RegularityParams) -> tuple[Optional[float], Optional[float]]:
    """``formula`` on ``reg`` and on ``reg.swap()``, ``None`` where it is undefined."""
    rates = []
    for moduli in (reg, reg.swap()):
        try:
            rates.append(formula(moduli))
        except NotStronglyRegular:
            rates.append(None)
    return tuple(rates)


def fista_rate_bounds(reg: RegularityParams) -> tuple[Optional[float], Optional[float]]:
    """Per-iteration rate bounds of FISTA forward on f (needs alpha > 0) and, by the
    same formula on ``reg.swap()``, forward on g (needs beta > 0); ``None`` if undefined."""
    return _mirrored(_fista_rate, reg)


def dominance_report(reg: RegularityParams) -> list[tuple[str, Optional[float]]]:
    """All closed-form rates, ``prs_lev`` first, then the baselines ascending, with
    ``None`` for undefined ones.

    Each baseline's g-first row is its f-first formula on ``reg.swap()``:
    ``prs1``/``prs2`` classical PRS on f's/g's moduli, ``fista1``/``fista2``
    FISTA forward on f/g, ``drs`` the relaxed-DRS bound ``1/(1+sqrt(beta*rho))``
    for f strongly convex and g smooth (Giselsson & Boyd, IEEE TAC 2017), and
    ``drs2`` its mirror ``1/(1+sqrt(alpha*mu))``, g strongly convex, f smooth.

    Under the leveraged hypotheses the leveraged rate is strictly the smallest
    defined entry, with one exception: when one function has ``rho = alpha = 0``
    the leveraged scheme is classical PRS on the other one, and ``r*`` equals
    that entry (within a few ulps, as the two formulas round differently).
    A baseline of 0 (an exact quadratic, where ``r* = 0``) or one that rounds
    to 1 may tie it too; ``r*`` is listed before every entry it ties, even one
    a few ulps below it.  A violation raises ``RuntimeError``.
    """
    r_star = optimal_rate(reg)  # validates the moduli
    entries: list[tuple[str, Optional[float]]] = [("prs_lev", r_star)]
    for names, rates in ((("prs1", "prs2"), _mirrored(lambda r: classical_prs_optimal(r)[1], reg)),
                         (("drs", "drs2"), _mirrored(lambda r: drs_optimal_rate(r)[2], reg)),
                         (("fista1", "fista2"), fista_rate_bounds(reg))):
        entries += zip(names, rates)

    tie = "prs2" if reg.rho == reg.alpha == 0.0 else "prs1" if reg.mu == reg.beta == 0.0 else None
    slack = 4.0 * np.finfo(float).eps
    if not all(r_star < rate or ((name == tie or not slack < rate < 1.0 - slack)
                                 and r_star <= rate + slack)
               for name, rate in entries[1:] if rate is not None):
        defined = [rate for _, rate in entries[1:] if rate is not None]
        raise RuntimeError(f"leveraged rate {r_star} does not dominate {defined}")
    entries[1:] = sorted(entries[1:], key=lambda item: math.inf if item[1] is None else item[1])
    return entries
