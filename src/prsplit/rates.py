"""Closed-form convergence-rate calculus for the leveraged scheme and baselines.

All functions are pure and accept numpy arrays in place of scalars, so grids
of parameters evaluate vectorized.  Shared subexpressions (the square roots
``a = sqrt(1+beta*rho)``, ``b = sqrt(rho+mu)``, ``c = sqrt(1+alpha*mu)``,
``d = sqrt(alpha+beta)``) are fused to limit cancellation: the flat-rate
identity is verified numerically to ~1e-12 and sloppy evaluation would eat
that budget.  ``optimal_rate`` has no cancellation at all: it is within a
few ulps of the exact ``r*``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import LeverageParams, RegularityParams, validate_delta, validate_regularity
from .errors import NotStronglyRegular

__all__ = [
    "RateBundle",
    "rate_bundle",
    "optimal_params",
    "optimal_rate",
    "delta_star",
    "rate_constancy_check",
    "classical_prs_optimal",
    "drs_optimal_rate",
    "Method",
    "METHODS",
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


def _factors(tau, eta, delta, reg: RegularityParams):
    """``(r1, r2)``: the f-side factor on f's moduli, and the g-side factor, the
    same expression on g's moduli under ``(eta, delta) -> (-eta, -delta)``."""
    return (_factor(tau, eta, delta, reg.rho, reg.alpha),
            _factor(tau, -eta, -delta, reg.mu, reg.beta))


def rate_bundle(lp: LeverageParams, reg: RegularityParams) -> RateBundle:
    r1, r2 = map(float, _factors(lp.tau, lp.eta, lp.delta, reg))
    return RateBundle(r1=r1, r2=r2, r=r1 * r2, r_star=optimal_rate(reg))


def _sqrt_terms(reg: RegularityParams) -> tuple[float, float, float, float]:
    a = math.sqrt(1.0 + reg.beta * reg.rho)
    b = math.sqrt(reg.rho + reg.mu)
    c = math.sqrt(1.0 + reg.alpha * reg.mu)
    d = math.sqrt(reg.alpha + reg.beta)
    return a, b, c, d


_SPLITTER = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves


def _one_minus_product(x: float, y: float) -> float:
    """``1 - x*y`` with the rounding error of ``x*y`` subtracted too.

    Dekker's two-product gives that error exactly (Python 3.11 has no
    ``math.fma``); the factors are split on their mantissas, which ``frexp``
    puts in [0.5, 1), so no partial product overflows.
    """
    (mx, ex), (my, ey) = math.frexp(x), math.frexp(y)
    p = mx * my
    t = _SPLITTER * mx
    xh = t - (t - mx)
    xl = mx - xh
    t = _SPLITTER * my
    yh = t - (t - my)
    yl = my - yh
    err = ((xh * yh - p) + xh * yl + xl * yh) + xl * yl
    return (1.0 - math.ldexp(p, ex + ey)) - math.ldexp(err, ex + ey)


def optimal_rate(reg: RegularityParams) -> float:
    """Best achievable contraction factor over all admissible (tau, eta, delta).

    ``r* = (ac - bd)/(ac + bd)``, evaluated as ``(1 - alpha*rho)(1 - beta*mu)/(ac + bd)^2``
    (``(ac)^2 - (bd)^2`` is that numerator), with each ``1 - xy`` compensated:
    within a few ulps of the exact value, and exactly 0 at an exact quadratic.
    """
    validate_regularity(reg)
    a, b, c, d = _sqrt_terms(reg)
    s = a * c + b * d  # >= 1, so neither quotient overflows
    # a product that rounds to 1 but lies above it leaves a factor below 0
    return max(0.0, (_one_minus_product(reg.alpha, reg.rho) / s)
               * (_one_minus_product(reg.beta, reg.mu) / s))


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
    r1, r2 = _factors(taus, etas, deltas, reg)
    return float(np.max(np.abs(r1 * r2 - optimal_rate(reg))))


# --- classical baselines -------------------------------------------------------


def classical_prs_optimal(reg: RegularityParams) -> tuple[float, float]:
    """Optimal step and rate for plain PRS: ``tau = sqrt(alpha/rho)``.

    The rate ``(1 - s)/(1 + s)`` with ``s = sqrt(alpha*rho)`` is evaluated as
    ``(1 - alpha*rho)/(1 + s)^2``, with ``1 - alpha*rho`` compensated, so it
    keeps its digits as ``alpha*rho -> 1``, as :func:`optimal_rate` does.
    """
    if reg.rho <= 0.0 or reg.alpha <= 0.0:
        raise NotStronglyRegular("classical PRS tuning needs rho > 0 and alpha > 0")
    tau = math.sqrt(reg.alpha / reg.rho)
    s = math.sqrt(reg.alpha * reg.rho)
    # clamped like optimal_rate: a product that rounds to 1 may lie above it
    return tau, max(0.0, _one_minus_product(reg.alpha, reg.rho) / ((1.0 + s) * (1.0 + s)))


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
    """Per-iteration rate bound of FISTA with its forward step on f.

    ``1 - sqrt(q)`` with ``q = alpha (rho + mu)/(1 + alpha mu)`` is evaluated as
    ``(1 - alpha*rho)/((1 + alpha*mu)(1 + sqrt(q)))``, since ``1 - q`` is
    ``(1 - alpha*rho)/(1 + alpha*mu)``, with ``1 - alpha*rho`` compensated.
    """
    if not (reg.alpha > 0.0 and reg.rho + reg.mu > 0.0):
        raise NotStronglyRegular("FISTA needs alpha > 0 and rho + mu > 0")
    w = 1.0 + reg.alpha * reg.mu
    q = reg.alpha * (reg.rho + reg.mu) / w
    # clamped like classical_prs_optimal
    return max(0.0, _one_minus_product(reg.alpha, reg.rho) / (w * (1.0 + math.sqrt(q))))


# --- the method table: the one place a method name is defined ------------------


class Method(NamedTuple):
    """A method's orientation, tuning and rate.  Of its ``kind``, ``"prs_lev"``
    takes a ``delta``, ``"prs"`` and ``"drs"`` a ``tau``, and ``"fista"`` neither,
    nor a recording.  The solve runs on ``problem.swap()`` if ``swap_problem``;
    ``tuning(moduli, delta, tau)``, a splitting solve's ``(LeverageParams,
    relaxation)``, and ``formula(moduli)``, its rate, read ``reg.swap()`` if
    ``swap_moduli``."""

    name: str
    kind: str
    swap_problem: bool
    swap_moduli: bool
    tuning: Optional[Callable]  # None: FISTA's own step
    formula: Callable

    def rate(self, reg: RegularityParams) -> Optional[float]:
        """The rate on a problem of moduli ``reg``, ``None`` where the tuning is undefined."""
        try:
            return self.formula(reg.swap() if self.swap_moduli else reg)
        except NotStronglyRegular:
            return None


def _leveraged(moduli, delta, tau):
    # delta*, unless alpha = 0 or beta = 0 puts it on an endpoint, where eta = 0 is
    # out of range: then the midpoint of [-rho, mu], as r* is flat on the interval
    if delta is None:
        endpoint = moduli.alpha == 0.0 or moduli.beta == 0.0
        delta = (moduli.mu - moduli.rho) / 2.0 if endpoint else delta_star(moduli)
    return optimal_params(moduli, delta), 1.0


def _classical(moduli, delta, tau):
    return LeverageParams(0.0, 0.0, classical_prs_optimal(moduli)[0] if tau is None else tau), 1.0


def _relaxed(moduli, delta, tau):
    tau, lam, _ = drs_optimal_rate(moduli, tau)
    return LeverageParams(0.0, 0.0, tau), lam


# The tunings and formulas look the rates functions up at call time, so that a
# function replaced on this module (by a test or a tracer) is the one called.
# prs2 runs f first with g's tuning; drs2 has no command.  Among equal rates,
# dominance_report keeps this order.
METHODS = {name: Method(name, *record) for name, *record in (
    ("prs_lev", "prs_lev", False, False, _leveraged, lambda m: optimal_rate(m)),
    ("prs1", "prs", False, False, _classical, lambda m: classical_prs_optimal(m)[1]),
    ("prs2", "prs", False, True, _classical, lambda m: classical_prs_optimal(m)[1]),
    ("drs", "drs", False, False, _relaxed, lambda m: drs_optimal_rate(m)[2]),
    ("drs2", "drs", True, True, _relaxed, lambda m: drs_optimal_rate(m)[2]),
    ("fista1", "fista", False, False, None, lambda m: _fista_rate(m)),
    ("fista2", "fista", True, True, None, lambda m: _fista_rate(m)),
)}
METHODS["prs"] = METHODS["prs1"]  # the name solve and restore use


def dominance_report(reg: RegularityParams) -> list[tuple[str, Optional[float]]]:
    """Every method's rate (:data:`METHODS`, an alias once), ``prs_lev`` first,
    then the baselines ascending, with ``None`` for undefined ones.

    Each baseline's g-first row is its f-first formula on ``reg.swap()``; ``drs``
    is the relaxed-DRS bound ``1/(1+sqrt(beta*rho))`` for f strongly convex and
    g smooth (Giselsson & Boyd, IEEE TAC 2017).

    Under the leveraged hypotheses the leveraged rate is strictly the smallest
    defined entry, with one exception: when one function has ``rho = alpha = 0``
    the leveraged scheme is classical PRS on the other one, and ``r*`` equals
    that entry (within a few ulps, as the two formulas round differently).
    A baseline of 0 (an exact quadratic, where ``r* = 0``) or one that rounds
    to 1 may tie it too; ``r*`` is listed before every entry it ties, even one
    a few ulps below it.  A violation raises ``RuntimeError``.
    """
    # r* first: it validates the moduli
    entries = [(name, method.rate(reg)) for name, method in METHODS.items() if method.name == name]
    r_star = entries[0][1]
    tie = "prs2" if reg.rho == reg.alpha == 0.0 else "prs1" if reg.mu == reg.beta == 0.0 else None
    slack = 4.0 * np.finfo(float).eps
    if not all(r_star < rate or ((name == tie or not slack < rate < 1.0 - slack)
                                 and r_star <= rate + slack)
               for name, rate in entries[1:] if rate is not None):
        defined = [rate for _, rate in entries[1:] if rate is not None]
        raise RuntimeError(f"leveraged rate {r_star} does not dominate {defined}")
    entries[1:] = sorted(entries[1:], key=lambda item: math.inf if item[1] is None else item[1])
    return entries
