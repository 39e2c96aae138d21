"""Domain types, prox-oracle abstraction, hypothesis validation, and z*.

Everything downstream (rates, solvers, harness) assumes inputs that went
through :func:`validate_regularity` / :func:`validate_leverage`; validation
is eager so that hypothesis violations fail with a named error instead of a
cryptic numerical one deep inside an iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Literal, Optional

import numpy as np

from .errors import (
    BoundViolation,
    DeltaOutOfRange,
    EtaOutOfRange,
    NoGradient,
    NoLeverage,
    ShapeMismatch,
    ShiftIncompatible,
    TauTooSmall,
)

__all__ = [
    "RegularityParams",
    "LeverageParams",
    "ProxFunction",
    "CompositeProblem",
    "SolveTrace",
    "validate_regularity",
    "validate_delta",
    "validate_leverage",
    "fixed_point_oracle",
]


def _require_finite_nonnegative(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


@dataclass(frozen=True)
class RegularityParams:
    """Strong-convexity and cocoercivity moduli of a function pair (f, g).

    ``rho``/``mu`` are the strong-convexity moduli of f/g, ``alpha``/``beta``
    the cocoercivity moduli of their (sub)gradients.  A zero modulus means the
    property is absent (mere convexity, or no smoothness).
    """

    rho: float
    alpha: float
    mu: float
    beta: float

    def __post_init__(self):
        for name in ("rho", "alpha", "mu", "beta"):
            _require_finite_nonnegative(name, getattr(self, name))

    def swap(self) -> "RegularityParams":
        """Moduli with the roles of f and g exchanged."""
        return RegularityParams(self.mu, self.beta, self.rho, self.alpha)


@dataclass(frozen=True)
class LeverageParams:
    """Quadratic shift ``delta``, dual shift ``eta``, and step size ``tau``."""

    delta: float
    eta: float
    tau: float

    def __post_init__(self):
        for name in ("delta", "eta", "tau"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    # Denominators of the two prox steps in the leveraged recurrence.  Both
    # are positive whenever tau*|delta| < 1 + delta*eta.
    @property
    def f_scale(self) -> float:
        return 1.0 + self.delta * (self.tau + self.eta)

    @property
    def g_scale(self) -> float:
        return 1.0 - self.delta * (self.tau - self.eta)


def validate_regularity(params: RegularityParams) -> RegularityParams:
    """Check the modulus products and the hypotheses of the leveraged solver.

    A product of exactly 1 (f or g an exact quadratic, where r* = 0) is valid.

    Raises
    ------
    BoundViolation
        if ``alpha*rho > 1`` or ``beta*mu > 1``.
    NoLeverage
        if ``rho + mu = 0`` or ``alpha + beta = 0``.
    """
    ar = params.alpha * params.rho
    bm = params.beta * params.mu
    if ar > 1.0 or bm > 1.0:
        raise BoundViolation(
            f"modulus products must lie in [0, 1]: alpha*rho={ar}, beta*mu={bm}"
        )
    if params.rho + params.mu <= 0.0 or params.alpha + params.beta <= 0.0:
        raise NoLeverage(
            "leveraged solver requires min(rho + mu, alpha + beta) > 0"
        )
    return params


def validate_delta(delta: float, reg: RegularityParams) -> float:
    """Check the moduli, then ``delta in [-rho, mu]`` without the endpoint where
    an exact quadratic (``alpha*rho = 1`` or ``beta*mu = 1``) makes
    ``1 + alpha*delta`` or ``1 - beta*delta`` vanish, and with it the eta interval."""
    validate_regularity(reg)
    if not (-reg.rho <= delta <= reg.mu):
        raise DeltaOutOfRange(f"delta={delta} outside [-rho, mu] = [{-reg.rho}, {reg.mu}]")
    if min(1.0 + reg.alpha * delta, 1.0 - reg.beta * delta) <= 0.0:
        term = "1 + alpha*delta" if delta < 0.0 else "1 - beta*delta"
        raise DeltaOutOfRange(f"delta={delta} makes {term} = 0 (an exact quadratic's endpoint)")
    return delta


def validate_leverage(lp: LeverageParams, reg: RegularityParams) -> LeverageParams:
    """Check the moduli and a shift/step triple against them.

    The admissible set is ``delta`` as :func:`validate_delta` checks it,
    ``eta`` strictly inside ``]-alpha/(1+alpha*delta), beta/(1-beta*delta)[``,
    ``tau > |eta|``, and ``tau*|delta| < 1 + delta*eta``.
    """
    d, e, t = validate_delta(lp.delta, reg), lp.eta, lp.tau
    eta_lo = -reg.alpha / (1.0 + reg.alpha * d)
    eta_hi = reg.beta / (1.0 - reg.beta * d)
    if not (eta_lo < e < eta_hi):
        raise EtaOutOfRange(f"eta={e} outside ]{eta_lo}, {eta_hi}[")
    if t <= abs(e):
        raise TauTooSmall(f"tau={t} must exceed |eta|={abs(e)}")
    if t * abs(d) >= 1.0 + d * e:
        raise ShiftIncompatible(f"tau*|delta|={t * abs(d)} >= 1 + delta*eta={1.0 + d * e}")
    # implied by the checks above, but cheap to enforce: both recurrence
    # denominators are positive
    if not (lp.f_scale > 0.0 and lp.g_scale > 0.0):
        raise ShiftIncompatible(
            f"prox-step denominators must be positive: {lp.f_scale}, {lp.g_scale}"
        )
    return lp


@dataclass(frozen=True)
class ProxFunction:
    """A function known to the solvers only through oracles.

    ``prox(gamma, x)`` must return ``argmin_y  gamma*h(y) + ||y - x||^2 / 2``
    for ``x`` of the array shape ``shape`` (``(m,)`` for a vector), whose
    product is the read-only ``dimension``.  ``gradient`` is optional (the
    splitting steps never call it; the gradient of f gives the fixed point
    z*, and FISTA steps on one).  The moduli of h are not stored here: they
    enter once, as the problem's :class:`RegularityParams`.

    ``resolvent``, also optional, is for a vector-valued prox that is affine:
    ``resolvent(gamma)`` returns ``(M, c)`` with ``prox(gamma, x) = M x + c``
    for an m x m array ``M``.  When f and g both have it, the splitting
    solvers precompose a whole step into one affine map.

    ``hessian``, also optional, is for an affine gradient: the constant
    m x m matrix ``G`` with ``gradient(x) = G x + gradient(0)``.  When FISTA's
    forward function has it and the proxed one has a ``resolvent``, the whole
    forward-backward step is one affine map, built once per solve.

    All oracles must be re-entrant: no interior mutation during calls.
    """

    prox: Callable[[float, np.ndarray], np.ndarray]
    shape: tuple[int, ...]
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    resolvent: Optional[Callable[[float], tuple[np.ndarray, np.ndarray]]] = None
    hessian: Optional[np.ndarray] = None

    def __post_init__(self):
        # each entry, as the product of (-2, -3) is positive
        if not all(n > 0 for n in self.shape):
            raise ValueError(f"dimension must be positive: shape {self.shape}")

    @property
    def dimension(self) -> int:
        return math.prod(self.shape)

    def zero_point(self) -> np.ndarray:
        """The origin of the space this oracle acts on."""
        return np.zeros(self.shape)


@dataclass(frozen=True)
class CompositeProblem:
    """The pair (f, g) to be minimized, plus an optional known minimizer x*.

    With ``solution_oracle`` and a gradient on f, :func:`fixed_point_oracle`
    gives the fixed point z* of every splitting recurrence, and those solvers
    stop on the distance to it by default (FISTA on the distance to x*).
    """

    f: ProxFunction
    g: ProxFunction
    regularity: RegularityParams
    solution_oracle: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.f.dimension != self.g.dimension:
            raise ShapeMismatch(
                f"f and g act on different spaces: {self.f.dimension} != {self.g.dimension}"
            )

    @property
    def dimension(self) -> int:
        return self.f.dimension

    def swap(self) -> "CompositeProblem":
        """The pair (g, f) with its moduli swapped: ``fista2`` is ``fista1`` on it
        (``prs2`` is not, as it runs f first with g's tuning)."""
        return CompositeProblem(self.g, self.f, self.regularity.swap(), self.solution_oracle)


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


@dataclass
class SolveTrace:
    """Terminal status, step count and, when recorded, two float columns.

    ``residuals`` holds one entry per step.  ``distances`` holds
    ``||z_n - z*||`` for ``z_0 ... z_N``, one entry more than ``residuals``,
    and is empty when z* is unknown.  Both stay empty when record capture is
    switched off for speed; ``iterations`` counts steps either way.
    """

    status: Literal["converged", "max_iter", "diverged", "nonfinite"] = "max_iter"
    iterations: int = 0
    residuals: list[float] = field(default_factory=list)
    distances: list[float] = field(default_factory=list)

    def ratios(self) -> np.ndarray:
        """Per-step contraction ``d_{n+1} / d_n``, NaN where z* is unknown or
        ``d_n = 0``, and where both are inf (a solve that stopped ``nonfinite``)."""
        out = np.full(len(self.residuals), math.nan)
        if self.distances:
            d = np.asarray(self.distances)
            with np.errstate(invalid="ignore"):  # inf / inf is that NaN
                np.divide(d[1:], d[:-1], out=out, where=d[:-1] > 0.0)
        return out
