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
    DegenerateQuadratic,
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
    "TraceRecord",
    "SolveTrace",
    "validate_regularity",
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


def validate_regularity(
    params: RegularityParams,
    mode: Literal["general", "leveraged"] = "general",
) -> RegularityParams:
    """Check the modulus products and, for ``mode='leveraged'``, the solver hypotheses.

    Raises
    ------
    BoundViolation
        if ``alpha*rho > 1`` or ``beta*mu > 1``.
    DegenerateQuadratic
        leveraged mode with ``max(alpha*rho, beta*mu) = 1`` (exact quadratic).
    NoLeverage
        leveraged mode with ``rho + mu = 0`` or ``alpha + beta = 0``.
    """
    if mode not in ("general", "leveraged"):
        raise ValueError(f"unknown mode {mode!r}")
    ar = params.alpha * params.rho
    bm = params.beta * params.mu
    if ar > 1.0 or bm > 1.0:
        raise BoundViolation(
            f"modulus products must lie in [0, 1]: alpha*rho={ar}, beta*mu={bm}"
        )
    if mode == "leveraged":
        if max(ar, bm) >= 1.0:
            raise DegenerateQuadratic(
                "leveraged solver requires max(alpha*rho, beta*mu) < 1"
            )
        if params.rho + params.mu <= 0.0 or params.alpha + params.beta <= 0.0:
            raise NoLeverage(
                "leveraged solver requires min(rho + mu, alpha + beta) > 0"
            )
    return params


def validate_leverage(lp: LeverageParams, reg: RegularityParams) -> LeverageParams:
    """Check a shift/step triple against the validated moduli.

    The admissible set is ``delta in [-rho, mu]``, ``eta`` strictly inside
    ``]-alpha/(1+alpha*delta), beta/(1-beta*delta)[``, ``tau > |eta|``, and
    ``tau*|delta| < 1 + delta*eta``.
    """
    d, e, t = lp.delta, lp.eta, lp.tau
    if not (-reg.rho <= d <= reg.mu):
        raise DeltaOutOfRange(f"delta={d} outside [-rho, mu] = [{-reg.rho}, {reg.mu}]")
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


def _moduli_from_spectrum(w: np.ndarray, size: int) -> tuple[float, float]:
    """``(rho, alpha)`` of a quadratic from the eigenvalues ``w`` of its Hessian.

    ``rho`` is the smallest eigenvalue, reported as 0 (absent) below the
    numerical rank tolerance ``max(w) * size * eps``, e.g. for a wide or
    rank-deficient A in ``A^T A``; ``alpha`` is the reciprocal of the largest.
    An all-zero Hessian has neither property: ``(0.0, 0.0)``.
    """
    lam_max = float(w.max())
    if lam_max <= 0.0:
        return 0.0, 0.0
    lam_min = float(w.min())
    rho = lam_min if lam_min > lam_max * size * np.finfo(float).eps else 0.0
    return rho, 1.0 / lam_max


@dataclass(frozen=True)
class ProxFunction:
    """A function known to the solvers only through oracles.

    ``prox(gamma, x)`` must return ``argmin_y  gamma*h(y) + ||y - x||^2 / 2``.
    ``value`` and ``gradient`` are optional (the splitting steps never call
    them; the gradient of f gives the fixed point z*, and FISTA steps on one).
    Extended-real values use ``math.inf`` as the +infinity sentinel.

    All oracles must be re-entrant: no interior mutation during calls.
    """

    prox: Callable[[float, np.ndarray], np.ndarray]
    dimension: int
    regularity: tuple[float, float] = (0.0, 0.0)
    value: Optional[Callable[[np.ndarray], float]] = None
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    shape: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if self.dimension <= 0:
            raise ValueError("dimension must be positive")
        sc, coco = self.regularity
        _require_finite_nonnegative("strong-convexity modulus", sc)
        _require_finite_nonnegative("cocoercivity modulus", coco)
        if self.shape is not None and int(np.prod(self.shape)) != self.dimension:
            raise ShapeMismatch(f"shape {self.shape} does not match dimension {self.dimension}")

    def zero_point(self) -> np.ndarray:
        """The origin of the space this oracle acts on."""
        return np.zeros(self.shape if self.shape is not None else self.dimension)


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


@dataclass(frozen=True)
class TraceRecord:
    """One iteration of a solve: residual, and distance/ratio when z* is known."""

    iteration: int
    residual: float
    dist_to_fixed_point: Optional[float] = None
    contraction_ratio: Optional[float] = None


@dataclass
class SolveTrace:
    """Per-iteration records plus the terminal status of a solve.

    ``iterations`` counts steps even when record capture is switched off for
    speed.
    """

    records: list[TraceRecord] = field(default_factory=list)
    status: Literal["converged", "max_iter", "diverged", "nonfinite"] = "max_iter"
    iterations: int = 0

    def residuals(self) -> np.ndarray:
        return np.array([r.residual for r in self.records])

    def distances(self) -> np.ndarray:
        """Distances to z* (NaN where unavailable)."""
        return np.array(
            [math.nan if r.dist_to_fixed_point is None else r.dist_to_fixed_point
             for r in self.records]
        )

    def ratios(self) -> np.ndarray:
        return np.array(
            [math.nan if r.contraction_ratio is None else r.contraction_ratio
             for r in self.records]
        )

