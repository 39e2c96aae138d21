"""Domain types, prox-oracle abstraction, and hypothesis validation.

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
    "firm_nonexpansiveness_gap",
    "moreau_gap",
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


@dataclass(frozen=True)
class ProxFunction:
    """A function known to the solvers only through oracles.

    ``prox(gamma, x)`` must return ``argmin_y  gamma*h(y) + ||y - x||^2 / 2``.
    ``value`` and ``gradient`` are optional (the splitting schemes never need
    them; the harness uses them for fixed-point oracles and residual checks).
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

    @property
    def strong_convexity(self) -> float:
        return self.regularity[0]

    @property
    def cocoercivity(self) -> float:
        return self.regularity[1]

    def zero_point(self) -> np.ndarray:
        """The origin of the space this oracle acts on."""
        return np.zeros(self.shape if self.shape is not None else self.dimension)


@dataclass(frozen=True)
class CompositeProblem:
    """The pair (f, g) to be minimized, plus optional analytic oracles.

    ``solution_oracle`` is a known minimizer x*; ``fixed_point_oracle`` maps
    leverage parameters to the unique fixed point z* of the leveraged
    recurrence (the classical fixed point is the ``delta = eta = 0`` case).
    """

    f: ProxFunction
    g: ProxFunction
    regularity: RegularityParams
    solution_oracle: Optional[np.ndarray] = None
    fixed_point_oracle: Optional[Callable[[LeverageParams], np.ndarray]] = None

    def __post_init__(self):
        if self.f.dimension != self.g.dimension:
            raise ShapeMismatch(
                f"f and g act on different spaces: {self.f.dimension} != {self.g.dimension}"
            )

    @property
    def dimension(self) -> int:
        return self.f.dimension


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

    ``total_iterations`` counts steps even when record capture is switched
    off for speed.
    """

    records: list[TraceRecord] = field(default_factory=list)
    status: Literal["converged", "max_iter", "diverged", "nonfinite"] = "max_iter"
    total_iterations: int = 0

    def __len__(self) -> int:
        return len(self.records)

    @property
    def iterations(self) -> int:
        return self.total_iterations

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
