"""Quadratic-shift machinery.

Shifting a function by ``(delta/2)*||.||^2`` and its conjugate by ``eta``
moves strong convexity and smoothness around without changing the minimizers
(up to an explicit recovery map).  The key practical fact, implemented here,
is that the prox and reflected prox of the doubly-shifted function are exact
rescalings of the prox of the *original* function, so solvers never need new
oracles.

For isotropic quadratics the doubly-shifted conjugate has a four-case closed
form (quadratic / affine / point indicator / identically -infinity); those
cases are returned as tagged results and serve as independent test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Union

import numpy as np

from .core import CompositeProblem, LeverageParams, ProxFunction, _moduli_from_spectrum
from .errors import ShiftDomain, StepDomain, TransferDomain

__all__ = [
    "QuadraticFunction",
    "AffinePart",
    "PointIndicator",
    "MinusInfinity",
    "ShiftedProxSpec",
    "shifted_prox",
    "shifted_reflect",
    "quadratic_conjugate_shift",
    "regularity_transfer",
    "recover_solution",
]


@dataclass(frozen=True)
class QuadraticFunction:
    """``x -> offset + <linear, x> + (1/2) x^T Q x``.

    ``quad`` is either a scalar c (meaning ``Q = c*I``) or a symmetric
    positive-semidefinite matrix.  A matrix is diagonalized once,
    ``Q = V diag(w) V^T``, and its prox is ``V diag(1/(1 + gamma w)) V^T
    (x - gamma linear)``; the moduli are ``(min w, 1/max w)`` (``w = [c]`` in
    the isotropic case), with 0 meaning absent.  ``c = 0`` is the zero
    function when ``offset`` and ``linear`` are zero.  The conjugate closed
    forms are available only in the isotropic case.
    """

    offset: float
    linear: np.ndarray
    quad: Union[float, np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "linear", np.asarray(self.linear, dtype=float))
        if self.isotropic:
            if self.quad < 0:
                raise ValueError("isotropic curvature must be >= 0")
            spectrum, basis = np.array([float(self.quad)]), None
        else:
            q = np.asarray(self.quad, dtype=float)
            if q.shape != (self.linear.size, self.linear.size):
                raise ValueError("quadratic term shape does not match the linear term")
            if not np.allclose(q, q.T, rtol=0.0, atol=1e-12):
                raise ValueError("quadratic term must be symmetric within 1e-12")
            spectrum, basis = np.linalg.eigh(q)
            if spectrum[0] < -1e-12:
                raise ValueError("quadratic term must be positive semidefinite")
            object.__setattr__(self, "quad", q)
        # derived from quad, so kept out of the dataclass fields
        object.__setattr__(self, "_spectrum", spectrum)
        object.__setattr__(self, "_basis", basis)

    @property
    def isotropic(self) -> bool:
        return np.ndim(self.quad) == 0

    def value(self, x: np.ndarray) -> float:
        if self.isotropic:
            qx = 0.5 * float(self.quad) * float(np.vdot(x, x))
        else:
            qx = 0.5 * float(x @ self.quad @ x)
        return self.offset + float(np.vdot(self.linear, x)) + qx

    def gradient(self, x: np.ndarray) -> np.ndarray:
        if self.isotropic:
            return self.linear + float(self.quad) * x
        return self.linear + self.quad @ x

    def prox(self, gamma: float, x: np.ndarray) -> np.ndarray:
        if self.isotropic:
            return (x - gamma * self.linear) / (1.0 + gamma * float(self.quad))
        V = self._basis
        return V @ ((V.T @ (x - gamma * self.linear)) / (1.0 + gamma * self._spectrum))

    def conjugate(self) -> "QuadraticFunction":
        """Fenchel conjugate (isotropic, positive curvature only)."""
        if not self.isotropic or self.quad <= 0:
            raise ValueError("conjugate in closed form needs isotropic curvature > 0")
        c = float(self.quad)
        bb = float(np.vdot(self.linear, self.linear))
        return QuadraticFunction(
            offset=bb / (2.0 * c) - self.offset,
            linear=-self.linear / c,
            quad=1.0 / c,
        )

    def to_prox_function(self) -> ProxFunction:
        return ProxFunction(
            prox=self.prox,
            dimension=self.linear.size,
            regularity=_moduli_from_spectrum(self._spectrum, self.linear.size),
            value=self.value,
            gradient=self.gradient,
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
