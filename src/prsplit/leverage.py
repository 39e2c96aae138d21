"""The one quadratic, in isotropic or matrix form.

:class:`QuadraticFunction` builds the tight 2-D pair of ``tight-check`` and
serves as a closed-form oracle in the tests.  Its moduli come from its
Hessian spectrum by the rule the least-squares data terms share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import ProxFunction, _moduli_from_spectrum

__all__ = ["QuadraticFunction"]


@dataclass(frozen=True)
class QuadraticFunction:
    """``x -> offset + <linear, x> + (1/2) x^T Q x``.

    ``quad`` is either a scalar c (meaning ``Q = c*I``) or a symmetric
    positive-semidefinite matrix.  A matrix is diagonalized once,
    ``Q = V diag(w) V^T``, and its prox is ``V diag(1/(1 + gamma w)) V^T
    (x - gamma linear)``; the moduli are ``(min w, 1/max w)`` (``w = [c]`` in
    the isotropic case), with 0 meaning absent.  ``c = 0`` is the zero
    function when ``offset`` and ``linear`` are zero.
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

    def to_prox_function(self) -> ProxFunction:
        return ProxFunction(
            prox=self.prox,
            dimension=self.linear.size,
            regularity=_moduli_from_spectrum(self._spectrum, self.linear.size),
            value=self.value,
            gradient=self.gradient,
        )
