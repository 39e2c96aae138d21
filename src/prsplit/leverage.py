"""A quadratic with an explicit Hessian, in isotropic or matrix form.

:class:`QuadraticFunction` builds the tight 2-D pair of ``tight-check`` and
serves as a closed-form oracle in the tests.  It is the dense least-squares
term in Hessian form, whose prox, resolvent, gradient and moduli it uses.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .proxlib import LeastSquaresFn

__all__ = ["QuadraticFunction"]


class QuadraticFunction(LeastSquaresFn):
    """``x -> offset + <linear, x> + (1/2) x^T Q x``.

    ``quad`` is either a scalar c >= 0 (meaning ``Q = c*I``) or a symmetric
    positive-semidefinite matrix.  Up to a constant this is
    ``||A x - a||^2 / 2`` with ``A^T A = Q`` and ``A^T a = -linear``, so its
    prox is ``V diag(1/(1 + gamma w)) V^T (x - gamma linear)`` with
    ``Q = V diag(w) V^T``, and its moduli are ``(min w, 1/max w)``.  ``c = 0``
    is the zero function when ``offset`` and ``linear`` are zero.
    """

    def __init__(self, offset: float, linear: np.ndarray, quad: Union[float, np.ndarray]):
        self.offset = offset
        self.linear = np.asarray(linear, dtype=float)
        m = self.linear.size
        if np.ndim(quad) == 0:
            if quad < 0:
                raise ValueError("isotropic curvature must be >= 0")
            self.gram = float(quad) * np.eye(m)
        else:
            quad = np.asarray(quad, dtype=float)
            if quad.shape != (m, m):
                raise ValueError("quadratic term shape does not match the linear term")
            if not np.allclose(quad, quad.T, rtol=0.0, atol=1e-12):
                raise ValueError("quadratic term must be symmetric within 1e-12")
            self.gram = quad
        self.quad = quad
        self.at_a = -self.linear
        self._factor(m)
        if self.spectrum[0] < -1e-12:
            raise ValueError("quadratic term must be positive semidefinite")

    @property
    def isotropic(self) -> bool:
        return np.ndim(self.quad) == 0

    def value(self, x: np.ndarray) -> float:
        return self.offset + float(np.vdot(self.linear, x)) + 0.5 * float(x @ self.gram @ x)
