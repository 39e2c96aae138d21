"""Concrete prox functions and linear operators used by the experiments.

Least-squares data terms (dense, solved in the eigenbasis of its Gram
matrix, or a circular convolution solved in closed form by the 2-D FFT), the
Huber penalty with an optional orthogonal transform, an orthonormal
multi-level Haar transform, and a small circular blur operator.  Both data
terms take their moduli from their Gram spectrum by the one rule shared with
:class:`~prsplit.leverage.QuadraticFunction`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import ndimage

from .core import ProxFunction, _moduli_from_spectrum
from .errors import ShapeMismatch

__all__ = [
    "LeastSquaresFn",
    "estimate_moduli",
    "HuberFn",
    "haar_transform",
    "haar_inverse",
    "HaarTransform",
    "BlurOperator",
    "gaussian_kernel",
    "OperatorLeastSquares",
    "gram_norm",
    "gram_smallest_eigenvalue",
]


def estimate_moduli(A: np.ndarray) -> tuple[float, float]:
    """Strong-convexity and cocoercivity moduli of ``x -> ||A x - a||^2 / 2``.

    ``rho`` is the smallest eigenvalue of the Gram matrix (0 below the rank
    tolerance) and ``alpha`` the reciprocal of the largest.
    """
    A = np.asarray(A, dtype=float)
    return _moduli_from_spectrum(np.linalg.eigvalsh(A.T @ A), max(A.shape))


class LeastSquaresFn:
    """``x -> ||A x - a||^2 / 2`` with prox in the eigenbasis of ``A^T A``.

    With ``A^T A = V diag(spectrum) V^T`` computed once, the prox solves
    ``(I + gamma A^T A) p = x + gamma A^T a`` as ``p = M x + c`` with the
    resolvent ``M = V diag(1/(1 + gamma spectrum)) V^T`` and ``c = gamma M A^T a``.
    One resolvent is kept, for the last step size: it is rebuilt only when
    ``gamma`` changes, and the solvers hold ``gamma`` fixed for a whole solve.
    The ``(gamma, M, c)`` triple is read and replaced as one tuple, so
    concurrent callers can at worst build it twice, never mix two step sizes.
    The gradient ``A^T A x - A^T a`` is one product with the stored Gram
    matrix.  Both products go through ``ndarray.dot``: it reaches the same
    BLAS ``dgemv`` as ``@``, so the bits are equal, at about half the call
    cost for small m.  The moduli are the extreme eigenvalues.
    """

    def __init__(self, A: np.ndarray, a: Optional[np.ndarray] = None):
        self.A = np.asarray(A, dtype=float)
        n, m = self.A.shape
        self.a = np.zeros(n) if a is None else np.asarray(a, dtype=float)
        if self.a.shape != (n,):
            raise ShapeMismatch(f"offset shape {self.a.shape} != ({n},)")
        self.gram = self.A.T @ self.A
        self.at_a = self.A.T @ self.a
        self.dimension = m
        self.spectrum, self.basis = np.linalg.eigh(self.gram)
        self.moduli = _moduli_from_spectrum(self.spectrum, max(self.A.shape))
        self._resolvent = (None, None, None)

    def prox(self, gamma: float, x: np.ndarray) -> np.ndarray:
        step, M, c = self._resolvent
        if gamma != step:
            if not (gamma > 0.0):
                raise ValueError("gamma must be positive")
            V = self.basis
            M = (V / (1.0 + gamma * self.spectrum)) @ V.T
            c = M @ (gamma * self.at_a)
            self._resolvent = (gamma, M, c)
        return M.dot(x) + c

    def value(self, x: np.ndarray) -> float:
        r = self.A @ x - self.a
        return 0.5 * float(np.vdot(r, r))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.gram.dot(x) - self.at_a

    def to_prox_function(self) -> ProxFunction:
        return ProxFunction(
            prox=self.prox,
            dimension=self.dimension,
            regularity=self.moduli,
            value=self.value,
            gradient=self.gradient,
        )


# --- Huber penalty ---------------------------------------------------------------


class HuberFn:
    """``x -> scale * sum_i h(w_i)`` with ``w = W x`` for an optional orthogonal W.

    ``h`` is the smoothed absolute value: quadratic of width ``epsilon`` near
    zero, linear outside.  The gradient is Lipschitz with constant
    ``scale/epsilon``, so the cocoercivity modulus is ``epsilon/scale``.
    """

    def __init__(self, epsilon: float, scale: float = 1.0, transform=None):
        if not (epsilon > 0.0):
            raise ValueError("epsilon must be positive")
        if not (scale > 0.0):
            raise ValueError("scale must be positive")
        self.epsilon = epsilon
        self.scale = scale
        self.transform = transform

    def _analysis(self, x: np.ndarray) -> np.ndarray:
        return x if self.transform is None else self.transform.forward(x)

    def _synthesis(self, w: np.ndarray) -> np.ndarray:
        return w if self.transform is None else self.transform.inverse(w)

    def value(self, x: np.ndarray) -> float:
        w = np.abs(self._analysis(x))
        eps = self.epsilon
        per = np.where(w > eps, w - eps / 2.0, w * w / (2.0 * eps))
        return self.scale * float(np.sum(per))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        w = self._analysis(x)
        return self.scale * self._synthesis(np.clip(w / self.epsilon, -1.0, 1.0))

    def prox(self, gamma: float, x: np.ndarray) -> np.ndarray:
        if not (gamma > 0.0):
            raise ValueError("gamma must be positive")
        w = self._analysis(x)
        weight = gamma * self.scale
        eps = self.epsilon
        shrunk = np.where(
            np.abs(w) <= eps + weight,
            eps * w / (eps + weight),
            w - weight * np.sign(w),
        )
        return self._synthesis(shrunk)

    def to_prox_function(self, shape: tuple[int, ...]) -> ProxFunction:
        return ProxFunction(
            prox=self.prox,
            dimension=int(np.prod(shape)),
            regularity=(0.0, self.epsilon / self.scale),
            value=self.value,
            gradient=self.gradient,
            shape=shape,
        )


# --- orthonormal Haar transform ---------------------------------------------------

_SQRT2 = math.sqrt(2.0)


def _haar_step(x: np.ndarray) -> np.ndarray:
    lo = (x[:, 0::2] + x[:, 1::2]) / _SQRT2
    hi = (x[:, 0::2] - x[:, 1::2]) / _SQRT2
    cols = np.hstack([lo, hi])
    lo = (cols[0::2, :] + cols[1::2, :]) / _SQRT2
    hi = (cols[0::2, :] - cols[1::2, :]) / _SQRT2
    return np.vstack([lo, hi])


def _haar_step_inv(c: np.ndarray) -> np.ndarray:
    h = c.shape[0] // 2
    lo, hi = c[:h, :], c[h:, :]
    rows = np.empty_like(c)
    rows[0::2, :] = (lo + hi) / _SQRT2
    rows[1::2, :] = (lo - hi) / _SQRT2
    w = c.shape[1] // 2
    lo, hi = rows[:, :w], rows[:, w:]
    out = np.empty_like(c)
    out[:, 0::2] = (lo + hi) / _SQRT2
    out[:, 1::2] = (lo - hi) / _SQRT2
    return out


def _check_haar_shape(x: np.ndarray, level: int) -> None:
    if x.ndim != 2:
        raise ShapeMismatch("Haar transform expects a 2-D array")
    if level < 1:
        raise ValueError("level must be >= 1")
    div = 2 ** level
    if x.shape[0] % div or x.shape[1] % div:
        raise ShapeMismatch(f"sides {x.shape} must be divisible by 2^level = {div}")


def haar_transform(x: np.ndarray, level: int = 1) -> np.ndarray:
    """Orthonormal multi-level 2-D Haar analysis (standard quadrant layout)."""
    _check_haar_shape(x, level)
    out = np.array(x, dtype=float)
    h, w = out.shape
    for _ in range(level):
        out[:h, :w] = _haar_step(out[:h, :w])
        h //= 2
        w //= 2
    return out


def haar_inverse(c: np.ndarray, level: int = 1) -> np.ndarray:
    """Exact adjoint (and inverse) of :func:`haar_transform`."""
    _check_haar_shape(c, level)
    out = np.array(c, dtype=float)
    h = out.shape[0] // 2 ** (level - 1)
    w = out.shape[1] // 2 ** (level - 1)
    for _ in range(level):
        out[:h, :w] = _haar_step_inv(out[:h, :w])
        h *= 2
        w *= 2
    return out


@dataclass(frozen=True)
class HaarTransform:
    """Orthogonal-transform handle for composition with separable penalties."""

    level: int = 1

    def forward(self, x: np.ndarray) -> np.ndarray:
        return haar_transform(x, self.level)

    def inverse(self, c: np.ndarray) -> np.ndarray:
        return haar_inverse(c, self.level)


# --- circular blur -----------------------------------------------------------------


def gaussian_kernel(size: int = 5, sigma: float = 0.5) -> np.ndarray:
    """Normalized ``size x size`` Gaussian point-spread kernel."""
    if size % 2 != 1 or size < 1:
        raise ValueError("kernel size must be odd and positive")
    r = np.arange(size) - size // 2
    g = np.exp(-(r[:, None] ** 2 + r[None, :] ** 2) / (2.0 * sigma ** 2))
    return g / g.sum()


@dataclass(frozen=True)
class BlurOperator:
    """2-D convolution with a normalized nonnegative kernel, circular boundary.

    The kernel must be square with an odd side, so that it is centred.
    Circular wrapping then keeps the adjoint exact (convolution with the
    flipped kernel) and the operator norm at most one.
    """

    kernel: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.kernel, dtype=float)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise ShapeMismatch("kernel must be square")
        if k.shape[0] % 2 != 1:
            raise ShapeMismatch("kernel size must be odd")
        if np.any(k < 0) or not math.isclose(float(k.sum()), 1.0, rel_tol=0, abs_tol=1e-12):
            raise ValueError("kernel must be nonnegative and sum to 1")
        object.__setattr__(self, "kernel", k)

    def apply(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2:
            raise ShapeMismatch("blur expects a 2-D image")
        return ndimage.convolve(x, self.kernel, mode="wrap")

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        if y.ndim != 2:
            raise ShapeMismatch("blur adjoint expects a 2-D image")
        return ndimage.convolve(y, self.kernel[::-1, ::-1], mode="wrap")


# --- least squares with a circular convolution, diagonal in the 2-D DFT ------------


def _gram_spectrum(op, shape: tuple[int, int]) -> np.ndarray:
    """Eigenvalues of T^T T for a circular convolution T, in ``rfft2`` layout.

    T is diagonalized by the 2-D DFT with eigenvalues ``rfft2(T e0)``, where
    ``e0`` is the unit impulse at pixel (0, 0); the impulse response (rather
    than a padded kernel) keeps this exact for any image shape and for
    kernels larger than the image.  The half-spectrum of ``rfft2`` holds every
    distinct eigenvalue, since the rest are complex conjugates.
    """
    impulse = np.zeros(shape)
    impulse[0, 0] = 1.0
    return np.abs(np.fft.rfft2(op.apply(impulse))) ** 2


def gram_norm(op, shape: tuple[int, int]) -> float:
    """Largest eigenvalue of T^T T for a circular convolution T (exact)."""
    return float(_gram_spectrum(op, shape).max())


def gram_smallest_eigenvalue(op, shape: tuple[int, int]) -> float:
    """Smallest eigenvalue of T^T T for a circular convolution T (exact)."""
    return float(_gram_spectrum(op, shape).min())


class OperatorLeastSquares:
    """``x -> ||T x - b||^2 / 2`` for a circular convolution T given by apply/adjoint.

    T must be a circular convolution (such as :class:`BlurOperator`): the prox
    solves ``(I + gamma T^T T) p = x + gamma T^T b`` in closed form by one
    ``rfft2``, a division by ``1 + gamma * spectrum`` and one ``irfft2``, with
    the Gram spectrum computed once at construction.  The moduli are the
    extreme eigenvalues of that spectrum.
    """

    def __init__(self, op, data: np.ndarray):
        self.op = op
        self.data = np.asarray(data, dtype=float)
        self.shape = self.data.shape
        self.dimension = int(np.prod(self.shape))
        self.adj_data = op.adjoint(self.data)
        self.spectrum = _gram_spectrum(op, self.shape)
        self.moduli = _moduli_from_spectrum(self.spectrum, self.dimension)

    def value(self, x: np.ndarray) -> float:
        r = self.op.apply(x) - self.data
        return 0.5 * float(np.vdot(r, r))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        # T^T (T x - b) = T^T T x - T^T b, with T^T T diagonal in the 2-D DFT
        return np.fft.irfft2(self.spectrum * np.fft.rfft2(x), s=self.shape) - self.adj_data

    def prox(self, gamma: float, x: np.ndarray) -> np.ndarray:
        if not (gamma > 0.0):
            raise ValueError("gamma must be positive")
        rhs = np.fft.rfft2(x + gamma * self.adj_data)
        return np.fft.irfft2(rhs / (1.0 + gamma * self.spectrum), s=self.shape)

    def to_prox_function(self) -> ProxFunction:
        return ProxFunction(
            prox=self.prox,
            dimension=self.dimension,
            regularity=self.moduli,
            value=self.value,
            gradient=self.gradient,
            shape=self.shape,
        )
