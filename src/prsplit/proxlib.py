"""Concrete prox functions and linear operators used by the experiments.

Least-squares data terms (dense, solved in the eigenbasis of its Gram
matrix, or a circular convolution solved in closed form by the 2-D FFT), the
Huber penalty, optionally of the coefficients of an orthonormal multi-level
Haar transform, and a small circular blur operator applied by the
2-D FFT through its transfer function.  Every function holds its
``(strong convexity, cocoercivity)`` moduli as ``moduli``, from which a
problem's :class:`~prsplit.core.RegularityParams` are built.  Both data terms
take theirs from their Gram spectrum by one rule;
:class:`~prsplit.leverage.QuadraticFunction` is the dense one with its Hessian
as the Gram matrix.  Everything here needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ProxFunction
from .errors import ShapeMismatch

__all__ = [
    "LeastSquaresFn",
    "estimate_moduli",
    "HuberFn",
    "haar_transform",
    "haar_inverse",
    "BlurOperator",
    "gaussian_kernel",
    "OperatorLeastSquares",
    "gram_norm",
    "gram_smallest_eigenvalue",
]


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
    ``resolvent(gamma)`` hands ``(M, c)`` out, so that the splitting solvers
    can fold a whole step into one affine map.
    The ``(gamma, M, c)`` triple is read and replaced as one tuple, so
    concurrent callers can at worst build it twice, never mix two step sizes.
    The gradient ``A^T A x - A^T a`` is one product with the stored Gram
    matrix, which ``to_prox_function`` also hands out as the ``hessian``, so
    that FISTA can fold its step into one affine map.  Both products go
    through ``ndarray.dot``: it reaches the same BLAS ``dgemv`` as ``@``, so
    the bits are equal, at about half the call cost for small m.  The moduli
    are the extreme eigenvalues.  An ``OverflowError`` is raised when
    ``A^T A`` or ``A^T a`` overflows.
    """

    def __init__(self, A: np.ndarray, a: Optional[np.ndarray] = None):
        self.A = np.asarray(A, dtype=float)
        n, m = self.A.shape
        self.a = np.zeros(n) if a is None else np.asarray(a, dtype=float)
        if self.a.shape != (n,):
            raise ShapeMismatch(f"offset shape {self.a.shape} != ({n},)")
        with np.errstate(over="ignore"):  # raised below as an OverflowError instead
            self.gram = self.A.T @ self.A
            self.at_a = self.A.T @ self.a
        for what, value in (("its Gram matrix", self.gram),
                            ("its product with the offset", self.at_a)):
            if not np.isfinite(value).all():
                raise OverflowError(f"{what} overflows")
        self._factor(max(n, m))

    def _factor(self, size: int) -> None:
        """Diagonalize ``gram`` once and empty the cache; ``size`` scales the rank tolerance."""
        self.dimension = self.gram.shape[0]
        self.spectrum, self.basis = np.linalg.eigh(self.gram)
        self.moduli = _moduli_from_spectrum(self.spectrum, size)
        self._resolvent = (None, None, None)

    def resolvent(self, gamma: float) -> tuple[np.ndarray, np.ndarray]:
        """``(M, c)`` with ``prox(gamma, x) = M x + c``, from the one cache."""
        step, M, c = self._resolvent
        if gamma != step:
            if not (gamma > 0.0):
                raise ValueError("gamma must be positive")
            V = self.basis
            M = (V / (1.0 + gamma * self.spectrum)) @ V.T
            c = M @ (gamma * self.at_a)
            self._resolvent = (gamma, M, c)
        return M, c

    def prox(self, gamma: float, x: np.ndarray) -> np.ndarray:
        M, c = self.resolvent(gamma)
        return M.dot(x) + c

    def value(self, x: np.ndarray) -> float:
        r = self.A @ x - self.a
        return 0.5 * float(np.vdot(r, r))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.gram.dot(x) - self.at_a

    def to_prox_function(self) -> ProxFunction:
        return ProxFunction(
            prox=self.prox,
            shape=(self.dimension,),
            gradient=self.gradient,
            resolvent=self.resolvent,
            hessian=self.gram,
        )


# --- Huber penalty ---------------------------------------------------------------


class HuberFn:
    """``x -> scale * sum_i h(w_i)``, ``w`` the Haar coefficients of x at ``level`` (None: x).

    ``h`` is the smoothed absolute value: quadratic of width ``epsilon`` near
    zero, linear outside.  The gradient is Lipschitz with constant
    ``scale/epsilon``, so ``moduli`` is ``(0, epsilon/scale)``: no strong
    convexity, and cocoercivity ``epsilon/scale``.
    """

    def __init__(self, epsilon: float, scale: float = 1.0, level: Optional[int] = None):
        if not (epsilon > 0.0):
            raise ValueError("epsilon must be positive")
        if not (scale > 0.0):
            raise ValueError("scale must be positive")
        self.epsilon = epsilon
        self.scale = scale
        self.level = level
        self.moduli = (0.0, epsilon / scale)

    def _analysis(self, x: np.ndarray) -> np.ndarray:
        return x if self.level is None else haar_transform(x, self.level)

    def _synthesis(self, w: np.ndarray) -> np.ndarray:
        return w if self.level is None else haar_inverse(w, self.level)

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
        return ProxFunction(prox=self.prox, shape=shape, gradient=self.gradient)


# --- orthonormal Haar transform ---------------------------------------------------

_SQRT2 = math.sqrt(2.0)


def _haar_step(x: np.ndarray, out: np.ndarray) -> None:
    """One analysis stage of ``x`` into ``out``, which may be ``x`` itself.

    Column-pair sums and differences go into the left and right halves of a
    buffer, then its row-pair sums and differences into the top and bottom
    halves of ``out``.  Each is divided by sqrt(2) in place, so every entry
    gets the bits of ``(a + b) / sqrt(2)`` or ``(a - b) / sqrt(2)``.  ``x`` is
    read in full before ``out`` is written.
    """
    h, w = x.shape[0] // 2, x.shape[1] // 2
    cols = np.empty(x.shape)
    even, odd = x[:, 0::2], x[:, 1::2]
    np.add(even, odd, out=cols[:, :w])
    np.subtract(even, odd, out=cols[:, w:])
    cols /= _SQRT2
    even, odd = cols[0::2, :], cols[1::2, :]
    np.add(even, odd, out=out[:h, :])
    np.subtract(even, odd, out=out[h:, :])
    out /= _SQRT2


def _haar_step_inv(c: np.ndarray, out: np.ndarray) -> None:
    """One synthesis stage of ``c`` into ``out``, which may be ``c`` itself."""
    h, w = c.shape[0] // 2, c.shape[1] // 2
    rows = np.empty(c.shape)
    lo, hi = c[:h, :], c[h:, :]
    np.add(lo, hi, out=rows[0::2, :])
    np.subtract(lo, hi, out=rows[1::2, :])
    rows /= _SQRT2
    lo, hi = rows[:, :w], rows[:, w:]
    np.add(lo, hi, out=out[:, 0::2])
    np.subtract(lo, hi, out=out[:, 1::2])
    out /= _SQRT2


def _check_haar_shape(x: np.ndarray, level: int) -> None:
    if x.ndim != 2:
        raise ShapeMismatch("Haar transform expects a 2-D array")
    if level < 1:
        raise ValueError("level must be >= 1")
    div = 2 ** level
    if x.shape[0] % div or x.shape[1] % div:
        raise ShapeMismatch(f"sides {x.shape} must be divisible by 2^level = {div}")


def haar_transform(x: np.ndarray, level: int = 1) -> np.ndarray:
    """Orthonormal multi-level 2-D Haar analysis (standard quadrant layout).

    The first stage reads ``x`` and writes a new array; each coarser stage
    transforms the top-left quadrant of that array in place.
    """
    src = np.asarray(x, dtype=float)
    _check_haar_shape(src, level)
    out = np.empty(src.shape)
    h, w = src.shape
    for _ in range(level):
        _haar_step(src[:h, :w], out[:h, :w])
        src = out
        h //= 2
        w //= 2
    return out


def haar_inverse(c: np.ndarray, level: int = 1) -> np.ndarray:
    """Exact adjoint (and inverse) of :func:`haar_transform`.

    At level 1 the one stage reads ``c`` and writes a new array.  Deeper
    transforms copy ``c`` once and run every stage, coarsest first, in place.
    """
    c = np.asarray(c, dtype=float)
    _check_haar_shape(c, level)
    out = np.empty(c.shape) if level == 1 else c.copy()
    src = c if level == 1 else out
    h = c.shape[0] // 2 ** (level - 1)
    w = c.shape[1] // 2 ** (level - 1)
    for _ in range(level):
        _haar_step_inv(src[:h, :w], out[:h, :w])
        h *= 2
        w *= 2
    return out


# --- circular blur -----------------------------------------------------------------


def _rfft2(x: np.ndarray) -> np.ndarray:
    """``np.fft.rfft2(x)`` as its two 1-D passes: rows by ``rfft``, then columns.

    These are the calls numpy's ``rfftn`` makes, in its order, so the bits
    are the same; the argument normalization of its wrapper is skipped.
    """
    return np.fft.fft(np.fft.rfft(x, axis=-1), axis=-2)


def _irfft2(spectrum: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """``np.fft.irfft2(spectrum, s=shape)`` as columns by ``ifft``, then rows."""
    return np.fft.irfft(np.fft.ifft(spectrum, axis=-2), n=shape[-1], axis=-1)


def gaussian_kernel(size: int = 5, sigma: float = 0.5) -> np.ndarray:
    """Normalized ``size x size`` Gaussian point-spread kernel."""
    if size % 2 != 1 or size < 1:
        raise ValueError("kernel size must be odd and positive")
    # 2 sigma^2 divides below, so it must be a positive finite float too
    if not (sigma > 0.0 and 0.0 < 2.0 * sigma * sigma < math.inf):
        raise ValueError(f"sigma must be positive with 2 sigma^2 finite and nonzero, got {sigma!r}")
    r = np.arange(size) - size // 2
    g = np.exp(-(r[:, None] ** 2 + r[None, :] ** 2) / (2.0 * sigma ** 2))
    return g / g.sum()


@dataclass(frozen=True)
class BlurOperator:
    """2-D convolution with a normalized nonnegative kernel, circular boundary.

    The kernel must be square with an odd side, so that it is centred.
    Circular wrapping then keeps the adjoint exact (convolution with the
    flipped kernel) and the operator norm at most one.  A circular
    convolution is diagonal in the 2-D DFT, so ``apply`` multiplies the
    ``rfft2`` of the image by the :meth:`transfer` function and ``adjoint``
    by its complex conjugate.  Every 2-D transform here runs as two 1-D
    passes (``_rfft2``/``_irfft2``), bit for bit ``rfft2``/``irfft2``.
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

    def transfer(self, shape: tuple[int, int]) -> np.ndarray:
        """``rfft2`` of the kernel wrapped onto an image of ``shape``.

        The kernel centre lands on pixel (0, 0).  Entries that fold onto the
        same pixel, as they do when the kernel is larger than the image, are
        summed, so the result is exact for every image shape.
        """
        offsets = np.arange(self.kernel.shape[0]) - self.kernel.shape[0] // 2
        psf = np.zeros(shape)
        np.add.at(psf, (offsets[:, None] % shape[0], offsets[None, :] % shape[1]), self.kernel)
        return _rfft2(psf)

    def apply(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2:
            raise ShapeMismatch("blur expects a 2-D image")
        return _irfft2(self.transfer(x.shape) * _rfft2(x), x.shape)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        if y.ndim != 2:
            raise ShapeMismatch("blur adjoint expects a 2-D image")
        return _irfft2(np.conj(self.transfer(y.shape)) * _rfft2(y), y.shape)


# --- least squares with a circular convolution, diagonal in the 2-D DFT ------------


def _gram_spectrum(op, shape: tuple[int, int]) -> np.ndarray:
    """Eigenvalues of T^T T for a circular convolution T, in ``rfft2`` layout.

    T is diagonalized by the 2-D DFT with eigenvalues ``H = op.transfer(shape)``,
    so those of T^T T are ``|H|^2``.  The half-spectrum of ``rfft2`` holds
    every distinct eigenvalue, since the rest are complex conjugates.
    """
    return np.abs(op.transfer(shape)) ** 2


def gram_norm(op, shape: tuple[int, int]) -> float:
    """Largest eigenvalue of T^T T for a circular convolution T (exact)."""
    return float(_gram_spectrum(op, shape).max())


def gram_smallest_eigenvalue(op, shape: tuple[int, int]) -> float:
    """Smallest eigenvalue of T^T T for a circular convolution T (exact)."""
    return float(_gram_spectrum(op, shape).min())


class OperatorLeastSquares:
    """``x -> ||T x - b||^2 / 2`` for a circular convolution T.

    T (such as :class:`BlurOperator`) gives ``apply``, ``adjoint`` and its
    ``transfer(shape)`` function: the prox solves
    ``(I + gamma T^T T) p = x + gamma T^T b`` in closed form by one
    ``rfft2``, a division by ``1 + gamma * spectrum`` and one ``irfft2``, with
    the Gram spectrum computed once at construction.  As in
    :class:`LeastSquaresFn`, the step-size terms ``(gamma, gamma T^T b,
    1 + gamma * spectrum)`` are kept for the last ``gamma`` and read and
    replaced as one tuple.  The gradient multiplies by the spectrum in the
    same basis.  The moduli are the extreme eigenvalues of that spectrum.
    """

    def __init__(self, op, data: np.ndarray):
        self.op = op
        self.data = np.asarray(data, dtype=float)
        self.shape = self.data.shape
        self.dimension = int(np.prod(self.shape))
        self.adj_data = op.adjoint(self.data)
        self.spectrum = _gram_spectrum(op, self.shape)
        self.moduli = _moduli_from_spectrum(self.spectrum, self.dimension)
        self._resolvent = (None, None, None)

    def value(self, x: np.ndarray) -> float:
        r = self.op.apply(x) - self.data
        return 0.5 * float(np.vdot(r, r))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        # T^T (T x - b) = T^T T x - T^T b, with T^T T diagonal in the 2-D DFT
        return _irfft2(self.spectrum * _rfft2(x), self.shape) - self.adj_data

    def prox(self, gamma: float, x: np.ndarray) -> np.ndarray:
        step, shift, denominator = self._resolvent
        if gamma != step:
            if not (gamma > 0.0):
                raise ValueError("gamma must be positive")
            shift = gamma * self.adj_data
            # complex, as the division would cast it on every call anyway
            denominator = (1.0 + gamma * self.spectrum).astype(complex)
            self._resolvent = (gamma, shift, denominator)
        return _irfft2(_rfft2(x + shift) / denominator, self.shape)

    def to_prox_function(self) -> ProxFunction:
        return ProxFunction(prox=self.prox, shape=self.shape, gradient=self.gradient)
