"""Concrete prox functions, transforms, and the blur operator."""

import math

import numpy as np
import pytest
from scipy import ndimage
from scipy.optimize import minimize, minimize_scalar

from prsplit.errors import ShapeMismatch
from prsplit import pgm
from prsplit.leverage import QuadraticFunction
from prsplit.proxlib import (
    BlurOperator,
    HuberFn,
    LeastSquaresFn,
    OperatorLeastSquares,
    _irfft2,
    _rfft2,
    estimate_moduli,
    gaussian_kernel,
    gram_norm,
    gram_smallest_eigenvalue,
    haar_inverse,
    haar_transform,
)

from oracles import firm_nonexpansiveness_gap


class TestLeastSquares:
    def test_identity_matrix_halves_the_input(self, rng):
        fn = LeastSquaresFn(np.eye(3))
        x = rng.standard_normal(3)
        np.testing.assert_allclose(fn.prox(1.0, x), x / 2.0)

    def test_tight_diagonal_matches_componentwise_closed_form(self):
        rho, alpha = 0.7, 0.5
        A = np.diag([math.sqrt(rho), math.sqrt(1.0 / alpha)])
        fn = LeastSquaresFn(A)
        gamma = 1.3
        p = fn.prox(gamma, np.array([1.0, 1.0]))
        np.testing.assert_allclose(
            p, [1 / (1 + gamma * rho), 1 / (1 + gamma / alpha)], rtol=1e-14
        )

    def test_first_order_optimality_residual(self, rng):
        A = rng.standard_normal((5, 5))
        a = rng.standard_normal(5)
        fn = LeastSquaresFn(A, a)
        for gamma in (0.3, 1.0, 4.0):
            x = rng.standard_normal(5)
            p = fn.prox(gamma, x)
            residual = gamma * A.T @ (A @ p - a) + (p - x)
            assert np.linalg.norm(residual) <= 1e-10 * (1 + np.linalg.norm(x))

    # tall, wide (rank-deficient Gram) and larger tall
    @pytest.mark.parametrize("shape", [(7, 4), (3, 6), (150, 100)], ids=["7x4", "3x6", "150x100"])
    def test_normal_system_residual_invariant(self, rng, shape):
        A = rng.standard_normal(shape)
        a = rng.standard_normal(shape[0])
        fn = LeastSquaresFn(A, a)
        x = rng.standard_normal(shape[1])
        # gamma_1, gamma_2, gamma_1: a resolvent kept across step sizes fails here
        outputs = []
        for gamma in (0.9, 0.25, 0.9):
            p = fn.prox(gamma, x)
            lhs = p + gamma * (A.T @ (A @ p))
            rhs = x + gamma * A.T @ a
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)
            solved = np.linalg.solve(np.eye(shape[1]) + gamma * A.T @ A, rhs)
            assert np.linalg.norm(p - solved) <= 1e-13 * np.linalg.norm(solved)
            outputs.append(p.copy())
            p[:] = np.nan  # the caller owns the returned array
        np.testing.assert_array_equal(fn.prox(0.9, x), outputs[2])
        np.testing.assert_array_equal(outputs[0], outputs[2])

    @pytest.mark.parametrize("shape", [(7, 4), (3, 6), (150, 100)], ids=["7x4", "3x6", "150x100"])
    def test_gradient_matches_residual_form(self, rng, shape):
        A = rng.standard_normal(shape)
        a = rng.standard_normal(shape[0])
        fn = LeastSquaresFn(A, a)
        for _ in range(3):
            x = rng.standard_normal(shape[1])
            expected = A.T @ (A @ x - a)
            assert np.linalg.norm(fn.gradient(x) - expected) <= 1e-13 * np.linalg.norm(expected)

    def test_agrees_with_gradient_descent_oracle(self, rng):
        A = rng.standard_normal((5, 5))
        a = rng.standard_normal(5)
        fn = LeastSquaresFn(A, a)
        gamma, x = 0.8, rng.standard_normal(5)
        # brute force: minimize gamma*||Ap-a||^2/2 + ||p-x||^2/2 by plain GD
        p = x.copy()
        lip = gamma * np.linalg.norm(A, 2) ** 2 + 1.0
        for _ in range(20000):
            p -= (gamma * A.T @ (A @ p - a) + (p - x)) / lip
        np.testing.assert_allclose(fn.prox(gamma, x), p, atol=1e-6)


class TestEstimateModuli:
    def test_scaled_identity(self):
        assert estimate_moduli(2.0 * np.eye(3)) == (4.0, 0.25)

    def test_single_column(self):
        rho, alpha = estimate_moduli(np.array([[1.0], [0.0]]))
        assert (rho, alpha) == (1.0, 1.0)

    def test_wide_matrix_reports_no_strong_convexity(self, rng):
        rho, alpha = estimate_moduli(rng.random((3, 6)))
        assert rho == 0.0
        assert alpha > 0.0

    def test_product_bounded_by_one(self, rng):
        for _ in range(20):
            rho, alpha = estimate_moduli(rng.standard_normal((20, 20)))
            assert alpha * rho <= 1.0

    @pytest.mark.parametrize("case", ["tall", "wide", "rank_deficient", "zero"])
    def test_dense_data_term_matches_reference(self, rng, case):
        A = {
            "tall": rng.standard_normal((9, 5)),
            "wide": rng.standard_normal((4, 7)),
            "rank_deficient": rng.standard_normal((8, 2)) @ rng.standard_normal((2, 6)),
            "zero": np.zeros((3, 4)),
        }[case]
        # eigh and eigvalsh may differ in the last bits; the zeros must not
        rho, alpha = LeastSquaresFn(A).moduli
        ref_rho, ref_alpha = estimate_moduli(A)
        assert alpha == pytest.approx(ref_alpha, rel=1e-12)
        if case == "tall":
            assert rho == pytest.approx(ref_rho, rel=1e-10) and rho > 0.0
        else:
            assert rho == ref_rho == 0.0
        if case == "zero":
            assert alpha == ref_alpha == 0.0


class TestHuber:
    def test_zero_input(self):
        fn = HuberFn(0.5, 2.0)
        assert fn.value(np.zeros(4)) == 0.0
        np.testing.assert_allclose(fn.gradient(np.zeros(4)), 0.0)
        np.testing.assert_allclose(fn.prox(1.0, np.zeros(4)), 0.0)

    def test_piecewise_value_at_twice_epsilon(self):
        eps, lam = 0.2, 3.0
        fn = HuberFn(eps, lam)
        assert fn.value(np.array([2 * eps])) == pytest.approx(1.5 * lam * eps)

    def test_prox_scalar_cases_against_numeric_oracle(self):
        # gamma*lam = 1, eps = 0.5: quadratic branch at 0.3, linear branch at 2
        eps = 0.5
        fn = HuberFn(eps, 1.0)

        def oracle(xi):
            h = lambda p: (abs(p) - eps / 2 if abs(p) > eps else p * p / (2 * eps))
            res = minimize_scalar(lambda p: h(p) + 0.5 * (p - xi) ** 2, bounds=(-5, 5), method="bounded")
            return res.x

        assert oracle(0.3) == pytest.approx(0.1, abs=1e-6)
        assert oracle(2.0) == pytest.approx(1.0, abs=1e-6)
        np.testing.assert_allclose(fn.prox(1.0, np.array([0.3, 2.0])), [0.1, 1.0], atol=1e-12)

    def test_prox_is_odd_and_nonexpansive_elementwise(self, rng):
        fn = HuberFn(0.3, 1.7)
        x = rng.standard_normal(100)
        np.testing.assert_allclose(fn.prox(0.9, -x), -fn.prox(0.9, x), atol=1e-14)
        y = rng.standard_normal(100)
        assert np.all(np.abs(fn.prox(0.9, x) - fn.prox(0.9, y)) <= np.abs(x - y) + 1e-14)

    def test_gradient_matches_finite_differences(self, rng):
        eps, lam = 0.4, 2.3
        fn = HuberFn(eps, lam)
        h = 1e-7
        checked = 0
        while checked < 100:
            x = rng.standard_normal(1) * 2.0
            if abs(abs(x[0]) - eps) < 1e-3:  # keep away from the kink magnitude
                continue
            fd = (fn.value(x + h) - fn.value(x - h)) / (2 * h)
            assert fn.gradient(x)[0] == pytest.approx(fd, abs=1e-6)
            checked += 1

    def test_gradient_lipschitz_bound(self, rng):
        eps, lam = 0.25, 1.5
        fn = HuberFn(eps, lam)
        for _ in range(100):
            x, y = rng.standard_normal(6), rng.standard_normal(6)
            num = np.linalg.norm(fn.gradient(x) - fn.gradient(y))
            assert num <= (lam / eps) * np.linalg.norm(x - y) + 1e-12

    def test_transform_composition_rule_against_brute_force(self, rng):
        eps, lam = 0.3, 0.9
        fn = HuberFn(eps, lam, level=1)
        x = rng.standard_normal((8, 8))
        gamma = 0.7
        p = fn.prox(gamma, x)

        def objective(flat):
            y = flat.reshape(8, 8)
            return gamma * fn.value(y) + 0.5 * np.sum((y - x) ** 2)

        res = minimize(objective, x.ravel(), method="L-BFGS-B", tol=1e-14)
        np.testing.assert_allclose(p.ravel(), res.x, atol=1e-6)

    def test_firm_nonexpansiveness(self, rng):
        fn = HuberFn(0.2, 2.0, level=2).to_prox_function((8, 8))
        assert firm_nonexpansiveness_gap(fn, rng, pairs=100) <= 1e-10


class TestHaar:
    def test_constant_image_has_zero_details(self):
        c = haar_transform(np.full((8, 8), 3.0), level=2)
        # each 2-D analysis level doubles the constant; level 2 leaves a 2x2
        # approximation block and all detail coefficients vanish
        np.testing.assert_allclose(c[:2, :2], 12.0, atol=1e-12)
        c[:2, :2] = 0.0
        np.testing.assert_allclose(c, 0.0, atol=1e-12)

    def test_round_trip(self, rng):
        x = rng.standard_normal((16, 16))
        for level in (1, 2, 3):
            np.testing.assert_allclose(
                haar_inverse(haar_transform(x, level), level), x, atol=1e-12
            )

    def test_parseval(self, rng):
        for _ in range(10):
            x = rng.standard_normal((8, 8))
            c = haar_transform(x, level=3)
            assert np.linalg.norm(c) == pytest.approx(np.linalg.norm(x), abs=1e-12)

    def test_inverse_is_adjoint(self, rng):
        x, y = rng.standard_normal((8, 8)), rng.standard_normal((8, 8))
        lhs = float(np.vdot(haar_transform(x, 2), y))
        rhs = float(np.vdot(x, haar_inverse(y, 2)))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_shape_errors(self):
        with pytest.raises(ShapeMismatch):
            haar_transform(np.zeros((6, 6)), level=2)
        with pytest.raises(ShapeMismatch):
            haar_transform(np.zeros(16), level=1)



_SQRT2 = math.sqrt(2.0)


def _stacked_haar_step(x):
    lo = (x[:, 0::2] + x[:, 1::2]) / _SQRT2
    hi = (x[:, 0::2] - x[:, 1::2]) / _SQRT2
    cols = np.hstack([lo, hi])
    lo = (cols[0::2, :] + cols[1::2, :]) / _SQRT2
    hi = (cols[0::2, :] - cols[1::2, :]) / _SQRT2
    return np.vstack([lo, hi])


def _stacked_haar_step_inv(c):
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


def _stacked_haar(x, level, inverse=False):
    """The Haar transform built by stacking half-arrays, kept as a bitwise oracle."""
    out = np.array(x, dtype=float)
    shift = level - 1 if inverse else 0
    h, w = out.shape[0] >> shift, out.shape[1] >> shift
    for _ in range(level):
        if inverse:
            out[:h, :w] = _stacked_haar_step_inv(out[:h, :w])
            h, w = 2 * h, 2 * w
        else:
            out[:h, :w] = _stacked_haar_step(out[:h, :w])
            h, w = h // 2, w // 2
    return out


HAAR_SHAPES = [(16, 16), (8, 24), (24, 8), (48, 80)]


@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("shape", HAAR_SHAPES, ids=[f"{r}x{c}" for r, c in HAAR_SHAPES])
def test_haar_is_bitwise_the_stacked_transform(rng, shape, level):
    x = rng.standard_normal(shape)
    kept = x.copy()
    assert haar_transform(x, level).tobytes() == _stacked_haar(x, level).tobytes()
    assert haar_inverse(x, level).tobytes() == _stacked_haar(x, level, inverse=True).tobytes()
    assert x.tobytes() == kept.tobytes()  # the input is never written


# (kernel size, image shape): square, odd non-square, and a kernel larger than the image
SPECTRUM_CASES = [(3, (8, 8)), (3, (7, 8)), (5, (3, 4))]
SPECTRUM_IDS = ["k3-8x8", "k3-7x8", "k5-3x4"]
# random non-symmetric kernels, two of them larger than the image
DIRECTION_CASES = [(1, (4, 5)), (3, (8, 8)), (3, (7, 8)), (5, (3, 4)), (7, (16, 9)), (9, (2, 2))]
DIRECTION_IDS = [f"k{k}-{r}x{c}" for k, (r, c) in DIRECTION_CASES]


class TestBlur:
    def test_identity_kernel(self, rng):
        op = BlurOperator(np.array([[1.0]]))
        x = rng.standard_normal((6, 6))
        np.testing.assert_allclose(op.apply(x), x)

    def test_constant_image_unchanged(self):
        op = BlurOperator(gaussian_kernel(5, 0.8))
        x = np.full((12, 12), 0.4)
        np.testing.assert_allclose(op.apply(x), x, atol=1e-14)

    def test_adjoint_inner_products(self, rng):
        op = BlurOperator(gaussian_kernel(5, 0.6))
        for _ in range(5):
            x, y = rng.standard_normal((16, 16)), rng.standard_normal((16, 16))
            assert float(np.vdot(op.apply(x), y)) == pytest.approx(
                float(np.vdot(x, op.adjoint(y))), abs=1e-10
            )

    @pytest.mark.parametrize("size, shape", DIRECTION_CASES, ids=DIRECTION_IDS)
    def test_apply_and_adjoint_match_wrapped_convolution(self, rng, size, shape):
        # scipy serves as an outside reference here only; a symmetric kernel
        # could not tell apply from adjoint, so these kernels are not symmetric
        k = rng.uniform(0.1, 1.0, size=(size, size))
        k /= k.sum()
        op = BlurOperator(k)
        x = rng.standard_normal(shape)
        np.testing.assert_allclose(
            op.apply(x), ndimage.convolve(x, k, mode="wrap"), rtol=0, atol=1e-14
        )
        np.testing.assert_allclose(
            op.adjoint(x), ndimage.convolve(x, k[::-1, ::-1], mode="wrap"), rtol=0, atol=1e-14
        )

    def test_norm_at_most_one(self):
        op = BlurOperator(gaussian_kernel(5, 0.5))
        norm_sq = gram_norm(op, (16, 16))
        assert norm_sq <= 1.0 + 1e-12
        assert norm_sq == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("size, shape", SPECTRUM_CASES, ids=SPECTRUM_IDS)
    def test_smallest_gram_eigenvalue_matches_dense_eigensolve(self, size, shape):
        # desk-size oracle: materialize T column by column
        op = BlurOperator(gaussian_kernel(size, 0.4))
        n = shape[0] * shape[1]
        T = np.zeros((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            T[:, j] = op.apply(e.reshape(shape)).ravel()
        w = np.linalg.eigvalsh(T.T @ T)
        est = gram_smallest_eigenvalue(op, shape)
        assert est == pytest.approx(w[0], rel=1e-12)
        assert gram_norm(op, shape) == pytest.approx(w[-1], rel=1e-9)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf, 1e-200, 1e200])
    def test_gaussian_kernel_rejects_a_bad_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            gaussian_kernel(5, sigma)

    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            BlurOperator(np.array([[0.5, 0.4], [0.05, 0.04]]))  # not square-normalized
        with pytest.raises(ShapeMismatch):
            BlurOperator(np.ones((2, 3)) / 6.0)
        with pytest.raises(ShapeMismatch):  # even side: the flipped-kernel adjoint is wrong
            BlurOperator(np.ones((4, 4)) / 16.0)


FFT_SHAPES = [(4, 5), (8, 8), (7, 8), (3, 4), (16, 9), (2, 2), (64, 64)]


@pytest.mark.parametrize("shape", FFT_SHAPES, ids=[f"{r}x{c}" for r, c in FFT_SHAPES])
def test_fft_passes_are_bitwise_rfft2(rng, shape):
    x = rng.standard_normal(shape)
    spectrum = np.fft.rfft2(x)
    assert _rfft2(x).tobytes() == spectrum.tobytes()
    assert _irfft2(spectrum, shape).tobytes() == np.fft.irfft2(spectrum, s=shape).tobytes()


class TestOperatorLeastSquares:
    @pytest.mark.parametrize("size, shape", SPECTRUM_CASES, ids=SPECTRUM_IDS)
    def test_prox_matches_dense_solve(self, rng, size, shape):
        op = BlurOperator(gaussian_kernel(size, 0.5))
        data = rng.standard_normal(shape)
        fn = OperatorLeastSquares(op, data)
        x = rng.standard_normal(shape)
        gamma = 2.0
        p = fn.prox(gamma, x)
        residual = p + gamma * op.adjoint(op.apply(p)) - (x + gamma * op.adjoint(data))
        assert np.linalg.norm(residual) <= 1e-13 * np.linalg.norm(x)

    @pytest.mark.parametrize("size, shape", SPECTRUM_CASES, ids=SPECTRUM_IDS)
    def test_gradient_and_value(self, rng, size, shape):
        op = BlurOperator(gaussian_kernel(size, 0.5))
        data = rng.standard_normal(shape)
        fn = OperatorLeastSquares(op, data)
        x = rng.standard_normal(shape)
        grad = fn.gradient(x)
        direct = op.adjoint(op.apply(x) - data)
        assert np.linalg.norm(grad - direct) <= 1e-13 * np.linalg.norm(direct)
        h = 1e-6
        d = rng.standard_normal(shape)
        fd = (fn.value(x + h * d) - fn.value(x - h * d)) / (2 * h)
        assert float(np.vdot(grad, d)) == pytest.approx(fd, rel=1e-5)

    @pytest.mark.parametrize("size, shape", SPECTRUM_CASES, ids=SPECTRUM_IDS)
    def test_moduli_from_the_held_spectrum(self, rng, size, shape):
        # bit for bit what the spectral helpers give, so restore outputs keep their bytes
        op = BlurOperator(gaussian_kernel(size, 0.4))
        fn = OperatorLeastSquares(op, rng.standard_normal(shape))
        assert fn.moduli == (gram_smallest_eigenvalue(op, shape), 1.0 / gram_norm(op, shape))
        assert tuple(fn.to_prox_function().regularity) == fn.moduli

    @pytest.mark.parametrize("shape", [(8, 8), (7, 8), (3, 4)], ids=["8x8", "7x8", "3x4"])
    def test_prox_follows_every_step_size_change(self, rng, shape):
        # the step-size terms are cached; a stale cache would reuse gamma 2's
        fn = OperatorLeastSquares(BlurOperator(gaussian_kernel(3, 0.5)), rng.standard_normal(shape))
        x = rng.standard_normal(shape)
        for gamma in (0.5, 2.0, 0.5, 0.5):
            closed = np.fft.irfft2(
                np.fft.rfft2(x + gamma * fn.adj_data) / (1.0 + gamma * fn.spectrum), s=shape
            )
            assert fn.prox(gamma, x).tobytes() == closed.tobytes()
        with pytest.raises(ValueError):
            fn.prox(0.0, x)

    def test_firm_nonexpansiveness(self, rng):
        op = BlurOperator(gaussian_kernel(3, 0.5))
        fn = OperatorLeastSquares(op, rng.standard_normal((8, 8)))
        pf = fn.to_prox_function()
        assert firm_nonexpansiveness_gap(pf, rng, pairs=100, scale=1.0) <= 1e-10


class TestSmallHelpers:
    def test_diagonal_quadratic_regularity(self):
        fn = QuadraticFunction(0.0, np.zeros(2), np.diag([0.5, 2.0])).to_prox_function()
        assert fn.regularity == (0.5, 0.5)
        x = np.array([1.0, -3.0])
        assert np.array_equal(fn.prox(0.7, x), x / (1.0 + 0.7 * np.array([0.5, 2.0])))

    def test_pgm_round_trip(self, rng, tmp_path):
        img = rng.random((9, 7))
        path = tmp_path / "x.pgm"
        pgm.write_pgm(path, img, maxval=65535)
        back = pgm.read_pgm(path)
        np.testing.assert_allclose(back, img, atol=1.0 / 65535)

    # a cut inside a 16-bit sample leaves a partial one, which is no pixel
    @pytest.mark.parametrize("maxval, cut, got", [(255, 5, 7), (65535, 1, 11), (65535, 6, 9)])
    def test_pgm_truncated_binary_names_the_file(self, tmp_path, maxval, cut, got):
        path = tmp_path / "cut.pgm"
        pgm.write_pgm(path, np.zeros((3, 4)), maxval=maxval)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(IOError, match=f"cut.pgm: expected 12 pixels, got {got}$"):
            pgm.read_pgm(path)

    def test_pgm_ascii_reader(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_text("P2\n# comment\n3 2\n255\n0 128 255\n64 32 16\n")
        img = pgm.read_pgm(path)
        assert img.shape == (2, 3)
        assert img[0, 1] == pytest.approx(128 / 255)
