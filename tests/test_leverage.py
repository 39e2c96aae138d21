"""Shift machinery: conjugate closed forms, prox identities, transfer, recovery."""

import numpy as np
import pytest
from scipy.optimize import minimize

from prsplit.core import (
    LeverageParams,
    RegularityParams,
    moreau_gap,
)
from prsplit.errors import ShiftDomain, StepDomain, TransferDomain
from prsplit.leverage import (
    AffinePart,
    MinusInfinity,
    PointIndicator,
    QuadraticFunction,
    ShiftedProxSpec,
    quadratic_conjugate_shift,
    recover_solution,
    regularity_transfer,
    shifted_prox,
    shifted_reflect,
)
from prsplit.harness import make_least_squares_problem


def random_quadratic(rng, dim=4, curv_range=(0.3, 3.0)):
    return QuadraticFunction(
        offset=float(rng.uniform(-1, 1)),
        linear=rng.standard_normal(dim),
        quad=float(rng.uniform(*curv_range)),
    )


class TestQuadraticConjugateShift:
    def test_affine_case_at_lower_endpoint(self, rng):
        q = random_quadratic(rng)
        eta = 0.7
        out = quadratic_conjugate_shift(q, delta=-float(q.quad), eta=eta)
        assert isinstance(out, AffinePart)
        np.testing.assert_allclose(out.slope, q.linear)
        assert out.offset == pytest.approx(
            q.offset - 0.5 * eta * float(np.vdot(q.linear, q.linear))
        )

    def test_point_indicator_case(self, rng):
        q = random_quadratic(rng)
        s = float(q.quad) + 0.4
        out = quadratic_conjugate_shift(q, delta=0.4, eta=-1.0 / s)
        assert isinstance(out, PointIndicator)
        np.testing.assert_allclose(out.point, -q.linear / s)
        assert out.offset == pytest.approx(
            q.offset - float(np.vdot(q.linear, q.linear)) / (2 * s)
        )

    def test_minus_infinity_case(self, rng):
        q = random_quadratic(rng)
        s = float(q.quad) + 0.4
        out = quadratic_conjugate_shift(q, delta=0.4, eta=-1.0 / s - 0.1)
        assert isinstance(out, MinusInfinity)

    def test_quadratic_case_is_double_conjugate(self, rng):
        # zero shifts must reproduce the function itself
        q = random_quadratic(rng)
        out = quadratic_conjugate_shift(q, 0.0, 0.0)
        assert isinstance(out, QuadraticFunction)
        x = rng.standard_normal(q.linear.size)
        assert out.value(x) == pytest.approx(q.value(x), rel=1e-12)

    def test_matrix_quadratic_prox_and_validation(self, rng):
        M = rng.standard_normal((4, 4))
        Q = M.T @ M
        q = QuadraticFunction(offset=0.3, linear=rng.standard_normal(4), quad=Q)
        x = rng.standard_normal(4)
        p = q.prox(0.7, x)
        residual = p + 0.7 * (Q @ p + q.linear) - x
        assert np.linalg.norm(residual) <= 1e-12 * (1 + np.linalg.norm(x))
        # rank deficient: Q = W^T W with W 2 x 4 has two zero eigenvalues,
        # which the eigensolver may round to either sign
        W = rng.standard_normal((2, 4))
        low = QuadraticFunction(0.0, rng.standard_normal(4), W.T @ W)
        fn = low.to_prox_function()
        assert fn.regularity[0] == 0.0
        assert fn.regularity[1] == pytest.approx(1.0 / np.linalg.eigvalsh(W.T @ W)[-1], rel=1e-12)
        for gamma in (0.7, 2.5, 0.7):
            dense = np.linalg.solve(np.eye(4) + gamma * low.quad, x - gamma * low.linear)
            np.testing.assert_allclose(fn.prox(gamma, x), dense, rtol=1e-12, atol=1e-14)
        with pytest.raises(ValueError):
            QuadraticFunction(0.0, np.zeros(4), Q + 1e-6 * rng.standard_normal((4, 4)))
        with pytest.raises(ValueError):
            QuadraticFunction(0.0, np.zeros(4), -Q)
        with pytest.raises(ValueError):
            quadratic_conjugate_shift(q, 0.0, 0.0)  # closed form is isotropic-only

    def test_quadratic_case_matches_pointwise_conjugation(self, rng):
        # independent oracle: conjugate twice through the scalar closed form
        # of QuadraticFunction.conjugate plus the quadratic shift
        for _ in range(10):
            q = random_quadratic(rng)
            delta, eta = float(rng.uniform(-0.2, 1.0)), float(rng.uniform(-0.2, 1.0))
            shifted = QuadraticFunction(q.offset, q.linear, float(q.quad) + delta)
            conj = shifted.conjugate()
            double = QuadraticFunction(conj.offset, conj.linear, float(conj.quad) + eta).conjugate()
            out = quadratic_conjugate_shift(q, delta, eta)
            assert isinstance(out, QuadraticFunction)
            x = rng.standard_normal(q.linear.size)
            assert out.value(x) == pytest.approx(double.value(x), rel=1e-10)


class TestShiftedProx:
    def test_zero_shifts_reduce_to_plain_prox(self, rng):
        q = random_quadratic(rng)
        spec = ShiftedProxSpec(q.to_prox_function(), delta=0.0, eta=0.0)
        x = rng.standard_normal(4)
        np.testing.assert_allclose(shifted_prox(spec, 0.8, x), q.prox(0.8, x), rtol=1e-14)
        np.testing.assert_allclose(
            shifted_reflect(spec, 0.8, x), 2 * q.prox(0.8, x) - x, rtol=1e-13
        )

    def test_matches_closed_form_quadratic_prox(self, rng):
        # prox of tau*(shifted conjugate)* computed two ways: the rescaling
        # identity on the base prox vs the conjugated quadratic directly
        for _ in range(50):
            q = random_quadratic(rng)
            delta = float(rng.uniform(-0.25 * float(q.quad), 1.0))
            eta = float(rng.uniform(-0.5 / (float(q.quad) + delta + 1.0), 0.8))
            tau = float(rng.uniform(max(-eta, 0.0) + 0.05, 2.0))
            if delta * (tau + eta) <= -0.95:
                continue
            spec = ShiftedProxSpec(q.to_prox_function(), delta, eta)
            shifted = quadratic_conjugate_shift(q, delta, eta)
            assert isinstance(shifted, QuadraticFunction)
            x = rng.standard_normal(4)
            via_identity = shifted_prox(spec, tau, x)
            via_closed_form = shifted.prox(tau, x)
            np.testing.assert_allclose(via_identity, via_closed_form, atol=1e-10)

    def test_matches_brute_force_minimization(self, rng):
        # numeric oracle: minimize tau*Phi(y) + ||y - x||^2/2 directly, with
        # Phi the independently-conjugated quadratic
        for _ in range(50):
            q = random_quadratic(rng, dim=3)
            delta = float(rng.uniform(-0.2 * float(q.quad), 0.8))
            eta = float(rng.uniform(0.0, 0.6))
            tau = float(rng.uniform(0.1, 1.5))
            spec = ShiftedProxSpec(q.to_prox_function(), delta, eta)
            shifted = quadratic_conjugate_shift(q, delta, eta)
            x = rng.standard_normal(3)
            res = minimize(
                lambda y: tau * shifted.value(y) + 0.5 * np.sum((y - x) ** 2),
                x,
                jac=lambda y: tau * shifted.gradient(y) + (y - x),
                method="BFGS",
                options={"gtol": 1e-12},
            )
            np.testing.assert_allclose(shifted_prox(spec, tau, x), res.x, atol=1e-8)

    def test_reflect_is_two_prox_minus_identity(self, rng):
        q = random_quadratic(rng)
        spec = ShiftedProxSpec(q.to_prox_function(), delta=0.3, eta=0.2)
        for _ in range(20):
            x = rng.standard_normal(4)
            lhs = shifted_reflect(spec, 1.1, x)
            rhs = 2.0 * shifted_prox(spec, 1.1, x) - x
            np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    def test_tight_pair_coordinate_multipliers(self):
        # on the diagonal pair, the second coordinate of the reflected
        # operator scales by minus the smooth branch of the rate factor
        rho, alpha = 1.0, 0.25
        reg = RegularityParams(rho, alpha, 0.0, 1.0)
        from prsplit.rates import optimal_params, delta_star

        lp = optimal_params(reg, delta_star(reg))
        f = QuadraticFunction(0.0, np.zeros(2), np.diag([rho, 1.0 / alpha])).to_prox_function()
        # prox of the tight f is componentwise x/(1+gamma*rho), x/(1+gamma/alpha)
        gamma = 0.37
        p = f.prox(gamma, np.array([1.0, 1.0]))
        np.testing.assert_allclose(p, [1 / (1 + gamma * rho), 1 / (1 + gamma / alpha)])
        spec = ShiftedProxSpec(f, lp.delta, lp.eta)
        out = shifted_reflect(spec, lp.tau, np.array([0.0, 1.0]))
        w = 1 + alpha * lp.delta
        expected = -((lp.tau - lp.eta) * w - alpha) / ((lp.tau + lp.eta) * w + alpha)
        assert out[1] == pytest.approx(expected, abs=1e-12)

    def test_domain_errors(self, rng):
        q = random_quadratic(rng)
        spec = ShiftedProxSpec(q.to_prox_function(), delta=-0.9 * float(q.quad), eta=0.0)
        with pytest.raises(StepDomain):
            shifted_prox(spec, 0.0, np.zeros(4))
        x = np.zeros(4)
        # large tau makes delta*(tau+eta) <= -1
        with pytest.raises(ShiftDomain):
            shifted_prox(spec, 2.0 / (0.9 * float(q.quad)), x)
        with pytest.raises(ShiftDomain):
            ShiftedProxSpec(q.to_prox_function(), delta=-float(q.quad) - 0.1, eta=0.0)


class TestRegularityTransfer:
    def test_worked_example(self):
        out = regularity_transfer((1.0, 0.25), delta=-2.0 / 3.0, eta=0.0)
        assert out[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert out[1] == pytest.approx(0.3, abs=1e-15)

    def test_identity_transfer(self):
        assert regularity_transfer((0.7, 0.2), 0.0, 0.0) == (0.7, 0.2)

    def test_sign_symmetric_for_the_g_role(self, rng):
        # the g side uses (mu, beta) with (-delta, -eta); same formulas apply
        for _ in range(10):
            sc, coco = float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.1, 0.9))
            if sc * coco > 1:
                continue
            delta = float(rng.uniform(-0.5 * sc, 0.5))
            eta = float(rng.uniform(0.0, 0.3))
            direct = regularity_transfer((sc, coco), delta, eta)
            mirrored = regularity_transfer((sc, coco), -(-delta), -(-eta))
            assert direct == mirrored

    def test_endpoint_reports_zero_moduli(self):
        sc_out, coco_out = regularity_transfer((1.0, 0.5), delta=-1.0, eta=-0.5 / (1 - 0.5))
        assert sc_out == 0.0
        assert coco_out == 0.0

    def test_inverse_shift_roundtrip(self, rng):
        for _ in range(20):
            sc, coco = float(rng.uniform(0.2, 1.5)), 0.0
            coco = float(rng.uniform(0.05, 0.9)) / sc
            delta = float(rng.uniform(-0.5 * sc, 1.0))
            eta = float(rng.uniform(-0.5 * coco / (1 + coco * delta), 1.0))
            sc1, coco1 = regularity_transfer((sc, coco), delta, eta)
            sc2, coco2 = regularity_transfer((sc1, coco1), -delta * 0, 0.0)  # no-op
            assert (sc2, coco2) == (sc1, coco1)
            back = regularity_transfer((sc1, coco1), 0.0, -eta)
            back = regularity_transfer((back[0], back[1]), -delta, 0.0)
            assert back[0] == pytest.approx(sc, rel=1e-12)
            assert back[1] == pytest.approx(coco, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(TransferDomain):
            regularity_transfer((1.0, 2.0), 0.0, 0.0)  # product > 1
        with pytest.raises(TransferDomain):
            regularity_transfer((1.0, 0.5), -1.5, 0.0)
        with pytest.raises(TransferDomain):
            regularity_transfer((1.0, 0.5), 0.0, -0.6)


class TestMoreauDecomposition:
    def test_quadratic_conjugate_pair(self, rng):
        for _ in range(20):
            q = random_quadratic(rng)
            conj = q.conjugate()
            x = rng.standard_normal(4)
            gamma = float(rng.uniform(0.2, 3.0))
            assert moreau_gap(q.prox, conj.prox, gamma, x) <= 1e-12 * (1 + np.linalg.norm(x))


class TestRecoverSolution:
    def test_eta_zero_is_identity(self, rng):
        problem = _random_ls_problem(rng)
        z = rng.standard_normal(problem.dimension)
        lp = LeverageParams(0.3, 0.0, 1.0)
        assert recover_solution(z, problem, lp) is z

    def test_zero_fixed_point_maps_to_zero(self, rng):
        problem = _random_ls_problem(rng, homogeneous=True)
        for eta in (0.4, -0.4):
            lp = LeverageParams(0.2, eta, 1.0)
            out = recover_solution(np.zeros(problem.dimension), problem, lp)
            np.testing.assert_allclose(out, 0.0, atol=1e-14)

    @pytest.mark.parametrize("eta", [0.35, -0.35])
    def test_recovers_normal_equations_solution(self, rng, eta):
        # build the shifted-problem solution analytically from x* and walk back
        problem = _random_ls_problem(rng)
        x_star = problem.solution_oracle
        delta = 0.25
        if eta > 0:
            u = problem.f.gradient(x_star) + delta * x_star
        else:
            u = -(problem.g.gradient(x_star) - delta * x_star)
        z_tilde = x_star + eta * u
        lp = LeverageParams(delta, eta, 1.0)
        x = recover_solution(z_tilde, problem, lp)
        np.testing.assert_allclose(x, x_star, atol=1e-10)
        grad_sum = problem.f.gradient(x) + problem.g.gradient(x)
        assert np.linalg.norm(grad_sum) <= 1e-8 * (1 + np.linalg.norm(problem.f.gradient(x)))

    def test_shift_domain_guard(self, rng):
        problem = _random_ls_problem(rng)
        with pytest.raises(ShiftDomain):
            recover_solution(np.zeros(problem.dimension), problem, LeverageParams(-2.0, 0.6, 1.0))


def _random_ls_problem(rng, homogeneous=False):
    m = 5
    A = rng.standard_normal((7, m))
    B = rng.standard_normal((6, m))
    a = None if homogeneous else rng.standard_normal(7)
    b = None if homogeneous else rng.standard_normal(6)
    return make_least_squares_problem(A, a, B, b)
