"""Iteration schemes: contraction, reductions, witnesses, and stopping logic."""

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from prsplit import solvers
from prsplit.core import (
    CompositeProblem,
    LeverageParams,
    ProxFunction,
    RegularityParams,
    fixed_point_oracle,
)
from prsplit.errors import DeltaOutOfRange, EtaOutOfRange, NotSmooth, TauTooSmall
from prsplit.harness import make_least_squares_problem, solve_method
from prsplit.leverage import QuadraticFunction
from prsplit.proxlib import HuberFn, LeastSquaresFn
from prsplit.rates import delta_star, optimal_params, optimal_rate, rate_r1, rate_r2
from prsplit.solvers import (
    SolverConfig,
    _Monitor,
    fista_solve,
    prs_lev_solve,
)

from conftest import interior_delta, sample_regularity
from oracles import (
    ShiftedProxSpec,
    shifted_reflect,
    stepwise_affine_fista,
    stepwise_affine_split,
)

TIGHT_REG = RegularityParams(rho=1.0, alpha=0.25, mu=0.0, beta=1.0)

NONFINITE_CASES = [
    (stopping, record, poison)
    for stopping in ("residual", "fixed_point_distance", "normalized_error")
    for record in (True, False)
    for poison in (math.nan, math.inf)
]


def tight_problem(reg=TIGHT_REG):
    f = QuadraticFunction(0.0, np.zeros(2), np.diag([reg.rho, 1.0 / reg.alpha]))
    g = QuadraticFunction(0.0, np.zeros(2), np.diag([reg.mu, 1.0 / reg.beta]))
    return CompositeProblem(
        f=f.to_prox_function(), g=g.to_prox_function(), regularity=reg,
        solution_oracle=np.zeros(2),
    )


def random_instance(rng, m=8, n=10, p=9, homogeneous=False):
    A = 0.5 * rng.random((n, m))
    B = 3.0 * rng.random((p, m))
    a = None if homogeneous else rng.standard_normal(n)
    b = None if homogeneous else rng.standard_normal(p)
    return make_least_squares_problem(A, a, B, b)


ONE_STEP = SolverConfig(max_iter=1, tol=1e-300, stopping="residual")

# the B of least-squares pairs with an exact quadratic, B^T B = c*I (with one
# column, A^T A is one too)
EXACT_QUADRATIC_B = {
    "B-identity": lambda rng: np.eye(5),
    "B-3I": lambda rng: 3.0 * np.eye(5),
    "B-orthogonal": lambda rng: np.linalg.qr(rng.standard_normal((5, 5)))[0],
    "one-column": lambda rng: rng.standard_normal((4, 1)),
}


def classical(tau):
    """Classical PRS with step ``tau``, and relaxed DRS with a ``lam`` < 1."""
    return LeverageParams(0.0, 0.0, tau)


def leveraged_step(problem, lp, z):
    """z after exactly one leveraged step from ``z``."""
    _, z_next, _ = prs_lev_solve(problem, lp, ONE_STEP, z0=z)
    return z_next


class TestLeveragedStep:
    def test_reflected_point_identity(self, rng):
        # one step is classical PRS on the shifted pair: R_g~ R_f~ z, with the
        # reflections of the test oracles as the independent copy of the shift algebra
        # (eta = 0 at delta*, so an interior shift exercises eta as well)
        problem = random_instance(rng)
        reg = problem.regularity
        for delta in (delta_star(reg), interior_delta(rng, reg)):
            lp = optimal_params(reg, delta)
            z = rng.standard_normal(problem.dimension)
            d, e, t = lp.delta, lp.eta, lp.tau
            y = shifted_reflect(ShiftedProxSpec(problem.f, d, e, "plus"), t, z)
            expected = shifted_reflect(ShiftedProxSpec(problem.g, d, e, "minus"), t, y)
            gap = np.linalg.norm(leveraged_step(problem, lp, z) - expected)
            assert gap <= 1e-13 * np.linalg.norm(expected)

    def test_tight_example_single_step_contracts_by_r_star(self):
        problem = tight_problem()
        lp = optimal_params(TIGHT_REG, delta_star(TIGHT_REG))
        z0 = np.array([1.0, 1.0])
        z1 = leveraged_step(problem, lp, z0)
        r_star = optimal_rate(TIGHT_REG)
        # both coordinates contract by exactly the optimal factor, not just
        # the norm: the map is diagonal with both entries equal to r*
        np.testing.assert_allclose(z1 / z0, r_star, rtol=1e-12)
        assert r_star == pytest.approx(0.116963, abs=1e-6)

    def test_zero_shift_step_equals_classical_prs_step(self, rng):
        problem = random_instance(rng)
        tau = 0.7
        z = rng.standard_normal(problem.dimension)
        z1 = leveraged_step(problem, LeverageParams(0.0, 0.0, tau), z)
        x = problem.f.prox(tau, z)
        p = problem.g.prox(tau, 2 * x - z)
        np.testing.assert_allclose(z1, z + 2 * (p - x), atol=1e-13)

    def test_reduced_algorithm_at_delta_star(self, rng):
        # with eta = 0 the recurrence collapses to the two-prox short form
        problem = random_instance(rng)
        reg = problem.regularity
        lp = optimal_params(reg, delta_star(reg))
        assert lp.eta == pytest.approx(0.0, abs=1e-14)
        z = rng.standard_normal(problem.dimension)
        z1 = leveraged_step(problem, lp, z)
        d, t = lp.delta, lp.tau
        x = problem.f.prox(t / (1 + d * t), z / (1 + d * t))
        y = 2 * x - z
        p = problem.g.prox(t / (1 - d * t), y / (1 - d * t))
        np.testing.assert_allclose(z1, z + 2 * (p - x), atol=1e-12)


class TestLeveragedSolve:
    def test_tight_contraction_ratios_all_equal_r_star(self):
        problem = tight_problem()
        lp = optimal_params(TIGHT_REG, delta_star(TIGHT_REG))
        config = SolverConfig(max_iter=20, tol=1e-300, stopping="residual")
        _, _, trace = prs_lev_solve(problem, lp, config, z0=np.array([1.0, 1.0]))
        r_star = optimal_rate(TIGHT_REG)
        ratios = trace.ratios()
        assert len(ratios) == 20
        assert np.nanmax(np.abs(ratios - r_star)) <= 1e-12

    def test_starting_at_fixed_point_stops_immediately(self, rng):
        problem = random_instance(rng)
        lp = optimal_params(problem.regularity, delta_star(problem.regularity))
        z_star = fixed_point_oracle(problem, lp)
        config = SolverConfig(max_iter=50, tol=1e-10)
        _, _, trace = prs_lev_solve(problem, lp, config, z0=z_star)
        assert trace.status == "converged"
        assert trace.iterations <= 1
        assert trace.residuals[0] <= 1e-10

    def test_iteration_count_obeys_the_rate_bound(self, rng):
        problem = random_instance(rng, m=12, n=14, p=13)
        reg = problem.regularity
        lp = optimal_params(reg, delta_star(reg))
        tol = 1e-10
        config = SolverConfig(max_iter=100000, tol=tol, stopping="fixed_point_distance")
        z0 = fixed_point_oracle(problem, lp) + rng.standard_normal(problem.dimension)
        _, _, trace = prs_lev_solve(problem, lp, config, z0=z0)
        assert trace.status == "converged"
        d0 = trace.distances[0]
        r = rate_r1(lp, reg) * rate_r2(lp, reg)
        bound = math.log(tol / d0) / math.log(r) + 1
        assert trace.iterations <= bound

    def test_per_step_contraction_bound(self, rng):
        # ||z_{n+1} - z*|| <= r1*r2*||z_n - z*|| + 1e-10*||z0 - z*|| at every step
        for _ in range(5):
            problem = random_instance(rng)
            reg = problem.regularity
            lp = optimal_params(reg, interior_delta(rng, reg))
            r = rate_r1(lp, reg) * rate_r2(lp, reg)
            config = SolverConfig(max_iter=5000, tol=1e-6, stopping="normalized_error")
            z0 = rng.standard_normal(problem.dimension)
            _, _, trace = prs_lev_solve(problem, lp, config, z0=z0)
            d = np.array(trace.distances)
            assert np.all(d[1:] <= r * d[:-1] + 1e-10 * d[0])

    @pytest.mark.parametrize("record", [True, False], ids=["recorded", "unrecorded"])
    @pytest.mark.parametrize("name", EXACT_QUADRATIC_B)
    def test_exact_quadratic_is_solved_in_one_step(self, rng, name, record):
        # alpha*rho = 1 or beta*mu = 1 gives r* = 0 (within rounding for the
        # orthogonal B, whose computed spectrum is 1 within a few ulps): one
        # step reaches x*
        B = EXACT_QUADRATIC_B[name](rng)
        A = rng.standard_normal((8, B.shape[1]))
        a, b = rng.standard_normal(8), rng.standard_normal(len(B))
        problem = make_least_squares_problem(A, a, B, b)
        reg = problem.regularity
        assert max(reg.alpha * reg.rho, reg.beta * reg.mu) >= 1.0 - 1e-14
        assert 0.0 <= optimal_rate(reg) <= 1e-14
        config = SolverConfig(record_trace=record)
        z0 = rng.standard_normal(B.shape[1])
        x, _, trace = solve_method(problem, "prs_lev", config, z0=z0)
        assert trace.status == "converged" and trace.iterations == 1
        x_star = np.linalg.solve(A.T @ A + B.T @ B, A.T @ a + B.T @ b)
        np.testing.assert_allclose(x, x_star, rtol=0.0, atol=1e-8)

    def test_final_x_is_first_order_stationary(self, rng):
        problem = random_instance(rng)
        lp = optimal_params(problem.regularity, delta_star(problem.regularity))
        config = SolverConfig(max_iter=50000, tol=1e-13, stopping="fixed_point_distance")
        x, _, trace = prs_lev_solve(problem, lp, config, z0=rng.standard_normal(problem.dimension))
        assert trace.status == "converged"
        grad = problem.f.gradient(x) + problem.g.gradient(x)
        assert np.linalg.norm(grad) <= 1e-6 * (1 + np.linalg.norm(problem.f.gradient(x)))


class TestAffineStep:
    """Least-squares pairs have resolvents, so each step is one precomposed ``T z + t``."""

    def test_iterates_match_the_two_prox_recurrence(self, rng):
        problem = random_instance(rng)
        f, g = problem.f, problem.g
        assert f.resolvent is not None and g.resolvent is not None
        reg = problem.regularity
        steps = 40
        config = SolverConfig(max_iter=steps, tol=1e-300, stopping="residual")
        z0 = rng.standard_normal(problem.dimension)
        delta = interior_delta(rng, reg)
        assert delta != 0.0

        def agree(solved, z, residuals):
            # the iterate, and the residual ||p - x|| read back from z_next - z
            _, z_split, trace = solved
            tol = 1e-12 * (1 + np.linalg.norm(z))
            assert np.linalg.norm(z_split - z) <= tol
            np.testing.assert_allclose(trace.residuals, residuals, rtol=0.0, atol=tol)

        for lp in (optimal_params(reg, delta_star(reg)), optimal_params(reg, delta)):
            t, e, sf, sg = lp.tau, lp.eta, lp.f_scale, lp.g_scale
            z, residuals = z0, []
            for _ in range(steps):
                x = f.prox((t + e) / sf, z / sf)
                y = (2 * t * x - (t - e) * z) / (t + e)
                d = g.prox((t - e) / sg, y / sg) - x
                z = z + 2 * t / (t - e) * d
                residuals.append(np.linalg.norm(d))
            agree(prs_lev_solve(problem, lp, config, z0=z0), z, residuals)
        tau = 0.8
        for lam in (1.0, 0.5):
            z, residuals = z0, []
            for _ in range(steps):
                x = f.prox(tau, z)
                d = g.prox(tau, 2 * x - z) - x
                z = z + 2 * lam * d
                residuals.append(np.linalg.norm(d))
            solved = prs_lev_solve(problem, classical(tau), config, z0=z0, lam=lam)
            agree(solved, z, residuals)

    @pytest.mark.parametrize("stopping", ["residual", "fixed_point_distance", "normalized_error"])
    @pytest.mark.parametrize("record", [True, False])
    def test_nonfinite_start_stops_at_once(self, rng, stopping, record):
        problem = random_instance(rng)
        lp = optimal_params(problem.regularity, delta_star(problem.regularity))
        z0 = rng.standard_normal(problem.dimension)
        z0[0] = math.inf
        config = SolverConfig(max_iter=20000, tol=1e-12, stopping=stopping, record_trace=record)
        for params in (lp, classical(0.8)):
            _, _, trace = prs_lev_solve(problem, params, config, z0=z0)
            assert trace.status == "nonfinite"
            assert trace.iterations == 1

    def test_tight_pair_operator_norm_is_r_star(self, rng):
        # the paper's worst case, read off the step itself: ||T||_2 = r* at
        # delta* and at an interior shift, for every moduli set the tight pair
        # runs on in the tests (the fixed ones and criterion 1's twenty draws)
        draws = np.random.default_rng(101)
        moduli = [TIGHT_REG, RegularityParams(1.0, 0.5, 1.0, 0.5),
                  RegularityParams(0.5, 0.5, 0.0, 1.0)]
        moduli += [sample_regularity(draws, zero_rho=draws.random() < 0.25,
                                     zero_mu=draws.random() < 0.25) for _ in range(20)]
        z = rng.standard_normal(2)
        for reg in moduli:
            problem = tight_problem(reg)
            for delta in (delta_star(reg), interior_delta(rng, reg)):
                lp = optimal_params(reg, delta)
                t, e, sf, sg = lp.tau, lp.eta, lp.f_scale, lp.g_scale
                M_f, _ = problem.f.resolvent((t + e) / sf)
                M_g, _ = problem.g.resolvent((t - e) / sg)
                A1, A2 = M_f / sf, M_g * ((t - e) / ((t + e) * sg))
                c0 = 2.0 * t / (t - e)
                T = np.eye(2) + c0 * (c0 * (A2 @ A1) - A2 - A1)
                assert abs(np.linalg.svd(T, compute_uv=False)[0] - optimal_rate(reg)) <= 1e-14
                # and it is the step the solver takes
                np.testing.assert_allclose(leveraged_step(problem, lp, z), T @ z,
                                           rtol=0.0, atol=1e-15)


class TestSkipAhead:
    """With the trace off and a z*-based rule, a contractive affine pair takes
    m ordinary steps, skips ahead by powers of ``T``, and steps the rest."""

    @pytest.fixture
    def skips(self, monkeypatch):
        # how far each solve skipped past its first m steps
        skipped, descend = [], solvers._power_descent

        def spy(*args):
            n, e = descend(*args)
            skipped.append(n)
            return n, e

        monkeypatch.setattr(solvers, "_power_descent", spy)
        return skipped

    @staticmethod
    def methods(rng, problem):
        reg = problem.regularity
        tau = 0.8
        return {
            "prs_lev_delta_star": partial(prs_lev_solve, problem, optimal_params(reg, delta_star(reg))),
            "prs_lev_interior": partial(
                prs_lev_solve, problem, optimal_params(reg, interior_delta(rng, reg))
            ),
            "prs": partial(prs_lev_solve, problem, classical(tau)),
            "drs": partial(prs_lev_solve, problem, classical(tau), lam=0.5),
        }

    @pytest.mark.parametrize("stopping", ["fixed_point_distance", "normalized_error"])
    def test_counts_and_statuses_equal_the_recorded_loop(self, rng, skips, stopping):
        long_solves = 0
        for m, n, p in ((8, 10, 9), (12, 14, 13), (20, 30, 30), (20, 10, 20)):
            problem = random_instance(rng, m=m, n=n, p=p)
            z0 = rng.standard_normal(m)
            for name, solve in self.methods(rng, problem).items():
                solved = []
                for record in (True, False):
                    config = SolverConfig(
                        max_iter=50000, tol=1e-10, stopping=stopping, record_trace=record
                    )
                    solved.append(solve(config, z0=z0))
                (_, z_on, on), (_, z_off, off) = solved
                assert (off.iterations, off.status) == (on.iterations, on.status), name
                assert on.status == "converged"
                assert np.linalg.norm(z_on - z_off) <= 1e-12 * (1 + np.linalg.norm(z_on))
                # only the unrecorded solve skips, and only past its first m
                # steps; it lands on the last unconverged step, or one before
                # it on a rounding near-tie, and the loop takes what is left
                if on.iterations <= m:
                    assert skips == []
                    continue
                long_solves += 1
                assert on.iterations - 2 <= m + skips.pop() <= on.iterations - 1
                assert skips == []
        assert long_solves >= 8

    def test_max_iter_below_the_count_stops_at_max_iter(self, rng, skips):
        problem = random_instance(rng)
        m = problem.dimension
        z0 = rng.standard_normal(m)
        full = SolverConfig(max_iter=50000, record_trace=False)
        long_solves = 0
        for solve in self.methods(rng, problem).values():
            needed = solve(full, z0=z0)[2].iterations
            if needed <= m + 2:
                continue
            long_solves += 1
            skips.clear()
            for max_iter in (2, m, m + 1, needed - 1):
                config = SolverConfig(max_iter=max_iter, record_trace=False)
                _, _, trace = solve(config, z0=z0)
                assert (trace.status, trace.iterations) == ("max_iter", max_iter)
            # within m steps nothing skips; past them the skip stops one short
            assert [m + n for n in skips] == [m, needed - 2]
        assert long_solves >= 2

    @pytest.mark.parametrize("stopping", ["fixed_point_distance", "normalized_error"])
    def test_a_start_at_z_star_or_not_finite_runs_the_loop(self, rng, skips, stopping):
        problem = random_instance(rng)
        reg = problem.regularity
        lp = optimal_params(reg, delta_star(reg))
        z_star = fixed_point_oracle(problem, lp)
        poisoned = rng.standard_normal(problem.dimension)
        poisoned[0] = math.inf
        for z0, status in ((z_star, "converged"), (poisoned, "nonfinite")):
            solved = [
                prs_lev_solve(
                    problem, lp,
                    SolverConfig(max_iter=100, stopping=stopping, record_trace=record),
                    z0=z0,
                )
                for record in (True, False)
            ]
            (_, z_on, on), (_, z_off, off) = solved
            assert (off.status, off.iterations) == (on.status, on.iterations) == (status, 1)
            assert z_on.tobytes() == z_off.tobytes()
        assert skips == []

    def test_a_non_contractive_pair_runs_the_loop_bit_for_bit(self, rng, skips):
        # a zero column shared by A and B leaves that coordinate out of both
        # terms: T keeps it fixed, so ||T||_2 = 1 and the distance never shrinks
        A, B = rng.random((10, 6)), rng.random((9, 6))
        A[:, 2] = B[:, 2] = 0.0
        f, g = LeastSquaresFn(A), LeastSquaresFn(B)
        problem = CompositeProblem(
            f=f.to_prox_function(), g=g.to_prox_function(),
            regularity=RegularityParams(0.0, f.moduli[1], 0.0, g.moduli[1]),
        )
        z0, z_star = rng.standard_normal(6), np.zeros(6)
        for lam in (1.0, 0.5):
            solved = [
                prs_lev_solve(
                    problem, classical(0.8), SolverConfig(max_iter=200, record_trace=record),
                    z0=z0, z_star=z_star, lam=lam,
                )
                for record in (True, False)
            ]
            (_, z_on, on), (_, z_off, off) = solved
            assert (off.status, off.iterations) == (on.status, on.iterations) == ("max_iter", 200)
            assert z_on.tobytes() == z_off.tobytes()
        assert skips == []


def axis_indicator_problem():
    """f = indicator of the x-axis (prox projects), g = 0 (prox is identity)."""
    project = ProxFunction(
        prox=lambda gamma, z: np.array([z[0], 0.0]),
        dimension=2,
        value=lambda z: 0.0 if z[1] == 0.0 else math.inf,
    )
    return CompositeProblem(
        f=project,
        g=QuadraticFunction(0.0, np.zeros(2), 0.0).to_prox_function(),
        regularity=RegularityParams(0, 0, 0, 0),
    )


class TestClassicAndRelaxed:
    def test_oscillation_witness_period_two(self):
        problem = axis_indicator_problem()
        z0 = np.array([1.0, 1.0])
        finals = []
        for k in range(1, 7):
            config = SolverConfig(max_iter=k, tol=1e-10, stopping="residual")
            _, z, trace = prs_lev_solve(problem, classical(1.0), config, z0=z0)
            finals.append(z)
            assert trace.status == "max_iter"
        orbit = [z0] + finals
        for n in range(len(orbit) - 2):
            assert np.linalg.norm(orbit[n + 2] - orbit[n]) <= 1e-14
            assert np.linalg.norm(orbit[n + 1] - orbit[n]) > 0.1

    def test_half_relaxation_converges_on_the_witness(self):
        problem = axis_indicator_problem()
        config = SolverConfig(max_iter=50, tol=1e-12, stopping="residual")
        x, z, trace = prs_lev_solve(
            problem, classical(1.0), config, z0=np.array([1.0, 1.0]), lam=0.5
        )
        assert trace.status == "converged"
        np.testing.assert_allclose(z, [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("lam", [1.0, 0.5])
    def test_zero_shift_is_bitwise_the_textbook_recurrence(self, rng, lam):
        # at delta = eta = 0 every rescaling is by an exact 1.0 and c0 = 2, so
        # both data terms' resolvents give the precomposed affine map
        # z -> z + 2 lam (M_g (2 M_f z + 2 c_f - z) + c_g - M_f z - c_f), bit for bit
        problem = random_instance(rng)
        tau, steps = 0.8, 40
        config = SolverConfig(max_iter=steps, tol=1e-300, stopping="residual")
        z0 = rng.standard_normal(problem.dimension)
        _, z_affine, _ = prs_lev_solve(problem, classical(tau), config, z0=z0, lam=lam)
        (M_f, c_f), (M_g, c_g) = problem.f.resolvent(tau), problem.g.resolvent(tau)
        T = np.eye(z0.size) + 2.0 * lam * (2.0 * (M_g @ M_f) - M_g - M_f)
        t = 2.0 * lam * (2.0 * M_g.dot(c_f) + c_g - c_f)
        z = z0
        for _ in range(steps):
            z = T.dot(z) + t
        np.testing.assert_array_equal(z_affine, z)
        # without the oracle, bit for bit the textbook two-prox recurrence
        bare = replace(problem, f=replace(problem.f, resolvent=None),
                       g=replace(problem.g, resolvent=None))
        _, z_bare, _ = prs_lev_solve(bare, classical(tau), config, z0=z0, lam=lam)
        z = z0
        for _ in range(steps):
            x = problem.f.prox(tau, z)
            p = problem.g.prox(tau, 2 * x - z)
            z = z + 2 * lam * (p - x)
        np.testing.assert_array_equal(z_bare, z)

    def test_tight_pair_classical_rate(self):
        # tau = sqrt(alpha/rho) contracts at least as fast as the classical bound
        reg = RegularityParams(rho=0.5, alpha=0.5, mu=0.0, beta=1.0)
        problem = tight_problem(reg)
        tau = math.sqrt(reg.alpha / reg.rho)
        bound = (1 - math.sqrt(reg.alpha * reg.rho)) / (1 + math.sqrt(reg.alpha * reg.rho))
        config = SolverConfig(max_iter=30, tol=1e-300, stopping="residual")
        _, _, trace = prs_lev_solve(
            problem, classical(tau), config, z0=np.array([1.0, 1.0]),
            z_star=np.zeros(2),
        )
        ratios = trace.ratios()
        assert np.nanmax(ratios) <= bound + 1e-12

    def test_relaxed_tuning_meets_its_rate(self):
        # f strongly convex, g smooth: the tuned relaxation contracts at
        # least as fast as 1/(1+sqrt(beta*rho)) empirically
        from prsplit.rates import drs_optimal_rate

        reg = RegularityParams(rho=1.0, alpha=0.25, mu=0.0, beta=1.0)
        problem = tight_problem(reg)
        tau, lam, bound = drs_optimal_rate(reg)
        assert bound == pytest.approx(0.5)
        config = SolverConfig(max_iter=60, tol=1e-300, stopping="residual")
        _, _, trace = prs_lev_solve(
            problem, classical(tau), config, z0=np.array([1.0, 1.0]), z_star=np.zeros(2), lam=lam
        )
        ratios = trace.ratios()
        # ignore the last few steps where distances reach the float floor
        assert np.nanmax(ratios[:40]) <= bound + 1e-9

    def test_divergence_detected_for_a_fake_oracle(self, rng):
        # not a prox of anything: an expansive map, which the theory forbids
        expanding = ProxFunction(prox=lambda gamma, x: 1.5 * x, dimension=3)
        problem = CompositeProblem(
            f=expanding, g=QuadraticFunction(0.0, np.zeros(3), 0.0).to_prox_function(),
            regularity=RegularityParams(0, 0, 0, 0),
        )
        config = SolverConfig(max_iter=1000, tol=1e-12, stopping="residual")
        _, _, trace = prs_lev_solve(problem, classical(1.0), config, z0=np.ones(3))
        assert trace.status == "diverged"

    @pytest.mark.parametrize(
        "stopping, record, poison",
        NONFINITE_CASES,
        ids=[f"{s}{'' if r else '-unrecorded'}{'' if math.isnan(v) else '-inf'}"
             for s, r, v in NONFINITE_CASES],
    )
    def test_nonfinite_iterate_stops_at_once(self, stopping, record, poison):
        # the z*-based rules skip the residual when nothing records it, so the
        # fault must reach them through z; NaN poisons f, and +inf poisons g,
        # because in f it would meet itself in d as inf - inf = NaN
        poisoned = ProxFunction(prox=lambda gamma, x: np.full_like(x, poison), dimension=3)
        zero = QuadraticFunction(0.0, np.zeros(3), 0.0).to_prox_function()
        f, g = (poisoned, zero) if math.isnan(poison) else (zero, poisoned)
        problem = CompositeProblem(f=f, g=g, regularity=RegularityParams(0, 0, 0, 0))
        config = SolverConfig(max_iter=20000, tol=1e-12, stopping=stopping, record_trace=record)
        _, _, trace = prs_lev_solve(
            problem, classical(1.0), config, z0=np.ones(3), z_star=np.zeros(3)
        )
        assert trace.status == "nonfinite"
        assert trace.iterations == 1

    def test_parameter_validation(self, rng):
        # tau > |eta| and lam in ]0, 1] hold for every shift, the zero one too
        problem = random_instance(rng)
        for lam in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="relaxation"):
                prs_lev_solve(problem, classical(1.0), lam=lam)
        for tau in (0.0, -1.0):
            with pytest.raises(TauTooSmall):
                prs_lev_solve(problem, classical(tau), lam=0.5)

    def test_moduli_are_checked_only_for_a_nonzero_shift(self, rng):
        # B = I makes g an exact quadratic (beta*mu = 1 with beta = 1): classical
        # PRS runs without reading the moduli (as it runs the witness above,
        # which has none), while a shift is checked against them, here at the
        # endpoint delta = mu where 1 - beta*delta = 0, and past eta < beta
        m = 5
        exact = make_least_squares_problem(rng.random((8, m)), rng.standard_normal(8),
                                           np.eye(m), rng.standard_normal(m))
        assert exact.regularity.beta * exact.regularity.mu == 1.0
        x, _, trace = prs_lev_solve(exact, classical(1.0), SolverConfig(max_iter=5000))
        assert trace.status == "converged"
        np.testing.assert_allclose(x, exact.solution_oracle, atol=1e-8)
        for lp, error in ((LeverageParams(1.0, 0.0, 1.0), DeltaOutOfRange),
                          (LeverageParams(0.0, 1.5, 2.0), EtaOutOfRange)):
            with pytest.raises(error):
                prs_lev_solve(exact, lp)


class TestMonitor:
    @pytest.mark.parametrize("method", ["prs_lev", "prs", "drs"])
    @pytest.mark.parametrize("stopping", ["residual", "fixed_point_distance", "normalized_error"])
    def test_recording_does_not_change_the_solve(self, rng, method, stopping):
        # with record_trace off the z*-based rules never compute ||d||, and an
        # affine pair skips ahead by powers of T; the solve must still stop at
        # the same step, with the same bits on the two-prox path (no resolvent
        # on f) and within rounding on the affine one
        affine = random_instance(rng)
        two_prox = replace(affine, f=replace(affine.f, resolvent=None))
        lp = optimal_params(affine.regularity, interior_delta(rng, affine.regularity))
        z0 = rng.standard_normal(affine.dimension)
        for problem in (two_prox, affine):
            outputs = []
            for record in (True, False):
                config = SolverConfig(
                    max_iter=5000, tol=1e-10, stopping=stopping, record_trace=record
                )
                if method == "prs_lev":
                    outputs.append(prs_lev_solve(problem, lp, config, z0=z0))
                else:
                    lam = 1.0 if method == "prs" else 0.6
                    outputs.append(prs_lev_solve(problem, classical(0.8), config, z0=z0, lam=lam))
            (x_on, z_on, on), (x_off, z_off, off) = outputs
            assert on.status == off.status == "converged"
            assert on.iterations == off.iterations
            assert len(on.residuals) == on.iterations == len(on.distances) - 1
            assert off.residuals == off.distances == []
            assert all(r > 0.0 for r in on.residuals)
            np.testing.assert_allclose(x_on, problem.solution_oracle, atol=1e-6)
            if problem is two_prox:
                assert x_on.tobytes() == x_off.tobytes()
                assert z_on.tobytes() == z_off.tobytes()
            else:
                assert np.linalg.norm(z_on - z_off) <= 1e-12 * (1 + np.linalg.norm(z_on))

    def test_z_star_comes_from_a_known_minimizer_and_grad_f(self, rng):
        # z* = x* + tau grad f(x*) for plain PRS; without grad f there is no z*
        problem = random_instance(rng)
        bare = replace(problem, f=replace(problem.f, gradient=None))
        config = SolverConfig(max_iter=3, tol=1e-300)
        for p, known in ((problem, True), (bare, False)):
            _, _, trace = prs_lev_solve(p, classical(0.8), config)
            assert bool(trace.distances) == known

    def test_stops_at_first_crossing_of_tol(self):
        # the rule every solver shares, and the one FISTA's non-monotone
        # distance tail meets: the first iterate within tol ends the solve,
        # even if a later one would rise above tol again
        tol = 1e-10
        config = SolverConfig(tol=tol)
        monitor = _Monitor(config, np.array([10.0 * tol]), np.zeros(1))
        assert monitor.stopping == "fixed_point_distance"
        for n, d in enumerate([3.0, 0.5, 2.0]):
            if monitor.update(n, 1.0, np.array([d * tol])):
                break
        assert n == 1
        assert monitor.trace.status == "converged"
        assert monitor.trace.iterations == 2


class TestFista:
    def test_unconstrained_quadratic_reaches_normal_equations(self, rng):
        m = 6
        A = rng.standard_normal((9, m))
        a = rng.standard_normal(9)
        f = LeastSquaresFn(A, a)
        x_star = np.linalg.solve(f.gram, f.at_a)
        problem = CompositeProblem(
            f=f.to_prox_function(),
            g=QuadraticFunction(0.0, np.zeros(m), 0.0).to_prox_function(),
            regularity=RegularityParams(f.moduli[0], f.moduli[1], 0.0, 0.0),
            solution_oracle=x_star,
        )
        config = SolverConfig(max_iter=5000, tol=1e-12, stopping="fixed_point_distance")
        x, trace = fista_solve(problem, config)
        assert trace.status == "converged"
        np.testing.assert_allclose(x, x_star, atol=1e-10)

    @staticmethod
    def counted(fn: ProxFunction, calls: list) -> ProxFunction:
        """``fn`` with its prox and gradient calls appended to ``calls``."""
        def prox(gamma, x):
            calls.append("prox")
            return fn.prox(gamma, x)

        def gradient(x):
            calls.append("gradient")
            return fn.gradient(x)

        return replace(fn, prox=prox, gradient=gradient)

    @pytest.mark.parametrize("swap", [False, True], ids=["fista1", "fista2"])
    def test_affine_step_matches_oracle_step(self, rng, swap):
        # the offsets make the step's constant term nonzero; without a hessian
        # the same functions run the gradient-and-prox step.  The two differ in
        # the last bits, which move the count only where the distance tail
        # nears the float floor (by up to 6 steps at tol 1e-12 over 40 seeds)
        problem = random_instance(rng)
        if swap:
            problem = problem.swap()
        calls = []
        affine = replace(problem, f=self.counted(problem.f, calls),
                         g=self.counted(problem.g, calls))
        oracle = replace(problem, f=replace(problem.f, hessian=None),
                         g=replace(problem.g, hessian=None))
        config = SolverConfig(max_iter=5000, tol=1e-10, stopping="fixed_point_distance")
        x, trace = fista_solve(affine, config)
        x_ref, trace_ref = fista_solve(oracle, config)
        assert trace.status == trace_ref.status == "converged"
        assert abs(trace.iterations - trace_ref.iterations) <= 1
        np.testing.assert_allclose(x, x_ref, rtol=0.0, atol=1e-10)
        # one gradient at the origin builds the map; no step calls an oracle
        assert calls == ["gradient"]

    def test_partner_without_resolvent_keeps_oracle_step(self, rng):
        # a Huber partner has no affine prox, so the forward function's hessian
        # goes unread and every step is the gradient-and-prox step, bit for bit
        m = 8
        ls = LeastSquaresFn(rng.random((10, m)), rng.standard_normal(10))
        calls = []
        problem = CompositeProblem(
            f=ls.to_prox_function(),
            g=self.counted(HuberFn(0.5, 2.0).to_prox_function((m,)), calls),
            regularity=RegularityParams(ls.moduli[0], ls.moduli[1], 0.0, 0.25),
        )
        bare = replace(problem, f=replace(problem.f, hessian=None))
        config = SolverConfig(max_iter=300, tol=1e-12, stopping="residual")
        x, trace = fista_solve(problem, config)
        assert calls == ["prox"] * trace.iterations
        x_ref, trace_ref = fista_solve(bare, config)
        np.testing.assert_array_equal(x, x_ref)
        assert trace == trace_ref

    def test_forward_function_must_be_smooth(self, rng):
        problem = random_instance(rng)
        bare = CompositeProblem(
            f=problem.f,
            g=QuadraticFunction(0.0, np.zeros(problem.dimension), 0.0).to_prox_function(),
            regularity=RegularityParams(problem.regularity.rho, problem.regularity.alpha, 0.0, 0.0),
        )
        with pytest.raises(NotSmooth):
            fista_solve(bare.swap())

    def test_asymptotic_contraction_not_below_leveraged_optimum(self, rng):
        # the leveraged rate lower-bounds what the accelerated baselines do
        problem = random_instance(rng, m=10, n=12, p=11)
        reg = problem.regularity
        config = SolverConfig(max_iter=4000, tol=1e-11, stopping="fixed_point_distance")
        x, trace = fista_solve(problem, config)
        dists = trace.distances
        k = len(dists) // 2
        observed = (dists[-1] / dists[k]) ** (1.0 / (len(dists) - 1 - k))
        assert observed >= optimal_rate(reg)


STOPPING_RULES = ["residual", "fixed_point_distance", "normalized_error"]


def fake_affine_problem(k, c):
    """Affine oracles that no convex pair has, for a step that may expand: f's
    prox ``x -> K x + c`` with ``K = diag(k)`` and hessian ``I - K``, g's
    ``x -> x + c`` with hessian 0, and gradients ``G x + c``."""
    m, K = len(k), np.diag(k)

    def fake(M, G):
        return ProxFunction(
            prox=lambda gamma, x: M.dot(x) + c, dimension=m, resolvent=lambda gamma: (M, c),
            gradient=lambda x: G.dot(x) + c, hessian=G,
        )

    return CompositeProblem(
        f=fake(K, np.eye(m) - K), g=fake(np.eye(m), np.zeros((m, m))),
        regularity=RegularityParams(1.0, 0.5, 1.0, 0.5), solution_oracle=-np.ones(m),
    )


class TestBlockedSteps:
    """An affine solve steps in blocks of ``BLOCK`` iterates (FISTA always, the
    splitting loop when it records its trace), and must stop where the
    step-at-a-time loop stops, with its status, count, bits and trace,
    wherever in a block that is."""

    @pytest.mark.parametrize("size", [1, 2, 20, 100, 4096])
    def test_row_norms_are_norm_bit_for_bit(self, rng, size):
        rows = rng.standard_normal((10, size))
        rows[1] *= 1e-160  # squares in the subnormal range
        rows[2] *= 1e-310  # subnormal entries
        rows[3] *= 1e200  # squares that overflow
        rows[4, 0] = 1e200
        rows[5, -1] = math.inf
        rows[6, 0] = -math.inf
        rows[7, size // 2] = math.nan
        rows[8] = 0.0
        # the solver takes them with overflow and invalid ignored
        with np.errstate(over="ignore", invalid="ignore"):
            got = solvers._row_norms(rows)
        assert got.tobytes() == np.array([solvers._norm(v) for v in rows]).tobytes()

    @pytest.mark.parametrize("stopping", STOPPING_RULES)
    @pytest.mark.parametrize("baseline", [0.0, 1.0, math.inf, math.nan])
    def test_verdict_of_a_block_is_the_verdict_of_each_step(self, stopping, baseline):
        # update_block screens a block with the tests that update applies to
        # one step: on arrays, _verdict must answer what it answers per float
        config = SolverConfig(tol=1e-10, stopping=stopping)
        monitor = _Monitor(config, np.full(1, baseline), np.zeros(1))
        monitor._baseline = baseline  # the residual rule's, set by the first step
        values = [0.0, 1e-10, 1.0000000000000002e-10, 1.0, 10.0, 10.000000000000002,
                  20.0, 1e308, math.inf, math.nan]
        residuals, distances = (a.ravel() for a in np.meshgrid(values, values))
        with np.errstate(invalid="ignore"):  # inf / inf, which a float divides to NaN
            block = [np.broadcast_to(v, residuals.shape)
                     for v in monitor._verdict(residuals, distances)]
        for i, (r, d) in enumerate(zip(residuals.tolist(), distances.tolist())):
            assert tuple(bool(v[i]) for v in block) == monitor._verdict(r, d), (r, d)

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("stopping", STOPPING_RULES)
    def test_update_block_records_what_update_records(self, stopping, record):
        # synthetic metrics (residual and distance alike, baseline 1) fed in
        # blocks of 32 to update_block and row by row to update
        metric = np.ones(200)
        restart = metric.copy()  # growth runs of 44 and 10 steps, a block of rest between
        restart[20:64] = restart[96:106] = 20.0
        late = 1.05 ** np.arange(200.0)  # under 10x within any one block
        converges = metric.copy()
        converges[70] = 1e-12
        overflowed = metric.copy()
        overflowed[40] = math.inf  # a residual that overflowed beside a finite distance
        cases = {  # (residuals, distances, the stepped loop's status and count)
            "restart": (restart, restart, "max_iter", 200),
            "late": (late, late, "diverged", 98),
            "converges": (converges, converges, "converged", 71),
            "inf-residual": (overflowed, metric, "nonfinite", 41),
        }
        config = SolverConfig(max_iter=200, tol=1e-10, stopping=stopping, record_trace=record)
        block = solvers.BLOCK
        for name, (residuals, distances, status, count) in cases.items():
            iterates = distances[:, None]
            blocked, stepped = (_Monitor(config, np.ones(1), np.zeros(1)) for _ in range(2))
            for n in range(0, 200, block):
                stop = blocked.update_block(n, residuals[n : n + block], iterates[n : n + block])
                if stop is not None:
                    break
            for n in range(200):
                if stepped.update(n, float(residuals[n]), iterates[n]):
                    break
            got, want = blocked.trace, stepped.trace
            assert (want.status, want.iterations) == (status, count), name
            assert (got.status, got.iterations) == (status, count), name
            assert got.residuals == want.residuals and got.distances == want.distances
            assert len(got.residuals) == (count if record else 0)

    @staticmethod
    def solves(rng, problem, z0, record=True):
        """Each blocked affine solve of ``problem`` and its stepwise reference,
        both as functions of the config.  Unrecorded, only FISTA steps in
        blocks: the splitting loop skips ahead instead."""
        reg = problem.regularity
        leveraged = optimal_params(reg, interior_delta(rng, reg))
        pairs = {}
        for name, lp, lam in (("leveraged", leveraged, 1.0), ("classical", classical(0.8), 1.0),
                              ("drs", classical(0.8), 0.5)):
            if record:
                pairs[name] = (partial(prs_lev_solve, problem, lp, z0=z0, lam=lam),
                               partial(stepwise_affine_split, problem, lp, z0=z0, lam=lam))
        for name, pair in (("fista1", problem), ("fista2", problem.swap())):
            pairs[name] = (partial(fista_solve, pair), partial(stepwise_affine_fista, pair))
        return pairs

    @staticmethod
    def agree(config, solve, reference):
        """The blocked solve's trace, once it matches the reference in every bit."""
        *arrays, trace = solve(config)
        *ref_arrays, ref = reference(config)
        assert (trace.status, trace.iterations) == (ref.status, ref.iterations)
        for a, b in zip(arrays, ref_arrays):
            assert a.tobytes() == b.tobytes()
        for column, ref_column in ((trace.residuals, ref.residuals),
                                   (trace.distances, ref.distances)):
            assert all(type(v) is float for v in column)
            assert np.array(column).tobytes() == np.array(ref_column).tobytes()
        assert len(trace.residuals) == (trace.iterations if config.record_trace else 0)
        return trace

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("stopping", STOPPING_RULES)
    def test_every_max_iter_around_a_block_edge(self, rng, stopping, record):
        problem = random_instance(rng, m=7)
        z0 = rng.standard_normal(7)
        for name, (solve, reference) in self.solves(rng, problem, z0, record).items():
            for max_iter in (1, 31, 32, 33, 64, 65):
                config = SolverConfig(max_iter=max_iter, tol=1e-300, stopping=stopping,
                                      record_trace=record)
                trace = self.agree(config, solve, reference)
                assert (trace.status, trace.iterations) == ("max_iter", max_iter), name

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("stopping", STOPPING_RULES)
    def test_a_converged_stop_inside_a_block(self, rng, stopping, record):
        # a tol just below every metric of the first block and the first step
        # after it stops the solve inside the second block
        block = solvers.BLOCK
        problem = random_instance(rng, m=7)
        z0 = rng.standard_normal(7)
        for name, (solve, reference) in self.solves(rng, problem, z0, record).items():
            full = reference(SolverConfig(max_iter=2 * block, tol=1e-300, stopping=stopping))[-1]
            d = np.array(full.distances)
            metric = {"residual": np.array(full.residuals), "fixed_point_distance": d[1:],
                      "normalized_error": d[1:] / d[0]}[stopping]
            tol = metric[: block + 1].min() * (1 - 1e-9)
            config = SolverConfig(max_iter=1000, tol=tol, stopping=stopping, record_trace=record)
            trace = self.agree(config, solve, reference)
            assert trace.status == "converged", name
            assert block + 1 < trace.iterations < 2 * block, name

    @pytest.mark.parametrize("stopping", STOPPING_RULES)
    @pytest.mark.parametrize("poison", [math.nan, math.inf])
    def test_a_nonfinite_start_stops_at_once(self, rng, stopping, poison):
        problem = random_instance(rng, m=7)
        z0 = rng.standard_normal(7)
        z0[3] = poison
        config = SolverConfig(max_iter=100, stopping=stopping)
        for name, (solve, reference) in self.solves(rng, problem, z0).items():
            if name.startswith("fista"):
                continue  # FISTA starts from the origin
            trace = self.agree(config, solve, reference)
            assert (trace.status, trace.iterations) == ("nonfinite", 1), name

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("stopping", STOPPING_RULES)
    def test_a_nonfinite_offset_stops_at_once(self, rng, stopping, record):
        problem = fake_affine_problem(np.full(5, 3.0), np.full(5, math.nan))
        config = SolverConfig(max_iter=100, stopping=stopping, record_trace=record)
        for name, (solve, reference) in self.solves(rng, problem, np.ones(5), record).items():
            trace = self.agree(config, solve, reference)
            assert (trace.status, trace.iterations) == ("nonfinite", 1), name

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("stopping", STOPPING_RULES)
    def test_an_overflow_inside_a_block_stops_nonfinite(self, rng, stopping, record):
        # a step that multiplies by about 1e30 overflows within the first block;
        # the steps computed past it are discarded, and the status alone names
        # the fault: the suite turns a RuntimeWarning into a failure
        problem = fake_affine_problem(np.full(5, 1e30), np.ones(5))
        config = SolverConfig(max_iter=100, stopping=stopping, record_trace=record)
        for name, (solve, reference) in self.solves(rng, problem, np.ones(5), record).items():
            trace = self.agree(config, solve, reference)
            assert trace.status == "nonfinite", name
            assert 1 < trace.iterations < solvers.BLOCK

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("stopping", STOPPING_RULES)
    def test_an_expansive_map_diverges_across_blocks(self, rng, stopping, record):
        # DIVERGENCE_STEPS growth steps in a row name the fault, more than a
        # block holds, so the growth run crosses a block edge
        problem = fake_affine_problem(np.full(5, 3.0), np.ones(5))
        config = SolverConfig(max_iter=1000, stopping=stopping, record_trace=record)
        for name, (solve, reference) in self.solves(rng, problem, np.ones(5), record).items():
            trace = self.agree(config, solve, reference)
            assert trace.status == "diverged", name
            assert solvers.BLOCK < solvers.DIVERGENCE_STEPS <= trace.iterations < 2 * solvers.BLOCK

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("stopping", STOPPING_RULES)
    def test_a_late_growth_is_judged_against_the_first_step(self, rng, stopping, record):
        # one coordinate contracts and one grows from 1e-6: whole blocks pass
        # the screen before the growth shows, and the growth is still measured
        # against the first step's metric
        problem = fake_affine_problem(np.array([0.55, 1.2]), np.array([1.0, 1e-6]))
        config = SolverConfig(max_iter=1000, stopping=stopping, record_trace=record)
        for name, (solve, reference) in self.solves(rng, problem, np.array([1.0, 0.0]), record).items():
            trace = self.agree(config, solve, reference)
            assert trace.status == "diverged", name
            assert trace.iterations > solvers.BLOCK + solvers.DIVERGENCE_STEPS
