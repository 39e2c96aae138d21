"""Iteration schemes: contraction, reductions, witnesses, and stopping logic."""

import math
from dataclasses import replace

import numpy as np
import pytest

from prsplit.core import (
    CompositeProblem,
    LeverageParams,
    ProxFunction,
    RegularityParams,
    fixed_point_oracle,
)
from prsplit.errors import NotSmooth
from prsplit.harness import make_least_squares_problem
from prsplit.leverage import QuadraticFunction
from prsplit.rates import delta_star, optimal_params, optimal_rate, rate_r1, rate_r2
from prsplit.solvers import (
    SolverConfig,
    _Monitor,
    drs_solve,
    fista_solve,
    prs_classic_solve,
    prs_lev_solve,
)

from conftest import interior_delta
from oracles import ShiftedProxSpec, shifted_reflect

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
        assert trace.records[0].residual <= 1e-10

    def test_iteration_count_obeys_the_rate_bound(self, rng):
        problem = random_instance(rng, m=12, n=14, p=13)
        reg = problem.regularity
        lp = optimal_params(reg, delta_star(reg))
        tol = 1e-10
        config = SolverConfig(max_iter=100000, tol=tol, stopping="fixed_point_distance")
        z0 = fixed_point_oracle(problem, lp) + rng.standard_normal(problem.dimension)
        _, _, trace = prs_lev_solve(problem, lp, config, z0=z0)
        assert trace.status == "converged"
        d0 = trace.records[0].dist_to_fixed_point
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
            dists = trace.distances()
            d0 = dists[0]
            ratios = trace.ratios()
            next_dists = dists * ratios
            assert np.all(next_dists <= r * dists + 1e-10 * d0)

    def test_final_x_is_first_order_stationary(self, rng):
        problem = random_instance(rng)
        lp = optimal_params(problem.regularity, delta_star(problem.regularity))
        config = SolverConfig(max_iter=50000, tol=1e-13, stopping="fixed_point_distance")
        x, _, trace = prs_lev_solve(problem, lp, config, z0=rng.standard_normal(problem.dimension))
        assert trace.status == "converged"
        grad = problem.f.gradient(x) + problem.g.gradient(x)
        assert np.linalg.norm(grad) <= 1e-6 * (1 + np.linalg.norm(problem.f.gradient(x)))

    def test_zero_shift_solve_matches_classical_sequences(self, rng):
        problem = random_instance(rng)
        tau = 0.9
        config = SolverConfig(max_iter=40, tol=1e-300, stopping="residual")
        z0 = rng.standard_normal(problem.dimension)
        _, z_lev, trace_lev = prs_lev_solve(
            problem, LeverageParams(0.0, 0.0, tau), config, z0=z0
        )
        _, z_classic, trace_classic = prs_classic_solve(problem, tau, config, z0=z0)
        np.testing.assert_allclose(z_lev, z_classic, rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(
            trace_lev.residuals(), trace_classic.residuals(), rtol=1e-10, atol=1e-14
        )


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
            _, z, trace = prs_classic_solve(problem, 1.0, config, z0=z0)
            finals.append(z)
            assert trace.status == "max_iter"
        orbit = [z0] + finals
        for n in range(len(orbit) - 2):
            assert np.linalg.norm(orbit[n + 2] - orbit[n]) <= 1e-14
            assert np.linalg.norm(orbit[n + 1] - orbit[n]) > 0.1

    def test_half_relaxation_converges_on_the_witness(self):
        problem = axis_indicator_problem()
        config = SolverConfig(max_iter=50, tol=1e-12, stopping="residual")
        x, z, trace = drs_solve(problem, 1.0, 0.5, config, z0=np.array([1.0, 1.0]))
        assert trace.status == "converged"
        np.testing.assert_allclose(z, [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-12)

    def test_full_relaxation_is_bitwise_classic(self, rng):
        problem = random_instance(rng)
        tau, steps = 0.8, 40
        config = SolverConfig(max_iter=steps, tol=1e-300, stopping="residual")
        z0 = rng.standard_normal(problem.dimension)
        _, z_a, _ = prs_classic_solve(problem, tau, config, z0=z0)
        _, z_b, _ = drs_solve(problem, tau, 1.0, config, z0=z0)
        assert np.array_equal(z_a, z_b)
        # and bit for bit the textbook recurrence, which pins the solve CSVs
        z = z0
        for _ in range(steps):
            x = problem.f.prox(tau, z)
            p = problem.g.prox(tau, 2 * x - z)
            z = z + 2 * (p - x)
        np.testing.assert_array_equal(z_a, z)

    def test_tight_pair_classical_rate(self):
        # tau = sqrt(alpha/rho) contracts at least as fast as the classical bound
        reg = RegularityParams(rho=0.5, alpha=0.5, mu=0.0, beta=1.0)
        problem = tight_problem(reg)
        tau = math.sqrt(reg.alpha / reg.rho)
        bound = (1 - math.sqrt(reg.alpha * reg.rho)) / (1 + math.sqrt(reg.alpha * reg.rho))
        config = SolverConfig(max_iter=30, tol=1e-300, stopping="residual")
        _, _, trace = prs_classic_solve(
            problem, tau, config, z0=np.array([1.0, 1.0]),
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
        _, _, trace = drs_solve(
            problem, tau, lam, config, z0=np.array([1.0, 1.0]), z_star=np.zeros(2)
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
        _, _, trace = prs_classic_solve(problem, 1.0, config, z0=np.ones(3))
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
        _, _, trace = prs_classic_solve(problem, 1.0, config, z0=np.ones(3), z_star=np.zeros(3))
        assert trace.status == "nonfinite"
        assert trace.iterations == 1

    def test_parameter_validation(self, rng):
        problem = random_instance(rng)
        with pytest.raises(ValueError):
            drs_solve(problem, 1.0, 0.0)
        with pytest.raises(ValueError):
            drs_solve(problem, -1.0, 0.5)


class TestMonitor:
    @pytest.mark.parametrize("method", ["prs_lev", "prs", "drs"])
    @pytest.mark.parametrize("stopping", ["residual", "fixed_point_distance", "normalized_error"])
    def test_recording_does_not_change_the_solve(self, rng, method, stopping):
        # with record_trace off the z*-based rules never compute ||d||; the
        # solve must still stop at the same iterate with the same bits
        problem = random_instance(rng)
        lp = optimal_params(problem.regularity, interior_delta(rng, problem.regularity))
        z0 = rng.standard_normal(problem.dimension)
        outputs = []
        for record in (True, False):
            config = SolverConfig(max_iter=5000, tol=1e-10, stopping=stopping, record_trace=record)
            if method == "prs_lev":
                outputs.append(prs_lev_solve(problem, lp, config, z0=z0))
            elif method == "prs":
                outputs.append(prs_classic_solve(problem, 0.8, config, z0=z0))
            else:
                outputs.append(drs_solve(problem, 0.8, 0.6, config, z0=z0))
        (x_on, z_on, on), (x_off, z_off, off) = outputs
        assert on.status == off.status == "converged"
        assert on.iterations == off.iterations
        assert len(on.records) == on.iterations and off.records == []
        assert all(r.residual > 0.0 for r in on.records)
        np.testing.assert_allclose(x_on, problem.solution_oracle, atol=1e-6)
        assert x_on.tobytes() == x_off.tobytes()
        assert z_on.tobytes() == z_off.tobytes()

    def test_z_star_comes_from_a_known_minimizer_and_grad_f(self, rng):
        # z* = x* + tau grad f(x*) for plain PRS; without grad f there is no z*
        problem = random_instance(rng)
        bare = replace(problem, f=replace(problem.f, gradient=None))
        config = SolverConfig(max_iter=3, tol=1e-300)
        for p, known in ((problem, True), (bare, False)):
            _, _, trace = prs_classic_solve(p, 0.8, config)
            assert (trace.records[0].dist_to_fixed_point is not None) == known

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
        from prsplit.proxlib import LeastSquaresFn

        f = LeastSquaresFn(A, a)
        x_star = np.linalg.solve(f.gram, f.at_a)
        problem = CompositeProblem(
            f=f.to_prox_function(),
            g=QuadraticFunction(0.0, np.zeros(m), 0.0).to_prox_function(),
            regularity=RegularityParams(f.moduli[0], f.moduli[1], 0.0, 0.0),
            solution_oracle=x_star,
        )
        config = SolverConfig(max_iter=5000, tol=1e-12, stopping="fixed_point_distance")
        x, trace = fista_solve(problem, "forward_on_f", config)
        assert trace.status == "converged"
        np.testing.assert_allclose(x, x_star, atol=1e-10)

    def test_forward_function_must_be_smooth(self, rng):
        problem = random_instance(rng)
        bare = CompositeProblem(
            f=problem.f,
            g=QuadraticFunction(0.0, np.zeros(problem.dimension), 0.0).to_prox_function(),
            regularity=RegularityParams(problem.regularity.rho, problem.regularity.alpha, 0.0, 0.0),
        )
        with pytest.raises(NotSmooth):
            fista_solve(bare, "forward_on_g")

    def test_asymptotic_contraction_not_below_leveraged_optimum(self, rng):
        # the leveraged rate lower-bounds what the accelerated baselines do
        problem = random_instance(rng, m=10, n=12, p=11)
        reg = problem.regularity
        config = SolverConfig(max_iter=4000, tol=1e-11, stopping="fixed_point_distance")
        x, trace = fista_solve(problem, "forward_on_f", config)
        dists = trace.distances()
        k = len(dists) // 2
        observed = (dists[-1] / dists[k]) ** (1.0 / (len(dists) - 1 - k))
        assert observed >= optimal_rate(reg)
