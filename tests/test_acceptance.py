"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""

import math
import time

import numpy as np
from scipy.optimize import minimize

from prsplit.core import CompositeProblem, ProxFunction, RegularityParams
from prsplit.harness import (
    InstanceSpec,
    generate_instance,
    run_academic_benchmark,
    run_restoration_demo,
    run_tight_check,
)
from prsplit.leverage import QuadraticFunction
from prsplit.rates import (
    delta_star,
    fista_rate_bounds,
    optimal_params,
    optimal_rate,
    rate_r1,
    rate_r2,
)
from prsplit.solvers import SolverConfig, drs_solve, prs_classic_solve, prs_lev_solve

from conftest import interior_delta, sample_regularity
from oracles import ShiftedProxSpec, grid_search_rate, quadratic_conjugate_shift, shifted_prox


def _report(number, name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {number} ({name}): {status} in {elapsed:.2f}s{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_tight_rate_reproduction():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        reg = sample_regularity(rng, zero_rho=rng.random() < 0.25,
                                zero_mu=rng.random() < 0.25)
        worst = max(worst, run_tight_check(reg, steps=20))
    elapsed = time.perf_counter() - start
    _report(1, "tight-rate reproduction", worst <= 1e-10 and elapsed < 1.0,
            elapsed, f"max ratio deviation {worst:.2e}")


def test_criterion_2_rate_constancy_across_shifts():
    from prsplit.rates import rate_constancy_check

    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        reg = sample_regularity(rng, zero_rho=rng.random() < 0.25,
                                zero_mu=rng.random() < 0.25)
        worst = max(worst, rate_constancy_check(reg, grid_size=101))
    elapsed = time.perf_counter() - start
    _report(2, "flat rate across shifts", worst <= 1e-10 and elapsed < 1.0,
            elapsed, f"max deviation {worst:.2e}")


def test_criterion_3_parameter_optimality_by_grid_search():
    start = time.perf_counter()
    reg = RegularityParams(rho=1.0, alpha=0.25, mu=0.5, beta=0.8)
    r_star = optimal_rate(reg)
    worst_rate_gap = worst_tau = worst_eta = 0.0
    for t in (0.1, 0.3, 0.5, 0.7, 0.9):
        delta = -reg.rho + t * (reg.rho + reg.mu)
        found = grid_search_rate(reg, delta, grid=49, refinements=3)
        lp = optimal_params(reg, delta)
        assert max(found.tau_resolution, found.eta_resolution) <= 1e-3
        worst_rate_gap = max(worst_rate_gap, abs(found.rate - r_star))
        worst_tau = max(worst_tau, abs(found.tau - lp.tau))
        worst_eta = max(worst_eta, abs(found.eta - lp.eta))
    elapsed = time.perf_counter() - start
    ok = worst_rate_gap <= 1e-4 and worst_tau <= 1e-3 and worst_eta <= 1e-3 and elapsed < 10.0
    _report(3, "closed-form parameters are the grid optimum", ok, elapsed,
            f"rate gap {worst_rate_gap:.1e}, tau gap {worst_tau:.1e}, eta gap {worst_eta:.1e}")


def test_criterion_4_dominance_inequalities():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    ok = True
    for _ in range(100):
        reg = sample_regularity(rng, zero_rho=rng.random() < 0.25,
                                zero_mu=rng.random() < 0.25)
        r_star = optimal_rate(reg)
        prs_f = (1 - math.sqrt(reg.alpha * reg.rho)) / (1 + math.sqrt(reg.alpha * reg.rho))
        prs_g = (1 - math.sqrt(reg.beta * reg.mu)) / (1 + math.sqrt(reg.beta * reg.mu))
        ok &= r_star < prs_f - 1e-12 if reg.alpha * reg.rho < 1 else r_star <= prs_f + 1e-12
        ok &= r_star < prs_g - 1e-12 if reg.beta * reg.mu < 1 else r_star <= prs_g + 1e-12
        f1 = reg.alpha * (reg.rho + reg.mu) / (1 + reg.alpha * reg.mu)
        f2 = reg.beta * (reg.rho + reg.mu) / (1 + reg.beta * reg.rho)
        for f, loose in zip((f1, f2), fista_rate_bounds(reg)):
            tight = (1 - math.sqrt(f)) / (1 + math.sqrt(f))
            ok &= r_star < tight + 1e-12 <= loose + 1e-12
    elapsed = time.perf_counter() - start
    _report(4, "rate dominance over baselines", ok, elapsed, "100 random tuples")


def test_criterion_5_prox_identity_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    worst_closed = worst_brute = 0.0
    checked = 0
    while checked < 50:
        dim = int(rng.integers(2, 5))
        q = QuadraticFunction(
            offset=float(rng.uniform(-1, 1)),
            linear=rng.standard_normal(dim),
            quad=float(rng.uniform(0.3, 3.0)),
        )
        delta = float(rng.uniform(-0.5 * float(q.quad), 1.0))
        s = float(q.quad) + delta
        eta = float(rng.uniform(-0.5 / s, 0.8))
        tau = float(rng.uniform(max(-eta, 0.0) + 0.05, 2.0))
        if delta * (tau + eta) <= -0.9:
            continue
        spec = ShiftedProxSpec(q.to_prox_function(), delta, eta)
        shifted = quadratic_conjugate_shift(q, delta, eta)
        x = rng.standard_normal(dim)
        via_identity = shifted_prox(spec, tau, x)
        worst_closed = max(
            worst_closed, float(np.linalg.norm(via_identity - shifted.prox(tau, x)))
        )
        res = minimize(
            lambda y: tau * shifted.value(y) + 0.5 * np.sum((y - x) ** 2),
            x, method="BFGS", tol=1e-13,
        )
        worst_brute = max(worst_brute, float(np.linalg.norm(via_identity - res.x)))
        checked += 1
    elapsed = time.perf_counter() - start
    ok = worst_closed <= 1e-10 and worst_brute <= 1e-6
    _report(5, "shifted prox equals conjugated-quadratic oracle", ok, elapsed,
            f"closed-form gap {worst_closed:.1e}, brute-force gap {worst_brute:.1e}")


def test_criterion_6_solver_contraction_and_stationarity():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    dims_list = [(20, 10, 20), (20, 20, 20), (30, 40, 25), (40, 40, 40)]
    worst_ratio_excess = -math.inf
    worst_grad = 0.0
    for di, (m, n, p) in enumerate(dims_list):
        # per-step ratios against the oracle fixed point, on shifted instances
        # (nonzero offsets exercise a nontrivial z*)
        problem = generate_instance(
            InstanceSpec(m=m, n=n, p=p, seed=600 + di,
                         offset_a=rng.standard_normal(n),
                         offset_b=rng.standard_normal(p))
        )
        reg = problem.regularity
        for delta in (delta_star(reg), interior_delta(rng, reg, margin=0.2)):
            lp = optimal_params(reg, delta)
            r = float(rate_r1(lp, reg) * rate_r2(lp, reg))
            config = SolverConfig(max_iter=100000, tol=1e-6, stopping="normalized_error")
            _, _, trace = prs_lev_solve(problem, lp, config, z0=rng.standard_normal(m))
            ratios = trace.ratios()
            worst_ratio_excess = max(worst_ratio_excess, float(np.nanmax(ratios) - r))
        # stationarity of the recovered point on the homogeneous instances
        # (zero offsets as in the benchmark: the iteration then contracts to
        # the exact fixed point with no cancellation floor)
        problem = generate_instance(InstanceSpec(m=m, n=n, p=p, seed=600 + di))
        reg = problem.regularity
        lp = optimal_params(reg, delta_star(reg))
        config = SolverConfig(max_iter=200000, tol=1e-13, stopping="fixed_point_distance")
        x, _, trace = prs_lev_solve(problem, lp, config, z0=rng.standard_normal(m))
        assert trace.status == "converged"
        grad_f = problem.f.gradient(x)
        rel = np.linalg.norm(grad_f + problem.g.gradient(x)) / (1 + np.linalg.norm(grad_f))
        worst_grad = max(worst_grad, float(rel))
    elapsed = time.perf_counter() - start
    ok = worst_ratio_excess <= 1e-8 and worst_grad <= 1e-8
    _report(6, "per-step contraction within the proved rate", ok, elapsed,
            f"worst ratio excess {worst_ratio_excess:.1e}, worst gradient residual {worst_grad:.1e}")


def test_criterion_7_benchmark_ordering():
    start = time.perf_counter()
    report = run_academic_benchmark(
        [(20, 20, 20)], repetitions=30, tol=1e-10, max_iter=50000, seed=0
    )
    methods = report.rows[0].methods
    med = {name: methods[name].median_iterations for name in ("prs_lev", "prs1", "prs2")}
    elapsed = time.perf_counter() - start
    ok = (
        all(methods[name].defined for name in med)
        and med["prs_lev"] < med["prs2"] < med["prs1"]
        and elapsed < 30.0
    )
    _report(7, "benchmark iteration ordering", ok, elapsed,
            f"medians lev {med['prs_lev']:.1f} < prs2 {med['prs2']:.1f} < prs1 {med['prs1']:.1f}")


def test_criterion_8_oscillation_witness():
    start = time.perf_counter()
    project = ProxFunction(
        prox=lambda gamma, z: np.array([z[0], 0.0]),
        dimension=2,
        value=lambda z: 0.0 if z[1] == 0.0 else math.inf,
    )
    problem = CompositeProblem(
        f=project,
        g=QuadraticFunction(0.0, np.zeros(2), 0.0).to_prox_function(),
        regularity=RegularityParams(0, 0, 0, 0),
    )
    z0 = np.array([0.3, 1.0])
    orbit = [z0]
    for k in range(1, 8):
        config = SolverConfig(max_iter=k, tol=1e-12, stopping="residual")
        _, z, trace = prs_classic_solve(problem, 1.0, config, z0=z0)
        assert trace.status in ("max_iter", "diverged")
        orbit.append(z)
    period_two = all(
        np.linalg.norm(orbit[n + 2] - orbit[n]) <= 1e-14 for n in range(len(orbit) - 2)
    )
    moving = all(
        np.linalg.norm(orbit[n + 1] - orbit[n]) > 0.1 for n in range(len(orbit) - 1)
    )
    config = SolverConfig(max_iter=100, tol=1e-12, stopping="residual")
    _, z_relaxed, trace_relaxed = drs_solve(problem, 1.0, 0.5, config, z0=z0)
    relaxed_ok = trace_relaxed.status == "converged" and abs(z_relaxed[1]) <= 1e-12
    elapsed = time.perf_counter() - start
    _report(8, "PRS oscillates where relaxed splitting converges",
            period_two and moving and relaxed_ok, elapsed)


def test_criterion_9_desk_scale_restoration():
    start = time.perf_counter()
    report = run_restoration_demo(
        side=64, sigma=0.5, lam=0.07, epsilon=0.01, level=1,
        noise_var=0.008, seed=0,
        methods=("prs_lev", "prs", "fista1", "fista2"),
        tol=1e-12, max_iter=1000,
    )
    ref = report.reference
    ref_scale = 1 + np.linalg.norm(ref)
    agreement = {
        name: float(np.linalg.norm(run.final_x - ref) / ref_scale)
        for name, run in report.runs.items()
    }
    lev = report.runs["prs_lev"].normalized_errors
    prs = report.runs["prs"].normalized_errors
    n = min(len(lev), len(prs))
    curve_ok = bool(np.all(lev[10:n] <= prs[10:n])) and n > 11
    elapsed = time.perf_counter() - start
    ok = all(v <= 1e-6 for v in agreement.values()) and curve_ok and elapsed < 60.0
    worst = max(agreement.values())
    _report(9, "restoration methods agree and the leveraged curve dominates",
            ok, elapsed, f"worst minimizer gap {worst:.1e}, curves compared on [10, {n})")
