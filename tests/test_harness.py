"""Instance generation, oracles, benchmark loops, and emission round-trips."""

import ast
import re
from dataclasses import astuple, fields, replace

import numpy as np
import pytest

from prsplit.core import (
    CompositeProblem,
    LeverageParams,
    ProxFunction,
    RegularityParams,
    SolveTrace,
    fixed_point_oracle,
)
from prsplit import harness
from prsplit.errors import NoGradient
from prsplit.leverage import QuadraticFunction
from prsplit.harness import (
    BenchmarkReport,
    BenchmarkRow,
    MethodRun,
    MethodStats,
    RestorationReport,
    emit_plot_script,
    emit_trace,
    generate_instance,
    make_least_squares_problem,
    run_academic_benchmark,
    run_restoration_demo,
    run_tight_check,
    solve_method,
    synthetic_image,
)
from prsplit.rates import (
    METHODS,
    classical_prs_optimal,
    delta_star,
    dominance_report,
    drs_optimal_rate,
    optimal_params,
    optimal_rate,
)
from prsplit.proxlib import BlurOperator, HuberFn, OperatorLeastSquares, gaussian_kernel
from prsplit.solvers import (
    Recording,
    SolverConfig,
    fista_solve,
    prs_lev_solve,
)

from conftest import interior_delta
from oracles import (
    grid_search_rate,
    offset_instance,
    read_trace,
    reference_error_curve_text,
    reference_report_text,
    reference_trace_text,
    restoration_pair as _restoration_problem,
)

TIGHT_REG = RegularityParams(rho=1.0, alpha=0.25, mu=0.0, beta=1.0)


def _tuned_directly(problem, method, config, z0):
    """The solver call, with its tuning, that each caller wrote out before ``solve_method``."""
    reg = problem.regularity
    if method == "prs_lev":
        alpha_or_beta_zero = reg.alpha == 0.0 or reg.beta == 0.0
        delta = (reg.mu - reg.rho) / 2.0 if alpha_or_beta_zero else delta_star(reg)
        return prs_lev_solve(problem, optimal_params(reg, delta), config, z0=z0)
    if method in ("prs", "prs1", "prs2"):
        tau = classical_prs_optimal(reg.swap() if method == "prs2" else reg)[0]
        return prs_lev_solve(problem, LeverageParams(0.0, 0.0, tau), config, z0=z0)
    if method in ("drs", "drs2"):
        if method == "drs2":
            problem, reg = problem.swap(), reg.swap()
        tau, lam, _ = drs_optimal_rate(reg)
        return prs_lev_solve(problem, LeverageParams(0.0, 0.0, tau), config, z0=z0, lam=lam)
    x, trace = fista_solve(problem if method == "fista1" else problem.swap(), config)
    return x, None, trace


def _offset_pair(zero_a=False):
    r = np.random.default_rng(8)
    A = np.zeros((9, 6)) if zero_a else 0.5 * r.random((9, 6))
    return make_least_squares_problem(A, r.standard_normal(9), 15.0 * r.random((8, 6)),
                                      r.standard_normal(8))


class TestSolveMethod:
    CASES = [(name, False) for name in
             ("prs_lev", "prs", "prs1", "prs2", "drs", "drs2", "fista1", "fista2")]
    CASES.append(("prs_lev", True))  # alpha = 0: the midpoint of [-rho, mu]

    @pytest.mark.parametrize("method, zero_a", CASES,
                             ids=[m + ("-zero-A" if z else "") for m, z in CASES])
    def test_matches_the_direct_solver_call_bit_for_bit(self, method, zero_a):
        problem = _offset_pair(zero_a)
        assert all(v > 0.0 for v in vars(problem.regularity).values()) != zero_a
        z0 = np.random.default_rng(9).standard_normal(6)
        config = SolverConfig(max_iter=5000, tol=1e-10)
        x, z, trace = solve_method(problem, method, config, z0=z0)
        x_ref, z_ref, trace_ref = _tuned_directly(problem, method, config, z0)
        assert trace.status == trace_ref.status == "converged"
        assert trace.iterations == trace_ref.iterations > 1
        assert x.tobytes() == x_ref.tobytes()
        assert (z is None and z_ref is None) or z.tobytes() == z_ref.tobytes()

    @pytest.mark.parametrize("method, kwargs, direct", [
        ("prs_lev", {"delta": 0.0},
         lambda p, c: prs_lev_solve(p, optimal_params(p.regularity, 0.0), c)),
        ("prs", {"tau": 0.5}, lambda p, c: prs_lev_solve(p, LeverageParams(0.0, 0.0, 0.5), c)),
        ("drs", {"tau": 0.5},
         lambda p, c: prs_lev_solve(p, LeverageParams(0.0, 0.0, 0.5), c,
                                    lam=drs_optimal_rate(p.regularity, 0.5)[1])),
    ], ids=["prs_lev-delta", "prs-tau", "drs-tau"])
    def test_explicit_shift_or_step_replaces_the_tuned_one(self, method, kwargs, direct):
        problem = _offset_pair()
        config = SolverConfig(max_iter=5000, tol=1e-10)
        x, _, trace = solve_method(problem, method, config, **kwargs)
        x_ref, _, trace_ref = direct(problem, config)
        assert (trace.status, trace.iterations) == (trace_ref.status, trace_ref.iterations)
        assert x.tobytes() == x_ref.tobytes()

    @pytest.mark.parametrize("record", [True, False], ids=["trace-on", "trace-off"])
    @pytest.mark.parametrize("pair", ["least-squares", "huber"])
    def test_fista2_is_fista1_on_the_swapped_pair(self, pair, record):
        # the dense pair takes the blocked affine step, the Huber pair (no
        # resolvents) the oracle step; an arbitrary solution_oracle fills the
        # distance column there
        if pair == "least-squares":
            problem, config = _offset_pair(), SolverConfig(max_iter=5000, record_trace=record)
        else:
            problem = _restoration_problem()[0]
            problem = replace(problem, solution_oracle=np.full((16, 16), 0.5))
            config = SolverConfig(max_iter=60, stopping="residual", record_trace=record)
        x, _, trace = solve_method(problem, "fista2", config)
        x_ref, _, ref = solve_method(problem.swap(), "fista1", config)
        assert trace.iterations > 1 and (trace.status == "converged") == (pair == "least-squares")
        assert (trace.status, trace.iterations) == (ref.status, ref.iterations)
        assert x.tobytes() == x_ref.tobytes()
        if record:
            assert len(trace.residuals) == trace.iterations == len(trace.distances) - 1
        assert np.array(trace.residuals).tobytes() == np.array(ref.residuals).tobytes()
        assert np.array(trace.distances).tobytes() == np.array(ref.distances).tobytes()

    def test_every_command_and_report_name_is_a_table_key(self):
        names = {*harness.SOLVE_METHODS, *harness.RESTORE_METHODS, *harness.BENCH_METHODS}
        names |= {name for name, _ in dominance_report(_offset_pair().regularity)}
        assert names <= METHODS.keys()
        for name in names:
            trace = solve_method(_offset_pair(), name, SolverConfig(max_iter=5000, tol=1e-10))[2]
            assert trace.status == "converged", name

    @pytest.mark.parametrize("record", [True, False], ids=["trace-on", "trace-off"])
    def test_prs_is_prs1(self, record):
        # one record under two names: the same solve, bit for bit
        problem = generate_instance(20, 30, 30, seed=4)
        config = SolverConfig(max_iter=5000, tol=1e-10, record_trace=record)
        z0 = np.random.default_rng(10).standard_normal(20)
        (x, z, trace), (x1, z1, trace1) = (solve_method(problem, name, config, z0=z0)
                                           for name in ("prs", "prs1"))
        assert trace.status == "converged" and trace.iterations > 1
        assert (trace.status, trace.iterations) == (trace1.status, trace1.iterations)
        assert (x.tobytes(), z.tobytes()) == (x1.tobytes(), z1.tobytes())
        for column in ("residuals", "distances"):
            got, want = (np.array(getattr(t, column)) for t in (trace, trace1))
            assert got.tobytes() == want.tobytes() and (got.size > 0) == record

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            solve_method(_offset_pair(), "bogus", SolverConfig())

    @pytest.mark.parametrize("method, kwargs, message", [
        ("bogus", {"delta": 0.0}, "method 'bogus' takes no delta"),
        ("bogus", {"tau": 1.0}, "unknown method 'bogus'"),
        ("prs", {"delta": 0.0}, "method 'prs' takes no delta"),
        ("drs2", {"delta": 0.0, "tau": 1.0}, "method 'drs2' takes no delta"),
        ("prs_lev", {"tau": 1.0}, "method 'prs_lev' takes no tau"),
        ("fista2", {"tau": 1.0, "recording": Recording()}, "method 'fista2' takes no tau"),
        ("fista1", {"recording": Recording()}, "method 'fista1' takes no recording"),
    ])
    def test_an_argument_the_method_does_not_take_raises(self, method, kwargs, message):
        # the first check that fails names the fault, in this order
        with pytest.raises(ValueError) as raised:
            solve_method(_offset_pair(), method, SolverConfig(), **kwargs)
        assert str(raised.value) == message


class TestInstances:
    def test_fixed_seed_is_bitwise_deterministic(self):
        p1, p2 = generate_instance(6, 8, 7, seed=42), generate_instance(6, 8, 7, seed=42)
        np.testing.assert_array_equal(p1.solution_oracle, p2.solution_oracle)
        x = np.arange(6.0)
        assert np.array_equal(p1.f.prox(0.7, x), p2.f.prox(0.7, x))
        assert np.array_equal(p1.g.prox(0.7, x), p2.g.prox(0.7, x))

    def test_wide_first_block_loses_strong_convexity(self):
        problem = generate_instance(20, 10, 20, seed=1)
        assert problem.regularity.rho == 0.0
        assert problem.regularity.mu > 0.0

    def test_nonpositive_dimension_raises(self):
        with pytest.raises(ValueError, match="^dimensions must be positive$"):
            generate_instance(3, 0, 2)

    def test_zero_offsets_give_zero_solution(self):
        problem = generate_instance(10, 12, 11, seed=3)
        np.testing.assert_allclose(problem.solution_oracle, 0.0, atol=1e-14)

    def test_offsets_move_the_solution(self, rng):
        a = rng.standard_normal(12)
        b = rng.standard_normal(11)
        problem = offset_instance(10, 12, 11, 3, a, b)
        x = problem.solution_oracle
        grad = problem.f.gradient(x) + problem.g.gradient(x)
        assert np.linalg.norm(grad) <= 1e-10 * (1 + np.linalg.norm(x))


class TestFixedPointOracle:
    def test_prox_characterization_residual(self, rng):
        # z* must reproduce x* through the f-prox of the leveraged step;
        # the second block stays tall so some strong convexity always exists
        for _ in range(50):
            m = int(rng.integers(4, 10))
            problem = generate_instance(
                m,
                int(rng.integers(4, 12)),
                m + int(rng.integers(0, 4)),
                seed=int(rng.integers(0, 2**31)),
            )
            reg = problem.regularity
            lp = optimal_params(reg, interior_delta(rng, reg))
            z_star = fixed_point_oracle(problem, lp)
            scale = 1.0 + lp.delta * (lp.tau + lp.eta)
            x_back = problem.f.prox((lp.tau + lp.eta) / scale, z_star / scale)
            assert np.linalg.norm(x_back - problem.solution_oracle) <= 1e-10

    def test_classical_reduction(self, rng):
        problem = generate_instance(5, 6, 7, seed=9)
        tau = 1.3
        z_star = fixed_point_oracle(problem, LeverageParams(0.0, 0.0, tau))
        expected = problem.solution_oracle + tau * problem.f.gradient(problem.solution_oracle)
        np.testing.assert_allclose(z_star, expected, atol=1e-14)

    def test_perturbed_start_contracts_back(self, rng):
        problem = generate_instance(8, 10, 9, seed=11)
        reg = problem.regularity
        lp = optimal_params(reg, delta_star(reg))
        z_star = fixed_point_oracle(problem, lp)
        z0 = z_star + rng.standard_normal(8) / np.sqrt(8)
        config = SolverConfig(max_iter=2000, tol=1e-8, stopping="fixed_point_distance")
        _, _, trace = prs_lev_solve(problem, lp, config, z0=z0)
        assert trace.status == "converged"
        r = optimal_rate(reg)
        assert np.nanmax(trace.ratios()) <= r + 1e-8

    def test_gradient_required(self):
        problem = generate_instance(4, 5, 6, seed=0)
        bare = type(problem)(
            f=type(problem.f)(prox=problem.f.prox, shape=(4,)),
            g=problem.g, regularity=problem.regularity, solution_oracle=np.zeros(4),
        )
        with pytest.raises(NoGradient):
            fixed_point_oracle(bare, LeverageParams(0.0, 0.0, 1.0))


class TestTightCheck:
    def test_running_example(self):
        deviation, steps = run_tight_check(TIGHT_REG, steps=20)
        assert deviation <= 1e-12 and steps == 20
        # ||z_n - z*|| falls below sqrt(tiny) near step 165, where its square
        # is subnormal and the ratios lose their digits; those are skipped,
        # and the residual rule ends the solve at 175 of the 300 steps asked
        deviation, steps = run_tight_check(TIGHT_REG, steps=300)
        assert deviation <= 1e-12 and steps == 175

    def test_symmetric_moduli(self):
        reg = RegularityParams(rho=1.0, alpha=0.5, mu=1.0, beta=0.5)
        assert run_tight_check(reg, steps=20)[0] <= 1e-12

    def test_requires_positive_cocoercivities(self):
        with pytest.raises(ValueError):
            run_tight_check(RegularityParams(1.0, 0.0, 0.0, 1.0))


class TestGridSearch:
    def test_finds_the_closed_form_optimum(self, rng):
        reg = TIGHT_REG
        delta = -0.4
        result = grid_search_rate(reg, delta, grid=41, refinements=3)
        lp = optimal_params(reg, delta)
        assert result.rate <= optimal_rate(reg) + 1e-4
        assert result.rate >= optimal_rate(reg) - result.tau_resolution
        assert abs(result.tau - lp.tau) <= 1e-3
        assert abs(result.eta - lp.eta) <= 1e-3
        assert max(result.tau_resolution, result.eta_resolution) <= 1e-3

    def test_interior_delta_required(self):
        with pytest.raises(ValueError):
            grid_search_rate(TIGHT_REG, TIGHT_REG.mu)


class TestAcademicBenchmark:
    def test_small_run_orders_and_marks_undefined(self, tmp_path):
        report = run_academic_benchmark(
            [(8, 4, 10)], repetitions=3, tol=1e-8, max_iter=20000, seed=5,
            out_path=tmp_path / "bench.csv",
        )
        row = report.rows[0]
        assert row.methods["prs1"] is None  # wide A: rho = 0
        assert row.methods["prs_lev"] is not None and row.methods["prs2"] is not None
        assert row.methods["prs_lev"].avg_iterations >= 1.0
        text = (tmp_path / "bench.csv").read_text()
        assert ",prs1,-,-,-,-" in text

    def test_csv_bytes_deterministic(self, tmp_path):
        for name in ("a.csv", "b.csv"):
            run_academic_benchmark(
                [(6, 8, 7)], repetitions=2, tol=1e-8, max_iter=20000, seed=7,
                out_path=tmp_path / name,
            )
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_iteration_counts_pinned(self):
        # the table's averages at seed 0; a last-bit change in a prox may move
        # an instance by at most one iteration
        report = run_academic_benchmark([(20, 30, 30)], repetitions=3, seed=0)
        expected = {"prs_lev": 17.0, "prs1": 1088 / 3, "prs2": 439.0}
        for name, avg in expected.items():
            assert abs(report.rows[0].methods[name].avg_iterations - avg) <= 1.0, name

    def test_repetition_validation(self):
        with pytest.raises(ValueError):
            run_academic_benchmark([(4, 4, 4)], repetitions=0)

    @pytest.mark.parametrize("bad", [(0, 5, 5), (5, -1, 5), (5, 5, 0)])
    def test_a_bad_last_triple_raises_before_the_first_solve(self, monkeypatch, tmp_path, bad):
        solves = []
        real = harness.solve_method

        def counted(*args, **kwargs):
            solves.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "solve_method", counted)
        with pytest.raises(ValueError, match="^dimensions must be positive$"):
            run_academic_benchmark([(20, 20, 20), bad], repetitions=2,
                                   out_path=tmp_path / "out" / "bench.csv")
        assert solves == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("reps", [1, 2, 3, 7, 8, 9, 16, 30])
    def test_aggregates_equal_numpy_mean_and_median(self, monkeypatch, reps):
        # counts of either size below 2**47, so that 30 of them sum below 2**53
        rng = np.random.default_rng(reps)
        runs = {name: [] for name in harness.BENCH_METHODS}

        def drawn(problem, name, config, z0=None):
            high = 2**47 if rng.random() < 0.5 else 100
            run = (int(rng.integers(1, high)), float(rng.random()), bool(rng.random() < 0.8))
            runs[name].append(run)
            return None, np.array([run[1]]), SolveTrace(
                status="converged" if run[2] else "max_iter", iterations=run[0])

        monkeypatch.setattr(harness, "solve_method", drawn)
        methods = run_academic_benchmark([(3, 4, 4)], repetitions=reps).rows[0].methods
        for name, taken in runs.items():
            iters, errors, converged = (np.array(column) for column in zip(*taken))
            stats = methods[name]
            assert float.hex(stats.avg_iterations) == float(np.mean(iters.astype(float))).hex()
            assert float.hex(stats.median_iterations) == float(np.median(iters.astype(float))).hex()
            assert float.hex(stats.avg_final_error) == float(np.mean(errors)).hex()
            assert stats.unconverged == int(np.sum(~converged))

    def test_leveraged_beats_prs2_on_most_tall_g_instances(self):
        # (20,10,20): rho = 0, so only prs2 among the classical tunings runs;
        # the leveraged solver should win on at least 90% of instances
        wins = 0
        reps = 10
        for seed in range(reps):
            report = run_academic_benchmark(
                [(20, 10, 20)], repetitions=1, tol=1e-10, max_iter=50000, seed=seed
            )
            methods = report.rows[0].methods
            assert methods["prs1"] is None
            wins += methods["prs_lev"].avg_iterations < methods["prs2"].avg_iterations
        assert wins >= 0.9 * reps

    def test_leveraged_close_to_prs1_when_g_has_no_regularity(self):
        # (20,20,10): mu = 0 kills prs2 and leaves a near-unity optimal rate,
        # where the leveraged scheme and tuned classical PRS nearly coincide
        report = run_academic_benchmark(
            [(20, 20, 10)], repetitions=6, tol=1e-10, max_iter=100000, seed=1
        )
        methods = report.rows[0].methods
        assert methods["prs2"] is None
        lev = methods["prs_lev"].avg_iterations
        prs1 = methods["prs1"].avg_iterations
        assert abs(lev - prs1) <= 0.05 * prs1


class TestRestoration:
    def test_near_identity_blur_with_negligible_penalty_restores_input(self):
        # trivial inverse problem: sigma -> 0 kernel is numerically the identity
        report = run_restoration_demo(
            side=16, sigma=0.05, lam=1e-8, epsilon=0.01, noise_var=0.0,
            seed=2, methods=("prs",), tol=1e-10, max_iter=400,
        )
        run = report.runs["prs"]
        assert run.status == "converged"
        assert np.linalg.norm(run.final_x - report.true_image) <= 1e-6 * (
            1 + np.linalg.norm(report.true_image)
        )

    def test_methods_agree_at_desk_scale(self, tmp_path):
        report = run_restoration_demo(
            side=32, sigma=0.5, seed=4, level=2, max_iter=400, tol=1e-10,
            out_dir=tmp_path,
        )
        ref = report.reference
        for run in report.runs.values():
            assert run.status == "converged"
            rel = np.linalg.norm(run.final_x - ref) / (1 + np.linalg.norm(ref))
            assert rel <= 1e-6
        for name in report.runs:
            assert (tmp_path / f"restored_{name}.pgm").exists()
            assert (tmp_path / f"error_{name}.csv").exists()
        assert (tmp_path / "true.pgm").exists() and (tmp_path / "observed.pgm").exists()
        assert (tmp_path / "plot_errors.py").exists()

    @pytest.mark.parametrize("kwargs", [{}, {"lam": 0.3, "epsilon": 0.002, "max_iter": 5}],
                             ids=["defaults", "lam-epsilon"])
    def test_regularity_is_the_terms_moduli(self, kwargs):
        # bit for bit the moduli written out by hand before HuberFn held them:
        # the blur's spectrum for f, and (0, epsilon/lam) for the Huber term
        report = run_restoration_demo(side=16, **kwargs)
        data_term = OperatorLeastSquares(BlurOperator(gaussian_kernel(5, 0.5)), np.zeros((16, 16)))
        lam, epsilon = kwargs.get("lam", 0.07), kwargs.get("epsilon", 0.01)
        expected = RegularityParams(*data_term.moduli, 0.0, epsilon / lam)
        assert [v.hex() for v in astuple(report.regularity)] == [v.hex() for v in astuple(expected)]

    def test_side_64_counts_are_pinned(self):
        # seed 64 at side 64 is the restore run whose outputs are kept byte for byte
        report = run_restoration_demo(side=64, seed=64)
        assert (report.reference_status, report.reference_iterations) == ("converged", 47)
        counts = {name: (run.status, run.iterations) for name, run in report.runs.items()}
        assert counts == {"prs_lev": ("converged", 38), "prs": ("converged", 41),
                          "fista1": ("converged", 54), "fista2": ("converged", 171)}

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            run_restoration_demo(side=16, methods=("newton",), max_iter=5)

    @pytest.mark.parametrize("kwargs, message", [
        ({"methods": ("newton",)}, "unknown method 'newton'"),
        ({"methods": ["prs", "bogus"]}, "unknown method 'bogus'"),
        ({"max_iter": 0}, "max_iter must be >= 1"),
        ({"tol": 0.0}, "tol must be positive"),
        ({"level": 0}, "level must be >= 1"),
        ({"level": 5}, "divisible by 2^level = 32"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
    ], ids=["methods", "methods_list", "max_iter", "tol", "level", "deep_level", "seed"])
    def test_bad_parameters_raise_before_the_reference_solve(self, monkeypatch, kwargs, message):
        def no_reference(problem):
            raise AssertionError("the reference solve ran")

        monkeypatch.setattr(harness, "_restoration_reference", no_reference)
        with pytest.raises(ValueError, match=re.escape(message)):
            run_restoration_demo(side=16, **kwargs)

    def test_synthetic_image_deterministic_and_bounded(self):
        a = synthetic_image(32, seed=3)
        b = synthetic_image(32, seed=3)
        assert np.array_equal(a, b)
        assert a.shape == (32, 32)
        assert a.min() >= 0.0 and a.max() <= 1.0
        assert not np.array_equal(a, synthetic_image(32, seed=4))


def _count_huber_proxes(monkeypatch) -> list[int]:
    """A one-element list that counts ``HuberFn.prox`` calls from now on."""
    calls = [0]
    prox = HuberFn.prox

    def counted(self, gamma, x):
        calls[0] += 1
        return prox(self, gamma, x)

    monkeypatch.setattr(HuberFn, "prox", counted)
    return calls


def _assert_same_run(run, fresh):
    assert (run.status, run.iterations) == (fresh.status, fresh.iterations)
    assert run.final_x.tobytes() == fresh.final_x.tobytes()
    assert run.normalized_errors.tobytes() == fresh.normalized_errors.tobytes()


class TestRestorationReplay:
    """The restore demo's ``prs_lev`` run replays the reference solve's iterates."""

    def _replayed_and_fresh(self, monkeypatch, **kwargs):
        """The demo's report, and the report with every ``prs_lev`` step computed
        afresh; each with its count of Huber prox calls."""
        calls = _count_huber_proxes(monkeypatch)
        replayed = run_restoration_demo(**kwargs)
        replayed_calls, calls[0] = calls[0], 0
        with monkeypatch.context() as m:
            m.setattr(harness, "Recording", lambda limit: None)
            fresh = run_restoration_demo(**kwargs)
        return replayed, replayed_calls, fresh, calls[0]

    @pytest.mark.parametrize("side, level, seed", [
        (16, 1, 0), (16, 2, 5), (32, 1, 4), (32, 2, 11), (64, 1, 64), (64, 2, 2027),
    ])
    def test_the_replayed_run_is_the_fresh_run(self, monkeypatch, side, level, seed):
        replayed, replayed_calls, fresh, fresh_calls = self._replayed_and_fresh(
            monkeypatch, side=side, level=level, seed=seed)
        for name, run in fresh.runs.items():
            _assert_same_run(replayed.runs[name], run)
        # each replayed step is one g prox the run did not make
        run = replayed.runs["prs_lev"]
        assert run.status == "converged" and run.iterations < replayed.reference_iterations
        assert fresh_calls - replayed_calls == run.iterations

    @pytest.mark.parametrize("kwargs, expected", [
        # a budget inside the recording stops the replay there
        ({"max_iter": 20}, ("max_iter", 20, 20)),
        # past the recording, the run steps on from its last iterate
        ({"max_iter": 60, "tol": 1e-15}, ("max_iter", 60, 45)),
    ], ids=["inside", "past"])
    def test_the_budget_ends_a_replay_as_it_ends_a_fresh_run(self, monkeypatch, kwargs, expected):
        replayed, replayed_calls, fresh, fresh_calls = self._replayed_and_fresh(
            monkeypatch, side=16, **kwargs)
        run = replayed.runs["prs_lev"]
        _assert_same_run(run, fresh.runs["prs_lev"])
        assert replayed.reference_iterations == 45
        assert (run.status, run.iterations, fresh_calls - replayed_calls) == expected

    def test_only_a_prs_lev_run_has_the_reference_record(self, monkeypatch):
        seen = []
        reference = harness._restoration_reference

        def spy(problem, recording=None):
            seen.append(recording)
            return reference(problem, recording)

        monkeypatch.setattr(harness, "_restoration_reference", spy)
        run_restoration_demo(side=16, methods=("prs", "fista1"))
        report = run_restoration_demo(side=16, methods=("prs_lev",), max_iter=30)
        assert seen[0] is None
        # at most the run's budget is recorded
        assert len(seen[1].iterates) == 30 < report.reference_iterations

    def test_a_recording_replays_only_its_own_solve(self):
        problem, lp = _restoration_problem()
        config = SolverConfig(max_iter=10, stopping="residual")
        recording = Recording()
        prs_lev_solve(problem, lp, config, recording=recording)
        assert len(recording.iterates) == len(recording.residuals) == 10
        z0 = problem.f.zero_point()
        other_z0 = z0.copy()
        other_z0[0, 0] = 1e-300
        for call in (
            lambda: prs_lev_solve(problem, lp, config, z0=other_z0, recording=recording),
            lambda: prs_lev_solve(problem, LeverageParams(0.0, 0.0, lp.tau), config,
                                  recording=recording),
            lambda: prs_lev_solve(problem, lp, config, lam=0.5, recording=recording),
            lambda: prs_lev_solve(replace(problem, g=_restoration_problem()[0].g), lp, config,
                                  recording=recording),
        ):
            with pytest.raises(ValueError, match="the recording was made by a solve from another"):
                call()
        # the same inputs, given explicitly, replay it
        prs_lev_solve(problem, lp, config, z0=z0, recording=recording)

    @pytest.mark.parametrize("config", [
        SolverConfig(max_iter=25, stopping="residual", tol=1e-300),
        SolverConfig(max_iter=6, stopping="residual", tol=1e-300, record_trace=False),
        SolverConfig(max_iter=25, stopping="fixed_point_distance", tol=1e-300),
        SolverConfig(max_iter=25, stopping="residual", tol=1e-3),
    ], ids=["past-the-limit", "inside", "z-star", "converges"])
    def test_a_replay_gives_the_fresh_solve_bit_for_bit(self, config):
        problem, lp = _restoration_problem()
        reference = harness._restoration_reference(problem)[0]
        problem = replace(problem, solution_oracle=reference)
        recording = Recording(limit=10)
        prs_lev_solve(problem, lp, SolverConfig(max_iter=40, tol=1e-300), recording=recording)
        assert len(recording.iterates) == 10
        x, z, trace = prs_lev_solve(problem, lp, config, recording=recording)
        x_fresh, z_fresh, fresh = prs_lev_solve(problem, lp, config)
        assert (x.tobytes(), z.tobytes()) == (x_fresh.tobytes(), z_fresh.tobytes())
        assert trace == fresh

    def test_a_replay_records_the_steps_past_the_recording(self, monkeypatch):
        calls = _count_huber_proxes(monkeypatch)  # before the pair binds HuberFn.prox
        problem, lp = _restoration_problem()
        config = SolverConfig(max_iter=25, stopping="residual", tol=1e-300)
        recording = Recording(limit=20)
        prs_lev_solve(problem, lp, replace(config, max_iter=10), recording=recording)
        calls[0] = 0
        prs_lev_solve(problem, lp, config, recording=recording)
        # steps 11 .. 20 are recorded, steps 21 .. 25 only computed
        assert len(recording.iterates) == len(recording.residuals) == 20
        assert calls[0] == 15
        calls[0] = 0
        x, z, trace = prs_lev_solve(problem, lp, config, recording=recording)
        assert calls[0] == 5 and len(recording.iterates) == 20
        x_fresh, z_fresh, fresh = prs_lev_solve(problem, lp, config)
        assert (x.tobytes(), z.tobytes()) == (x_fresh.tobytes(), z_fresh.tobytes())
        assert trace == fresh

    def test_only_an_oracle_pair_takes_a_recording(self):
        problem = _offset_pair()
        with pytest.raises(ValueError, match="only a solve that calls the proxes step by step"):
            solve_method(problem, "prs", SolverConfig(), recording=Recording())
        with pytest.raises(ValueError, match="method 'fista1' takes no recording"):
            solve_method(problem, "fista1", SolverConfig(), recording=Recording())


def _sample_trace():
    # a ratio, a zero ratio, and a blank one where d_n = 0
    return SolveTrace(
        status="converged", iterations=3,
        residuals=[0.5, 0.125, 0.03125], distances=[1.0, 0.25, 0.0, 0.0],
    )


def _nonfinite_trace(z_star):
    # g's prox returns +inf, so the first step from (1, 1) is non-finite
    poisoned = ProxFunction(prox=lambda gamma, x: np.full_like(x, np.inf), shape=(2,))
    zero = QuadraticFunction(0.0, np.zeros(2), 0.0).to_prox_function()
    problem = CompositeProblem(f=zero, g=poisoned, regularity=RegularityParams(0, 0, 0, 0))
    config = SolverConfig(stopping="residual")
    return prs_lev_solve(problem, LeverageParams(0.0, 0.0, 1.0), config, z0=np.ones(2),
                         z_star=z_star)[2]


def _start_at_z_star_trace():
    # zero offsets: x* = z* = 0, the default starting point
    problem = generate_instance(4, 5, 6, seed=0)
    return prs_lev_solve(problem, LeverageParams(0.0, 0.0, 1.0))[2]


def _edge_trace():
    # numpy scalars, cells orjson writes in another layout than repr, a zero
    # distance (blank ratio) and an infinite one
    return SolveTrace(
        status="max_iter", iterations=7,
        residuals=[np.float64(1.5e-05), np.float32(0.1), 1e16, -0.0, 5e-324, 1e-07, 12345.678],
        distances=[2.0, 1e-4, 0.0, np.inf, 3e-05, 1e20, 1e-300, np.float64(0.5)],
    )


_TRACES = {
    **{method: lambda method=method: solve_method(
        _offset_pair(), method, SolverConfig(max_iter=5000, tol=1e-10))[2]
       for method in harness.SOLVE_METHODS},
    "no-z-star": lambda: solve_method(replace(_offset_pair(), solution_oracle=None), "prs_lev",
                                      SolverConfig(max_iter=5000, tol=1e-10))[2],
    "nonfinite": lambda: _nonfinite_trace(np.zeros(2)),
    "nonfinite-no-z-star": lambda: _nonfinite_trace(None),
    "start-at-z-star": _start_at_z_star_trace,
    "edge-cells": _edge_trace,
}


def _edge_report():
    # numpy dims, moduli averages orjson writes in another layout than repr
    # ([1e-5, 1e-4) and >= 1e16), non-finite final errors and an undefined method
    return BenchmarkReport(rows=[
        BenchmarkRow(
            dims=tuple(np.array([20, 30, 30])),
            avg_moduli=RegularityParams(2.97e-05, np.float64(np.nextafter(1e-4, 0.0)),
                                        1e16, 3.2e17),
            methods={
                "prs_lev": MethodStats(17.0, 16.5, 0.1, np.inf, 3),
                "prs1": None,
                "prs2": MethodStats(1e-05, 1.5e-07, 0.1, np.nan, 0),
            },
        ),
        BenchmarkRow(dims=(40, 50, 60), avg_moduli=RegularityParams(0.5, 1e-07, 0.0, 12345.678),
                     methods={"prs_lev": MethodStats(1e16, 2.5e-05, 0.1, 5e-324, 0),
                              "prs1": None}),
    ])


def _spliced_report():
    # every float cell distinct, repr-text cells among them, and undefined
    # methods before, between and after defined ones: a cell spliced back out
    # of row order shows
    def stats(k):
        return MethodStats(k + 0.25, k + 0.5, 0.1, k * 1e-5, k)

    moduli = [RegularityParams(k + 0.125, k * 1e-5, k + 0.375, 1e16 * k) for k in range(1, 5)]
    return BenchmarkReport(rows=[
        BenchmarkRow((4, 5, 6), moduli[0], {"prs_lev": stats(1), "prs1": None, "prs2": stats(2)}),
        BenchmarkRow((7, 8, 9), moduli[1], {"prs_lev": None, "prs1": None, "prs2": None}),
        BenchmarkRow((10, 11, 12), moduli[2],
                     {"prs_lev": None, "prs1": stats(3), "prs2": stats(4)}),
        BenchmarkRow((13, 14, 15), moduli[3],
                     {"prs_lev": stats(5), "prs1": stats(6), "prs2": None}),
    ])


_REPORTS = {
    "edge-cells": _edge_report,
    "spliced": _spliced_report,
    "empty": lambda: BenchmarkReport(rows=[]),
    # (20, 10, 20) has a wide A: rho = 0, so prs1 is undefined
    "academic": lambda: run_academic_benchmark([(20, 10, 20), (6, 8, 7)], repetitions=2),
}


def _edge_restoration():
    # error values each side of 1e-5 and 1e-4, a one-digit negative exponent
    # and the least subnormal
    errors = np.array([1.0, 0.5, np.nextafter(1e-4, 0.0), 1e-4, 2.97e-05,
                       np.nextafter(1e-5, 0.0), 1e-5, 1.5e-07, 5e-324, 0.0])
    image = np.zeros((2, 2))
    run = MethodRun(iterations=errors.size, status="max_iter", final_x=image,
                    normalized_errors=errors)
    return RestorationReport(true_image=image, observed=image, reference=image,
                             reference_status="converged", reference_iterations=1,
                             regularity=TIGHT_REG, runs={"prs_lev": run, "prs": run})


class TestEmission:
    def test_trace_round_trip(self, tmp_path):
        cases = [
            (_sample_trace(), "converged",
             ["0,0.5,1.0,0.25", "1,0.125,0.25,0.0", "2,0.03125,0.0,"]),
            (_nonfinite_trace(None), "nonfinite", ["0,inf,,"]),
            (_nonfinite_trace(np.zeros(2)), "nonfinite", ["0,inf,1.4142135623730951,inf"]),
            (_start_at_z_star_trace(), "converged", ["0,0.0,0.0,"]),
        ]
        path = tmp_path / "trace.csv"
        for trace, status, rows in cases:
            emit_trace(trace, path)
            lines = path.read_text().splitlines()
            assert lines == [f"# status={status}", "iter,residual,dist,ratio"] + rows
            back_status, residuals, dists, ratios = read_trace(path)
            assert back_status == status
            np.testing.assert_array_equal(residuals, trace.residuals)
            np.testing.assert_array_equal(
                dists, trace.distances[:-1] or np.full(len(rows), np.nan)
            )
            np.testing.assert_array_equal(ratios, trace.ratios())

    @pytest.mark.parametrize("name", list(_TRACES))
    def test_trace_bytes_match_the_per_cell_writer(self, name, tmp_path):
        trace = _TRACES[name]()
        assert name.endswith("no-z-star") != bool(trace.distances)
        emit_trace(trace, tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_bytes() == reference_trace_text(trace)

    @pytest.mark.parametrize("name", list(_REPORTS))
    def test_report_bytes_match_the_per_cell_writer(self, name, monkeypatch, tmp_path):
        report = _REPORTS[name]()
        calls = []
        real = harness._float_cells
        monkeypatch.setattr(harness, "_float_cells",
                            lambda values: calls.append(values) or real(values))
        report.to_csv(tmp_path / "bench.csv")
        assert (tmp_path / "bench.csv").read_bytes() == reference_report_text(report)
        assert len(calls) == 1  # every float of the report in one call

    def test_report_records_keep_one_field_per_fact(self):
        assert [f.name for f in fields(MethodStats)] == [
            "avg_iterations", "median_iterations", "avg_time_ms", "avg_final_error", "unconverged"]
        assert [f.name for f in fields(BenchmarkRow)] == ["dims", "avg_moduli", "methods"]

    @pytest.mark.parametrize("make", [
        _edge_restoration,
        lambda: run_restoration_demo(side=16, seed=3, max_iter=60),
    ], ids=["edge-cells", "side-16"])
    def test_error_curve_bytes_match_the_per_cell_writer(self, make, tmp_path):
        report = make()
        harness._write_restoration_outputs(report, tmp_path)
        for name, run in report.runs.items():
            text = (tmp_path / f"error_{name}.csv").read_bytes()
            assert text == reference_error_curve_text(run.normalized_errors), name

    def test_float_cells_are_repr_text(self):
        rng = np.random.default_rng(28)
        size = 2 ** 19
        edges = np.array([1e-5, 1e-4, 1e16])
        edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
                                [0.0, 5e-324, 2.2250738585072014e-308, np.inf, np.nan]])
        subnormals = rng.integers(1, 2 ** 52, size=1000).view(float)
        values = np.concatenate([
            np.frombuffer(rng.bytes(8 * size), dtype=float),  # random bit patterns
            rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-12.0, 18.0, size),
            edges, -edges, subnormals, -subnormals,
        ])
        assert values.size > 2 ** 20
        lines = harness._csv_lines([harness._float_cells(values)]).decode().split("\n")
        expected = [repr(v) for v in values.tolist()] + [""]
        mismatched = [(got, want) for got, want in zip(lines, expected) if got != want]
        assert len(lines) == len(expected) and not mismatched, mismatched[:10]

    def test_empty_trace_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_trace(SolveTrace(), tmp_path / "x.csv")

    def test_plot_script_bound_lines(self, tmp_path):
        trace_path = tmp_path / "trace.csv"
        emit_trace(_sample_trace(), trace_path)
        script = tmp_path / "plot.py"
        rate, length = 0.25, 6
        emit_plot_script({"run": str(trace_path)}, [("bound", rate, length)], script)
        text = script.read_text()
        literal = re.search(r"BOUNDS = (\{.*\})", text).group(1)
        bounds = ast.literal_eval(literal)
        expected = [rate ** n for n in range(length)]
        np.testing.assert_allclose(bounds["bound"], expected, rtol=1e-15)
        compile(text, str(script), "exec")  # script must at least be valid python

    def test_plot_script_bounds_are_per_value_repr_text(self, tmp_path):
        # 0.5 ** 1074 is the least subnormal, 5e-324, and 0.5 ** 1075 rounds to 0.0
        lines = [("zero", 0.0, 3), ("one", 1.0, 4), ("slow", 0.97, 50), ("under", 0.5, 1076),
                 ("empty", 0.25, 0)]
        script = tmp_path / "plot.py"
        emit_plot_script({}, lines, script)
        cells = [f"{label!r}: [" + ", ".join(repr(float(rate) ** n) for n in range(length)) + "]"
                 for label, rate, length in lines]
        expected = "BOUNDS = {" + ", ".join(cells) + "}\n"
        assert "5e-324, 0.0]" in expected
        text = script.read_bytes().decode()
        assert text.count("\nBOUNDS = ") == 1 and expected in text
