"""Instance generation, oracles, benchmark loops, and emission round-trips."""

import ast
import re

import numpy as np
import pytest

from prsplit.core import (
    LeverageParams,
    RegularityParams,
    SolveTrace,
    TraceRecord,
    fixed_point_oracle,
)
from prsplit import harness
from prsplit.errors import NoGradient
from prsplit.harness import (
    InstanceSpec,
    emit_plot_script,
    emit_trace,
    generate_instance,
    run_academic_benchmark,
    run_restoration_demo,
    run_tight_check,
    synthetic_image,
)
from prsplit.rates import delta_star, optimal_params, optimal_rate
from prsplit.solvers import SolverConfig, prs_lev_solve

from conftest import interior_delta
from oracles import grid_search_rate, read_trace

TIGHT_REG = RegularityParams(rho=1.0, alpha=0.25, mu=0.0, beta=1.0)


class TestInstances:
    def test_fixed_seed_is_bitwise_deterministic(self):
        spec = InstanceSpec(m=6, n=8, p=7, seed=42)
        p1, p2 = generate_instance(spec), generate_instance(spec)
        np.testing.assert_array_equal(p1.solution_oracle, p2.solution_oracle)
        x = np.arange(6.0)
        assert np.array_equal(p1.f.prox(0.7, x), p2.f.prox(0.7, x))
        assert np.array_equal(p1.g.prox(0.7, x), p2.g.prox(0.7, x))

    def test_wide_first_block_loses_strong_convexity(self):
        problem = generate_instance(InstanceSpec(m=20, n=10, p=20, seed=1))
        assert problem.regularity.rho == 0.0
        assert problem.regularity.mu > 0.0

    def test_zero_offsets_give_zero_solution(self):
        problem = generate_instance(InstanceSpec(m=10, n=12, p=11, seed=3))
        np.testing.assert_allclose(problem.solution_oracle, 0.0, atol=1e-14)

    def test_offsets_move_the_solution(self, rng):
        a = rng.standard_normal(12)
        b = rng.standard_normal(11)
        problem = generate_instance(
            InstanceSpec(m=10, n=12, p=11, seed=3, offset_a=a, offset_b=b)
        )
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
                InstanceSpec(
                    m=m,
                    n=int(rng.integers(4, 12)),
                    p=m + int(rng.integers(0, 4)),
                    seed=int(rng.integers(0, 2**31)),
                )
            )
            reg = problem.regularity
            lp = optimal_params(reg, interior_delta(rng, reg))
            z_star = fixed_point_oracle(problem, lp)
            scale = 1.0 + lp.delta * (lp.tau + lp.eta)
            x_back = problem.f.prox((lp.tau + lp.eta) / scale, z_star / scale)
            assert np.linalg.norm(x_back - problem.solution_oracle) <= 1e-10

    def test_classical_reduction(self, rng):
        problem = generate_instance(InstanceSpec(m=5, n=6, p=7, seed=9))
        tau = 1.3
        z_star = fixed_point_oracle(problem, LeverageParams(0.0, 0.0, tau))
        expected = problem.solution_oracle + tau * problem.f.gradient(problem.solution_oracle)
        np.testing.assert_allclose(z_star, expected, atol=1e-14)

    def test_perturbed_start_contracts_back(self, rng):
        problem = generate_instance(InstanceSpec(m=8, n=10, p=9, seed=11))
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
        problem = generate_instance(InstanceSpec(m=4, n=5, p=6, seed=0))
        bare = type(problem)(
            f=type(problem.f)(prox=problem.f.prox, dimension=4),
            g=problem.g, regularity=problem.regularity, solution_oracle=np.zeros(4),
        )
        with pytest.raises(NoGradient):
            fixed_point_oracle(bare, LeverageParams(0.0, 0.0, 1.0))


class TestTightCheck:
    def test_running_example(self):
        assert run_tight_check(TIGHT_REG, steps=20) <= 1e-12

    def test_symmetric_moduli(self):
        reg = RegularityParams(rho=1.0, alpha=0.5, mu=1.0, beta=0.5)
        assert run_tight_check(reg, steps=20) <= 1e-12

    def test_zero_start_reports_zero_deviation(self):
        assert run_tight_check(TIGHT_REG, steps=5, z0=np.zeros(2)) == 0.0

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
        assert not row.methods["prs1"].defined  # wide A: rho = 0
        assert row.methods["prs_lev"].defined and row.methods["prs2"].defined
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
            assert not methods["prs1"].defined
            wins += methods["prs_lev"].avg_iterations < methods["prs2"].avg_iterations
        assert wins >= 0.9 * reps

    def test_leveraged_close_to_prs1_when_g_has_no_regularity(self):
        # (20,20,10): mu = 0 kills prs2 and leaves a near-unity optimal rate,
        # where the leveraged scheme and tuned classical PRS nearly coincide
        report = run_academic_benchmark(
            [(20, 20, 10)], repetitions=6, tol=1e-10, max_iter=100000, seed=1
        )
        methods = report.rows[0].methods
        assert not methods["prs2"].defined
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
        ({"max_iter": 0}, "max_iter must be >= 1"),
        ({"tol": 0.0}, "tol must be positive"),
        ({"level": 0}, "level must be >= 1"),
        ({"level": 5}, "divisible by 2^level = 32"),
    ], ids=["methods", "max_iter", "tol", "level", "deep_level"])
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


def _sample_trace():
    records = [
        TraceRecord(0, 0.5, 1.0, 0.25),
        TraceRecord(1, 0.125, 0.25, None),
        TraceRecord(2, 0.03125, None, None),
    ]
    return SolveTrace(records=records, status="converged", iterations=3)


class TestEmission:
    def test_trace_round_trip(self, tmp_path):
        trace = _sample_trace()
        path = tmp_path / "trace.csv"
        emit_trace(trace, path)
        back = read_trace(path)
        assert back.status == trace.status
        assert back.records == trace.records
        text = path.read_text()
        assert text.splitlines()[1] == "iter,residual,dist,ratio"

    def test_empty_trace_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_trace(SolveTrace(records=[], status="max_iter"), tmp_path / "x.csv")

    def test_plot_script_bound_lines(self, tmp_path):
        trace_path = tmp_path / "trace.csv"
        emit_trace(_sample_trace(), trace_path)
        script = tmp_path / "plot.py"
        rate, dist0, length = 0.25, 2.0, 6
        emit_plot_script({"run": str(trace_path)}, [("bound", rate, dist0, length)], script)
        text = script.read_text()
        literal = re.search(r"BOUNDS = (\{.*\})", text).group(1)
        bounds = ast.literal_eval(literal)
        expected = [dist0 * rate ** n for n in range(length)]
        np.testing.assert_allclose(bounds["bound"], expected, rtol=1e-15)
        compile(text, str(script), "exec")  # script must at least be valid python
