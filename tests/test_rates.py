"""Closed-form rate calculus: frozen examples, identities, and baselines."""

import math

import pytest

from prsplit.core import LeverageParams, RegularityParams
from prsplit.errors import DeltaOutOfRange, NotStronglyRegular
from prsplit.rates import (
    classical_prs_optimal,
    delta_star,
    dominance_report,
    drs_optimal_rate,
    fista_rate_bounds,
    optimal_params,
    optimal_rate,
    rate_bundle,
    rate_constancy_check,
    rate_r1,
    rate_r2,
)

from conftest import interior_delta, sample_regularity
from oracles import classical_prs_rate

REG = RegularityParams(rho=1.0, alpha=0.25, mu=0.0, beta=1.0)
LP = LeverageParams(delta=-2.0 / 3.0, eta=0.0, tau=0.9486832980505138)  # = 1.5/sqrt(2.5)


class TestFactorRates:
    def test_r1_at_the_optimizer(self):
        # both max-branches agree here; value cross-checked by the acceptance
        # grid minimization over tau
        assert rate_r1(LP, REG) == pytest.approx(0.519494, abs=1e-6)

    def test_r2_at_the_optimizer(self):
        assert rate_r2(LP, REG) == pytest.approx(0.225148, abs=1e-6)

    def test_r1_reduces_to_classical_prs_rate(self):
        # delta = eta = 0 and tau = sqrt(alpha/rho) hits (1-sqrt(a r))/(1+sqrt(a r))
        reg = RegularityParams(rho=0.25, alpha=1.0, mu=0.0, beta=0.0)
        lp = LeverageParams(0.0, 0.0, math.sqrt(reg.alpha / reg.rho))
        assert rate_r1(lp, reg) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_r1_tends_to_one_for_vanishing_step(self):
        reg = RegularityParams(rho=1.0, alpha=0.0, mu=0.0, beta=1.0)
        values = [rate_r1(LeverageParams(0.0, 0.0, t), reg) for t in (1e-3, 1e-6, 1e-9)]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(1.0, abs=1e-8)

    def test_r2_second_branch_pins_at_one_when_mu_equals_delta(self):
        reg = RegularityParams(rho=1.0, alpha=0.25, mu=0.0, beta=0.5)
        lp = LeverageParams(0.0, 0.0, reg.beta)  # first branch vanishes
        assert rate_r2(lp, reg) == pytest.approx(1.0, abs=1e-15)

    def test_r2_is_r1_under_the_mirror_swap(self, rng):
        for _ in range(20):
            reg = sample_regularity(rng)
            lp = LeverageParams(
                delta=interior_delta(rng, reg),
                eta=rng.uniform(-0.01, 0.01),
                tau=rng.uniform(0.5, 2.0),
            )
            mirrored = LeverageParams(-lp.delta, -lp.eta, lp.tau)
            assert rate_r2(lp, reg) == pytest.approx(
                rate_r1(mirrored, reg.swap()), abs=1e-14
            )

    def test_bundle_product(self):
        bundle = rate_bundle(LP, REG)
        assert bundle.r == bundle.r1 * bundle.r2
        assert 0.0 <= bundle.r_star < 1.0


class TestOptimalParams:
    def test_running_example(self):
        lp = optimal_params(REG, -2.0 / 3.0)
        assert lp.eta == pytest.approx(0.0, abs=1e-15)
        assert lp.tau == pytest.approx(0.948683, abs=1e-6)

    def test_symmetric_moduli_give_zero_eta_at_zero_delta(self):
        reg = RegularityParams(rho=0.7, alpha=0.5, mu=0.7, beta=0.5)
        lp = optimal_params(reg, 0.0)
        assert lp.eta == pytest.approx(0.0, abs=1e-15)

    def test_delta_star_reproduces_the_simple_choice(self):
        ds = delta_star(REG)
        assert ds == pytest.approx(-0.666667, abs=1e-6)
        lp = optimal_params(REG, ds)
        assert lp.eta == pytest.approx(0.0, abs=1e-15)
        # tau* = (beta(1+alpha mu) + alpha(1+beta rho)) / sqrt((a+b)(r+m)(1+am)(1+br))
        assert lp.tau == pytest.approx(1.5 / math.sqrt(2.5), abs=1e-14)

    def test_delta_star_interior_membership(self, rng):
        for _ in range(100):
            reg = sample_regularity(rng, zero_rho=rng.random() < 0.25,
                                    zero_mu=rng.random() < 0.25)
            ds = delta_star(reg)
            assert -reg.rho < ds < reg.mu

    def test_delta_out_of_range(self):
        with pytest.raises(DeltaOutOfRange):
            optimal_params(REG, REG.mu + 0.1)

    def test_branches_coincide_at_optimal_params(self, rng):
        # tau equalizes the two branches of each factor; eta equalizes the
        # two crossings (this is exactly how the closed forms were derived)
        for _ in range(30):
            reg = sample_regularity(rng)
            lp = optimal_params(reg, interior_delta(rng, reg))
            f_smooth = ((lp.tau - lp.eta) * (1 + reg.alpha * lp.delta) - reg.alpha) / (
                (lp.tau + lp.eta) * (1 + reg.alpha * lp.delta) + reg.alpha
            )
            f_curved = (1 - (lp.tau - lp.eta) * (reg.rho + lp.delta)) / (
                1 + (lp.tau + lp.eta) * (reg.rho + lp.delta)
            )
            assert f_smooth == pytest.approx(f_curved, rel=1e-9)
            g_smooth = ((lp.tau + lp.eta) * (1 - reg.beta * lp.delta) - reg.beta) / (
                (lp.tau - lp.eta) * (1 - reg.beta * lp.delta) + reg.beta
            )
            g_curved = (1 - (lp.tau + lp.eta) * (reg.mu - lp.delta)) / (
                1 + (lp.tau - lp.eta) * (reg.mu - lp.delta)
            )
            assert g_smooth == pytest.approx(g_curved, rel=1e-9)
            assert rate_r1(lp, reg) == pytest.approx(max(f_smooth, f_curved), abs=1e-15)
            assert rate_r2(lp, reg) == pytest.approx(max(g_smooth, g_curved), abs=1e-15)


class TestOptimalRate:
    def test_running_example(self):
        assert optimal_rate(REG) == pytest.approx(0.116963, abs=1e-6)

    def test_exact_cancellation(self):
        reg = RegularityParams(1.0, 1.0 - 1e-9, 1.0, 1.0 - 1e-9)
        assert optimal_rate(reg) == pytest.approx(0.0, abs=1e-9)

    def test_limit_towards_pure_f_regularity(self):
        # beta -> 0 with mu = 0 approaches the classical optimal rate
        reg = RegularityParams(rho=0.25, alpha=1.0, mu=0.0, beta=1e-12)
        classical = (1 - math.sqrt(0.25)) / (1 + math.sqrt(0.25))
        assert optimal_rate(reg) == pytest.approx(classical, abs=1e-5)

    def test_product_at_optimal_params_equals_optimal_rate(self, rng):
        for _ in range(100):
            reg = sample_regularity(rng, zero_rho=rng.random() < 0.2,
                                    zero_mu=rng.random() < 0.2)
            r_star = optimal_rate(reg)
            for _ in range(10):
                lp = optimal_params(reg, interior_delta(rng, reg, margin=1e-3))
                r = rate_r1(lp, reg) * rate_r2(lp, reg)
                assert abs(r - r_star) <= 1e-10


class TestRateConstancy:
    def test_running_example_grid(self):
        assert rate_constancy_check(REG, 101) <= 1e-12

    def test_two_point_grid(self):
        assert rate_constancy_check(REG, 2) <= 1e-12

    def test_random_tuples(self, rng):
        for _ in range(50):
            reg = sample_regularity(rng)
            assert rate_constancy_check(reg, 101) <= 1e-10

    def test_grid_size_validation(self):
        with pytest.raises(ValueError):
            rate_constancy_check(REG, 1)


class TestBaselines:
    def test_classical_prs_optimal(self):
        reg = RegularityParams(rho=0.25, alpha=1.0, mu=0.0, beta=0.0)
        tau, rate = classical_prs_optimal(reg)
        assert tau == pytest.approx(2.0)
        assert rate == pytest.approx(1.0 / 3.0)

    def test_classical_prs_requires_regularity(self):
        with pytest.raises(NotStronglyRegular):
            classical_prs_optimal(RegularityParams(0.0, 1.0, 0.0, 0.0))
        with pytest.raises(NotStronglyRegular):
            classical_prs_rate(1.0, RegularityParams(1.0, 0.0, 0.0, 0.0))

    def test_classical_prs_rate_vanishes_at_degenerate_product(self):
        reg = RegularityParams(rho=1.0, alpha=1.0, mu=0.0, beta=0.0)
        tau, rate = classical_prs_optimal(reg)
        assert rate == pytest.approx(0.0, abs=1e-15)
        assert classical_prs_rate(tau, reg) == pytest.approx(0.0, abs=1e-15)

    def test_drs_optimal(self):
        reg = RegularityParams(rho=1.0, alpha=0.0, mu=0.0, beta=1.0)
        tau, lam, rate = drs_optimal_rate(reg)
        assert rate == pytest.approx(0.5)
        assert lam == pytest.approx(0.75)
        # the step is configurable; the default uses the moduli the rate sees
        assert tau == pytest.approx(1.0)
        assert drs_optimal_rate(reg, tau=2.5)[0] == 2.5

    def test_drs_rate_degrades_with_vanishing_product(self):
        rate = drs_optimal_rate(RegularityParams(1e-8, 0.0, 0.0, 1.0))[2]
        assert rate == pytest.approx(1.0, abs=1e-3)

    def test_drs_requires_regularity(self):
        with pytest.raises(NotStronglyRegular):
            drs_optimal_rate(RegularityParams(0.0, 0.0, 0.0, 1.0))


class TestDominance:
    def test_running_example_beats_classical_prs(self):
        report = dict(dominance_report(REG))
        assert report["prs_lev"] == pytest.approx(0.116963, abs=1e-6)
        assert report["prs1"] == pytest.approx(1.0 / 3.0)
        assert report["prs_lev"] < report["prs1"]

    def test_strongly_convex_f_smooth_g_case(self):
        reg = RegularityParams(rho=1.0, alpha=0.0, mu=0.0, beta=1.0)
        report = dict(dominance_report(reg))
        assert report["prs_lev"] == pytest.approx(0.171573, abs=1e-6)
        assert report["drs"] == pytest.approx(0.5)
        assert report["fista2"] == pytest.approx(1 - math.sqrt(0.5), abs=1e-12)
        assert report["prs_lev"] < report["fista2"] < report["drs"]
        assert report["prs1"] is None and report["prs2"] is None

    def test_report_sorted_and_swap_invariant(self, rng):
        for _ in range(20):
            reg = sample_regularity(rng)
            report = dominance_report(reg)
            rates_defined = [r for _, r in report if r is not None]
            assert rates_defined == sorted(rates_defined)
            assert report[0][0] == "prs_lev"
            swapped = {
                {"prs1": "prs2", "prs2": "prs1", "fista1": "fista2",
                 "fista2": "fista1"}.get(name, name): rate
                for name, rate in dominance_report(reg.swap())
                if name != "drs"
            }
            original = dict(dominance_report(reg))
            for name in ("prs_lev", "prs1", "prs2", "fista1", "fista2"):
                if original[name] is None:
                    assert swapped[name] is None
                else:
                    assert swapped[name] == pytest.approx(original[name], rel=1e-12)

    @pytest.mark.parametrize("reg, tie", [
        (RegularityParams(rho=0.0, alpha=0.0, mu=1.0, beta=0.5), "prs2"),
        (RegularityParams(rho=1.0, alpha=0.5, mu=0.0, beta=0.0), "prs1"),
    ], ids=["f_absent", "g_absent"])
    def test_absent_function_ties_classical_prs(self, reg, tie):
        # with rho = alpha = 0 on one side, leveraged PRS is classical PRS on
        # the other function, so r* = (1 - sqrt(0.5)) / (1 + sqrt(0.5)) twice
        report = dict(dominance_report(reg))
        assert report["prs_lev"] == report[tie] == pytest.approx(3.0 - 2.0 * math.sqrt(2.0))
        others = [rate for name, rate in report.items()
                  if rate is not None and name not in ("prs_lev", tie)]
        assert others and all(report["prs_lev"] < rate for rate in others)

    def test_absent_function_tie_survives_rounding(self, rng):
        # the two formulas round differently: r* may sit an ulp above the tie
        for _ in range(200):
            mu = float(10.0 ** rng.uniform(-3.0, 3.0))
            beta = float(rng.uniform(0.01, 0.99)) / mu
            for reg, tie in ((RegularityParams(0.0, 0.0, mu, beta), "prs2"),
                             (RegularityParams(mu, beta, 0.0, 0.0), "prs1")):
                report = dict(dominance_report(reg))
                assert report[tie] == pytest.approx(report["prs_lev"], rel=0, abs=1e-15)

    def test_violated_dominance_raises(self, monkeypatch):
        # an explicit raise, not an assert that ``python -O`` would strip
        monkeypatch.setattr("prsplit.rates.optimal_rate", lambda reg: 1.0)
        with pytest.raises(RuntimeError, match="does not dominate"):
            dominance_report(REG)

    def test_fista_bounds_match_remark_chain(self, rng):
        # r* <= (1-sqrt(F))/(1+sqrt(F)) <= 1-sqrt(F) for both variants
        for _ in range(50):
            reg = sample_regularity(rng)
            r_star = optimal_rate(reg)
            f1 = reg.alpha * (reg.rho + reg.mu) / (1 + reg.alpha * reg.mu)
            f2 = reg.beta * (reg.rho + reg.mu) / (1 + reg.beta * reg.rho)
            for f, bound in zip((f1, f2), fista_rate_bounds(reg)):
                tight = (1 - math.sqrt(f)) / (1 + math.sqrt(f))
                assert r_star < tight + 1e-12
                assert tight <= bound == pytest.approx(1 - math.sqrt(f))
