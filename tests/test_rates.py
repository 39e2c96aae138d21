"""Closed-form rate calculus: frozen examples, identities, and baselines."""

import math
from decimal import Decimal

import numpy as np
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
    _one_minus_product,
)

from conftest import interior_delta, sample_regularity
from oracles import (
    classical_prs_optimal_reference,
    classical_prs_rate,
    fista_rate_reference,
    optimal_rate_reference,
)

REG = RegularityParams(rho=1.0, alpha=0.25, mu=0.0, beta=1.0)
LP = LeverageParams(delta=-2.0 / 3.0, eta=0.0, tau=0.9486832980505138)  # = 1.5/sqrt(2.5)


class TestFactorRates:
    def test_r1_at_the_optimizer(self):
        # both max-branches agree here; value cross-checked by the acceptance
        # grid minimization over tau
        assert rate_bundle(LP, REG).r1 == pytest.approx(0.519494, abs=1e-6)

    def test_r2_at_the_optimizer(self):
        assert rate_bundle(LP, REG).r2 == pytest.approx(0.225148, abs=1e-6)

    def test_r1_reduces_to_classical_prs_rate(self):
        # delta = eta = 0 and tau = sqrt(alpha/rho) hits (1-sqrt(a r))/(1+sqrt(a r))
        reg = RegularityParams(rho=0.25, alpha=1.0, mu=0.0, beta=0.0)
        lp = LeverageParams(0.0, 0.0, math.sqrt(reg.alpha / reg.rho))
        assert rate_bundle(lp, reg).r1 == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_r1_tends_to_one_for_vanishing_step(self):
        reg = RegularityParams(rho=1.0, alpha=0.0, mu=0.0, beta=1.0)
        values = [rate_bundle(LeverageParams(0.0, 0.0, t), reg).r1 for t in (1e-3, 1e-6, 1e-9)]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(1.0, abs=1e-8)

    def test_r2_second_branch_pins_at_one_when_mu_equals_delta(self):
        reg = RegularityParams(rho=1.0, alpha=0.25, mu=0.0, beta=0.5)
        lp = LeverageParams(0.0, 0.0, reg.beta)  # first branch vanishes
        assert rate_bundle(lp, reg).r2 == pytest.approx(1.0, abs=1e-15)

    def test_r2_is_r1_under_the_mirror_swap(self, rng):
        for _ in range(20):
            reg = sample_regularity(rng)
            lp = LeverageParams(
                delta=interior_delta(rng, reg),
                eta=rng.uniform(-0.01, 0.01),
                tau=rng.uniform(0.5, 2.0),
            )
            mirrored = LeverageParams(-lp.delta, -lp.eta, lp.tau)
            assert rate_bundle(lp, reg).r2 == pytest.approx(
                rate_bundle(mirrored, reg.swap()).r1, abs=1e-14
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
            assert rate_bundle(lp, reg).r1 == pytest.approx(max(f_smooth, f_curved), abs=1e-15)
            assert rate_bundle(lp, reg).r2 == pytest.approx(max(g_smooth, g_curved), abs=1e-15)


def _step_scalars(lp: LeverageParams) -> np.ndarray:
    """The scalars of ``prs_lev_solve``'s step in ``w = z/f_scale``: the prox
    step sizes ``gamma_f`` and ``gamma_g``, and ``c0/f_scale``, ``c0*g_in`` and
    ``g_in*f_scale``, by the solver's own expressions."""
    t, e, sf, sg = lp.tau, lp.eta, lp.f_scale, lp.g_scale
    c0, g_in = 2.0 * t / (t - e), (t - e) / ((t + e) * sg)
    return np.array([(t + e) / sf, (t - e) / sg, c0 / sf, c0 * g_in, g_in * sf])


class TestDeltaInvariance:
    def test_step_scalars_do_not_depend_on_delta(self, rng):
        # f_scale and g_scale lose digits as they near 0, so the spread is
        # counted in ulps per unit of kappa = 1/min(f_scale, g_scale) over
        # the grid.  Measured on these draws: at most 22 ulps per unit, with
        # kappa up to 160 where a modulus is 0, and at most 39 ulps where
        # kappa < 2
        worst = 0.0
        for _ in range(300):
            reg = sample_regularity(rng, zero_rho=rng.random() < 0.25,
                                    zero_mu=rng.random() < 0.25)
            lps = [optimal_params(reg, -reg.rho + t * (reg.rho + reg.mu))
                   for t in np.linspace(0.05, 0.95, 7)]
            values = np.array([_step_scalars(lp) for lp in lps])
            kappa = max(1.0 / min(lp.f_scale, lp.g_scale) for lp in lps)
            ulps = (values.max(0) - values.min(0)) / np.spacing(np.abs(values).max(0))
            worst = max(worst, ulps.max() / kappa)
        assert worst <= 64


class TestOptimalRate:
    def test_running_example(self):
        assert optimal_rate(REG) == pytest.approx(0.116963, abs=1e-6)

    def test_exact_cancellation(self):
        reg = RegularityParams(1.0, 1.0 - 1e-9, 1.0, 1.0 - 1e-9)
        assert optimal_rate(reg) == pytest.approx(0.0, abs=1e-9)

    def test_zero_at_an_exact_quadratic_and_never_negative(self, rng):
        # r* has the factor (1 - alpha*rho)(1 - beta*mu), so it is 0 where a
        # product is 1; x * (1/x) rounds to 1, but the exact product of the
        # two doubles can lie above 1, where the compensated factor is below 0
        # and r* is clamped at 0
        below = 0
        for i in range(100):
            reg = sample_regularity(rng)
            if i % 2:
                reg = RegularityParams(reg.rho, 1.0 / reg.rho, reg.mu, reg.beta)
                below += _one_minus_product(reg.alpha, reg.rho) < 0.0
            else:
                reg = RegularityParams(reg.rho, reg.alpha, reg.mu, 1.0 / reg.mu)
                below += _one_minus_product(reg.beta, reg.mu) < 0.0
            assert 0.0 <= optimal_rate(reg) <= 1e-15
        assert below > 0  # the clamp was needed
        assert optimal_rate(RegularityParams(1.0, 1.0, 0.0, 1.0)) == 0.0

    @pytest.mark.parametrize("boundary", [False, True], ids=["random", "near_boundary"])
    def test_within_8_ulp_of_the_decimal_reference(self, boundary):
        # random: log-uniform moduli, each side absent one time in ten;
        # near_boundary: alpha*rho or beta*mu = 1 - 10^-k, k = 1 ... 16, where
        # (ac - bd)/(ac + bd) cancelled up to every digit
        rng = np.random.default_rng(5 + boundary)
        worst = 0.0
        for i in range(4000):
            rho, mu = (float(10.0 ** rng.uniform(-3.0, 3.0)) * (rng.random() >= 0.1)
                       for _ in range(2))
            if rho + mu == 0.0:
                rho = 1.0
            alpha, beta = (float(rng.random()) / s if s > 0.0
                           else float(10.0 ** rng.uniform(-3.0, 3.0)) for s in (rho, mu))
            if boundary:
                side = float(10.0 ** rng.uniform(-3.0, 3.0))
                product = 1.0 - 10.0 ** -(i % 16 + 1)
                if i % 32 < 16:
                    rho, alpha = side, product / side
                else:
                    mu, beta = side, product / side
            reg = RegularityParams(rho, alpha, mu, beta)
            want = optimal_rate_reference(reg)
            got = optimal_rate(reg)
            if want <= 0:  # a product rounds to 1, but lies on or above it
                assert got == 0.0
                continue
            worst = max(worst, float(abs(Decimal(got) - want)) / math.ulp(float(want)))
        assert worst <= 8.0

    def test_exactly_zero_at_an_exact_quadratic(self, rng):
        for _ in range(100):
            reg = sample_regularity(rng)
            for x in (0.25, 0.5, 2.0, 4.0, 1024.0):  # 1/x is exact
                assert optimal_rate(RegularityParams(reg.rho, reg.alpha, x, 1.0 / x)) == 0.0
                assert optimal_rate(RegularityParams(1.0 / x, x, reg.mu, reg.beta)) == 0.0

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
                r = rate_bundle(lp, reg).r
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

    @pytest.mark.parametrize("boundary", [False, True], ids=["random", "near_boundary"])
    @pytest.mark.parametrize("name", ["prs", "fista"])
    def test_within_8_ulp_of_the_decimal_reference(self, name, boundary):
        # random: log-uniform rho and mu (mu absent one time in ten) and alpha*rho
        # uniform in [0, 1); near_boundary: alpha*rho = 1 - 10^-k, k = 1 ... 16,
        # where (1 - s)/(1 + s) and 1 - sqrt(q) lost up to every digit
        formula, reference = {
            "prs": (lambda reg: classical_prs_optimal(reg)[1], classical_prs_optimal_reference),
            "fista": (lambda reg: fista_rate_bounds(reg)[0], fista_rate_reference),
        }[name]
        rng = np.random.default_rng(7 + boundary)
        worst = 0.0
        for i in range(4000):
            rho = float(10.0 ** rng.uniform(-3.0, 3.0))
            mu = float(10.0 ** rng.uniform(-3.0, 3.0)) * (rng.random() >= 0.1)
            product = 1.0 - 10.0 ** -(i % 16 + 1) if boundary else float(rng.random())
            reg = RegularityParams(rho, product / rho, mu, float(rng.random()) / max(mu, 1.0))
            want, got = reference(reg), formula(reg)
            if want <= 0:  # alpha*rho rounds to 1, but lies on or above it
                assert got == 0.0
                continue
            worst = max(worst, float(abs(Decimal(got) - want)) / math.ulp(float(want)))
        assert worst <= 8.0

    def test_exactly_zero_at_an_exact_quadratic(self, rng):
        for _ in range(100):
            reg = sample_regularity(rng)
            for x in (0.25, 0.5, 2.0, 4.0, 1024.0):  # 1/x is exact
                exact = RegularityParams(1.0 / x, x, reg.mu, reg.beta)
                assert classical_prs_optimal(exact)[1] == 0.0
                assert fista_rate_bounds(exact)[0] == 0.0

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
        assert report["drs2"] is None  # its mirror needs mu > 0 and alpha > 0

    def test_report_sorted_and_swap_invariant(self, rng):
        for _ in range(20):
            reg = sample_regularity(rng)
            report = dominance_report(reg)
            rates_defined = [r for _, r in report if r is not None]
            assert rates_defined == sorted(rates_defined)
            assert report[0][0] == "prs_lev"
            swapped = {
                {"prs1": "prs2", "prs2": "prs1", "drs": "drs2", "drs2": "drs",
                 "fista1": "fista2", "fista2": "fista1"}.get(name, name): rate
                for name, rate in dominance_report(reg.swap())
            }
            original = dict(dominance_report(reg))
            assert original.keys() == swapped.keys()
            for name in original:
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
        # the other function, so r* = (1 - sqrt(0.5)) / (1 + sqrt(0.5)) twice;
        # r* is 3 - 2 sqrt(2) correctly rounded, and the classical formula's
        # cancellation leaves it an ulp below
        report = dict(dominance_report(reg))
        assert report["prs_lev"] == 0.1715728752538099
        assert abs(report[tie] - report["prs_lev"]) <= math.ulp(report["prs_lev"])
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

    @pytest.mark.parametrize("reg, zeros", [
        (RegularityParams(rho=1.0, alpha=1.0, mu=0.0, beta=1.0), {"prs1", "fista1"}),
        (RegularityParams(rho=0.0, alpha=1.0, mu=1.0, beta=1.0), {"prs2", "fista2"}),
        (RegularityParams(rho=0.5, alpha=2.0, mu=0.25, beta=4.0),
         {"prs1", "prs2", "fista1", "fista2"}),
    ], ids=["f_exact", "g_exact", "both_exact"])
    def test_exact_quadratic_ties_at_zero(self, reg, zeros, monkeypatch):
        # r* = 0, and so are the classical PRS and FISTA rates on the exact side
        report = dominance_report(reg)
        assert report[0] == ("prs_lev", 0.0)
        assert {name for name, rate in report[1:] if rate is not None and rate <= 1e-15} == zeros
        # a tie at 0 allows no r* above it
        monkeypatch.setattr("prsplit.rates.optimal_rate", lambda reg: 1e-3)
        with pytest.raises(RuntimeError, match="does not dominate"):
            dominance_report(reg)

    def test_r_star_is_listed_first_among_its_ties(self, rng):
        # rho * (1/rho) rounds to 1, but the exact product of the two doubles
        # can lie on or above 1, where r* and the exact side's classical PRS
        # and FISTA rates are all clamped to 0 and tie, or an ulp below 1,
        # where r* and those rates are a few 1e-17, each compensated, and r*
        # is strictly the smallest; r* is listed first with its own bits, and
        # the baselines follow in ascending order
        ties = 0
        for i in range(200):
            reg = sample_regularity(rng)
            reg = (RegularityParams(reg.rho, 1.0 / reg.rho, reg.mu, reg.beta) if i % 2
                   else RegularityParams(reg.rho, reg.alpha, reg.mu, 1.0 / reg.mu))
            report = dominance_report(reg)
            assert report[0] == ("prs_lev", optimal_rate(reg))
            baselines = [rate for _, rate in report[1:] if rate is not None]
            assert baselines == sorted(baselines)
            assert report[0][1] < baselines[0] or report[0][1] == baselines[0] == 0.0
            ties += baselines[0] == report[0][1]
        assert 0 < ties < 200

    def test_rates_that_round_to_one_tie(self):
        # with rho = 1e-33 every rate is 1 - O(1e-16) or closer, and rounds to 1
        report = dict(dominance_report(RegularityParams(rho=1e-33, alpha=1.0, mu=0.0, beta=1.0)))
        assert report.pop("prs2") is None and report.pop("drs2") is None  # mu = 0
        assert set(report.values()) == {1.0}

    def test_g_first_rows_are_the_f_first_formulas_on_the_swap(self, rng):
        # one formula per baseline: the g-first rows are its f-first rows on
        # reg.swap(), bit for bit, defined or not
        regs = [sample_regularity(rng) for _ in range(50)]
        regs += [RegularityParams(1.0, 0.0, 0.0, 1.0), RegularityParams(0.0, 1.0, 1.0, 0.0),
                 RegularityParams(1.0, 0.5, 0.0, 0.0), RegularityParams(0.0, 0.0, 1.0, 0.5)]
        for reg in regs:
            report, mirror = dict(dominance_report(reg)), dict(dominance_report(reg.swap()))
            for second, first in (("prs2", "prs1"), ("drs2", "drs"), ("fista2", "fista1")):
                assert report[second] == mirror[first], (reg, second)
            assert fista_rate_bounds(reg)[1] == fista_rate_bounds(reg.swap())[0]

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
