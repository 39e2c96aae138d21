"""Validation contracts and the prox-oracle sanity checks."""

import numpy as np
import pytest

from prsplit.core import (
    CompositeProblem,
    LeverageParams,
    ProxFunction,
    RegularityParams,
    validate_leverage,
    validate_regularity,
)
from prsplit.errors import (
    BoundViolation,
    DegenerateQuadratic,
    DeltaOutOfRange,
    EtaOutOfRange,
    NoLeverage,
    ShapeMismatch,
    ShiftIncompatible,
    TauTooSmall,
)
from prsplit.leverage import QuadraticFunction
from prsplit.proxlib import LeastSquaresFn, HuberFn
from prsplit.rates import optimal_params

from conftest import interior_delta, sample_regularity
from oracles import firm_nonexpansiveness_gap

TIGHT_REG = RegularityParams(rho=1.0, alpha=0.25, mu=0.0, beta=1.0)


class TestValidateRegularity:
    def test_running_example_is_valid_for_leveraged_mode(self):
        assert validate_regularity(TIGHT_REG, "leveraged") is TIGHT_REG

    def test_no_leverage(self):
        with pytest.raises(NoLeverage):
            validate_regularity(RegularityParams(0, 0, 0, 0), "leveraged")

    def test_bound_violation_in_any_mode(self):
        bad = RegularityParams(rho=2.0, alpha=1.0, mu=0.0, beta=0.0)
        with pytest.raises(BoundViolation):
            validate_regularity(bad, "general")
        with pytest.raises(BoundViolation):
            validate_regularity(bad, "leveraged")

    def test_degenerate_quadratic_only_in_leveraged_mode(self):
        quad = RegularityParams(rho=1.0, alpha=1.0, mu=0.0, beta=1.0)
        validate_regularity(quad, "general")
        with pytest.raises(DegenerateQuadratic):
            validate_regularity(quad, "leveraged")

    def test_negative_or_nonfinite_fields_rejected_at_construction(self):
        with pytest.raises(ValueError):
            RegularityParams(-0.1, 0, 0, 0)
        with pytest.raises(ValueError):
            RegularityParams(np.inf, 0, 0, 0)


class TestValidateLeverage:
    def test_optimal_triple_of_running_example(self):
        # the four inequalities checked directly: delta in range, eta interior,
        # tau > |eta| = 0, tau*|delta| = 0.632 < 1 + 0 = 1
        lp = LeverageParams(delta=-2.0 / 3.0, eta=0.0, tau=0.948683)
        assert validate_leverage(lp, TIGHT_REG) is lp

    def test_tau_too_small(self):
        with pytest.raises(TauTooSmall):
            validate_leverage(LeverageParams(0.0, 0.0, 0.0), TIGHT_REG)

    def test_delta_out_of_range(self):
        with pytest.raises(DeltaOutOfRange):
            validate_leverage(LeverageParams(-TIGHT_REG.rho - 0.1, 0.0, 1.0), TIGHT_REG)

    def test_eta_out_of_range(self):
        # eta interval at delta=0 is ]-0.25, 1[
        with pytest.raises(EtaOutOfRange):
            validate_leverage(LeverageParams(0.0, -0.25, 1.0), TIGHT_REG)
        with pytest.raises(EtaOutOfRange):
            validate_leverage(LeverageParams(0.0, 1.0, 2.0), TIGHT_REG)

    def test_shift_incompatible(self):
        # tau*|delta| = 2*2/3 > 1 = 1 + delta*eta
        with pytest.raises(ShiftIncompatible):
            validate_leverage(LeverageParams(-2.0 / 3.0, 0.0, 2.0), TIGHT_REG)

    def test_accepts_optimal_params_at_interior_deltas(self, rng):
        # property over 50 random regularity tuples and random interior shifts
        for _ in range(50):
            reg = sample_regularity(rng, zero_rho=rng.random() < 0.2,
                                    zero_mu=rng.random() < 0.2)
            delta = interior_delta(rng, reg)
            lp = optimal_params(reg, delta)
            validate_leverage(lp, reg)


class TestProxFunctionChecks:
    def test_firm_nonexpansiveness_of_concrete_proxes(self, rng):
        M = rng.standard_normal((3, 3))
        wide = rng.standard_normal((2, 4))  # M^T M of rank 2 in R^4
        fns = [
            LeastSquaresFn(rng.standard_normal((6, 4)), rng.standard_normal(6)).to_prox_function(),
            HuberFn(0.3, 2.0).to_prox_function((5,)),
            QuadraticFunction(0.0, np.zeros(3), np.diag([0.5, 2.0, 0.0])).to_prox_function(),
            QuadraticFunction(0.2, rng.standard_normal(4), 1.7).to_prox_function(),
            QuadraticFunction(0.0, rng.standard_normal(3), M.T @ M).to_prox_function(),
            QuadraticFunction(0.0, rng.standard_normal(4), wide.T @ wide).to_prox_function(),
        ]
        for fn in fns:
            assert firm_nonexpansiveness_gap(fn, rng, pairs=100) <= 1e-10

    def test_dimension_mismatch_rejected(self):
        f = QuadraticFunction(0.0, np.zeros(3), 1.0).to_prox_function()
        g = QuadraticFunction(0.0, np.zeros(4), 1.0).to_prox_function()
        with pytest.raises(ShapeMismatch):
            CompositeProblem(f=f, g=g, regularity=TIGHT_REG)

    def test_shape_consistency(self):
        with pytest.raises(ShapeMismatch):
            ProxFunction(prox=lambda g, x: x, dimension=4, shape=(5,))
