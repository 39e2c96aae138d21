"""Proximal-splitting solvers built around a quadratic-shift leveraged
Peaceman-Rachford scheme, with classical PRS/DRS/FISTA baselines and a
benchmark harness that verifies the closed-form rate theory numerically.
"""

from .core import (
    CompositeProblem,
    LeverageParams,
    ProxFunction,
    RegularityParams,
    SolveTrace,
    fixed_point_oracle,
    validate_leverage,
    validate_regularity,
)
from .rates import (
    classical_prs_optimal,
    delta_star,
    dominance_report,
    drs_optimal_rate,
    optimal_params,
    optimal_rate,
    rate_bundle,
    rate_constancy_check,
)
from .solvers import (
    SolverConfig,
    drs_solve,
    fista_solve,
    prs_classic_solve,
    prs_lev_solve,
)

__version__ = "0.1.0"
