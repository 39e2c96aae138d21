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
    validate_leverage,
    validate_regularity,
)
from .rates import (
    RateBundle,
    classical_prs_optimal,
    classical_prs_rate,
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
from .leverage import (
    QuadraticFunction,
    ShiftedProxSpec,
    quadratic_conjugate_shift,
    recover_solution,
    regularity_transfer,
    shifted_prox,
    shifted_reflect,
)
from .solvers import (
    SolverConfig,
    drs_solve,
    fista_solve,
    prs_classic_solve,
    prs_lev_solve,
)

__version__ = "0.1.0"
