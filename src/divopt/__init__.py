"""Optimal dividend payout for a two-branch insurer with proportional claims.

A numpy library computing the optimal value function and grid-optimal
payout strategy of a two-dimensional compound Poisson surplus process: the
fixed point of a monotone discrete dynamic-programming scheme, by policy
iteration on a coarse-to-fine cascade of grids, together with the
one-dimensional band solver for on-ray and merged-company problems and
Monte Carlo policy evaluation for cross-validation.
"""

__version__ = "0.1.0"

from .model import (
    ClaimLaw,
    Deterministic,
    Erlang2,
    Exponential,
    GridSpec,
    ModelParams,
    SurplusPoint,
    integrate_affine,
    region_of,
    validate_params,
)
from .hjb2d import (
    Action,
    ClaimKernel,
    PolicyFlow,
    ValueField,
    build_claim_kernel,
    claim_field,
    policy_flow,
)
from .solver1d import (
    BandStructure,
    OneDimProblem,
    WbarSolution,
    make_auxiliary_problem,
    merger_compare,
    solve_1d,
    tilde_V_eval,
)
from .solver2d import (
    PolicyField,
    RegionMap,
    SolveReport,
    check_D1_identity,
    check_tilde_suboptimality,
    extract_regions,
    greedy_policy,
    solve,
)
from .simulate import (
    PolicyTable,
    SimResult,
    TakeAndRun,
    estimate_gap,
    simulate_policy,
)

__all__ = [name for name in dir() if not name.startswith("_")]
