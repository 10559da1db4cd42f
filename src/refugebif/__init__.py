"""Numerical bifurcation toolkit for a predator-prey system with a refuge.

Discretizes the steady Rosenzweig-MacArthur system with density-dependent
prey diffusion and a predator-free refuge zone, traces its positive-solution
branches in the predator mortality mu, and cross-validates the traced
branches against closed-form onset data (bifurcation point and slope), for
both the nonlinear-diffusion system and its linear-diffusion counterpart.
"""

from .analytics import (
    BifurcationData,
    bifurcation_data,
    bifurcation_point,
    branch_slope,
    kernel_profile,
    onset_transversality,
    v_block_eigenvalue,
)
from .continuation import (
    Branch,
    BranchComparison,
    BranchPoint,
    ContinuationOptions,
    compare_branches,
    detect_onset,
    solve_at_mu,
    trace_branch,
)
from .geometry import (
    EXTERIOR,
    REFUGE,
    Grid,
    Region,
    ScalarField,
    SparseOperator,
    build_grid,
    exterior_connected,
    integrate,
    neumann_laplacian,
    predation_field,
)
from .model import (
    Diffusion,
    ModelParams,
    State,
    jacobian,
    nonlinear_diffusion,
    residual,
    semi_trivial_state,
)
from .newton import (
    NewtonOptions,
    NewtonReport,
    SolutionClass,
    classify_state,
    initial_guess_on_branch,
    newton_solve,
)
from .timestepping import TimeOptions, evolve_to_steady, step

__version__ = "0.1.0"

__all__ = [
    "BifurcationData",
    "Branch",
    "BranchComparison",
    "BranchPoint",
    "ContinuationOptions",
    "Diffusion",
    "EXTERIOR",
    "Grid",
    "ModelParams",
    "NewtonOptions",
    "NewtonReport",
    "REFUGE",
    "Region",
    "ScalarField",
    "SolutionClass",
    "SparseOperator",
    "State",
    "TimeOptions",
    "bifurcation_data",
    "bifurcation_point",
    "branch_slope",
    "build_grid",
    "classify_state",
    "compare_branches",
    "detect_onset",
    "evolve_to_steady",
    "exterior_connected",
    "initial_guess_on_branch",
    "integrate",
    "jacobian",
    "kernel_profile",
    "neumann_laplacian",
    "newton_solve",
    "nonlinear_diffusion",
    "onset_transversality",
    "predation_field",
    "residual",
    "semi_trivial_state",
    "solve_at_mu",
    "step",
    "trace_branch",
    "v_block_eigenvalue",
]
