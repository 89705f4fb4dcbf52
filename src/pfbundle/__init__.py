"""Feasibility screening for unbalanced three-phase distribution networks.

The library decides whether an injection set point can be realized within
operating limits by driving a penalized dual of the semidefinite relaxation
to its optimum with a three-cut proximal bundle method, then extracting and
checking a rank-one operating point from the bottom of the dual spectrum.
"""

from .bundle import (
    BundleState,
    IterationRecord,
    PrimalCertificate,
    SolveReport,
    SolverConfig,
    init_state,
    recover_primal,
    solve,
    step,
)
from .instances import PlantedInstance, loss_min_profile, plant_feasible, plant_infeasible
from .network import (
    DEFAULT_SLACK_VOLTAGE,
    NetworkFormatError,
    OperatingLimits,
    RadialParams,
    ThreePhaseNetwork,
    assemble_admittance,
    load_injection,
    load_network,
    network_from_dict,
    network_to_dict,
    replicate_feeder,
    save_network,
    synth_radial,
)
from .operators import (
    DualPoint,
    EigenFailure,
    EigenResult,
    PenaltyObjective,
    apply_constraint_rank1,
    build_problem,
    constraint_adjoint_matrix,
    dual_matrix,
    lanczos_extreme,
    leading_eigenpair,
    limit_offset_vector,
    penalty_subgradient,
    penalty_value,
    slack_block_matrix,
    smat3,
    svec3,
)
from .prox import Cut, ProxSolution, project_box, solve_prox

__version__ = "0.1.0"

__all__ = [
    "BundleState",
    "Cut",
    "DEFAULT_SLACK_VOLTAGE",
    "DualPoint",
    "EigenFailure",
    "EigenResult",
    "IterationRecord",
    "NetworkFormatError",
    "OperatingLimits",
    "PenaltyObjective",
    "PlantedInstance",
    "PrimalCertificate",
    "ProxSolution",
    "RadialParams",
    "SolveReport",
    "SolverConfig",
    "ThreePhaseNetwork",
    "apply_constraint_rank1",
    "assemble_admittance",
    "build_problem",
    "constraint_adjoint_matrix",
    "dual_matrix",
    "init_state",
    "lanczos_extreme",
    "leading_eigenpair",
    "limit_offset_vector",
    "load_injection",
    "load_network",
    "loss_min_profile",
    "network_from_dict",
    "network_to_dict",
    "penalty_subgradient",
    "penalty_value",
    "plant_feasible",
    "plant_infeasible",
    "project_box",
    "recover_primal",
    "replicate_feeder",
    "save_network",
    "slack_block_matrix",
    "smat3",
    "solve",
    "solve_prox",
    "step",
    "svec3",
    "synth_radial",
    "__version__",
]
