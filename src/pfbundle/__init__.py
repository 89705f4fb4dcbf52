"""Feasibility screening for unbalanced three-phase distribution networks.

The library decides whether an injection set point can be realized within
operating limits by driving a penalized dual of the semidefinite relaxation
to its optimum with a three-cut proximal bundle method, then extracting and
checking a rank-one operating point from the bottom of the dual spectrum.

The names below are the library API; everything else is imported from its
submodule (network, operators, prox, bundle, instances, oracle).
"""

__version__ = "0.1.0"

from .bundle import SolveReport, SolverConfig, solve
from .instances import plant_feasible, plant_infeasible
from .network import (
    NetworkFormatError,
    OperatingLimits,
    RadialParams,
    ThreePhaseNetwork,
    load_network,
    replicate_feeder,
    save_network,
    synth_radial,
)
from .operators import build_problem
