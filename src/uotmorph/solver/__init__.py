from .api import export_solution, load_solution, solve_unbalanced
from .multiscale import solve_multiscale
from .specs import (
    AllocationSpec,
    CostSpec,
    QuantizationSpec,
    TransportSolution,
    feasibility_violation_units,
    quantize_to_total,
)

# Part of every cached transport result's key: raise it with any change that
# can alter a solution (network build, starting basis, pivot rule, multiscale
# refinement), so plans cached by an older solver are solved again.  Version 2
# starts finite-lambda solves from the bank basis, which can pick a different
# optimum where several tie.  Version 3 prices arcs in larger blocks, which
# changes the pivot sequence and so can pick a different optimum too.
# Version 4 drops restricted transport arcs from sources with mass but no
# flow units, as the dense build does, which can change a tied optimum.
# Version 5 solves lambda = inf on the bank network from the bank basis,
# which can pick a different balanced optimum where several tie.
# Version 6 roots the simplex at the bank and drops voxels without flow units
# from the network, which changes potentials and arc order, so ties can fall
# to another optimum.
# Version 7 stops coarsening a multiscale level that admission could not
# restrict, so such instances return the exact optimum in place of a
# restricted upper bound.
SOLVER_VERSION = 7

__all__ = [
    "SOLVER_VERSION",
    "AllocationSpec",
    "CostSpec",
    "QuantizationSpec",
    "TransportSolution",
    "export_solution",
    "feasibility_violation_units",
    "load_solution",
    "quantize_to_total",
    "solve_multiscale",
    "solve_unbalanced",
]
