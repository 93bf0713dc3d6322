from .api import (
    export_solution,
    load_solution,
    solve_balanced,
    solve_unbalanced,
    uot_distance,
)
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
# can alter a solution (network build, pivot rule, multiscale refinement), so
# plans cached by an older solver are solved again.
SOLVER_VERSION = 1

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
    "solve_balanced",
    "solve_multiscale",
    "solve_unbalanced",
    "uot_distance",
]
