"""Parameter and solution types for the transport solvers.

Masses are quantized to integer flow units (largest-remainder rounding) so
the min-cost-flow solvers run on exact integer flows; arc costs stay
float64. A solution keeps the integer flows; a flow of ``units`` carries
the real mass ``units * mass_per_unit``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, InfeasibleError

# arc kinds, read from an arc's end nodes by FlowProblem.arc_voxels
ARC_TRANSPORT = 0
ARC_ADD_SRC = 1
ARC_REM_SRC = 2
# per arc kind, the sign of its flow in the net allocation
NET_SIGN = np.array([0, 1, -1], dtype=np.int64)


@dataclass(frozen=True)
class CostSpec:
    """Squared Euclidean ground cost c(x, y) = |x - y|^2 on physical coordinates.

    Every cost is ``sum_axis_gaps`` of its per-axis squared gaps; on a grid
    those gaps are the entries of ``axis_gap_tables`` (see ``voxel_costs``).
    """

    def max_on_domain(self, domain) -> float:
        """Upper bound of the cost over a grid domain (corner to corner)."""
        span = [(d - 1) * s for d, s in zip(domain.dims, domain.spacing)]
        return float(sum(v * v for v in span))


def sum_axis_gaps(gaps, out=None):
    """Sum of per-axis squared gaps, in the order numpy's einsum sums a row.

    In 3D that is (x + z) + y; in 2D the order cannot change the sum.  Every
    transport cost is summed here, so a cost is the same float whichever
    way its network is built, and no library upgrade can move it by an ulp.
    """
    if len(gaps) == 3:
        return np.add(np.add(gaps[0], gaps[2], out=out), gaps[1], out=out)
    return np.add(gaps[0], gaps[1], out=out)


@functools.lru_cache(maxsize=32)
def axis_gap_tables(domain) -> tuple[np.ndarray, ...]:
    """Per axis k of a grid domain, the read-only table of squared gaps
    T_k[i, j] = (pos_k[i] - pos_k[j])^2 between its coordinates
    pos_k = origin_k + spacing_k * arange(dims_k), the floats of
    ``grid.voxel_positions``; cached per domain."""
    tables = []
    for n, step, origin in zip(domain.dims, domain.spacing, domain.origin):
        pos = origin + step * np.arange(n)
        gap = pos[:, None] - pos[None, :]
        gap *= gap
        gap.flags.writeable = False
        tables.append(gap)
    return tuple(tables)


def voxel_costs(domain, a, b) -> np.ndarray:
    """Costs between matching voxel index arrays of a grid domain, from the
    gap tables."""
    coords = zip(np.unravel_index(a, domain.dims), np.unravel_index(b, domain.dims))
    return sum_axis_gaps([table[i, j] for table, (i, j)
                          in zip(axis_gap_tables(domain), coords)])


@dataclass(frozen=True)
class AllocationSpec:
    """Mass allocation pricing: constant cost per unit added or removed.

    Mass is added or removed at source-side sites, one per voxel of either
    support.  ``lam`` may be ``math.inf`` for balanced transport, priced
    past every transport arc so that nothing is allocated.  ``lam == 0`` is
    replaced internally by a tiny positive cost to keep the solution
    deterministic.
    """

    lam: float = 1.0

    def __post_init__(self):
        if not (self.lam >= 0):
            raise ConfigError(f"lambda must be >= 0, got {self.lam}")

    def effective_lambda(self, max_cost: float) -> float:
        """The lambda actually priced; 0 becomes 1e-12 * max cost and inf
        becomes max cost + 1."""
        if self.lam == 0:
            return 1e-12 * max_cost if max_cost > 0 else 0.0
        if self.lam == math.inf:
            return max_cost + 1.0
        return self.lam


@dataclass(frozen=True)
class QuantizationSpec:
    """Number of integer flow units assigned to the source total mass."""

    units: int = 10_000_000

    def __post_init__(self):
        if self.units < 1:
            raise ConfigError(f"quantization units must be >= 1, got {self.units}")
        if self.units > 2**40:
            raise ConfigError(
                f"quantization units {self.units} exceed representable flow"
            )


def quantize_to_total(values: np.ndarray, target_total: int) -> np.ndarray:
    """Largest-remainder rounding of non-negative reals to integers.

    The result sums exactly to ``target_total``; each entry differs from its
    scaled real value by less than one unit.  Ties in the remainder are
    broken by lowest index for determinism.
    """
    values = np.asarray(values, dtype=np.float64)
    total = values.sum()
    if target_total == 0 or total == 0:
        return np.zeros(len(values), dtype=np.int64)
    # divide first: values/total is in [0, 1], so tiny totals cannot overflow
    scaled = (values / total) * target_total
    base = np.floor(scaled).astype(np.int64)
    short = int(target_total - base.sum())
    if short > 0:
        remainders = scaled - base
        order = np.argsort(-remainders, kind="stable")
        base[order[:short]] += 1
    elif short < 0:
        # floor cannot overshoot in exact arithmetic; guard float edge cases
        remainders = scaled - base
        order = np.argsort(remainders, kind="stable")
        take = order[base[order] > 0][: -short]
        base[take] -= 1
    return base


def quantized_masses(mu_flat, nu_flat, units: int):
    """Flow units of two measures (the first totals ``units``), and one unit's mass."""
    mu_total = float(np.sum(mu_flat))
    nu_total = float(np.sum(nu_flat))
    if mu_total <= 0 and nu_total <= 0:
        raise InfeasibleError("both measures are empty")
    ref = mu_total if mu_total > 0 else nu_total
    scale = units / ref
    n_mu = units if mu_total > 0 else 0
    n_nu = int(math.floor(nu_total * scale + 0.5))
    w_units = quantize_to_total(mu_flat, n_mu)
    z_units = quantize_to_total(nu_flat, n_nu)
    return w_units, z_units, 1.0 / scale


@dataclass(frozen=True, eq=False)
class TransportSolution:
    """Optimal transport plan plus allocation records, in integer flow units.

    ``plan_arcs`` is an int64 array of shape (k, 3) whose rows are
    ``(source voxel, target voxel, flow units)``: the coupling restricted to
    its support, sorted by source, then target.  ``allocation`` is an int64
    array of shape (a, 3) whose rows are ``(kind, site voxel, flow units)``
    with ``kind`` ``ARC_ADD_SRC`` or ``ARC_REM_SRC`` (mass added to or
    removed from the source (template) at that voxel), sorted by kind, then
    voxel.  Every flow is positive; its real mass is ``units *
    mass_per_unit``.
    """

    plan_arcs: np.ndarray
    allocation: np.ndarray
    objective: float = 0.0
    delta: float = 0.0
    mass_per_unit: float = 1.0

    def __repr__(self) -> str:
        # lists print every row, and far faster than numpy's abbreviating repr
        return (f"TransportSolution(plan_arcs={self.plan_arcs.tolist()}, "
                f"allocation={self.allocation.tolist()}, objective={self.objective!r}, "
                f"delta={self.delta!r}, mass_per_unit={self.mass_per_unit!r})")

    def gross_allocation(self) -> float:
        """Total mass added or removed."""
        return float(self.allocation[:, 2].sum()) * self.mass_per_unit

    @classmethod
    def from_rows(cls, rows: np.ndarray, **scalars) -> TransportSolution:
        """Solution from int64 rows ``(kind, voxel, target voxel, units)`` in any
        order; allocation rows drop their target voxel."""
        rows = rows[np.lexsort(rows.T[::-1])]
        n_plan = int(np.searchsorted(rows[:, 0], ARC_TRANSPORT, side="right"))
        return cls(rows[:n_plan, 1:], rows[n_plan:, [0, 1, 3]], **scalars)


def feasibility_violation_units(
    sol: TransportSolution, mu_flat: np.ndarray, nu_flat: np.ndarray, units: int
) -> int:
    """Worst marginal/net-delta violation of a solution, in integer units.

    Re-quantizes the inputs exactly as the solver did and checks the three
    constraint families of the unbalanced program. Returns the maximum
    absolute violation (0 for an exactly feasible solution).
    """
    w_units, z_units, _ = quantized_masses(mu_flat, nu_flat, units)
    # per voxel, source side then target side: flow through it minus its mass
    balance = -np.concatenate((w_units, z_units))
    size = len(w_units)
    i, j, flow = sol.plan_arcs.T
    np.add.at(balance, i, flow)
    np.add.at(balance, size + j, flow)
    kind, site, flow = sol.allocation.T
    signed = NET_SIGN[kind] * flow
    np.subtract.at(balance, site, signed)
    delta_violation = abs(int(signed.sum()) - int(z_units.sum() - w_units.sum()))
    return int(max(np.abs(balance).max(initial=0), delta_violation))
