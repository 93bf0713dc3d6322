"""Build the min-cost-flow network of unbalanced transport, the one builder.

Nodes are the support voxels of the two measures plus a bank node whose
net supply is the quantized mass imbalance.  Every voxel of either support
is a source site that adds or removes mass through the bank, and every
target has a cost-0 self arc from its own site, so target-side allocation
would never be cheaper and has no arcs.  This realizes the three constraint
families: source and target marginals, and net allocation equal to the
imbalance.

Balanced transport (lambda = inf) is the same network with allocation
priced at the domain's max cost + 1, past every transport arc.  Quantized
totals that differ raise InfeasibleError here, and so does a solution that
allocates, in ``extract_solution``: only a restricted network can make the
bank the cheapest route.

Two exact reductions keep networks small without changing the optimum:

* a transport arc with cost greater than twice the allocation cost is
  dominated by removing at its tail and adding at its head, so it is
  pruned (none at lambda = inf, where that bound exceeds every cost);
* a zero-mass source site can only ever forward freshly added mass, which
  is never cheaper than adding at the destination itself, so such sites
  keep only their self arc.

The problem also carries a starting tree for the simplex, the bank basis:
each voxel's target mass is fed in place by its self arc (or by the arc
from a given feeder voxel) and each site settles the rest with the bank.
The tree is strongly feasible, and at lambda = 0 it is already optimal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DataError, InfeasibleError
from ..grid import GridMeasure, voxel_positions
from .specs import (
    ARC_ADD_SRC,
    ARC_REM_SRC,
    ARC_TRANSPORT,
    AllocationSpec,
    CostSpec,
    QuantizationSpec,
    TransportSolution,
    quantized_masses,
)


@dataclass
class FlowProblem:
    """Arc-list form of a transport network with integer node supplies."""

    n_nodes: int
    tails: np.ndarray
    heads: np.ndarray
    costs: np.ndarray
    supplies: np.ndarray  # int64, positive = sends flow
    arc_kind: np.ndarray  # int8, ARC_* constants
    arc_voxel_a: np.ndarray  # transport: source voxel; virtual: site voxel
    arc_voxel_b: np.ndarray  # transport: target voxel; virtual: -1
    mass_per_unit: float
    delta_real: float
    # per node, the arc hanging it from its parent in the simplex's starting
    # tree, or -1 for its artificial arc to the root
    basis: np.ndarray
    # lambda = inf: a solution that allocates mass is infeasible
    balanced: bool = False

    @property
    def n_arcs(self) -> int:
        return len(self.tails)


def build_unbalanced_problem(
    mu: GridMeasure,
    nu: GridMeasure,
    cost: CostSpec,
    alloc: AllocationSpec,
    quant: QuantizationSpec,
    allowed_pairs=None,
    feeder=None,
) -> FlowProblem:
    """Network for the unbalanced program between measures on one domain.

    ``allowed_pairs`` optionally restricts transport arcs to the given
    (source_voxel, target_voxel) index arrays (multiscale refinement);
    self arcs and virtual arcs are always admitted.  The problem carries a
    bank basis (see ``_bank_basis``); ``feeder`` (one
    source voxel per voxel of the domain) picks the transport arc that
    hangs each target from the tree, where that arc was built.
    """
    if mu.domain != nu.domain:
        raise DataError("transport requires measures on the same domain")
    domain = mu.domain
    w_flat = mu.flat
    z_flat = nu.flat
    w_units_full, z_units_full, mass_per_unit = quantized_masses(
        w_flat, z_flat, quant.units
    )
    imbalance = int(z_units_full.sum() - w_units_full.sum())
    delta_real = nu.total_mass - mu.total_mass

    lam = alloc.effective_lambda(cost.max_on_domain(domain))
    balanced = math.isinf(alloc.lam)
    if balanced and imbalance != 0:
        raise InfeasibleError(
            "infinite allocation cost with unbalanced quantized totals"
        )

    tgt_voxels = np.flatnonzero(z_flat > 0)
    # allocation sites: union of supports, so every needed voxel can be
    # served by a self arc fed from the bank
    src_voxels = np.union1d(np.flatnonzero(w_flat > 0), tgt_voxels)

    n_src = len(src_voxels)
    n_tgt = len(tgt_voxels)
    # voxel -> node lookup per side
    src_node = np.full(len(w_flat), -1, dtype=np.int64)
    src_node[src_voxels] = np.arange(n_src)
    tgt_node = np.full(len(z_flat), -1, dtype=np.int64)
    tgt_node[tgt_voxels] = np.arange(n_src, n_src + n_tgt)

    # the bank node follows the voxel nodes
    bank = n_src + n_tgt
    n_nodes = bank + 1

    supplies = np.zeros(n_nodes, dtype=np.int64)
    supplies[:n_src] = w_units_full[src_voxels]
    supplies[n_src:bank] -= z_units_full[tgt_voxels]
    supplies[bank] = imbalance

    # transport arcs, from sources with units to targets with mass
    positive_src = src_voxels[w_units_full[src_voxels] > 0]
    pos_src = voxel_positions(domain, positive_src)
    pos_tgt = voxel_positions(domain, tgt_voxels)
    bound = prune_bound(cost, alloc, domain)
    if allowed_pairs is None:
        cmat = cost.pairwise(pos_src, pos_tgt).ravel()
        flat = np.flatnonzero(cmat <= bound)
        pair_c = cmat[flat]
        del cmat
        ii, jj = np.divmod(flat, n_tgt)
        del flat
    else:
        # voxel -> row of pos_src, -1 off positive_src; target rows follow
        # the target nodes, negative off the target support
        src_row = np.full(len(w_flat), -1, dtype=np.int64)
        src_row[positive_src] = np.arange(len(positive_src))
        ai = np.asarray(allowed_pairs[0], dtype=np.int64)
        aj = np.asarray(allowed_pairs[1], dtype=np.int64)
        ii, jj = src_row[ai], tgt_node[aj] - n_src
        mask = (ii >= 0) & (jj >= 0) & (ai != aj)
        ii, jj = ii[mask], jj[mask]
        pair_c = cost.rowwise(pos_src[ii], pos_tgt[jj])
        keep = pair_c <= bound
        ii, jj, pair_c = ii[keep], jj[keep], pair_c[keep]
    pair_i, pair_j = positive_src[ii], tgt_voxels[jj]
    del ii, jj

    # self arcs (cost 0) for targets that are also sites, unless the pairs
    # above already hold one
    paired = np.zeros(len(w_flat), dtype=bool)
    paired[pair_i[pair_i == pair_j]] = True
    both = tgt_voxels[(src_node[tgt_voxels] >= 0) & ~paired[tgt_voxels]]

    # arc blocks of (tail, head, cost, kind, voxel a, voxel b), each column
    # at its final dtype; a scalar stands for the same value on every arc of
    # its block; bank -> site adds mass at the source side, site -> bank
    # removes it
    blocks = [
        (src_node[pair_i], tgt_node[pair_j], pair_c, ARC_TRANSPORT, pair_i, pair_j),
        (src_node[both], tgt_node[both], 0.0, ARC_TRANSPORT, both, both),
        (bank, np.arange(n_src), lam, ARC_ADD_SRC, src_voxels, -1),
        (src_node[positive_src], bank, lam, ARC_REM_SRC, positive_src, -1),
    ]
    del pair_c, pair_i, pair_j
    lengths = [len(block[4]) for block in blocks]
    columns = [list(col) for col in zip(*blocks)]
    del blocks
    # each column's blocks are released as soon as it is joined
    tails, heads, costs, kinds, vox_a, vox_b = (
        np.concatenate([np.full(k, v, dtype=dtype) if np.isscalar(v) else v
                        for k, v in zip(lengths, columns.pop(0))], dtype=dtype)
        for dtype in (np.int64, np.int64, np.float64, np.int8, np.int64, np.int64)
    )
    problem = FlowProblem(
        n_nodes=n_nodes,
        tails=tails,
        heads=heads,
        costs=costs,
        supplies=supplies,
        arc_kind=kinds,
        arc_voxel_a=vox_a,
        arc_voxel_b=vox_b,
        mass_per_unit=mass_per_unit,
        delta_real=delta_real,
        basis=np.full(n_nodes, -1, dtype=np.int64),  # read from the arcs below
        balanced=balanced,
    )
    problem.basis = _bank_basis(problem, feeder)
    return problem


def prune_bound(cost: CostSpec, alloc: AllocationSpec, domain) -> float:
    """Cost above which a transport arc on ``domain`` is dominated and pruned:
    twice the priced lambda."""
    return 2.0 * alloc.effective_lambda(cost.max_on_domain(domain))


def _bank_basis(problem: FlowProblem, feeder=None) -> np.ndarray:
    """Strongly feasible starting tree of a network.

    Read from the arcs alone.  Each target with demand hangs from a site by
    a transport arc: the arc from ``feeder[voxel]`` where one was built,
    else its self arc (voxel a == voxel b).  Each site hangs from the bank
    by its remove arc (``ARC_REM_SRC``) when its supply covers the demand
    hung on it, else by its add arc (``ARC_ADD_SRC``); the bank node,
    targets without demand and sites with neither supply nor demand hang
    from the simplex's root.  Every tree flow is then >= 0 and every
    zero-flow tree arc points towards the root.  At lambda = 0 this tree is
    optimal: keeping mass in place beats every other arc.  The simplex
    computes the potentials from the tree before the first pivot and every
    max(64, n) pivots.
    """
    kind, vox_a, vox_b = problem.arc_kind, problem.arc_voxel_a, problem.arc_voxel_b
    tails, heads, supply = problem.tails, problem.heads, problem.supplies
    basis = np.full(problem.n_nodes, -1, dtype=np.int64)
    transport = kind == ARC_TRANSPORT
    own = np.flatnonzero(transport & (vox_a == vox_b))
    basis[heads[own]] = own
    if feeder is not None:
        fed = np.flatnonzero(transport & (vox_a == np.asarray(feeder)[vox_b]))
        basis[heads[fed]] = fed
    basis[supply >= 0] = -1
    hanging = np.flatnonzero(basis >= 0)
    hung = np.zeros(problem.n_nodes, dtype=np.int64)
    np.add.at(hung, tails[basis[hanging]], -supply[hanging])

    add = np.flatnonzero(kind == ARC_ADD_SRC)
    remove = np.flatnonzero(kind == ARC_REM_SRC)
    sites = heads[add]
    basis[sites] = np.where((supply[sites] > 0) | (hung[sites] > 0), add, -1)
    covered = supply[tails[remove]] >= hung[tails[remove]]
    basis[tails[remove[covered]]] = remove[covered]
    return basis


def extract_solution(problem: FlowProblem, flows) -> TransportSolution:
    """Convert integer arc flows into a TransportSolution.

    Arcs with positive flow become int64 rows: transport arcs as ``(source
    voxel, target voxel, units)`` in ``plan_arcs``, virtual arcs as ``(ARC_*
    kind, site voxel, units)`` in ``allocation``.  The objective is the real
    cost, ``sum(cost * units) * mass_per_unit``.  Balanced flows that
    allocate raise InfeasibleError.
    """
    flows = np.asarray(flows, dtype=np.int64)
    mpu = problem.mass_per_unit
    nz = np.flatnonzero(flows > 0)
    if problem.balanced and (problem.arc_kind[nz] != ARC_TRANSPORT).any():
        raise InfeasibleError("balanced transport needs allocation on these arcs")
    objective = float(np.dot(problem.costs[nz], flows[nz].astype(np.float64)) * mpu)
    rows = np.column_stack((
        problem.arc_kind[nz], problem.arc_voxel_a[nz], problem.arc_voxel_b[nz],
        flows[nz],
    )).astype(np.int64)
    return TransportSolution.from_rows(
        rows, objective=objective, delta=problem.delta_real, mass_per_unit=mpu
    )
