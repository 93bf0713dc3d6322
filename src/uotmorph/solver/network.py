"""Build the min-cost-flow network of unbalanced transport, the one builder.

Nodes are the voxels with flow units of the two measures plus a bank node
whose net supply is the quantized mass imbalance.  A voxel with units on
either side is a source site that adds mass from the bank and removes it
to the bank, and every target (a voxel with target units) has a cost-0
self arc from its own site, so target-side allocation would never be
cheaper and has no arcs.  This realizes the three constraint families:
source and target marginals, and net allocation equal to the imbalance.
A voxel whose mass quantizes to no unit on either side has no node.

Balanced transport (lambda = inf) is the same network with allocation
priced at the domain's max cost + 1, past every transport arc.  Quantized
totals that differ raise InfeasibleError here, and so does a solution that
allocates, in ``extract_solution``: only a restricted network can make the
bank the cheapest route.

Two exact reductions keep networks small without changing the optimum:

* a transport arc with cost greater than twice the allocation cost is
  dominated by removing at its tail and adding at its head, so it is
  pruned (none at lambda = inf, where that bound exceeds every cost);
* a source site without units can only ever forward freshly added mass,
  which is never cheaper than adding at the destination itself, so such
  sites keep only their self arc.

Every transport cost is a sum of per-axis squared gaps read from
``specs.axis_gap_tables``, so no (n, m, d) coordinate difference is ever
formed.  Dense pairs take one of two paths, both in row-major (source,
target) order:

* the stencil lists the integer voxel offsets whose least cost is within
  the prune bound and makes one numpy pass over the sources per offset;
* the matrix path, for bounds that cover most of the grid, builds the cost
  matrix in blocks of whole source rows, MATRIX_BLOCK entries each.

The stencil runs when offsets * (STENCIL_OFFSET_COST + sources) is below
sources * targets.  A dense build then peaks at about 50 bytes per arc
kept, plus 10 bytes per (offset, source) slot of the stencil or one
block's temporaries, so its memory is linear in the arcs kept: 56 MB for
the 1.15M arcs of a 16^3 blob pair at lambda = 10.  The problem keeps 24
bytes per arc and the simplex adds about 11, so a solve peaks there too.

The problem also carries a starting tree for the simplex, the bank basis,
rooted at the bank: each voxel's target mass is fed in place by its self
arc (or by the arc from a given feeder voxel) and each site settles the
rest with the bank.  Every node hangs by a real arc, so the bank reaches
every node; the tree is strongly feasible, and at lambda = 0 it is already
optimal.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..errors import DataError, InfeasibleError
from ..grid import GridMeasure
from .specs import (
    ARC_ADD_SRC,
    ARC_REM_SRC,
    ARC_TRANSPORT,
    AllocationSpec,
    CostSpec,
    QuantizationSpec,
    TransportSolution,
    axis_gap_tables,
    quantized_masses,
    sum_axis_gaps,
    voxel_costs,
)

# Work of one stencil offset's pass beyond its sources, in cost-matrix
# entries: the stencil runs when offsets * (STENCIL_OFFSET_COST + sources)
# is below sources * targets (see _dense_pairs)
STENCIL_OFFSET_COST = 3000.0
# cost-matrix entries per block of source rows on the matrix path
MATRIX_BLOCK = 1 << 18


@dataclass
class FlowProblem:
    """Arc-list form of a transport network with integer node supplies."""

    n_nodes: int
    tails: np.ndarray
    heads: np.ndarray
    costs: np.ndarray
    supplies: np.ndarray  # int64, positive = sends flow
    node_voxel: np.ndarray  # int64 per node, -1 for the bank (the last node)
    mass_per_unit: float
    delta_real: float
    # per node, the arc hanging it from its parent in the simplex's starting
    # tree; -1 marks the root, the bank in every network of the builder
    basis: np.ndarray
    # lambda = inf: a solution that allocates mass is infeasible
    balanced: bool = False

    @property
    def n_arcs(self) -> int:
        return len(self.tails)

    @property
    def arc_kind(self) -> np.ndarray:  # int8 ARC_* kind of every arc
        return self.arc_voxels()[0]

    def arc_voxels(self, arcs=slice(None)):
        """(kind, voxel a, voxel b) of the given arcs, read from their end
        nodes: an arc out of the bank is ``(ARC_ADD_SRC, head voxel, -1)``,
        one into it ``(ARC_REM_SRC, tail voxel, -1)``, any other arc
        ``(ARC_TRANSPORT, tail voxel, head voxel)``."""
        a = self.node_voxel[self.tails[arcs]]
        b = self.node_voxel[self.heads[arcs]]
        adds = a < 0
        kind = np.where(adds, ARC_ADD_SRC, np.where(b < 0, ARC_REM_SRC, ARC_TRANSPORT))
        return kind.astype(np.int8), np.where(adds, b, a), np.where(adds, -1, b)


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

    # targets have units; allocation sites are the voxels with units on
    # either side, so every target can be served by a self arc fed from the
    # bank
    tgt_voxels = np.flatnonzero(z_units_full > 0)
    src_voxels = np.flatnonzero((w_units_full > 0) | (z_units_full > 0))

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

    # transport arcs, from sources with units to targets
    positive_src = np.flatnonzero(w_units_full > 0)
    bound = 2.0 * lam  # prune_bound, without recomputing the max cost
    if allowed_pairs is None:
        pair_i, pair_j, pair_c = _dense_pairs(domain, positive_src, tgt_voxels, bound)
    else:
        pair_i = np.asarray(allowed_pairs[0], dtype=np.int64)
        pair_j = np.asarray(allowed_pairs[1], dtype=np.int64)
        has_units = np.zeros(len(w_flat), dtype=bool)
        has_units[positive_src] = True
        mask = has_units[pair_i] & (tgt_node[pair_j] >= 0) & (pair_i != pair_j)
        pair_i, pair_j = pair_i[mask], pair_j[mask]
        pair_c = voxel_costs(domain, pair_i, pair_j)
        keep = pair_c <= bound
        pair_i, pair_j, pair_c = pair_i[keep], pair_j[keep], pair_c[keep]

    # self arcs (cost 0) for every target, unless the pairs above already
    # hold one
    paired = np.zeros(len(w_flat), dtype=bool)
    paired[pair_i[pair_i == pair_j]] = True
    unpaired = tgt_voxels[~paired[tgt_voxels]]

    # arc blocks: transport pairs, self arcs, bank -> site arcs that add mass
    # and site -> bank arcs that remove it
    sites = np.arange(n_src)
    tails = np.concatenate((src_node[pair_i], src_node[unpaired], np.full(n_src, bank),
                            sites), dtype=np.int64)
    del pair_i
    heads = np.concatenate((tgt_node[pair_j], tgt_node[unpaired], sites,
                            np.full(n_src, bank)), dtype=np.int64)
    del pair_j
    costs = np.concatenate((pair_c, np.zeros(len(unpaired)), np.full(2 * n_src, lam)),
                           dtype=np.float64)
    del pair_c
    problem = FlowProblem(
        n_nodes=n_nodes,
        tails=tails,
        heads=heads,
        costs=costs,
        supplies=supplies,
        node_voxel=np.concatenate((src_voxels, tgt_voxels, [-1]), dtype=np.int64),
        mass_per_unit=mass_per_unit,
        delta_real=delta_real,
        basis=np.full(n_nodes, -1, dtype=np.int64),  # read from the arcs below
        balanced=balanced,
    )
    problem.basis = _bank_basis(problem, feeder)
    return problem


def _dense_pairs(domain, sources, targets, bound):
    """(source voxel, target voxel, cost) of every pair of ``sources`` and
    ``targets`` (sorted voxel arrays) that costs at most ``bound``, in
    row-major (source, target) order.

    Picks the stencil or the matrix path by their estimated work: the
    stencil costs ``STENCIL_OFFSET_COST + sources`` per offset, the matrix
    one per pair.  The offsets lie in the box of axis gaps that are each
    within ``bound``; a box past four times the break-even is not listed.
    """
    pairs = len(sources) * len(targets)
    per_offset = STENCIL_OFFSET_COST + len(sources)
    if math.prod(map(len, _axis_candidates(domain, bound))) * per_offset < 4 * pairs:
        offsets = _stencil(domain, bound)
        if len(offsets[0]) * per_offset < pairs:
            return _stencil_pairs(domain, sources, targets, bound, offsets)
    return _matrix_pairs(domain, sources, targets, bound)


def _stencil_pairs(domain, sources, targets, bound, offsets):
    """``_dense_pairs`` by one pass over the sources per stencil offset."""
    lin, axis_rows = offsets
    diagonals = _axis_diagonals(domain)[0]
    coords = np.unravel_index(sources, domain.dims)
    size = domain.size
    # 0 on the target support, nan elsewhere and on both sides of the grid,
    # so that a pass can read it shifted by any offset; an off-grid target
    # already costs nan
    off_support = np.full(3 * size, np.nan)
    off_support[size + targets] = 0.0
    # one row of costs per offset; a pair with no target costs nan, which no
    # bound keeps
    costs = np.empty((len(lin), len(sources)))
    for row, start in enumerate((size + lin).tolist()):
        out = sum_axis_gaps([np.take(diag[rows[row]], coord) for diag, rows, coord
                             in zip(diagonals, axis_rows, coords)], out=costs[row])
        out += np.take(off_support[start:], sources)
    # pairs in row-major (source, offset) order, which is (source, target)
    # order because the offsets are sorted
    flat = np.flatnonzero((costs <= bound).T)
    rows, which = np.divmod(flat, len(lin))
    del flat
    pair_c = costs[which, rows]
    del costs
    pair_i = sources[rows]
    return pair_i, pair_i + lin[which], pair_c


def _matrix_pairs(domain, sources, targets, bound):
    """``_dense_pairs`` from cost-matrix blocks of whole source rows."""
    tables = axis_gap_tables(domain)
    src_coords = np.unravel_index(sources, domain.dims)
    tgt_coords = np.unravel_index(targets, domain.dims)
    step = max(1, MATRIX_BLOCK // max(len(targets), 1))
    parts = []
    for start in range(0, max(len(sources), 1), step):
        block = sum_axis_gaps([
            np.take(table[a[start:start + step]], b, axis=1)
            for table, a, b in zip(tables, src_coords, tgt_coords)
        ])
        flat = np.flatnonzero(block <= bound)
        rows, cols = np.divmod(flat, max(len(targets), 1))
        parts.append((sources[start + rows], targets[cols], block.ravel()[flat]))
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(column) for column in zip(*parts))


def _strides(dims):
    """Linear-index stride of each axis of a C-order grid."""
    return [int(np.prod(dims[k + 1:])) for k in range(len(dims))]


@functools.lru_cache(maxsize=32)
def _axis_diagonals(domain):
    """Per axis k, the diagonals of its gap table, D_k[g + n_k - 1, i] =
    T_k[i, i + g] (nan where i + g is off the axis), and the least of each,
    for the axis gaps g = -(n_k - 1) .. n_k - 1."""
    diagonals, least = [], []
    for table in axis_gap_tables(domain):
        n = len(table)
        diag = np.full((2 * n - 1, n), np.nan)
        for g in range(1 - n, n):
            lo = max(0, -g)
            diag[g + n - 1, lo:lo + n - abs(g)] = np.diagonal(table, g)
        diagonals.append(_read_only(diag))
        least.append(_read_only(np.nanmin(diag, axis=1)))
    return tuple(diagonals), tuple(least)


@functools.lru_cache(maxsize=64)
def _axis_candidates(domain, bound):
    """Per axis, the rows in the ``_axis_diagonals`` tables of the axis
    gaps whose least squared gap is at most ``bound``."""
    return tuple(_read_only(np.flatnonzero(values <= bound))
                 for values in _axis_diagonals(domain)[1])


@functools.lru_cache(maxsize=64)
def _stencil(domain, bound):
    """Integer offsets between voxels whose least cost on ``domain`` is at
    most ``bound``: their linear offsets, and per axis the row of each
    offset's gap in the ``_axis_diagonals`` tables, in lexicographic order
    of the offsets.

    The least cost of an offset sums the least squared gap of each of its
    axis gaps; rounding is monotone, so no pair of a dropped offset costs
    at most ``bound``.
    """
    least = _axis_diagonals(domain)[1]
    candidates = _axis_candidates(domain, bound)
    ndim = len(candidates)
    grids = [values[c].reshape([-1 if k == j else 1 for j in range(ndim)])
             for k, (values, c) in enumerate(zip(least, candidates))]
    within = np.flatnonzero(sum_axis_gaps(grids) <= bound)
    axis_rows = tuple(_read_only(c[i]) for c, i in zip(candidates, np.unravel_index(
        within, [len(c) for c in candidates])))
    lin = sum((rows - (n - 1)) * stride for rows, n, stride
              in zip(axis_rows, domain.dims, _strides(domain.dims)))
    return _read_only(lin), axis_rows


def _read_only(array):
    """``array``, made read-only: the caches above hand it to every caller."""
    array.flags.writeable = False
    return array


def stencil_exceeds(domain, bound, count) -> bool:
    """Whether ``_stencil(domain, bound)`` holds more than ``count`` offsets,
    decided from the box of axis gaps within ``bound``, which holds it, and
    the box within bound / ndim, which it holds where that box's corner sums
    to at most the bound (float addition is monotone), before listing it."""
    inner = bound / domain.ndim
    outer_box, inner_box = (math.prod(map(len, _axis_candidates(domain, b)))
                            for b in (bound, inner))
    if outer_box <= count:
        return False
    if inner_box > count and sum_axis_gaps([inner] * domain.ndim) <= bound:
        return True
    return len(_stencil(domain, bound)[0]) > count


def prune_bound(cost: CostSpec, alloc: AllocationSpec, domain) -> float:
    """Cost above which a transport arc on ``domain`` is dominated and pruned:
    twice the priced lambda."""
    return 2.0 * alloc.effective_lambda(cost.max_on_domain(domain))


def _bank_basis(problem: FlowProblem, feeder=None) -> np.ndarray:
    """Strongly feasible starting tree of a network, rooted at the bank.

    Read from the arcs and node voxels alone, in any arc order.  Each
    target hangs from a site by a transport arc: the arc from
    ``feeder[voxel]`` where one was built, else its self arc (both ends on
    one voxel).  Each site hangs from the bank by its remove arc (into the
    bank) when its supply covers the demand hung on it, else by its add arc
    (out of the bank).  The bank is the only node without an arc (-1).
    Every tree flow is then >= 0 and every zero-flow tree arc is a remove
    arc, pointing towards the root.  At lambda = 0 this tree is optimal:
    keeping mass in place beats every other arc.
    """
    tails, heads, supply = problem.tails, problem.heads, problem.supplies
    bank = problem.n_nodes - 1
    add = np.flatnonzero(tails == bank)
    remove = np.flatnonzero(heads == bank)
    # per node, the voxels whose site may hang it: its own, then its
    # feeder's; the bank's -1 stays -1
    voxel = problem.node_voxel
    sources = [voxel] if feeder is None else [voxel, np.append(feeder, -1)[voxel]]
    # voxel -> its site node, or -1; index -1 reads the extra last entry
    site = np.full(max(source.max() for source in sources) + 2, -1)
    site[voxel[heads[add]]] = heads[add]
    basis = np.full(problem.n_nodes, -1, dtype=np.int64)
    for source in sources:
        # the arcs from the site on each head's source voxel
        arcs = np.flatnonzero(tails == site[source][heads])
        basis[heads[arcs]] = arcs
    targets = np.flatnonzero(basis >= 0)
    hung = np.zeros(problem.n_nodes, dtype=np.int64)
    np.add.at(hung, tails[basis[targets]], -supply[targets])

    basis[heads[add]] = add
    sites = tails[remove]
    covered = supply[sites] >= hung[sites]
    basis[sites[covered]] = remove[covered]
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
    kind, vox_a, vox_b = problem.arc_voxels(nz)
    if problem.balanced and (kind != ARC_TRANSPORT).any():
        raise InfeasibleError("balanced transport needs allocation on these arcs")
    objective = float(np.dot(problem.costs[nz], flows[nz].astype(np.float64)) * mpu)
    rows = np.column_stack((kind, vox_a, vox_b, flows[nz])).astype(np.int64)
    return TransportSolution.from_rows(
        rows, objective=objective, delta=problem.delta_real, mass_per_unit=mpu
    )
