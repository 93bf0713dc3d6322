"""Coarse-to-fine acceleration of the unbalanced solver.

Both measures are sum-pooled by factor 2 per level until the larger
support drops below ``coarsen_threshold`` or no coarser level could restrict
the current one (see below).  The coarsest problem is solved
exactly; each refinement level admits transport arcs only between children
of coarse plan arcs whose endpoints are dilated by ``neighborhood_radius``
coarse cells, and only from a voxel with mass in ``mu`` to one with mass
in ``nu``.  Admission dilates one boolean mask over coarse cell pairs, which
takes n_coarse^2 bytes (3 MB under a 24^3 level, 17 MB under 32^3); a
radius beyond the coarse grid admits every pair and is clamped to it.
Then it drops each coarse cell pair whose children are all farther apart
than the 2 lambda prune bound of the network builder: per axis the nearest
children of cells a and b are max(0, 2|a - b| - 1) fine steps apart, so
the sum over axes of (spacing * that)^2 bounds every child pair's cost from
below.  The builder would prune every such pair, so the restricted network
is unchanged; at a local lambda only pairs of nearby coarse cells remain.
Self arcs and virtual (allocation) arcs are always admitted, so every
level stays feasible.  At lambda = inf, where the exact solution allocates
nothing, a level whose solution allocates is one the admitted arcs cannot
route: ``network.extract_solution`` raises InfeasibleError and the level is
solved exactly.  The final solution is feasible for the full problem and
its objective upper-bounds the exact optimum.

Admission pays only where it keeps fewer targets per source than the
level's own network: a level is not coarsened where the window of 2r + 1
coarse cells per axis that one coarse arc end admits (r the radius) holds
at least as many voxels as its target support or its 2 lambda stencil, as
at lambda = 0 (one offset) or at radius 1 on a 5^3 grid.  An instance left
with one level is solved exactly.

Each refinement level is warm-started from the coarse plan: a target voxel
starts fed from the voxel at the same offset in the coarse source cell that
sends its cell the most mass (the voxel itself where the cell keeps most of
its own mass), when that arc is in the restricted network, and by its self
arc otherwise.  This only changes where the simplex starts; the result is
still an upper bound.  It pays at size: on twenty 32^2 blob pairs at
lambda = 2000 the finest level's simplex took 3.5 s with it and 5.3 s from
self arcs alone.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.ndimage import maximum_filter1d

from ..errors import InfeasibleError
from ..grid import GridMeasure, downsample
from . import network
from .api import solve_unbalanced
from .simplex import solve_min_cost_flow
from .specs import (
    AllocationSpec,
    CostSpec,
    QuantizationSpec,
    TransportSolution,
    axis_gap_tables,
)


def _admitted_pairs(coarse_sol: TransportSolution, coarse_dims, fine_mu, fine_nu,
                    radius, prune_bound):
    """Support (source, target) voxel pairs of a fine level admitted by a coarse plan.

    A pair is admitted when its source has mass in ``fine_mu``, its target
    has mass in ``fine_nu``, their coarse cells lie within ``radius`` cells
    (Chebyshev) of the two ends of one coarse plan arc, and some child pair
    of those two cells costs at most ``prune_bound`` (see
    ``_drop_far_cells``).  Pairs come sorted by source, then target.
    """
    n_coarse = int(np.prod(coarse_dims))
    admitted = np.zeros(n_coarse * n_coarse, dtype=bool)
    src, tgt = coarse_sol.plan_arcs[:, :2].T
    admitted[src * n_coarse + tgt] = True
    # a Chebyshev box is one window per axis of the (source cell, target
    # cell) grid; a window wider than the grid admits nothing more
    size = 2 * min(max(radius, 0), max(coarse_dims) - 1) + 1
    admitted = admitted.reshape(tuple(coarse_dims) * 2)
    for axis in range(admitted.ndim):
        admitted = maximum_filter1d(admitted, size, axis=axis, mode="constant")
    _drop_far_cells(admitted, fine_mu.domain, prune_bound)
    admitted = admitted.reshape(n_coarse, n_coarse)

    fine_dims = fine_mu.domain.dims
    src, tgt = (np.flatnonzero(m.flat > 0) for m in (fine_mu, fine_nu))
    src_cell, tgt_cell = (
        np.ravel_multi_index(np.array(np.unravel_index(v, fine_dims)) // 2, coarse_dims)
        for v in (src, tgt)
    )
    i, j = np.nonzero(admitted[np.ix_(src_cell, tgt_cell)])
    return src[i], tgt[j]


def _drop_far_cells(admitted, fine_domain, prune_bound):
    """Clear the coarse cell pairs of ``admitted`` whose child pairs all cost
    more than ``prune_bound``.

    ``admitted`` has shape ``coarse_dims * 2``, source cell axes first.  Per
    axis, the least squared gap between the children of cells a and b is
    (spacing * max(0, 2|a - b| - 1))^2; it is read from the gap tables the
    network builder uses (``axis_gap_tables``), so the sum over axes is the
    least cost of a child pair up to the order of the sum's rounding.  A
    pair is cleared only when that sum exceeds ``prune_bound`` by a relative
    1e-9, so every cleared pair is one the builder prunes.  Nothing is
    cleared when no sum can exceed the bound (always at lambda = inf).
    """
    ndim = admitted.ndim // 2
    gaps = []
    for k, (m, table) in enumerate(zip(admitted.shape, axis_gap_tables(fine_domain))):
        n = len(table)
        sq = np.full((2 * m, 2 * m), np.inf)  # children off the grid (odd dims)
        sq[:n, :n] = table
        shape = [1] * admitted.ndim
        shape[k] = shape[ndim + k] = m
        gaps.append(sq.reshape(m, 2, m, 2).min(axis=(1, 3)).reshape(shape))
    limit = prune_bound * (1 + 1e-9)
    if sum(g.max() for g in gaps) <= limit:
        return
    # one source slice of the first axis at a time keeps the float sum to
    # 1 / coarse_dims[0] of the mask's size
    rest = sum(gaps[1:], np.zeros([1] * admitted.ndim))[0]
    for a in range(admitted.shape[0]):
        admitted[a] &= gaps[0][a] + rest <= limit


def _feeder(coarse_sol: TransportSolution, coarse_dims, fine_dims):
    """Per fine voxel, the source voxel whose arc should hang it at the start.

    For a voxel in coarse cell c this is the voxel at the same offset inside
    the coarse cell that sends the most mass to c in the coarse plan.  It is
    the voxel itself when c keeps most of its own mass, receives nothing, or
    the shifted voxel falls off the fine grid.
    """
    feeder = np.arange(int(np.prod(fine_dims)), dtype=np.int64)
    src, tgt, units = coarse_sol.plan_arcs.T
    # per target cell, its largest inflow; ties go to the lowest source cell
    order = np.lexsort((-units, tgt))
    tgt, src = tgt[order], src[order]
    first = np.diff(tgt, prepend=-1) != 0
    best = np.arange(int(np.prod(coarse_dims)), dtype=np.int64)
    best[tgt[first]] = src[first]

    fine = np.array(np.unravel_index(feeder, fine_dims))
    cell = fine // 2
    src_cell = np.array(np.unravel_index(
        best[np.ravel_multi_index(cell, coarse_dims)], coarse_dims
    ))
    moved = fine + 2 * (src_cell - cell)
    ok = (moved < np.array(fine_dims)[:, None]).all(axis=0)
    feeder[ok] = np.ravel_multi_index(moved[:, ok], fine_dims)
    return feeder


def _admission_restricts(nu: GridMeasure, cost, alloc, radius) -> bool:
    """Whether admission from a coarser level could keep fewer targets per
    source on ``nu``'s level than its own 2 lambda bound: whether the window
    one coarse arc end admits holds fewer voxels than both the target
    support and the bound's stencil."""
    domain = nu.domain
    window = math.prod(min(2 * (2 * max(radius, 0) + 1), n) for n in domain.dims)
    return window < np.count_nonzero(nu.flat) and network.stencil_exceeds(
        domain, network.prune_bound(cost, alloc, domain), window)


def solve_multiscale(
    mu: GridMeasure,
    nu: GridMeasure,
    cost: CostSpec,
    alloc: AllocationSpec,
    quant: QuantizationSpec = QuantizationSpec(),
    coarsen_threshold: int = 1000,
    neighborhood_radius: int = 1,
) -> TransportSolution:
    """Approximate unbalanced solve via coarse-to-fine refinement.

    An instance whose support does not exceed ``coarsen_threshold``, or that
    admission could not restrict (``_admission_restricts``), has one level,
    so it gets the exact solver's solution unchanged.
    """
    pyramid = [(mu, nu)]
    while max(np.count_nonzero(m.flat) for m in pyramid[-1]) > coarsen_threshold:
        cm, cn = pyramid[-1]
        if max(cm.domain.dims) <= 1 or not _admission_restricts(
                cn, cost, alloc, neighborhood_radius):
            break
        pyramid.append((downsample(cm, 2), downsample(cn, 2)))

    coarse_mu, coarse_nu = pyramid[-1]
    sol = solve_unbalanced(coarse_mu, coarse_nu, cost, alloc, quant)

    for level in range(len(pyramid) - 2, -1, -1):
        fine_mu, fine_nu = pyramid[level]
        coarse_dims = pyramid[level + 1][0].domain.dims
        pairs = _admitted_pairs(
            sol, coarse_dims, fine_mu, fine_nu, neighborhood_radius,
            network.prune_bound(cost, alloc, fine_mu.domain),
        )
        feeder = _feeder(sol, coarse_dims, fine_mu.domain.dims)
        try:
            problem = network.build_unbalanced_problem(
                fine_mu, fine_nu, cost, alloc, quant,
                allowed_pairs=pairs, feeder=feeder,
            )
            sol = network.extract_solution(problem, solve_min_cost_flow(problem)[0])
        except InfeasibleError:
            # a balanced level that allocates: its admitted arcs cannot route
            # the plan, so solve it exactly
            sol = solve_unbalanced(fine_mu, fine_nu, cost, alloc, quant)
    return sol
