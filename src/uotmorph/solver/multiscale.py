"""Coarse-to-fine acceleration of the unbalanced solver.

Both measures are sum-pooled by factor 2 per level until the larger
support drops below ``coarsen_threshold``.  The coarsest problem is solved
exactly; each refinement level admits transport arcs only between children
of coarse plan arcs whose endpoints are dilated by ``neighborhood_radius``
coarse cells.  Self arcs and virtual (allocation) arcs are always admitted,
so at finite lambda every level stays feasible; at lambda = inf, which has
no virtual arcs, a level the admitted arcs cannot route is solved exactly.
The final solution is feasible for the full problem and its objective
upper-bounds the exact optimum.

Each refinement level is warm-started from the coarse plan: a target voxel
starts fed from the voxel at the same offset in the coarse source cell that
sends its cell the most mass (the voxel itself where the cell keeps most of
its own mass), when that arc is in the restricted network, and by its self
arc otherwise.  This only changes where the simplex starts; the result is
still an upper bound.
"""

from __future__ import annotations

import numpy as np

from ..errors import InfeasibleError
from ..grid import GridMeasure, downsample
from . import network
from .api import solve_unbalanced
from .simplex import solve_min_cost_flow
from .specs import AllocationSpec, CostSpec, QuantizationSpec, TransportSolution


def _offset_cells(cells, dims, out_dims, scale, offsets):
    """Cells ``scale * c + o`` of grid ``out_dims`` for each cell c and offset o.

    ``cells`` are linear indices on grid ``dims``.  Returns, for every
    result on the grid, the position in ``cells`` it came from and its
    linear index; results off the grid are dropped.
    """
    multi = np.stack(np.unravel_index(cells, dims), axis=-1)
    grown = multi[:, None, :] * scale + offsets[None, :, :]
    ok = ((grown >= 0) & (grown < np.asarray(out_dims))).all(axis=-1)
    return np.nonzero(ok)[0], np.ravel_multi_index(grown[ok].T, out_dims)


def _box(lo, hi, ndim):
    """All integer offsets in [lo, hi]^ndim, one per row."""
    axes = np.meshgrid(*([np.arange(lo, hi + 1)] * ndim), indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, ndim)


def _admitted_pairs(coarse_sol: TransportSolution, coarse_dims, fine_dims, radius):
    """Fine (source, target) voxel pairs admitted by a coarse plan.

    A pair is admitted when its voxels' coarse cells lie within ``radius``
    cells (Chebyshev) of the two ends of one coarse plan arc.  Pairs come
    sorted by source, then target.
    """
    ndim = len(fine_dims)
    n_coarse = int(np.prod(coarse_dims))
    n_fine = int(np.prod(fine_dims))
    ring = _box(-max(radius, 0), max(radius, 0), ndim)
    src, tgt = coarse_sol.plan_arcs[:, :2].T
    # dilate one end at a time on the coarse grid, deduplicating in between
    owner, src = _offset_cells(src, coarse_dims, coarse_dims, 1, ring)
    src, tgt = np.divmod(np.unique(src * n_coarse + tgt[owner]), n_coarse)
    owner, tgt = _offset_cells(tgt, coarse_dims, coarse_dims, 1, ring)
    src, tgt = np.divmod(np.unique(src[owner] * n_coarse + tgt), n_coarse)
    # each fine voxel has one coarse cell, so distinct coarse pairs give
    # distinct fine pairs
    kids = _box(0, 1, ndim)
    owner, src = _offset_cells(src, coarse_dims, fine_dims, 2, kids)
    owner, tgt = _offset_cells(tgt[owner], coarse_dims, fine_dims, 2, kids)
    keys = np.sort(src[owner] * n_fine + tgt)
    return keys // n_fine, keys % n_fine


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

    An instance whose support does not exceed ``coarsen_threshold`` has one
    level, so it gets the exact solver's solution unchanged.
    """
    pyramid = [(mu, nu)]
    while max(np.count_nonzero(m.flat) for m in pyramid[-1]) > coarsen_threshold:
        cm, cn = pyramid[-1]
        if max(cm.domain.dims) <= 1:
            break
        pyramid.append((downsample(cm, 2), downsample(cn, 2)))

    coarse_mu, coarse_nu = pyramid[-1]
    sol = solve_unbalanced(coarse_mu, coarse_nu, cost, alloc, quant)

    for level in range(len(pyramid) - 2, -1, -1):
        fine_mu, fine_nu = pyramid[level]
        coarse_dims = pyramid[level + 1][0].domain.dims
        pairs = _admitted_pairs(
            sol, coarse_dims, fine_mu.domain.dims, neighborhood_radius
        )
        feeder = _feeder(sol, coarse_dims, fine_mu.domain.dims)
        try:
            problem = network.build_unbalanced_problem(
                fine_mu, fine_nu, cost, alloc, quant,
                allowed_pairs=pairs, feeder=feeder,
            )
            sol = network.extract_solution(problem, solve_min_cost_flow(problem)[0])
        except InfeasibleError:
            # restricted arc set disconnected the problem; fall back to exact
            sol = solve_unbalanced(fine_mu, fine_nu, cost, alloc, quant)
    return sol
