"""Coarse-to-fine acceleration of the unbalanced solver.

Both measures are sum-pooled by factor 2 per level until the larger
support drops below ``coarsen_threshold``.  The coarsest problem is solved
exactly; each refinement level admits transport arcs only between children
of coarse plan arcs whose endpoints are dilated by ``neighborhood_radius``
coarse cells.  Self arcs and virtual (allocation) arcs are always admitted,
so every level stays feasible and the final solution is feasible for the
full problem; its objective upper-bounds the exact optimum.

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


def _support_size(m: GridMeasure) -> int:
    return int(np.count_nonzero(m.flat))


def _children_of_cells(fine_dims, coarse_multi, factor=2):
    """Fine linear indices covered by the given coarse multi-indices."""
    ndim = len(fine_dims)
    offsets = np.stack(
        np.meshgrid(*([np.arange(factor)] * ndim), indexing="ij"), axis=-1
    ).reshape(-1, ndim)
    base = coarse_multi[:, None, :] * factor + offsets[None, :, :]
    base = base.reshape(-1, ndim)
    ok = np.ones(len(base), dtype=bool)
    for a in range(ndim):
        ok &= base[:, a] < fine_dims[a]
    base = base[ok]
    return np.ravel_multi_index(base.T, fine_dims)


def _dilate_cells(dims, cells, radius):
    """Chebyshev dilation of coarse linear indices by `radius` cells."""
    if radius <= 0:
        return np.unique(cells)
    ndim = len(dims)
    multi = np.column_stack(np.unravel_index(cells, dims))
    offsets = np.stack(
        np.meshgrid(*([np.arange(-radius, radius + 1)] * ndim), indexing="ij"),
        axis=-1,
    ).reshape(-1, ndim)
    grown = (multi[:, None, :] + offsets[None, :, :]).reshape(-1, ndim)
    ok = np.ones(len(grown), dtype=bool)
    for a in range(ndim):
        ok &= (grown[:, a] >= 0) & (grown[:, a] < dims[a])
    grown = grown[ok]
    return np.unique(np.ravel_multi_index(grown.T, dims))


def _admitted_pairs(coarse_sol: TransportSolution, coarse_dims, fine_dims, radius):
    """Fine (source, target) voxel pairs admitted by a coarse plan."""
    if not coarse_sol.plan_arcs:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    src_cells = np.array([a[0] for a in coarse_sol.plan_arcs], dtype=np.int64)
    tgt_cells = np.array([a[1] for a in coarse_sol.plan_arcs], dtype=np.int64)

    # cache the fine children of each dilated coarse cell
    child_cache: dict[int, np.ndarray] = {}

    def children(cell):
        got = child_cache.get(cell)
        if got is None:
            grown = _dilate_cells(coarse_dims, np.array([cell]), radius)
            multi = np.column_stack(np.unravel_index(grown, coarse_dims))
            got = _children_of_cells(fine_dims, multi)
            child_cache[cell] = got
        return got

    size = 1
    for d in fine_dims:
        size *= d
    chunks = []
    for sc, tc in zip(src_cells, tgt_cells):
        ci = children(int(sc))
        cj = children(int(tc))
        chunks.append((ci[:, None] * size + cj[None, :]).ravel())
    keys = np.unique(np.concatenate(chunks))
    return keys // size, keys % size


def _feeder(coarse_sol: TransportSolution, coarse_dims, fine_dims):
    """Per fine voxel, the source voxel whose arc should hang it at the start.

    For a voxel in coarse cell c this is the voxel at the same offset inside
    the coarse cell that sends the most mass to c in the coarse plan.  It is
    the voxel itself when c keeps most of its own mass, receives nothing, or
    the shifted voxel falls off the fine grid.
    """
    size = int(np.prod(fine_dims))
    feeder = np.arange(size, dtype=np.int64)
    if not coarse_sol.plan_arcs:
        return feeder
    src, tgt, mass = (np.array(col) for col in zip(*coarse_sol.plan_arcs))
    # per target cell, its largest inflow; ties go to the lowest source cell
    order = np.lexsort((-mass, tgt))
    tgt, src = tgt[order], src[order].astype(np.int64)
    first = np.r_[True, tgt[1:] != tgt[:-1]]
    best = np.arange(int(np.prod(coarse_dims)), dtype=np.int64)
    best[tgt[first].astype(np.int64)] = src[first]

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

    Instances whose support does not exceed ``coarsen_threshold`` are passed
    through to the exact solver unchanged.
    """
    if max(_support_size(mu), _support_size(nu)) <= coarsen_threshold:
        return solve_unbalanced(mu, nu, cost, alloc, quant)

    pyramid = [(mu, nu)]
    while max(_support_size(pyramid[-1][0]), _support_size(pyramid[-1][1])) > (
        coarsen_threshold
    ):
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
            flows, _ = solve_min_cost_flow(problem)
        except InfeasibleError:
            # restricted arc set disconnected the problem; fall back to exact
            problem = network.build_unbalanced_problem(
                fine_mu, fine_nu, cost, alloc, quant
            )
            flows, _ = solve_min_cost_flow(problem)
        sol = network.extract_solution(problem, flows)
    return sol
