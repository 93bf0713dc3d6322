import numpy as np
import pytest

from uotmorph.grid import GridDomain, GridMeasure, downsample
from uotmorph.solver import TransportSolution, multiscale


@pytest.fixture
def domain_1d():
    """2-voxel line embedded as a 1x2 2D grid, spacing 1."""
    return GridDomain(dims=(1, 2), spacing=(1.0, 1.0), origin=(0.0, 0.0))


def line_domain(n):
    return GridDomain(dims=(1, n), spacing=(1.0, 1.0), origin=(0.0, 0.0))


def line_measure(values):
    values = np.asarray(values, dtype=np.float64)
    return GridMeasure(line_domain(len(values)), values.reshape(1, -1))


def record_coarsened(patch):
    """Patch ``multiscale.downsample`` to record the dims of every measure a
    multiscale pyramid coarsens, two per level; returns the record."""
    levels = []

    def counted(measure, factor):
        levels.append(measure.domain.dims)
        return downsample(measure, factor)

    patch.setattr(multiscale, "downsample", counted)
    return levels


def pairwise_costs(pos_a, pos_b):
    """Squared Euclidean cost matrix between coordinate arrays of shape (n, d)
    and (m, d), by einsum over their (n, m, d) difference: an oracle built
    independently of the solver's gap tables."""
    diff = pos_a[:, None, :] - pos_b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def plan_masses(sol):
    """Plan arcs as (source voxel, target voxel, mass) tuples."""
    return [(i, j, u * sol.mass_per_unit) for i, j, u in sol.plan_arcs.tolist()]


def allocated(sol, kind):
    """Voxel -> mass of a solution's allocation arcs of one ARC_* kind."""
    return {v: u * sol.mass_per_unit
            for k, v, u in sol.allocation.tolist() if k == kind}


def same_solution(a, b):
    """Field-by-field equality of two TransportSolutions."""
    return (np.array_equal(a.plan_arcs, b.plan_arcs)
            and np.array_equal(a.allocation, b.allocation)
            and (a.objective, a.delta, a.mass_per_unit)
            == (b.objective, b.delta, b.mass_per_unit))


def plan_solution(arcs):
    """Solution holding only the given (source, target, units) plan arcs."""
    return TransportSolution(
        plan_arcs=np.array(arcs, dtype=np.int64).reshape(-1, 3),
        allocation=np.zeros((0, 3), dtype=np.int64),
    )


def random_measure_pair(rng, dims=(4, 4), density=0.7, max_support=None):
    """Random non-negative measure pair on a shared domain."""
    dom = GridDomain(dims=dims, spacing=(1.0, 1.0), origin=(0.0, 0.0))
    size = int(np.prod(dims))

    def draw():
        v = rng.random(size) * (rng.random(size) < density)
        if max_support is not None and (v > 0).sum() > max_support:
            keep = rng.choice(np.flatnonzero(v > 0), size=max_support, replace=False)
            mask = np.zeros(size, dtype=bool)
            mask[keep] = True
            v = np.where(mask, v, 0.0)
        return v

    w, z = draw(), draw()
    if w.sum() == 0:
        w[rng.integers(size)] = 1.0
    if z.sum() == 0:
        z[rng.integers(size)] = 1.0
    return GridMeasure(dom, w.reshape(dims)), GridMeasure(dom, z.reshape(dims))
