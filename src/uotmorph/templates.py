"""Template construction from a cohort of aligned measures.

Three methods: voxel-wise Euclidean mean, sparse mean (mean masked to
voxels positive in at least a fraction of the cohort), and an approximate
transport barycenter computed by fixed-point iteration on the transport
plans from every image to the current template.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (BarycenterDivergenceError, ConfigError, DataError, is_integer,
                     is_number)
from .grid import GridMeasure, voxel_positions
from .solver import AllocationSpec, CostSpec, QuantizationSpec, solve_unbalanced

METHOD_EUCLIDEAN = "euclidean"
METHOD_SPARSE = "sparse"
METHOD_OT_BARYCENTER = "ot_barycenter"


@dataclass(frozen=True)
class TemplateSpec:
    method: str = METHOD_SPARSE
    sparse_threshold_fraction: float = 0.9
    barycenter_max_iters: int = 20
    barycenter_tolerance: float = 1e-4

    def __post_init__(self):
        if self.method not in (METHOD_EUCLIDEAN, METHOD_SPARSE, METHOD_OT_BARYCENTER):
            raise ConfigError(f"unknown template method {self.method!r}")
        if not (is_number(self.sparse_threshold_fraction)
                and 0 < self.sparse_threshold_fraction <= 1):
            raise ConfigError("sparse_threshold_fraction must be in (0, 1]")
        if not (is_integer(self.barycenter_max_iters)
                and self.barycenter_max_iters >= 1):
            raise ConfigError("barycenter_max_iters must be an integer >= 1, "
                              f"got {self.barycenter_max_iters!r}")
        if not (is_number(self.barycenter_tolerance)
                and self.barycenter_tolerance >= 0):
            raise ConfigError("barycenter_tolerance must be >= 0, "
                              f"got {self.barycenter_tolerance!r}")


def _check_cohort(images):
    if not images:
        raise DataError("template construction needs at least one image")
    domain = images[0].domain
    for im in images[1:]:
        if im.domain != domain:
            raise DataError("all cohort images must share one grid domain")
    return domain


def euclidean_mean(images: list[GridMeasure]) -> GridMeasure:
    """Voxel-wise arithmetic mean of the cohort."""
    domain = _check_cohort(images)
    acc = np.zeros(domain.dims)
    for im in images:
        acc += im.values
    return GridMeasure(domain, acc / len(images))


def sparse_mean(images: list[GridMeasure], spec: TemplateSpec) -> GridMeasure:
    """Euclidean mean masked to voxels positive in at least ceil(f*n) images."""
    domain = _check_cohort(images)
    n = len(images)
    s = math.ceil(spec.sparse_threshold_fraction * n)
    positive_count = np.zeros(domain.dims, dtype=np.int64)
    for im in images:
        positive_count += im.values > 0
    mean = euclidean_mean(images)
    masked = np.where(positive_count >= s, mean.values, 0.0)
    return GridMeasure(domain, masked)


def ot_barycenter(
    images: list[GridMeasure],
    spec: TemplateSpec,
    cost: CostSpec,
    alloc: AllocationSpec,
    quant: QuantizationSpec = QuantizationSpec(),
    pool_map=map,
):
    """Approximate transport barycenter by fixed-point iteration.

    Starts from the sparse mean (Euclidean mean if that is empty). Each
    round solves transport from every image to the current template, then
    moves each template atom to the snapped transport-weighted centroid of
    its inbound mass and resets its mass to the average inbound mass.
    Stops when the summed objective changes by less than the relative
    tolerance, or after ``barycenter_max_iters`` rounds.  Each round runs
    its solves as ``pool_map(solve, images)``, which the pipeline points at
    its worker pool.  An objective rise beyond twice the round's rounding
    bound raises ``BarycenterDivergenceError``: the program is lambda-Lipschitz
    in the masses, so each solve is within ``min(lambda_eff, max_cost) * 2
    (|supp mu| + |supp nu|) * mass_per_unit`` of its optimum.

    Returns (template, objective, iterations).
    """
    domain = _check_cohort(images)
    template = sparse_mean(images, spec)
    if template.total_mass == 0:
        template = euclidean_mean(images)
    if template.total_mass == 0:
        raise DataError("cohort is entirely empty; no barycenter exists")

    n = len(images)
    max_cost = cost.max_on_domain(domain)
    lam_cap = min(alloc.effective_lambda(max_cost), max_cost)
    supports = np.array([np.count_nonzero(im.flat) for im in images])
    prev_objective = None
    # the round after the last relocation only scores the final template
    for iterations in range(1, spec.barycenter_max_iters + 2):
        solve = partial(solve_unbalanced, nu=template, cost=cost, alloc=alloc,
                        quant=quant)
        sols = list(pool_map(solve, images))
        objective = float(sum(s.objective for s in sols))
        voxels = supports + np.count_nonzero(template.flat)
        bound = 2 * lam_cap * float(np.dot(voxels, [s.mass_per_unit for s in sols]))
        if prev_objective is not None:
            if objective > prev_objective * (1 + 1e-9) + 1e-15 + 2 * bound:
                raise BarycenterDivergenceError(
                    f"barycenter objective increased from {prev_objective!r} "
                    f"to {objective!r}, beyond rounding ({2 * bound:.3g})"
                )
            if abs(prev_objective - objective) <= (
                spec.barycenter_tolerance * max(prev_objective, 1e-300)
            ):
                return template, objective, iterations
        if objective == 0.0 or iterations > spec.barycenter_max_iters:
            return template, objective, iterations
        prev_objective = objective

        # relocate each template atom to the centroid of its inbound mass
        src, tgt, _ = np.concatenate([s.plan_arcs for s in sols]).T
        mass = np.concatenate([s.plan_arcs[:, 2] * s.mass_per_unit for s in sols])
        inbound_mass = np.zeros(domain.size)
        inbound_centroid = np.zeros((domain.size, domain.ndim))
        np.add.at(inbound_mass, tgt, mass)
        np.add.at(inbound_centroid, tgt, mass[:, None] * voxel_positions(domain, src))
        active = np.flatnonzero(inbound_mass > 0)
        centroid = inbound_centroid[active] / inbound_mass[active, None]
        multi = np.rint((centroid - domain.origin) / domain.spacing).astype(int)
        new_values = np.zeros(domain.size)
        np.add.at(new_values, np.ravel_multi_index(multi.T, domain.dims, mode="clip"),
                  inbound_mass[active] / n)
        template = GridMeasure(domain, new_values.reshape(domain.dims))


def build_template(images, spec: TemplateSpec, cost=None, alloc=None,
                   quant=QuantizationSpec(), pool_map=map):
    """Dispatch on spec.method; returns (template, metadata dict)."""
    if spec.method == METHOD_EUCLIDEAN:
        return euclidean_mean(images), {"method": spec.method}
    if spec.method == METHOD_SPARSE:
        return sparse_mean(images, spec), {
            "method": spec.method,
            "sparse_threshold_fraction": spec.sparse_threshold_fraction,
        }
    if cost is None or alloc is None:
        raise ConfigError("ot_barycenter template needs cost and allocation specs")
    template, objective, iters = ot_barycenter(
        images, spec, cost, alloc, quant, pool_map=pool_map
    )
    return template, {
        "method": spec.method,
        "objective": objective,
        "iterations": iters,
        "sparse_threshold_fraction": spec.sparse_threshold_fraction,
    }
