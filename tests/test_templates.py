import dataclasses

import numpy as np
import pytest

from conftest import line_measure
from uotmorph.errors import BarycenterDivergenceError, DataError
from uotmorph.grid import GridDomain, GridMeasure, downsample
from uotmorph.solver import AllocationSpec, CostSpec, QuantizationSpec, solve_unbalanced
from uotmorph.synth import AnnulusSpec, generate_annuli
from uotmorph.templates import (
    TemplateSpec,
    build_template,
    euclidean_mean,
    ot_barycenter,
    sparse_mean,
)

COST = CostSpec()


def test_euclidean_mean_examples():
    m1 = line_measure([0.0, 2.0])
    m2 = line_measure([2.0, 0.0])
    assert euclidean_mean([m1]) == m1
    mean = euclidean_mean([m1, m2])
    assert mean.flat.tolist() == [1.0, 1.0]
    same = euclidean_mean([m1, m1, m1])
    assert same == m1
    with pytest.raises(DataError):
        euclidean_mean([])


def test_euclidean_mean_total_is_mean_of_totals():
    rng = np.random.default_rng(0)
    dom = GridDomain(dims=(4, 4), spacing=(1.0, 1.0), origin=(0.0, 0.0))
    images = [GridMeasure(dom, rng.random((4, 4))) for _ in range(5)]
    mean = euclidean_mean(images)
    expected = np.mean([im.total_mass for im in images])
    assert mean.total_mass == pytest.approx(expected, rel=1e-12)


def test_sparse_mean_threshold():
    imgs = [line_measure(v) for v in ([0.0, 1.0], [2.0, 1.0], [4.0, 1.0])]
    # voxel 0 positive in 2 of 3 images, mean value 2
    spec2 = TemplateSpec(method="sparse", sparse_threshold_fraction=2 / 3)
    out = sparse_mean(imgs, spec2)
    assert out.flat.tolist() == [2.0, 1.0]
    spec3 = TemplateSpec(method="sparse", sparse_threshold_fraction=1.0)
    out = sparse_mean(imgs, spec3)
    assert out.flat.tolist() == [0.0, 1.0]


def test_sparse_mean_disjoint_supports_vanishes():
    imgs = [line_measure([1.0, 0.0]), line_measure([0.0, 1.0])]
    spec = TemplateSpec(method="sparse", sparse_threshold_fraction=1.0)
    assert sparse_mean(imgs, spec).total_mass == 0.0


def test_sparse_support_shrinks_with_fraction():
    rng = np.random.default_rng(1)
    dom = GridDomain(dims=(5, 5), spacing=(1.0, 1.0), origin=(0.0, 0.0))
    imgs = [
        GridMeasure(dom, rng.random((5, 5)) * (rng.random((5, 5)) < 0.6))
        for _ in range(6)
    ]
    e_support = set(np.flatnonzero(euclidean_mean(imgs).flat).tolist())
    prev = None
    for frac in (0.2, 0.5, 0.8, 1.0):
        spec = TemplateSpec(method="sparse", sparse_threshold_fraction=frac)
        sup = set(np.flatnonzero(sparse_mean(imgs, spec).flat).tolist())
        assert sup <= e_support
        if prev is not None:
            assert sup <= prev
        prev = sup


def test_barycenter_fixed_point_on_identical_cohort():
    rng = np.random.default_rng(2)
    dom = GridDomain(dims=(3, 3), spacing=(1.0, 1.0), origin=(0.0, 0.0))
    # quarter-integer values keep the 3-image mean exact in float arithmetic
    m = GridMeasure(dom, rng.integers(0, 8, (3, 3)) / 4.0)
    spec = TemplateSpec(method="ot_barycenter")
    bary, objective, iters = ot_barycenter(
        [m, m, m], spec, COST, AllocationSpec(lam=10.0)
    )
    assert bary == m
    assert objective == 0.0
    assert iters == 1


def test_barycenter_two_atoms_meets_in_middle():
    # candidate enumeration oracle: a unit atom at any single voxel position
    x1 = line_measure([1.0, 0.0, 0.0])
    x2 = line_measure([0.0, 0.0, 1.0])
    alloc = AllocationSpec(lam=100.0)
    best = min(
        range(3),
        key=lambda v: sum(
            solve_unbalanced(x, line_measure(np.eye(3)[v]), COST, alloc).objective
            for x in (x1, x2)
        ),
    )
    assert best == 1  # middle voxel: 1 + 1 beats 0 + 4
    spec = TemplateSpec(method="ot_barycenter")
    bary, objective, _ = ot_barycenter([x1, x2], spec, COST, alloc)
    assert bary.flat.tolist() == [0.0, 1.0, 0.0]
    assert objective == pytest.approx(2.0, rel=1e-9)


def test_barycenter_objective_non_increasing():
    rng = np.random.default_rng(3)
    dom = GridDomain(dims=(4, 4), spacing=(1.0, 1.0), origin=(0.0, 0.0))
    imgs = [
        GridMeasure(dom, rng.random((4, 4)) * (rng.random((4, 4)) < 0.7))
        for _ in range(4)
    ]
    spec = TemplateSpec(method="ot_barycenter", barycenter_max_iters=8)
    # raises BarycenterDivergenceError on any objective increase
    bary, objective, iters = ot_barycenter(imgs, spec, COST, AllocationSpec(lam=3.0))
    assert objective >= 0.0
    assert 1 <= iters <= 8


def annulus_cohort():
    images, _ = generate_annuli(AnnulusSpec(
        seed=1, n_subjects=8, dims=(48, 48), inner_radii=(8, 12),
        outer_radii=(20, 24), case="random_total",
    ))
    return [downsample(m, 4) for m in images]


def test_barycenter_tolerates_quantization_rounding():
    # the second round's objective rises by 2.98e-6 relative at 10**6 units,
    # 7.7e-9 at 10**9: rounding of the masses, not divergence
    spec = TemplateSpec(method="ot_barycenter", barycenter_max_iters=6,
                        barycenter_tolerance=0)
    template, objective, iters = ot_barycenter(
        annulus_cohort(), spec, COST, AllocationSpec(lam=3.0), QuantizationSpec(10**6)
    )
    assert template.total_mass > 0 and objective > 0
    assert 1 <= iters <= 7


def test_barycenter_rise_beyond_rounding_raises():
    rounds = []

    def inflate_second_round(solve, images):
        rounds.append(None)
        scale = 1.01 if len(rounds) == 2 else 1.0
        return [dataclasses.replace(s, objective=s.objective * scale)
                for s in map(solve, images)]

    spec = TemplateSpec(method="ot_barycenter", barycenter_max_iters=6,
                        barycenter_tolerance=0)
    with pytest.raises(BarycenterDivergenceError, match="beyond rounding"):
        ot_barycenter(annulus_cohort(), spec, COST, AllocationSpec(lam=3.0),
                      QuantizationSpec(10**6), pool_map=inflate_second_round)


def test_build_template_dispatch():
    imgs = [line_measure([1.0, 1.0]), line_measure([1.0, 0.0])]
    t, meta = build_template(imgs, TemplateSpec(method="euclidean"))
    assert meta["method"] == "euclidean"
    assert t.flat.tolist() == [1.0, 0.5]
    t, meta = build_template(imgs, TemplateSpec(method="sparse"))
    assert meta["method"] == "sparse"
    assert t.flat.tolist() == [1.0, 0.0]
