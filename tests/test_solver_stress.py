"""Wider randomized cross-checks of the simplex against the SSP oracle:
3D domains, near-degenerate lambdas, and the quantization primitive under
hypothesis.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import same_solution
from uotmorph.grid import GridDomain, GridMeasure, downsample
from uotmorph.features import smooth
from uotmorph.solver import (
    AllocationSpec,
    CostSpec,
    QuantizationSpec,
    feasibility_violation_units,
    quantize_to_total,
    solve_multiscale,
    solve_unbalanced,
)
from uotmorph.solver import network, simplex
from uotmorph.solver.api import _run

COST = CostSpec()
QUANT = QuantizationSpec(units=10**6)


def _random_pair_3d(rng, dims=(3, 3, 3), density=0.6):
    dom = GridDomain(dims=dims, spacing=(1.0, 1.5, 2.0), origin=(0.0, -1.0, 4.0))
    size = int(np.prod(dims))

    def draw():
        v = rng.random(size) * (rng.random(size) < density)
        if v.sum() == 0:
            v[rng.integers(size)] = 1.0
        return v.reshape(dims)

    return GridMeasure(dom, draw()), GridMeasure(dom, draw())


def test_3d_oracle_equivalence():
    rng = np.random.default_rng(55)
    for trial in range(30):
        mu, nu = _random_pair_3d(rng)
        lam = [0.3, 2.0, 40.0][trial % 3]
        prob = network.build_unbalanced_problem(
            mu, nu, COST, AllocationSpec(lam=lam), QUANT
        )
        s1 = _run(prob, "simplex")
        s2 = _run(prob, "ssp")
        assert s1.objective == pytest.approx(s2.objective, rel=1e-9, abs=1e-12)
        assert feasibility_violation_units(s1, mu.flat, nu.flat, QUANT.units) == 0


def test_3d_shift_costs_anisotropic_spacing():
    dom = GridDomain(dims=(2, 2, 2), spacing=(1.0, 2.0, 3.0), origin=(0.0,) * 3)
    w = np.zeros((2, 2, 2))
    w[0, 0, 0] = 1.0
    z = np.zeros((2, 2, 2))
    z[1, 1, 1] = 1.0
    sol = solve_unbalanced(
        GridMeasure(dom, w), GridMeasure(dom, z), COST, AllocationSpec(lam=100.0)
    )
    assert sol.objective == pytest.approx(1.0 + 4.0 + 9.0, rel=1e-12)


def test_3d_downsample_values():
    dom = GridDomain(dims=(3, 3, 3), spacing=(1.0, 1.0, 1.0), origin=(0.0,) * 3)
    m = GridMeasure(dom, np.ones((3, 3, 3)))
    out = downsample(m, 2)
    assert out.domain.dims == (2, 2, 2)
    # corner block has 8 children, edge blocks 4 or 2, far corner 1
    assert out.values[0, 0, 0] == 8.0
    assert out.values[1, 1, 1] == 1.0
    assert out.total_mass == 27.0


def test_3d_smoothing_preserves_constants():
    f = np.full((5, 6, 7), 2.5)
    assert np.allclose(smooth(f, 1.0, truncation_radius=2), f, atol=1e-12)


def test_3d_multiscale_matches_exact_when_unrestricted():
    rng = np.random.default_rng(77)
    dom = GridDomain(dims=(6, 6, 6), spacing=(1.0, 1.0, 1.0), origin=(0.0,) * 3)
    w = rng.random((6, 6, 6))
    z = rng.random((6, 6, 6))
    mu, nu = GridMeasure(dom, w), GridMeasure(dom, z)
    alloc = AllocationSpec(lam=20.0)
    exact = solve_unbalanced(mu, nu, COST, alloc, QUANT)
    # radius 2 admits a window of 10 fine voxels per axis, which covers the
    # grid, so no level is coarsened and the solve is the exact one
    ms = solve_multiscale(
        mu, nu, COST, alloc, QUANT, coarsen_threshold=40, neighborhood_radius=2
    )
    assert same_solution(ms, exact)


@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=30,
    ),
    total=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=200, deadline=None)
def test_quantize_total_and_per_entry_bounds(values, total):
    v = np.asarray(values)
    out = quantize_to_total(v, total)
    assert out.sum() == (total if v.sum() > 0 else 0)
    assert (out >= 0).all()
    if v.sum() > 0:
        scaled = (v / v.sum()) * total
        assert np.max(np.abs(out - scaled)) < 1.0 + 1e-9
        # zero entries never receive units
        assert not out[v == 0].any()


@st.composite
def transport_cases(draw):
    """Measure pair, allocation and quantization for a differential solve.

    Grids are 1D (a 1 x n line), 2D, or 3D with anisotropic spacing; masses
    are small integers, so totals are exact and lambda = inf can be drawn on
    balanced totals (the target is a permutation of the source).
    """
    ndim = draw(st.sampled_from([1, 2, 3]))
    if ndim == 1:
        dims = (1, draw(st.integers(2, 9)))
    else:
        dims = tuple(draw(st.integers(2, 4 if ndim == 2 else 3)) for _ in range(ndim))
    if ndim == 3:
        spacing = tuple(
            draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])) for _ in range(3)
        )
    else:
        spacing = (1.0,) * len(dims)
    dom = GridDomain(dims=dims, spacing=spacing, origin=(0.0,) * len(dims))
    size = int(np.prod(dims))
    masses = st.lists(st.integers(0, 5), min_size=size, max_size=size)
    w = np.array(draw(masses), dtype=float)
    lam_kind = draw(st.sampled_from(["zero", "one", "half", "above", "inf"]))
    if lam_kind == "inf":
        z = w[draw(st.permutations(range(size)))]
    else:
        z = np.array(draw(masses), dtype=float)
    assume(w.sum() > 0 and z.sum() > 0)
    max_cost = COST.max_on_domain(dom)
    lam = {
        "zero": 0.0,
        "one": 1.0,
        "half": max_cost / 2,
        "above": max_cost / 2 * 1.25 + 0.5,
        "inf": np.inf,
    }[lam_kind]
    alloc = AllocationSpec(lam=lam)
    units = draw(st.sampled_from([1, 10**6, 2**40]))
    mu = GridMeasure(dom, w.reshape(dims))
    nu = GridMeasure(dom, z.reshape(dims))
    return mu, nu, alloc, QuantizationSpec(units=units)


@given(case=transport_cases())
@settings(max_examples=150, deadline=None)
def test_simplex_matches_ssp_differential(case):
    mu, nu, alloc, quant = case
    problem = network.build_unbalanced_problem(mu, nu, COST, alloc, quant)
    s1 = _run(problem, "simplex")
    s2 = _run(problem, "ssp")
    scale = max(1.0, COST.max_on_domain(mu.domain)) * (mu.total_mass + nu.total_mass)
    assert s1.objective == pytest.approx(s2.objective, rel=1e-9, abs=1e-15 * scale)
    assert feasibility_violation_units(s1, mu.flat, nu.flat, quant.units) == 0


@given(case=transport_cases())
@settings(max_examples=100, deadline=None)
def test_simplex_restarts_from_its_final_basis(case):
    # the returned basis is a strongly feasible start for the same problem,
    # and an optimal one: the solve from it ends where it began
    mu, nu, alloc, quant = case
    problem = network.build_unbalanced_problem(mu, nu, COST, alloc, quant)
    flows, _, basis = simplex.solve_min_cost_flow(problem)
    assert basis.dtype == np.int64 and basis.shape == (problem.n_nodes,)
    again, _, basis_again = simplex.solve_min_cost_flow(
        dataclasses.replace(problem, basis=basis)
    )
    assert np.array_equal(again, flows)
    assert np.array_equal(basis_again, basis)
