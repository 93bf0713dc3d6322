import numpy as np
import pytest

from conftest import line_measure, plan_masses, random_measure_pair
from uotmorph.features import (
    allocation_image,
    extract_features,
    smooth,
    transport_cost_image,
)
from uotmorph.grid import GridDomain, voxel_positions
from uotmorph.solver import (
    AllocationSpec,
    CostSpec,
    QuantizationSpec,
    TransportSolution,
    solve_unbalanced,
)
from uotmorph.solver.specs import ARC_ADD_SRC, ARC_REM_SRC

COST = CostSpec()
QUANT = QuantizationSpec(units=10**6)


def test_identity_solve_gives_zero_fields():
    rng = np.random.default_rng(0)
    mu, _ = random_measure_pair(rng, dims=(3, 3))
    sol = solve_unbalanced(mu, mu, COST, AllocationSpec(lam=5.0))
    assert not allocation_image(sol, mu.domain).any()
    assert not transport_cost_image(sol, COST, mu.domain).any()


def test_allocation_image_is_template_minus_subject_at_lambda_zero():
    rng = np.random.default_rng(1)
    for _ in range(8):
        mu, nu = random_measure_pair(rng, dims=(3, 3))
        sol = solve_unbalanced(mu, nu, COST, AllocationSpec(lam=0.0), QUANT)
        img = allocation_image(sol, mu.domain).reshape(-1)
        expected = mu.flat - nu.flat
        assert np.max(np.abs(img - expected)) <= 2 * sol.mass_per_unit


def test_allocation_image_two_voxel_example():
    mu = line_measure([1.0, 0.0])
    nu = line_measure([0.0, 1.0])
    sol = solve_unbalanced(mu, nu, COST, AllocationSpec(lam=0.4))
    img = allocation_image(sol, mu.domain)
    assert img.reshape(-1).tolist() == [1.0, -1.0]


def test_allocation_image_sums_to_minus_delta():
    rng = np.random.default_rng(2)
    for _ in range(6):
        mu, nu = random_measure_pair(rng, dims=(3, 3))
        sol = solve_unbalanced(mu, nu, COST, AllocationSpec(lam=0.7), QUANT)
        img = allocation_image(sol, mu.domain)
        assert img.sum() == pytest.approx(-sol.delta, abs=3 * sol.mass_per_unit)


def test_images_match_loop_reference():
    # every arc kind, with voxels hit more than once
    dom = GridDomain(dims=(2, 3), spacing=(1.0, 2.0), origin=(0.5, -1.0))
    rows = np.array([
        [0, 0, 5, 3], [0, 0, 0, 7], [0, 4, 1, 2], [0, 2, 1, 9],
        [ARC_ADD_SRC, 1, -1, 4], [ARC_REM_SRC, 0, -1, 6], [ARC_REM_SRC, 5, -1, 1],
        [ARC_ADD_SRC, 5, -1, 8], [ARC_REM_SRC, 3, -1, 5], [ARC_ADD_SRC, 1, -1, 2],
    ], dtype=np.int64)
    sol = TransportSolution.from_rows(rows, mass_per_unit=0.1)
    signs = {ARC_REM_SRC: 1, ARC_ADD_SRC: -1}
    alloc = np.zeros(dom.size)
    for kind, vox, units in sol.allocation.tolist():
        alloc[vox] += signs[kind] * (units * 0.1)
    tcost = np.zeros(dom.size)
    pos = voxel_positions(dom, np.arange(dom.size))
    for i, j, units in sol.plan_arcs.tolist():
        moved = units * 0.1 * float(((pos[i] - pos[j]) ** 2).sum())
        tcost[i] += moved
        tcost[j] -= moved
    assert allocation_image(sol, dom).reshape(-1).tolist() == alloc.tolist()
    assert transport_cost_image(sol, COST, dom).reshape(-1) == pytest.approx(
        tcost, rel=1e-15, abs=1e-15)


def test_transport_cost_image_single_arc():
    mu = line_measure([1.0, 0.0])
    nu = line_measure([0.0, 1.0])
    sol = solve_unbalanced(mu, nu, COST, AllocationSpec(lam=10.0))
    img = transport_cost_image(sol, COST, mu.domain)
    assert img.reshape(-1).tolist() == [1.0, -1.0]


def test_transport_cost_image_sums_to_zero():
    rng = np.random.default_rng(3)
    for _ in range(6):
        mu, nu = random_measure_pair(rng, dims=(4, 4))
        sol = solve_unbalanced(mu, nu, COST, AllocationSpec(lam=4.0), QUANT)
        img = transport_cost_image(sol, COST, mu.domain)
        total_cost = sum(
            m * ((np.array(divmod(i, 4)) - np.array(divmod(j, 4))) ** 2).sum()
            for i, j, m in plan_masses(sol)
        )
        assert abs(img.sum()) <= 1e-9 * max(total_cost, 1.0)


def test_smooth_sigma_zero_is_identity():
    rng = np.random.default_rng(4)
    f = rng.standard_normal((5, 7))
    assert np.array_equal(smooth(f, 0.0), f)


def test_smooth_preserves_constants():
    f = np.full((6, 6), 3.25)
    out = smooth(f, 1.0, truncation_radius=3)
    assert np.allclose(out, f, rtol=0, atol=1e-12)


def test_smooth_delta_profile_matches_kernel():
    # frozen oracle: direct kernel evaluation, sigma=1, radius 3; the delta
    # sits deep enough that no affected voxel needs boundary renormalization
    weights = np.exp(-np.arange(4) ** 2 / 2.0)  # exp(0), exp(-.5), exp(-2), exp(-4.5)
    full = np.concatenate([weights[::-1][:-1], weights])
    expected = full / full.sum()
    f = np.zeros((1, 13))
    f[0, 6] = 1.0
    out = smooth(f, 1.0, truncation_radius=3)
    assert np.allclose(out[0, 3:10], expected, rtol=1e-12)
    assert not out[0, :3].any() and not out[0, 10:].any()


def test_smooth_boundary_renormalization_boosts_edge():
    # a delta right at the edge keeps unit total thanks to renormalization
    f = np.zeros((1, 13))
    f[0, 0] = 1.0
    out = smooth(f, 1.0, truncation_radius=3)
    assert out[0, 0] > smooth(np.eye(1, 13, 6), 1.0, truncation_radius=3)[0, 6]


def test_smooth_preserves_interior_sum():
    # exact only when the support sits two radii from every boundary, so the
    # smeared mass itself never needs renormalization
    rng = np.random.default_rng(5)
    f = np.zeros((16, 16))
    f[6:10, 6:10] = rng.standard_normal((4, 4))
    out = smooth(f, 1.0, truncation_radius=3)
    assert out.sum() == pytest.approx(f.sum(), rel=1e-12, abs=1e-12)


def test_smoothed_lambda_zero_equals_smoothed_difference():
    rng = np.random.default_rng(6)
    mu, nu = random_measure_pair(rng, dims=(4, 4))
    sol = solve_unbalanced(mu, nu, COST, AllocationSpec(lam=0.0), QUANT)
    allocation, _ = extract_features(sol, COST, mu.domain, sigma=1.0)
    expected = smooth(mu.values - nu.values, 1.0)
    assert np.max(np.abs(allocation - expected)) <= 2 * sol.mass_per_unit


def test_extract_features_unsmoothed():
    mu = line_measure([1.0, 0.0])
    nu = line_measure([0.0, 1.0])
    sol = solve_unbalanced(mu, nu, COST, AllocationSpec(lam=10.0))
    allocation, transport_cost = extract_features(sol, COST, mu.domain, sigma=0.0)
    assert transport_cost.reshape(-1).tolist() == [1.0, -1.0]
    assert allocation.reshape(-1).tolist() == [0.0, 0.0]
