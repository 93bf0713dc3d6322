import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    line_measure,
    pairwise_costs,
    plan_solution,
    record_coarsened,
    same_solution,
)
from test_solver_version import _blob_pairs
from uotmorph.errors import InfeasibleError
from uotmorph.grid import GridDomain, GridMeasure, downsample, voxel_positions
from uotmorph.solver import (
    AllocationSpec,
    CostSpec,
    QuantizationSpec,
    feasibility_violation_units,
    solve_multiscale,
    solve_unbalanced,
)
from uotmorph.solver import multiscale, network, simplex, ssp
from uotmorph.solver.multiscale import _admitted_pairs, _feeder
from uotmorph.solver.specs import (
    ARC_ADD_SRC,
    ARC_REM_SRC,
    ARC_TRANSPORT,
    axis_gap_tables,
    quantized_masses,
    sum_axis_gaps,
    voxel_costs,
)

COST = CostSpec()
QUANT = QuantizationSpec(units=10**6)


def random_pair_on(rng, dims, spacing):
    """Random measure pair, each with about 70 % support, on a grid of the
    given spacing and a non-integer origin."""
    dom = GridDomain(dims=dims, spacing=spacing, origin=(0.1,) * len(dims))
    return tuple(GridMeasure(dom, rng.random(dims) * (rng.random(dims) < 0.7))
                 for _ in range(2))


def _pyramid_ran(*args, **kwargs):
    raise AssertionError("the multiscale pyramid ran")


# one level: a support within the threshold, or a lambda whose 2 lambda bound
# stays below the least squared step s_min^2 (lambda = 0 and 0.49 s_min^2)
@pytest.mark.parametrize("dims, spacing, lam, threshold", [
    ((4, 4), (1.0, 1.0), 2.0, 1000),
    ((6, 6, 6), (1.0, 1.0, 1.0), 0.0, 10),
    ((6, 5, 4), (1.3, 0.7, 1.9), 0.49 * 0.7**2, 10),
], ids=["below-threshold", "lambda-0-3d", "local-anisotropic"])
def test_passthrough_below_threshold_is_bit_identical(monkeypatch, dims, spacing, lam,
                                                      threshold):
    mu, nu = random_pair_on(np.random.default_rng(1), dims, spacing)
    alloc = AllocationSpec(lam=lam)
    exact = solve_unbalanced(mu, nu, COST, alloc, QUANT)
    monkeypatch.setattr(multiscale, "downsample", _pyramid_ran)
    monkeypatch.setattr(multiscale, "_admitted_pairs", _pyramid_ran)
    ms = solve_multiscale(mu, nu, COST, alloc, QUANT, coarsen_threshold=threshold)
    assert same_solution(ms, exact)


def _check_pyramid(monkeypatch, mu, nu, alloc, pyramid):
    """Solve with threshold 10 at radius 1: the pyramid runs as expected, a
    one-level solve is the exact solve, and a pyramid's is a feasible upper
    bound."""
    levels = record_coarsened(monkeypatch)
    ms = solve_multiscale(mu, nu, COST, alloc, QUANT, coarsen_threshold=10)
    exact = solve_unbalanced(mu, nu, COST, alloc, QUANT)
    assert bool(levels) == pyramid
    if not pyramid:
        assert same_solution(ms, exact)
    assert feasibility_violation_units(ms, mu.flat, nu.flat, QUANT.units) == 0
    assert ms.objective >= exact.objective - 1e-9 * max(1.0, exact.objective)


# radius 1 admits a 6 x 6 window of fine voxels under each coarse arc end.  On
# a unit 12 x 12 grid the 2 lambda stencil holds 29 offsets for 2 lambda just
# below 10, and 37 at 10, the first bound whose stencil exceeds the window
@pytest.mark.parametrize("lam, offsets, pyramid", [
    (math.nextafter(5.0, 0.0), 29, False), (5.0, 37, True),
], ids=["below-the-window", "past-the-window"])
def test_pyramid_runs_once_the_stencil_exceeds_the_window(monkeypatch, lam, offsets,
                                                          pyramid):
    rng = np.random.default_rng(1)
    mu, nu = (grid_measure((12, 12), rng.random(144) + 0.01) for _ in range(2))
    alloc = AllocationSpec(lam=lam)
    stencil = network._stencil(mu.domain, network.prune_bound(COST, alloc, mu.domain))
    assert len(stencil[0]) == offsets
    _check_pyramid(monkeypatch, mu, nu, alloc, pyramid)


def test_inner_box_counts_only_offsets_within_the_bound(monkeypatch):
    # each axis step of this grid costs l, and (l + l) + l rounds up, so at a
    # bound just below that sum the 19 offsets with at most two unit steps
    # stay.  Every axis step is within bound / 3, whose box holds 27 offsets:
    # only its corner sum, above the bound, keeps it from counting past the
    # 6 x 2 x 2 window of radius 1
    step = 2.0562400459231043
    dom = GridDomain(dims=(7, 2, 2), spacing=(step,) * 3, origin=(0.0,) * 3)
    least = [min(np.diagonal(t, 1)) for t in axis_gap_tables(dom)]
    bound = math.nextafter(float(sum_axis_gaps(least)), 0.0)
    assert len(network._stencil(dom, bound)[0]) == 19
    assert [len(c) for c in network._axis_candidates(dom, bound / 3)] == [3, 3, 3]
    rng = np.random.default_rng(3)
    mu, nu = (GridMeasure(dom, rng.random((7, 2, 2)) + 0.01) for _ in range(2))
    _check_pyramid(monkeypatch, mu, nu, AllocationSpec(lam=bound / 2), False)


# a stencil is symmetric, so its odd count never equals the even window of a
# grid wider than the window; the target support can: 36 target voxels fill the
# 6 x 6 window, so admission cannot restrict them, and 37 do not
@pytest.mark.parametrize("support, pyramid", [(36, False), (37, True)])
def test_pyramid_runs_once_the_target_support_exceeds_the_window(monkeypatch, support,
                                                                 pyramid):
    rng = np.random.default_rng(2)
    z = np.zeros(144)
    z[rng.choice(144, support, replace=False)] = rng.random(support) + 0.01
    mu, nu = grid_measure((12, 12), rng.random(144) + 0.01), grid_measure((12, 12), z)
    _check_pyramid(monkeypatch, mu, nu, AllocationSpec(lam=50.0), pyramid)


# the 2 lambda bound of a 48^3 pair keeps one offset at lambda = 0 and 789k
# at lambda = 2000; the boxes of axis gaps decide every level without listing
# them, down to 6^3 at lambda = 2000 and at once at lambda = 0
@pytest.mark.parametrize("lam, coarsened, coarsest", [
    (0.0, [], (48, 48, 48)),
    (2000.0, [(48, 48, 48), (24, 24, 24), (12, 12, 12)], (6, 6, 6)),
])
def test_coarsening_a_large_grid_lists_no_stencil(monkeypatch, lam, coarsened,
                                                  coarsest):
    (mu, nu), = _blob_pairs(1, 1, (48, 48, 48))
    levels = record_coarsened(monkeypatch)

    class Solved(Exception):
        pass

    def solve_coarsest(coarse_mu, *args):
        raise Solved(coarse_mu.domain.dims)

    monkeypatch.setattr(multiscale, "solve_unbalanced", solve_coarsest)
    calls = network._stencil.cache_info()
    with pytest.raises(Solved) as solved:
        solve_multiscale(mu, nu, COST, AllocationSpec(lam=lam), QUANT)
    assert solved.value.args[0] == coarsest
    after = network._stencil.cache_info()
    assert (after.hits, after.misses) == (calls.hits, calls.misses)
    assert levels[::2] == coarsened


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_bound_without_transport_arcs_builds_no_pyramid(data):
    # where the builder, on full supports, keeps no pair of distinct voxels,
    # no admission can restrict the network: even the smallest window and
    # threshold build no pyramid, and the solve is the exact one
    ndim = data.draw(st.sampled_from([2, 3]))
    dims = tuple(data.draw(st.lists(st.integers(1, 5), min_size=ndim, max_size=ndim)))
    spacing = data.draw(st.lists(st.floats(0.3, 3.0), min_size=ndim, max_size=ndim))
    origin = data.draw(st.lists(st.floats(-20.0, 20.0), min_size=ndim, max_size=ndim))
    dom = GridDomain(dims=dims, spacing=spacing, origin=origin)
    steps = [t[i, i + 1] for t in axis_gap_tables(dom) for i in range(len(t) - 1)]
    least = min(steps, default=1.0)
    # around half the least squared step, and that half exactly, where
    # 2 lambda equals one pair's cost
    lam = data.draw(st.sampled_from([0.0, 0.2, 0.49, 0.5, 0.51, 3.0, math.inf])
                    .map(lambda f: f * least) | st.just(least / 2))
    alloc = AllocationSpec(lam=lam)
    every = np.arange(dom.size)
    src, tgt, _ = network._matrix_pairs(dom, every, every,
                                        network.prune_bound(COST, alloc, dom))
    if not np.all(src == tgt):
        return
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mu, nu = (GridMeasure(dom, rng.random(dims) + 0.01) for _ in range(2))
    if math.isinf(lam):
        # balanced transport needs equal totals
        nu = GridMeasure(dom, nu.values * (mu.total_mass / nu.total_mass))
    exact = solve_unbalanced(mu, nu, COST, alloc, QUANT)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(multiscale, "downsample", _pyramid_ran)
        ms = solve_multiscale(mu, nu, COST, alloc, QUANT, coarsen_threshold=0,
                              neighborhood_radius=0)
    assert same_solution(ms, exact)


def test_one_level_solves_are_the_exact_solve():
    # a seeded fuzz over grids, radii and lambdas on both sides of the stop:
    # a solve that builds no pyramid is the exact solve, bit for bit, and one
    # that builds a pyramid is a feasible upper bound
    rng = np.random.default_rng(11)
    outcomes = set()
    for case in range(60):
        ndim = 2 + case % 2
        dims = tuple(int(d) for d in rng.integers(2, 13 if ndim == 2 else 7, size=ndim))
        mu, nu = random_pair_on(rng, dims, tuple(rng.uniform(0.3, 2.0, ndim)))
        max_cost = COST.max_on_domain(mu.domain)
        lam = float(rng.choice([0.0, 0.02 * max_cost, 0.2 * max_cost, math.inf]))
        if math.isinf(lam):
            nu = GridMeasure(nu.domain, nu.values * (mu.total_mass / nu.total_mass))
        alloc = AllocationSpec(lam=lam)
        with pytest.MonkeyPatch.context() as patch:
            levels = record_coarsened(patch)
            ms = solve_multiscale(mu, nu, COST, alloc, QUANT, coarsen_threshold=8,
                                  neighborhood_radius=int(rng.integers(3)))
        exact = solve_unbalanced(mu, nu, COST, alloc, QUANT)
        outcomes.add(bool(levels))
        if not levels:
            assert same_solution(ms, exact)
        assert feasibility_violation_units(ms, mu.flat, nu.flat, QUANT.units) == 0
        assert ms.objective >= exact.objective - 1e-9 * max(1.0, exact.objective)
    assert outcomes == {False, True}


def test_identity_zero_at_every_scale():
    rng = np.random.default_rng(2)
    dom = GridDomain(dims=(16, 16), spacing=(1.0, 1.0), origin=(0.0, 0.0))
    m = GridMeasure(dom, rng.random((16, 16)) + 0.01)
    for threshold in (10, 50, 1000):
        sol = solve_multiscale(
            m, m, COST, AllocationSpec(lam=5.0), QUANT, coarsen_threshold=threshold
        )
        assert sol.objective == 0.0


def test_multiscale_within_tolerance_of_exact():
    rng = np.random.default_rng(3)
    dom = GridDomain(dims=(16, 16), spacing=(1.0, 1.0), origin=(0.0, 0.0))
    for trial in range(5):
        w = rng.random((16, 16)) * (rng.random((16, 16)) < 0.8)
        z = rng.random((16, 16)) * (rng.random((16, 16)) < 0.8)
        mu, nu = GridMeasure(dom, w), GridMeasure(dom, z)
        alloc = AllocationSpec(lam=30.0)
        exact = solve_unbalanced(mu, nu, COST, alloc, QUANT)
        ms = solve_multiscale(
            mu, nu, COST, alloc, QUANT, coarsen_threshold=40, neighborhood_radius=1
        )
        assert ms.objective >= exact.objective - 1e-9 * max(1.0, exact.objective)
        assert ms.objective <= exact.objective * 1.05


def test_multiscale_radius_widens_admission():
    rng = np.random.default_rng(4)
    dom = GridDomain(dims=(16, 16), spacing=(1.0, 1.0), origin=(0.0, 0.0))
    w = rng.random((16, 16))
    z = rng.random((16, 16))
    mu, nu = GridMeasure(dom, w), GridMeasure(dom, z)
    alloc = AllocationSpec(lam=30.0)
    exact = solve_unbalanced(mu, nu, COST, alloc, QUANT)
    objs = [
        solve_multiscale(
            mu, nu, COST, alloc, QUANT, coarsen_threshold=40, neighborhood_radius=r
        ).objective
        for r in (0, 1, 2)
    ]
    # wider neighborhoods can only improve the restriction
    assert objs[1] <= objs[0] + 1e-9
    assert objs[2] <= objs[1] + 1e-9
    assert objs[2] >= exact.objective - 1e-9 * max(1.0, exact.objective)


def test_infeasible_restricted_level_falls_back_to_exact(monkeypatch):
    # at lambda = inf the pairs the 2x2 coarse plan admits at radius 0
    # cannot route 7 units: the restricted solve removes 2 of them and adds
    # them elsewhere through the bank, which extract_solution rejects, and
    # the level is solved exactly
    dom = GridDomain(dims=(4, 4), spacing=(1.0, 1.0), origin=(0.0, 0.0))
    mu = GridMeasure(dom, np.array(
        [[0, 2, 1, 2], [1, 0, 2, 0], [0, 2, 2, 3], [1, 0, 0, 0]], dtype=float))
    nu = GridMeasure(dom, np.array(
        [[0, 2, 3, 1], [2, 1, 2, 1], [1, 0, 0, 1], [0, 1, 0, 1]], dtype=float))
    alloc, quant = AllocationSpec(lam=math.inf), QuantizationSpec(7)
    banked = []
    extract = network.extract_solution

    def restricted_extract(problem, flows):
        try:
            return extract(problem, flows)
        except InfeasibleError:
            banked.append([int(flows[problem.arc_kind == kind].sum())
                           for kind in (ARC_ADD_SRC, ARC_REM_SRC)])
            raise

    monkeypatch.setattr(network, "extract_solution", restricted_extract)
    ms = solve_multiscale(mu, nu, COST, alloc, quant,
                          coarsen_threshold=4, neighborhood_radius=0)
    exact = solve_unbalanced(mu, nu, COST, alloc, quant)
    assert banked == [[2, 2]]
    assert np.array_equal(ms.plan_arcs, exact.plan_arcs)
    assert len(ms.allocation) == 0 and np.array_equal(ms.allocation, exact.allocation)
    assert ms.objective == 11.428571428571427


def test_feeder_follows_the_largest_coarse_inflow():
    # coarse 2x2 over fine 4x4: cell 3 gets most of its mass from cell 0,
    # cell 1 keeps most of its own, cells 0 and 2 receive nothing
    plan = ((0, 3, 4), (1, 1, 2), (2, 1, 1), (3, 3, 2))
    feeder = _feeder(plan_solution(plan), (2, 2), (4, 4))
    expected = np.arange(16).reshape(4, 4)
    expected[2:, 2:] = expected[:2, :2]
    assert feeder.tolist() == expected.ravel().tolist()

    # 3x3 fine under 2x2 coarse: a shift into the partial cell 1 falls off
    # the grid for voxels in its missing column
    plan = ((1, 0, 2),)
    feeder = _feeder(plan_solution(plan), (2, 2), (3, 3))
    assert feeder.reshape(3, 3).tolist() == [[2, 1, 2], [5, 4, 5], [6, 7, 8]]

    # an empty plan leaves every voxel to its own self arc
    assert _feeder(plan_solution([]), (2, 2), (3, 3)).tolist() == list(range(9))


def _units(mu, nu):
    """Per voxel, the flow units of ``mu`` and of ``nu``."""
    return quantized_masses(mu.flat, nu.flat, QUANT.units)[:2]


def _target_nodes(problem, mu, nu):
    """Voxel -> node of the target side, from the builder's node order:
    sites (voxels with units on either side), then targets (with units)."""
    w_units, z_units = _units(mu, nu)
    n_src = np.count_nonzero((w_units > 0) | (z_units > 0))
    tgt_voxels = np.flatnonzero(z_units > 0)
    return dict(zip(tgt_voxels.tolist(), range(n_src, n_src + len(tgt_voxels))))


def _check_fed_solve(mu, nu, alloc, problem):
    """The warm-started restricted solve matches SSP on the same network; it
    is feasible and upper-bounds the exact optimum, unless it is balanced and
    the restricted arcs route mass through the bank."""
    flows, objective, _ = simplex.solve_min_cost_flow(problem)
    assert objective == pytest.approx(ssp.solve_min_cost_flow(problem)[1],
                                      rel=1e-9, abs=1e-12)
    if problem.balanced and flows[problem.arc_kind != ARC_TRANSPORT].any():
        with pytest.raises(InfeasibleError, match="needs allocation"):
            network.extract_solution(problem, flows)
        return
    sol = network.extract_solution(problem, flows)
    assert feasibility_violation_units(sol, mu.flat, nu.flat, QUANT.units) == 0
    exact = solve_unbalanced(mu, nu, COST, alloc, QUANT)
    assert sol.objective >= exact.objective * (1 - 1e-9)


def test_feeder_falls_back_to_self_arc():
    w = [3.0, 0.0, 1.0, 0.0, 0.0, 2.0]
    z = [0.0, 2.0, 0.0, 1.0, 2.0, 1.0]
    mu, nu = line_measure(w), line_measure(z)
    alloc = AllocationSpec(lam=2.0)  # prunes pairs farther apart than 2
    pairs = [(i, j) for i in range(6) for j in range(6) if i != j and (i, j) != (2, 3)]
    allowed = tuple(np.array(col) for col in zip(*pairs))
    feeder = np.arange(6)
    feeder[1] = 0  # built and admitted
    feeder[3] = 2  # within the pruning bound, but not admitted
    feeder[4] = 3  # zero-mass source
    feeder[5] = 0  # admitted, but pruned by the 2-lambda rule
    problem = network.build_unbalanced_problem(
        mu, nu, COST, alloc, QUANT, allowed_pairs=allowed, feeder=feeder
    )
    node = _target_nodes(problem, mu, nu)
    _, vox_a, vox_b = problem.arc_voxels(problem.basis[list(node.values())])
    hung = {v: (int(a), int(b)) for v, a, b in zip(node, vox_a, vox_b)}
    assert hung == {1: (0, 1), 3: (3, 3), 4: (4, 4), 5: (5, 5)}
    _check_fed_solve(mu, nu, alloc, problem)


@st.composite
def fed_cases(draw):
    dims = draw(st.sampled_from([(1, 5), (3, 3), (2, 2, 2)]))
    dom = GridDomain(dims=dims, spacing=(1.0,) * len(dims), origin=(0.0,) * len(dims))
    size = int(np.prod(dims))
    # masses of 1e-13 quantize to no unit
    masses = st.lists(st.sampled_from([0.0, 1e-13, 1.0, 2.0, 3.0, 4.0]),
                      min_size=size, max_size=size)
    w = np.array(draw(masses))
    z = np.array(draw(masses))
    assume(w.sum() >= 1 and z.sum() >= 1)
    lam = draw(st.sampled_from([0.0, 0.6, 2.0, 50.0, math.inf]))
    if math.isinf(lam):
        # balanced transport: nu rescaled to the mass of mu
        z *= w.sum() / z.sum()
    alloc = AllocationSpec(lam=lam)
    feeder = None
    if draw(st.booleans()):
        feeder = np.array(
            draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size))
        )
    allowed = None
    if draw(st.booleans()):
        keep = draw(st.lists(st.booleans(), min_size=size * size, max_size=size * size))
        keys = np.flatnonzero(keep)
        allowed = (keys // size, keys % size)
    mu = GridMeasure(dom, w.reshape(dims))
    nu = GridMeasure(dom, z.reshape(dims))
    return mu, nu, alloc, feeder, allowed


@given(case=fed_cases())
@settings(max_examples=100, deadline=None)
def test_feeder_arcs_or_self_arcs_start_a_feasible_solve(case):
    mu, nu, alloc, feeder, allowed = case
    problem = network.build_unbalanced_problem(
        mu, nu, COST, alloc, QUANT, allowed_pairs=allowed, feeder=feeder
    )
    # every node but the bank has units, and hangs by an arc from the bank,
    # the root
    bank = problem.n_nodes - 1
    w_units, z_units = _units(mu, nu)
    voxel = problem.node_voxel[:bank]
    assert ((w_units + z_units)[voxel] > 0).all() and problem.node_voxel[bank] == -1
    assert np.flatnonzero(problem.basis < 0).tolist() == [bank]
    assert simplex._start(problem)[0] == bank
    kind, vox_a, vox_b = problem.arc_voxels()
    transport = kind == ARC_TRANSPORT
    for v, n in _target_nodes(problem, mu, nu).items():
        assert -problem.supplies[n] == z_units[v] > 0
        a = problem.basis[n]
        built = transport & (vox_b == v)
        want = v
        if feeder is not None and (built & (vox_a == feeder[v])).any():
            want = feeder[v]
        assert transport[a] and vox_b[a] == v
        assert vox_a[a] == want
    _check_fed_solve(mu, nu, alloc, problem)


def brute_admitted_pairs(arcs, coarse_dims, fine_domain, radius, prune_bound=math.inf):
    """Every fine pair whose coarse cells lie within radius of one arc's ends and
    have some child pair costing at most prune_bound (relative margin 1e-9)."""
    fine_dims = fine_domain.dims
    n = int(np.prod(fine_dims))
    cell = np.array(np.unravel_index(np.arange(n), fine_dims)).T // 2
    # per coarse cell pair, the least cost over all pairs of their children
    cell_id = np.ravel_multi_index(cell.T, coarse_dims)
    pos = voxel_positions(fine_domain, np.arange(n))
    least = np.full((int(np.prod(coarse_dims)),) * 2, np.inf)
    np.minimum.at(least, (cell_id[:, None], cell_id[None, :]), pairwise_costs(pos, pos))
    pairs = set()
    for sc, tc in arcs:
        near = [np.flatnonzero(np.abs(cell - np.unravel_index(c, coarse_dims)).max(1)
                               <= radius) for c in (sc, tc)]
        pairs.update((int(i), int(j)) for i in near[0] for j in near[1]
                     if least[cell_id[i], cell_id[j]] <= prune_bound * (1 + 1e-9))
    return sorted(pairs)


def grid_measure(dims, values):
    """Measure with the given values (booleans are unit masses) on a unit grid."""
    dom = GridDomain(dims=dims, spacing=(1.0,) * len(dims), origin=(0.0,) * len(dims))
    return GridMeasure(dom, np.asarray(values, dtype=float).reshape(dims))


# radius 4 spans every coarse grid drawn here and 10**6 exercises the clamp
@pytest.mark.parametrize("radius", [0, 1, 2, 4, 10**6])
@pytest.mark.parametrize("ndim", [2, 3])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_admitted_pairs_match_brute_force(ndim, radius, data):
    # odd fine dims leave boundary coarse cells with clipped children; the
    # bounds include 0 (one cell only), the unit grid's costs 1 and 5 exactly,
    # values between them, and none
    odd = st.integers(1, 4 if ndim == 2 else 3).map(lambda k: 2 * k - 1)
    fine_dims = tuple(data.draw(st.lists(odd, min_size=ndim, max_size=ndim)))
    bound = data.draw(st.sampled_from([0.0, 1.0, 2.5, 5.0, 10.5, math.inf]))
    coarse_dims = tuple((d + 1) // 2 for d in fine_dims)
    cells = st.integers(0, int(np.prod(coarse_dims)) - 1)
    arcs = data.draw(st.lists(st.tuples(cells, cells), max_size=6, unique=True))
    n = int(np.prod(fine_dims))
    # all-false, all-true or random: the subsets include empty and full supports
    subset = st.one_of(st.just([False] * n), st.just([True] * n),
                       st.lists(st.booleans(), min_size=n, max_size=n))
    in_src, in_tgt = data.draw(subset), data.draw(subset)
    sol = plan_solution([(s, t, 1) for s, t in arcs])
    mu, nu = grid_measure(fine_dims, in_src), grid_measure(fine_dims, in_tgt)
    src, tgt = _admitted_pairs(sol, coarse_dims, mu, nu, radius, bound)
    assert src.dtype == tgt.dtype == np.int64
    assert list(zip(src.tolist(), tgt.tolist())) == [
        (i, j) for i, j in brute_admitted_pairs(arcs, coarse_dims, mu.domain, radius,
                                                bound)
        if in_src[i] and in_tgt[j]]


def test_admitted_pairs_of_an_empty_plan():
    full = grid_measure((5, 5), [True] * 25)
    src, tgt = _admitted_pairs(plan_solution([]), (3, 3), full, full, 1, math.inf)
    assert src.dtype == tgt.dtype == np.int64
    assert len(src) == len(tgt) == 0


@st.composite
def refinement_cases(draw):
    ndim = draw(st.sampled_from([2, 3]))
    odd = st.integers(1, 4 if ndim == 2 else 3).map(lambda k: 2 * k - 1)
    dims = tuple(draw(st.lists(odd, min_size=ndim, max_size=ndim)))
    size = int(np.prod(dims))
    # anisotropic, non-unit spacing and non-integer origins, unit grids too
    spacing = draw(st.lists(st.sampled_from([0.3, 0.7, 1.0, 1.9, 2.5]),
                            min_size=ndim, max_size=ndim))
    origin = draw(st.lists(st.sampled_from([-3.7, 0.0, 0.1, 12.35]),
                           min_size=ndim, max_size=ndim))
    dom = GridDomain(dims=dims, spacing=spacing, origin=origin)
    # integer masses with zeros leave holes in both supports
    w = np.array(draw(st.lists(st.integers(0, 3), min_size=size, max_size=size)),
                 dtype=float)
    lam = draw(st.sampled_from([0.0, 0.6, "exact", 50.0, math.inf]))
    if lam == "exact":
        # 2 lambda is exactly the cost of one pair of distinct voxels
        assume(size > 1)
        pair = draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2,
                             unique=True))
        lam = voxel_costs(dom, pair[:1], pair[1:])[0] / 2
    if math.isinf(lam):
        # balanced transport needs equal totals: move the same masses around
        z = np.array(draw(st.permutations(w.tolist())))
    else:
        z = np.array(draw(st.lists(st.integers(0, 3), min_size=size, max_size=size)),
                     dtype=float)
    assume(w.sum() > 0 and z.sum() > 0)
    radius = draw(st.sampled_from([0, 1, 2]))
    mu, nu = (GridMeasure(dom, v.reshape(dims)) for v in (w, z))
    return mu, nu, AllocationSpec(lam=lam), radius


@given(case=refinement_cases())
@settings(max_examples=60, deadline=None)
def test_support_pairs_build_the_full_grid_network(case):
    # restricting admission to the supports drops only pairs the builder
    # drops anyway, so the refinement network and its start are unchanged
    mu, nu, alloc, radius = case
    fine_dims = mu.domain.dims
    coarse_mu, coarse_nu = downsample(mu, 2), downsample(nu, 2)
    coarse_dims = coarse_mu.domain.dims
    sol = solve_unbalanced(coarse_mu, coarse_nu, COST, alloc, QUANT)
    feeder = _feeder(sol, coarse_dims, fine_dims)
    brute = np.array(brute_admitted_pairs(sol.plan_arcs[:, :2].tolist(), coarse_dims,
                                          mu.domain, radius), dtype=np.int64)
    problems = [
        network.build_unbalanced_problem(mu, nu, COST, alloc, QUANT,
                                         allowed_pairs=pairs, feeder=feeder)
        for pairs in (_admitted_pairs(sol, coarse_dims, mu, nu, radius, math.inf),
                      brute.reshape(-1, 2).T)
    ]
    assert_same_network(*problems)


def assert_same_network(new, old):
    for field in ("tails", "heads", "costs", "node_voxel", "supplies", "basis"):
        a, b = getattr(new, field), getattr(old, field)
        assert (a is None and b is None) or np.array_equal(a, b), field


@given(case=refinement_cases())
@settings(max_examples=80, deadline=None)
def test_bound_pruned_admission_builds_the_unpruned_network(case):
    # the 2-lambda coarse bound drops only pairs the builder prunes anyway
    mu, nu, alloc, radius = case
    coarse_mu, coarse_nu = downsample(mu, 2), downsample(nu, 2)
    coarse_dims = coarse_mu.domain.dims
    sol = solve_unbalanced(coarse_mu, coarse_nu, COST, alloc, QUANT)
    feeder = _feeder(sol, coarse_dims, mu.domain.dims)
    bound = network.prune_bound(COST, alloc, mu.domain)
    pruned, unpruned = (_admitted_pairs(sol, coarse_dims, mu, nu, radius, b)
                        for b in (bound, math.inf))
    assert len(pruned[0]) <= len(unpruned[0])
    assert_same_network(*(
        network.build_unbalanced_problem(mu, nu, COST, alloc, QUANT,
                                         allowed_pairs=pairs, feeder=feeder)
        for pairs in (pruned, unpruned)))


def test_bound_keeps_only_same_cell_pairs_at_lambda_zero():
    full = grid_measure((6, 6), [True] * 36)
    alloc = AllocationSpec(lam=0.0)
    every = plan_solution([(s, t, 1) for s in range(9) for t in range(9)])
    src, tgt = _admitted_pairs(every, (3, 3), full, full, 0,
                               network.prune_bound(COST, alloc, full.domain))
    cell = [np.ravel_multi_index(np.array(np.unravel_index(v, (6, 6))) // 2, (3, 3))
            for v in (src, tgt)]
    assert len(src) == 9 * 16 and np.array_equal(*cell)


def test_restricted_build_drops_zero_unit_sources_like_the_dense_build():
    # a voxel with mass but no flow unit is no transport source in either build
    w = np.ones(16)
    w[5] = 1e-12
    mu = grid_measure((4, 4), w)
    nu = grid_measure((4, 4), np.random.default_rng(6).random(16))
    alloc = AllocationSpec(lam=50.0)
    every = tuple(np.divmod(np.arange(256), 16))
    problems = [network.build_unbalanced_problem(mu, nu, COST, alloc, QUANT,
                                                 allowed_pairs=pairs)
                for pairs in (every, None)]

    def rows(p):
        return sorted(zip(*(column.tolist() for column in p.arc_voxels()),
                          p.costs.tolist()))

    transport = [int(np.count_nonzero(p.arc_kind == ARC_TRANSPORT)) for p in problems]
    assert transport == [241, 241]
    assert rows(problems[0]) == rows(problems[1])


def test_radius_beyond_the_grid_is_clamped():
    # a 3^3 coarse grid: radius 2 already admits every coarse pair, and so do
    # radius 3 and a huge radius, which must not build a huge window
    rng = np.random.default_rng(5)
    mu, nu = (grid_measure((5, 5, 5), rng.random(125) * (rng.random(125) < 0.7))
              for _ in range(2))
    alloc = AllocationSpec(lam=10.0)
    coarse = solve_unbalanced(downsample(mu, 2), downsample(nu, 2), COST, alloc, QUANT)
    bound = network.prune_bound(COST, alloc, mu.domain)
    spans, wide, huge = (_admitted_pairs(coarse, (3, 3, 3), mu, nu, r, bound)
                         for r in (2, 3, 10**6))
    assert len(spans[0]) > 0
    for pairs in (wide, huge):
        assert all(np.array_equal(a, b) for a, b in zip(pairs, spans))
