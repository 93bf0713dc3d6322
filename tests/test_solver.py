import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conftest import (
    allocated,
    dfs_start,
    line_measure,
    pairwise_costs,
    plan_masses,
    random_measure_pair,
    same_solution,
    thread_walk_potentials,
    time_limit,
)
from test_solver_version import _blob_pairs
from uotmorph.errors import DataError, InfeasibleError, SolverError
from uotmorph.grid import GridDomain, GridMeasure, voxel_positions
from uotmorph.solver import (
    AllocationSpec,
    CostSpec,
    QuantizationSpec,
    TransportSolution,
    export_solution,
    feasibility_violation_units,
    load_solution,
    quantize_to_total,
    solve_unbalanced,
)
from uotmorph.solver import multiscale, network, simplex, ssp
from uotmorph.solver.api import _run
from uotmorph.solver.specs import (
    ARC_ADD_SRC,
    ARC_REM_SRC,
    ARC_TRANSPORT,
    quantized_masses,
    voxel_costs,
)

COST = CostSpec()
QUANT = QuantizationSpec(units=10**7)
BALANCED = AllocationSpec(lam=math.inf)


def test_quantize_largest_remainder():
    out = quantize_to_total(np.array([1.0, 1.0, 1.0]), 10)
    assert out.sum() == 10
    assert sorted(out.tolist()) == [3, 3, 4]
    # first entry wins the remainder tie
    assert out.tolist() == [4, 3, 3]
    assert quantize_to_total(np.array([0.0, 0.0]), 0).tolist() == [0, 0]
    exact = quantize_to_total(np.array([2.0, 3.0, 5.0]), 10)
    assert exact.tolist() == [2, 3, 5]


def test_balanced_identity_is_diagonal():
    rng = np.random.default_rng(3)
    mu, _ = random_measure_pair(rng, dims=(3, 3))
    sol = solve_unbalanced(mu, mu, COST, BALANCED)
    assert sol.objective == 0.0
    assert all(i == j for i, j, _ in sol.plan_arcs)
    assert sol.gross_allocation() == 0


def test_balanced_two_voxel_line():
    mu = line_measure([1.0, 0.0])
    nu = line_measure([0.0, 1.0])
    sol = solve_unbalanced(mu, nu, COST, BALANCED)
    assert plan_masses(sol) == [(0, 1, 1.0)]
    assert sol.objective == pytest.approx(1.0, rel=1e-12)
    assert not allocated(sol, ARC_ADD_SRC) and not allocated(sol, ARC_REM_SRC)


def test_balanced_rejects_imbalance():
    # equal to 1e-9 relative, but 2**40 units resolve the difference
    mu = line_measure([1.0, 0.0])
    nu = line_measure([0.0, 1.0 + 5e-10])
    with pytest.raises(InfeasibleError, match="unbalanced quantized totals"):
        solve_unbalanced(mu, nu, COST, BALANCED, QuantizationSpec(units=2**40))


def test_balanced_requires_one_domain():
    mu = line_measure([1.0, 0.0])
    nu = line_measure([0.0, 0.0, 1.0])
    with pytest.raises(DataError, match="same domain"):
        solve_unbalanced(mu, nu, COST, BALANCED)


def test_balanced_matches_ssp_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        mu, nu = random_measure_pair(rng, dims=(4, 4))
        nu = GridMeasure(nu.domain, nu.values * (mu.total_mass / nu.total_mass))
        prob = network.build_unbalanced_problem(
            mu, nu, COST, AllocationSpec(lam=math.inf), QUANT
        )
        s1 = _run(prob, "simplex")
        s2 = _run(prob, "ssp")
        assert s1.objective == pytest.approx(s2.objective, rel=1e-9)


def highs_balanced_objective(mu, nu, units):
    """Balanced transport LP over the quantized unit masses, solved by HiGHS.

    Its variables are the source-target pairs of the two supports, with no
    bank, so it checks how the network's bank encodes balanced transport.
    """
    w, z, mass_per_unit = quantized_masses(mu.flat, nu.flat, units)
    src, tgt = np.flatnonzero(w), np.flatnonzero(z)
    cost = pairwise_costs(voxel_positions(mu.domain, src), voxel_positions(mu.domain, tgt))
    # row sums are the source masses, column sums the target masses
    marginals = np.vstack((np.kron(np.eye(len(src)), np.ones(len(tgt))),
                           np.kron(np.ones(len(src)), np.eye(len(tgt)))))
    result = linprog(cost.ravel(), A_eq=marginals, b_eq=np.concatenate((w[src], z[tgt])),
                     bounds=(0, None), method="highs")
    assert result.status == 0, result.message
    return result.fun * mass_per_unit


@pytest.mark.parametrize("units", [1, 7, 10**6])
def test_balanced_matches_highs_oracle(units):
    rng = np.random.default_rng(units)
    for dims in [(3, 3), (2, 2, 2), (2, 5)] * 8:
        ndim = len(dims)
        dom = GridDomain(dims=dims, spacing=tuple(rng.uniform(0.3, 2.0, ndim)),
                         origin=tuple(rng.uniform(-3.0, 3.0, ndim)))
        w, z = (rng.random(dims) * (rng.random(dims) < 0.8) for _ in range(2))
        w.flat[rng.integers(w.size)] += 0.1
        z.flat[rng.integers(z.size)] += 0.1
        mu, nu = GridMeasure(dom, w), GridMeasure(dom, z * (w.sum() / z.sum()))
        sol = solve_unbalanced(mu, nu, COST, BALANCED, QuantizationSpec(units))
        assert len(sol.allocation) == 0
        assert sol.objective == pytest.approx(
            highs_balanced_objective(mu, nu, units), rel=1e-9, abs=1e-12
        )


def test_unbalanced_prefers_transport_when_lambda_high():
    mu = line_measure([1.0, 0.0])
    nu = line_measure([0.0, 1.0])
    sol = solve_unbalanced(mu, nu, COST, AllocationSpec(lam=10.0))
    assert plan_masses(sol) == [(0, 1, 1.0)]
    assert sol.objective == pytest.approx(1.0, rel=1e-12)
    assert sol.gross_allocation() == 0.0


def test_unbalanced_prefers_allocation_when_lambda_low():
    # 2*lambda = 0.8 beats the transport cost of 1; exhaustive check of the
    # two candidate families (pure transport vs remove+add) freezes 0.8
    mu = line_measure([1.0, 0.0])
    nu = line_measure([0.0, 1.0])
    candidates = {"transport": 1.0, "reallocate": 2 * 0.4}
    expected = min(candidates.values())
    sol = solve_unbalanced(mu, nu, COST, AllocationSpec(lam=0.4))
    assert sol.objective == pytest.approx(expected, rel=1e-12)
    assert allocated(sol, ARC_REM_SRC) == {0: 1.0}
    assert allocated(sol, ARC_ADD_SRC) == {1: 1.0}
    assert all(i == j for i, j, _ in sol.plan_arcs)


def test_lambda_zero_reduces_to_pointwise_difference():
    rng = np.random.default_rng(5)
    for _ in range(10):
        mu, nu = random_measure_pair(rng, dims=(3, 3))
        sol = solve_unbalanced(mu, nu, COST, AllocationSpec(lam=0.0))
        # no transported mass off the diagonal
        assert all(i == j for i, j, _ in sol.plan_arcs)
        net = np.zeros(9)
        for vox, m in allocated(sol, ARC_ADD_SRC).items():
            net[vox] += m
        for vox, m in allocated(sol, ARC_REM_SRC).items():
            net[vox] -= m
        expected = nu.flat - mu.flat
        assert np.max(np.abs(net - expected)) <= 2 * sol.mass_per_unit


def test_unbalanced_matches_ssp_oracle_small():
    rng = np.random.default_rng(123)
    lams = [0.1, 1.0, 10.0]
    for trial in range(30):
        mu, nu = random_measure_pair(rng, dims=(3, 3))
        alloc = AllocationSpec(lam=lams[trial % 3])
        prob = network.build_unbalanced_problem(mu, nu, COST, alloc, QUANT)
        s1 = _run(prob, "simplex")
        s2 = _run(prob, "ssp")
        assert s1.objective == pytest.approx(s2.objective, rel=1e-9, abs=1e-15)
        assert feasibility_violation_units(s1, mu.flat, nu.flat, QUANT.units) == 0


def test_global_lambda_gross_allocation_equals_delta():
    rng = np.random.default_rng(42)
    dom = GridDomain(dims=(3, 3), spacing=(1.0, 1.0), origin=(0.0, 0.0))
    max_cost = COST.max_on_domain(dom)
    for _ in range(10):
        mu, nu = random_measure_pair(rng, dims=(3, 3))
        sol = solve_unbalanced(
            mu, nu, COST, AllocationSpec(lam=0.51 * max_cost + 1), QUANT
        )
        delta_units = abs(
            round(sol.delta / sol.mass_per_unit)
        )
        gross_units = round(sol.gross_allocation() / sol.mass_per_unit)
        assert abs(gross_units - delta_units) <= 1


def test_shift_insensitivity():
    # unit-mass blob shifted by k voxels: objective mass*k^2, no allocation,
    # while the pointwise difference has L1 norm 2*mass
    mass, k = 2.5, 3
    mu = line_measure([mass, 0, 0, 0, 0])
    nu = line_measure([0, 0, 0, mass, 0])
    sol = solve_unbalanced(mu, nu, COST, AllocationSpec(lam=100.0))
    assert sol.objective == pytest.approx(mass * k**2, rel=1e-9)
    assert sol.gross_allocation() == 0.0
    l1 = np.abs(mu.flat - nu.flat).sum()
    assert l1 == pytest.approx(2 * mass)


def test_objective_monotone_in_lambda():
    rng = np.random.default_rng(9)
    mu, nu = random_measure_pair(rng, dims=(3, 3))
    lams = [0.01, 0.1, 0.5, 1.0, 5.0, 25.0]
    objectives = [
        solve_unbalanced(mu, nu, COST, AllocationSpec(lam=l), QUANT).objective
        for l in lams
    ]
    for a, b in zip(objectives, objectives[1:]):
        assert b >= a - 1e-9 * max(1.0, abs(a))


def test_objective_and_feasible_plan_bound():
    mu = line_measure([1.0, 0.0])
    nu = line_measure([0.0, 1.0])
    assert solve_unbalanced(mu, mu, COST, AllocationSpec(lam=1.0)).objective == 0.0
    sol = solve_unbalanced(mu, nu, COST, AllocationSpec(lam=10.0))
    assert sol.objective == pytest.approx(1.0)
    # hand-built feasible plan: remove everything, add everything (cost 2*lam)
    lam = 3.0
    hand_cost = 2 * lam * 1.0
    sol = solve_unbalanced(mu, nu, COST, AllocationSpec(lam=lam))
    assert sol.objective <= hand_cost + 1e-12


def test_objective_below_any_feasible_plan():
    # the remove-all/add-all plan is feasible for every instance, so its cost
    # lambda * (|mu| + |nu|) upper-bounds the optimum
    rng = np.random.default_rng(31)
    for _ in range(10):
        mu, nu = random_measure_pair(rng, dims=(3, 3))
        lam = float(rng.uniform(0.05, 5.0))
        d = solve_unbalanced(mu, nu, COST, AllocationSpec(lam=lam), QUANT).objective
        # one quantization unit of slack: the nu-side total may round up
        bound = lam * (mu.total_mass + nu.total_mass + mu.total_mass / QUANT.units)
        assert d <= bound


def test_empty_measures():
    mu = line_measure([0.0, 0.0])
    with pytest.raises(InfeasibleError):
        solve_unbalanced(mu, mu, COST, AllocationSpec(lam=1.0))
    nu = line_measure([0.0, 2.0])
    sol = solve_unbalanced(mu, nu, COST, AllocationSpec(lam=1.5))
    assert allocated(sol, ARC_ADD_SRC) == {1: 2.0}
    assert sol.objective == pytest.approx(3.0)
    sol = solve_unbalanced(nu, mu, COST, AllocationSpec(lam=1.5))
    assert allocated(sol, ARC_REM_SRC) == {1: 2.0}


def test_infinite_lambda_requires_balance():
    mu = line_measure([1.0, 0.0])
    nu = line_measure([0.0, 2.0])
    with pytest.raises(InfeasibleError):
        solve_unbalanced(mu, nu, COST, AllocationSpec(lam=math.inf))
    nu2 = line_measure([0.0, 1.0])
    sol = solve_unbalanced(mu, nu2, COST, AllocationSpec(lam=math.inf))
    assert sol.objective == pytest.approx(1.0)


def assert_csv_round_trip(sol, path):
    """load_solution gives sol back, and exporting it again rewrites path exactly."""
    export_solution(sol, path)
    written = path.read_bytes()
    back = load_solution(path)
    assert back.plan_arcs.dtype == back.allocation.dtype == np.int64
    assert same_solution(back, sol)
    export_solution(back, path)
    assert path.read_bytes() == written


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1),
       lam=st.sampled_from([0.0, 0.7, math.inf]))
def test_solution_csv_round_trip(tmp_path, seed, lam):
    mu, nu = random_measure_pair(np.random.default_rng(seed), dims=(3, 3))
    if lam == math.inf:
        nu = GridMeasure(nu.domain, nu.values * (mu.total_mass / nu.total_mass))
    sol = solve_unbalanced(mu, nu, COST, AllocationSpec(lam=lam), QUANT)
    path = tmp_path / "sol.csv"
    assert_csv_round_trip(sol, path)
    assert path.read_text().splitlines()[0].startswith("# objective=")


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 99),
                               st.integers(0, 99), st.integers(1, 2**40))),
       mpu=st.floats(1e-12, 1e3))
def test_solution_csv_round_trip_every_row_kind(tmp_path, rows, mpu):
    rows = np.array(rows, dtype=np.int64).reshape(-1, 4)
    rows[rows[:, 0] != ARC_TRANSPORT, 2] = -1  # allocation rows have no target
    sol = TransportSolution.from_rows(rows, objective=1.5, delta=-0.25,
                                      mass_per_unit=mpu)
    assert_csv_round_trip(sol, tmp_path / "sol.csv")


def test_repr_prints_every_row():
    # numpy's own repr abbreviates arrays of more than 1000 elements
    rows = np.array([[ARC_TRANSPORT, k, k + 1, 1] for k in range(400)])
    sol = TransportSolution.from_rows(rows, objective=0.5)
    assert repr(sol) == (
        f"TransportSolution(plan_arcs={[[k, k + 1, 1] for k in range(400)]}, "
        "allocation=[], objective=0.5, delta=0.0, mass_per_unit=1.0)"
    )


GOOD_CSV = """# objective=1.0
# delta=0.5
# mass_per_unit=0.5
kind,source_index,target_index,mass
arc,0,1,1.0
add_src,1,,0.5
"""


def test_load_solution_reads_units(tmp_path):
    path = tmp_path / "sol.csv"
    path.write_text(GOOD_CSV)
    sol = load_solution(path)
    assert sol.plan_arcs.tolist() == [[0, 1, 2]]
    assert sol.allocation.tolist() == [[ARC_ADD_SRC, 1, 1]]
    assert (sol.objective, sol.delta, sol.mass_per_unit) == (1.0, 0.5, 0.5)


@pytest.mark.parametrize("row", [
    "",
    "arc,0,1",  # too few fields
    "arc,0,1,1.0,x",  # too many fields
    "add_src,-3,,0.5",  # negative index
    "arc,0.5,1,1.0",  # non-integer index
    "arc, 0,1,1.0",
    "arc,0,,1.0",  # transport row without a target
    "rem_src,1,2,0.5",  # allocation row with a target
    "mov,0,1,1.0",  # unknown kind
    "add_tgt,3,,1.0",  # target-side allocation: not a row kind
    "arc,0,1,nan",
    "arc,0,1,inf",
    "arc,0,1,0.0",
    "arc,0,1,-1.0",
    "arc,0,1,0.75",  # not a multiple of mass_per_unit
    "arc,0,1,one",
])
def test_load_solution_rejects_malformed_row(tmp_path, row):
    path = tmp_path / "sol.csv"
    path.write_text(GOOD_CSV + row + "\n")
    with pytest.raises(DataError, match=f"{path}, line 7"):
        load_solution(path)


@pytest.mark.parametrize("value", ["nan", "inf", "0.0", "-0.5", "half"])
def test_load_solution_rejects_bad_mass_per_unit(tmp_path, value):
    path = tmp_path / "sol.csv"
    path.write_text(GOOD_CSV.replace("mass_per_unit=0.5", f"mass_per_unit={value}"))
    with pytest.raises(DataError, match=str(path)):
        load_solution(path)


def test_marginal_feasibility_exact_in_units():
    rng = np.random.default_rng(2024)
    for _ in range(10):
        mu, nu = random_measure_pair(rng, dims=(4, 4))
        sol = solve_unbalanced(mu, nu, COST, AllocationSpec(lam=0.8), QUANT)
        # includes net allocation == delta, exactly in units
        assert feasibility_violation_units(sol, mu.flat, nu.flat, QUANT.units) == 0


def test_feasibility_violation_counts_units():
    rng = np.random.default_rng(8)
    mu, nu = random_measure_pair(rng, dims=(3, 3))
    sol = solve_unbalanced(mu, nu, COST, AllocationSpec(lam=0.8), QUANT)

    def violation(plan_arcs=sol.plan_arcs, allocation=sol.allocation):
        bad = dataclasses.replace(sol, plan_arcs=plan_arcs, allocation=allocation)
        return feasibility_violation_units(bad, mu.flat, nu.flat, QUANT.units)

    assert violation() == 0
    plan = sol.plan_arcs.copy()
    plan[0, 2] += 3
    assert violation(plan_arcs=plan) == 3
    for kind in (ARC_ADD_SRC, ARC_REM_SRC):
        extra = np.array([[kind, 4, 5]], dtype=np.int64)
        assert violation(allocation=np.vstack((sol.allocation, extra))) == 5


def flow_problem(n_nodes, arcs, supplies, basis=None):
    """Hand-built FlowProblem from (tail, head, cost) triples.

    With ``basis`` (-1 at the root) the problem has just these nodes and
    arcs.  Without, it gets a hub: one more node, with arcs to and from
    every node that cost more than any path, appended after the given arcs
    as (v, hub), (hub, v) for each node v.  Every node hangs from the hub
    by the one of its two arcs that carries its supply, the hub is the root.
    """
    tails, heads, costs = (list(column) for column in zip(*arcs)) if arcs else ([], [], [])
    supplies = list(supplies)
    if basis is None:
        hub = n_nodes
        big = 1.0 + n_nodes * max(map(abs, costs), default=1.0)
        basis = [len(tails) + 2 * v + (supply < 0) for v, supply in enumerate(supplies)]
        basis.append(-1)
        for v in range(n_nodes):
            tails += [v, hub]
            heads += [hub, v]
            costs += [big, big]
        n_nodes += 1
        supplies.append(0)
    return network.FlowProblem(
        n_nodes=n_nodes,
        tails=np.asarray(tails, dtype=np.int64),
        heads=np.asarray(heads, dtype=np.int64),
        costs=np.asarray(costs, dtype=np.float64),
        supplies=np.asarray(supplies, dtype=np.int64),
        node_voxel=np.arange(n_nodes, dtype=np.int64),
        mass_per_unit=1.0,
        delta_real=0.0,
        basis=np.asarray(basis, dtype=np.int64),
    )


def net_outflow(problem, flows):
    out = np.zeros(problem.n_nodes, dtype=np.int64)
    np.add.at(out, problem.tails, flows)
    np.subtract.at(out, problem.heads, flows)
    return out


def test_simplex_lone_root_without_arcs():
    flows, objective, basis = simplex.solve_min_cost_flow(
        flow_problem(1, [], [0], basis=[-1]))
    assert flows.dtype == np.int64 and len(flows) == 0
    assert objective == 0.0 and basis.tolist() == [-1]


def test_simplex_unbalanced_supplies_infeasible():
    with pytest.raises(InfeasibleError):
        simplex.solve_min_cost_flow(flow_problem(2, [(0, 1, 1.0)], [2, -1]))


def test_simplex_negative_forward_cycle_unbounded():
    problem = flow_problem(2, [(0, 1, -1.0), (1, 0, -1.0)], [0, 0])
    with pytest.raises(SolverError):
        simplex.solve_min_cost_flow(problem)


def test_simplex_leaving_arc_tie_goes_to_the_head_side():
    # tree: node 1 -> 0 and 0 -> 2, each carrying one unit, with node 0 the
    # root.  Entering arc 1 -> 2 closes a cycle whose tail-side (1 -> 0) and
    # head-side (0 -> 2) arcs both block at one unit; the head-side arc
    # leaves, so node 2 hangs from node 1 by arc 2.
    problem = flow_problem(3, [(1, 0, 1.0), (0, 2, 1.0), (1, 2, 0.0)], [0, 1, -1],
                           basis=[-1, 0, 1])
    flows, objective, basis = simplex.solve_min_cost_flow(problem)
    assert flows.tolist() == [0, 0, 1] and objective == 0.0
    assert basis.tolist() == [-1, 0, 2]


def pricing_block(e):
    return min(e, math.ceil(simplex.BLOCK_FACTOR * math.sqrt(e)))


def assert_matches_ssp(n_src, n_tgt, extra, seed):
    """Random costs and supplies on all source-target pairs plus ``extra``,
    solved from the hub's star basis; returns the number of arcs."""
    rng = np.random.default_rng(seed)
    pairs = [(s, t) for s in range(n_src) for t in range(n_src, n_src + n_tgt)]
    pairs += extra
    for _ in range(100):
        costs = rng.integers(0, 10, size=len(pairs)).astype(float)
        arcs = [(s, t, c) for (s, t), c in zip(pairs, costs)]
        supply = rng.integers(0, 6, size=n_src)
        demand = rng.multinomial(supply.sum(), [1 / n_tgt] * n_tgt)
        problem = flow_problem(n_src + n_tgt, arcs, [*supply, *(-demand)])
        flows, objective, _ = simplex.solve_min_cost_flow(problem)
        assert (net_outflow(problem, flows) == problem.supplies).all()
        assert not flows[len(arcs):].any()  # the hub's arcs stay empty
        assert objective == pytest.approx(
            ssp.solve_min_cost_flow(problem)[1], rel=1e-12, abs=1e-12
        )
    return problem.n_arcs


def test_simplex_wrapped_pricing_block_matches_ssp():
    # 48 arcs (30 and the hub's 18) in blocks shorter than 48 that do not
    # divide it: the last scan prices ceil(48 / block) blocks, more than 48
    # arcs in a row, so at least one block wraps past the last arc
    extra = [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2),
             (4, 5), (6, 5), (7, 8), (8, 7), (6, 7)]
    e = assert_matches_ssp(4, 5, extra, seed=5)
    assert e == 48 and pricing_block(e) < e and e % pricing_block(e) != 0


def test_simplex_capped_pricing_block_matches_ssp():
    # 15 arcs (7 and the hub's 8): the block is capped at the whole arc list
    e = assert_matches_ssp(2, 2, [(0, 1), (2, 3), (3, 2)], seed=5)
    assert e == 15 and math.ceil(simplex.BLOCK_FACTOR * math.sqrt(e)) > e


def test_simplex_flows_exact_at_max_units():
    quant = QuantizationSpec(units=2**40)
    rng = np.random.default_rng(40)
    mu, nu = random_measure_pair(rng, dims=(4, 4))
    alloc = AllocationSpec(lam=0.8)
    problem = network.build_unbalanced_problem(mu, nu, COST, alloc, quant)
    flows, _, _ = simplex.solve_min_cost_flow(problem)
    assert (net_outflow(problem, flows) == problem.supplies).all()
    sol = solve_unbalanced(mu, nu, COST, alloc, quant)
    assert feasibility_violation_units(sol, mu.flat, nu.flat, quant.units) == 0


@pytest.mark.parametrize("basis, roots", [([0, 1], 0), ([-1, -1], 2)])
def test_simplex_rejects_basis_without_one_root(basis, roots):
    problem = flow_problem(2, [(0, 1, 1.0), (1, 0, 1.0)], [1, -1], basis=basis)
    with pytest.raises(SolverError, match=f"basis has {roots} roots"):
        simplex.solve_min_cost_flow(problem)


def test_simplex_rejects_basis_with_cycle():
    # node 0 hangs from node 1 and node 1 from node 0; node 2 is the root
    problem = flow_problem(3, [(0, 1, 1.0), (1, 0, 1.0)], [1, -1, 0], basis=[0, 1, -1])
    with pytest.raises(SolverError, match="node 0 does not reach the root"):
        simplex.solve_min_cost_flow(problem)


def test_simplex_rejects_basis_with_negative_flow():
    # node 1 (demand 1) would have to send its subtree supply up arc 1 -> 0
    problem = flow_problem(2, [(1, 0, 1.0), (0, 1, 1.0)], [1, -1], basis=[-1, 0])
    with pytest.raises(SolverError, match="negative flow -1 on the arc of node 1"):
        simplex.solve_min_cost_flow(problem)


def test_simplex_rejects_zero_flow_arc_away_from_root():
    arcs = [(0, 1, 1.0), (2, 0, 1.0)]
    with pytest.raises(SolverError, match="zero-flow arc of node 1 points away"):
        simplex.solve_min_cost_flow(flow_problem(3, arcs, [0, 0, 0], basis=[-1, 0, 1]))
    # zero-flow arcs pointing up (0 -> 1 to root 1, 2 -> 0) are accepted
    flows, objective, _ = simplex.solve_min_cost_flow(
        flow_problem(3, arcs, [0, 0, 0], basis=[0, -1, 1]))
    assert flows.tolist() == [0, 0] and objective == 0.0


def test_simplex_rejects_basis_arc_not_at_node():
    arcs = [(0, 1, 1.0)]
    with pytest.raises(SolverError, match="arc 0 of node 2 does not touch it"):
        simplex.solve_min_cost_flow(flow_problem(3, arcs, [1, -1, 0], basis=[-1, 0, 0]))
    with pytest.raises(SolverError, match="node 2 names no arc"):
        simplex.solve_min_cost_flow(flow_problem(3, arcs, [1, -1, 0], basis=[-1, 0, 1]))


def test_simplex_stops_when_every_cost_is_below_minus_one():
    # the stopping tolerance scales with the largest |cost|: scaled by the
    # largest cost, -2 here, it turns positive, and a tree arc, which prices
    # at 0, enters again and again
    problem = flow_problem(3, [(0, 1, -2.0), (1, 2, -2.0), (0, 2, -3.0)], [1, 0, -1],
                           basis=[2, 1, -1])
    with time_limit(5):
        flows, objective, basis = simplex.solve_min_cost_flow(problem)
    assert flows.tolist() == [1, 1, 0] and objective == -4.0
    assert basis.tolist() == [0, 1, -1]


def start_flows(problem):
    """Arc flows and objective of the starting tree as it stands."""
    _, _, edge, _, flow, *_ = dfs_start(problem)
    flows = np.zeros(problem.n_arcs, dtype=np.int64)
    for arc, units in zip(edge, flow):
        if arc >= 0:
            flows[arc] = units
    nz = np.flatnonzero(flows > 0)
    return flows, float(np.dot(problem.costs[nz], flows[nz].astype(np.float64)))


def test_optimal_start_returns_before_building_the_tree(monkeypatch):
    # a start that prices no arc below the tolerance, as the bank basis at
    # lambda = 0, is returned with its flows and objective, and the pivots'
    # Python tree is never built
    def refuse(*args):
        raise AssertionError("an optimal start built the pivots' tree")

    monkeypatch.setattr(simplex, "_tree_lists", refuse)
    lam0 = AllocationSpec(lam=0.0)
    # the lone root, and the basis of zero-flow arcs pointing up
    problems = [flow_problem(1, [], [0], basis=[-1]),
                flow_problem(3, [(0, 1, 1.0), (2, 0, 1.0)], [0, 0, 0], basis=[0, -1, 1])]
    for dims in ((12, 12), (5, 5, 5)):
        for mu, nu in _blob_pairs(3, 4, dims):
            problem = network.build_unbalanced_problem(mu, nu, COST, lam0, QUANT)
            problems.append(problem)
            with time_limit(10):
                sol = solve_unbalanced(mu, nu, COST, lam0, QUANT)
            want = network.extract_solution(problem, start_flows(problem)[0])
            assert same_solution(sol, want)
    for problem in problems:
        with time_limit(10):
            flows, objective, basis = simplex.solve_min_cost_flow(problem)
        want_flows, want_objective = start_flows(problem)
        assert np.array_equal(flows, want_flows) and objective == want_objective
        assert np.array_equal(basis, problem.basis)


def fuzzed_bases(rng, count):
    """Networks starting from bank bases, from feeder bases and from bases
    that ``solve_min_cost_flow`` returns, which are deep trees."""
    for mu, nu, alloc, quant in fuzz_networks(rng, count):
        problem = network.build_unbalanced_problem(mu, nu, COST, alloc, quant)
        yield problem
        size = mu.domain.size
        pairs = np.divmod(np.flatnonzero(rng.random(size * size) < 0.3), size)
        yield network.build_unbalanced_problem(
            mu, nu, COST, alloc, quant,
            allowed_pairs=pairs, feeder=rng.integers(size, size=size))
        yield dataclasses.replace(problem, basis=simplex.solve_min_cost_flow(problem)[2])


def tree_depth(parent):
    """Arcs on the longest path from a node up to the root (parent None)."""
    depth = 0
    for v in range(len(parent)):
        steps = 0
        while parent[v] is not None:
            v = parent[v]
            steps += 1
        depth = max(depth, steps)
    return depth


def test_start_matches_a_depth_first_walk(monkeypatch):
    # the level-by-level start gives the tree of a DFS from the root and
    # potentials that are the floats of a walk along its thread
    rng = np.random.default_rng(2031)
    problems = list(fuzzed_bases(rng, 24))
    # the feeder bases of pyramid levels
    def recorded(problem):
        problems.append(problem)
        return simplex.solve_min_cost_flow(problem)

    monkeypatch.setattr(multiscale, "solve_min_cost_flow", recorded)
    for mu, nu in _blob_pairs(2028, 2, (16, 16)):
        multiscale.solve_multiscale(mu, nu, COST, AllocationSpec(lam=30.0), QUANT,
                                    coarsen_threshold=40)
    depths = []
    for problem in problems:
        with time_limit(10):
            root, parent, edge, up, flow, size, pos, pi = simplex._start(problem)
        want = dfs_start(problem)
        assert root == want[0]
        assert simplex._tree_lists(root, parent, edge, up, flow, size, pos) == want[1:]
        assert np.array_equal(pi, thread_walk_potentials(problem, want))
        depths.append(tree_depth(want[1]))
    # bank and feeder bases are two levels deep, returned ones deeper
    assert min(depths) == 2 and max(depths) > 20


def test_bank_basis_is_optimal_at_lambda_zero():
    # every target is fed by its own voxel's self arc and every site settles
    # with the bank: the solve returns exactly that tree's flows
    rng = np.random.default_rng(12)
    for _ in range(10):
        mu, nu = random_measure_pair(rng, dims=(4, 4))
        problem = network.build_unbalanced_problem(
            mu, nu, COST, AllocationSpec(lam=0.0), QUANT
        )
        flows, _, _ = simplex.solve_min_cost_flow(problem)
        tree_arcs = problem.basis[problem.basis >= 0]
        assert np.isin(np.flatnonzero(flows), tree_arcs).all()
        kinds, vox_a, vox_b = problem.arc_voxels(tree_arcs)
        transport = kinds == ARC_TRANSPORT
        assert (vox_a[transport] == vox_b[transport]).all()
        assert set(kinds.tolist()) <= {ARC_TRANSPORT, ARC_ADD_SRC, ARC_REM_SRC}
        assert (net_outflow(problem, flows) == problem.supplies).all()


@pytest.mark.parametrize("restricted", [False, True])
def test_bank_basis_does_not_depend_on_arc_order(restricted):
    # the starting tree and the solution are read from the arcs and node
    # voxels, so permuting the arcs permutes the tree and keeps the solution
    rng = np.random.default_rng(31)
    fed_by_other = 0
    for lam in (0.0, 3.0, 30.0):
        mu, nu = random_measure_pair(rng, dims=(4, 4))
        size = mu.domain.size
        pairs = feeder = None
        if restricted:
            pairs = np.divmod(np.flatnonzero(rng.random(size * size) < 0.3), size)
            feeder = rng.integers(size, size=size)
        problem = network.build_unbalanced_problem(
            mu, nu, COST, AllocationSpec(lam=lam), QUANT,
            allowed_pairs=pairs, feeder=feeder,
        )
        order = rng.permutation(problem.n_arcs)
        permuted = dataclasses.replace(problem, **{
            name: getattr(problem, name)[order] for name in ("tails", "heads", "costs")
        })
        basis = network._bank_basis(permuted, feeder)
        position = np.argsort(order)  # arc index -> its index after permuting
        expected = np.where(problem.basis >= 0, position[problem.basis], -1)
        assert np.array_equal(basis, expected)
        kinds, vox_a, vox_b = permuted.arc_voxels(basis[basis >= 0])
        fed_by_other += int(np.count_nonzero(
            (kinds == ARC_TRANSPORT) & (vox_a != vox_b)))

        flows, objective, _ = simplex.solve_min_cost_flow(problem)
        sol = network.extract_solution(problem, flows)
        sol_permuted = network.extract_solution(permuted, flows[order])
        # the objective sums in arc order, so only it may move by an ulp
        assert sol_permuted.objective == pytest.approx(sol.objective, rel=1e-12)
        assert same_solution(dataclasses.replace(sol_permuted, objective=sol.objective),
                             sol)
        flows, objective_permuted, _ = simplex.solve_min_cost_flow(
            dataclasses.replace(permuted, basis=basis)
        )
        assert objective_permuted == pytest.approx(objective, rel=1e-9, abs=1e-12)
        assert (net_outflow(permuted, flows) == permuted.supplies).all()
    # the restricted networks do hang targets from feeder arcs
    assert (fed_by_other > 0) == restricted


@pytest.mark.parametrize("lam", [0.0, 1.0, math.inf])
def test_every_network_has_a_bank_and_a_bank_basis(lam):
    # balanced transport is the same network: the bank follows the voxel
    # nodes of both supports, and the simplex accepts the bank basis
    mu = line_measure([1.0, 0.0, 2.0])
    nu = line_measure([0.0, 1.0, 2.0])
    problem = network.build_unbalanced_problem(
        mu, nu, COST, AllocationSpec(lam=lam), QUANT
    )
    bank = 3 + 2  # sites 0, 1, 2, then targets 1, 2
    assert problem.n_nodes == bank + 1 and problem.supplies[bank] == 0
    assert problem.node_voxel.tolist() == [0, 1, 2, 1, 2, -1]
    assert set(problem.tails[problem.arc_kind == ARC_ADD_SRC].tolist()) == {bank}
    assert problem.balanced == (lam == math.inf)
    assert np.flatnonzero(problem.basis < 0).tolist() == [bank]
    assert simplex._start(problem)[0] == bank
    if lam == math.inf:
        # unequal quantized totals still have no balanced solution
        with pytest.raises(InfeasibleError, match="unbalanced quantized totals"):
            network.build_unbalanced_problem(
                mu, line_measure([0.0, 1.0, 2.5]), COST, BALANCED, QUANT
            )


def test_network_allocation_is_source_side_only():
    # one bank; every site of either support has one add arc from it and one
    # remove arc to it, and no allocation arc touches a target node
    rng = np.random.default_rng(44)
    for lam in (0.0, 0.3, 1.5, 12.0):
        mu, nu = random_measure_pair(rng, dims=(4, 4), density=0.6)
        alloc = AllocationSpec(lam=lam)
        problem = network.build_unbalanced_problem(mu, nu, COST, alloc, QUANT)
        sites = np.union1d(np.flatnonzero(mu.flat > 0), np.flatnonzero(nu.flat > 0))
        n_tgt = np.count_nonzero(nu.flat > 0)
        bank = len(sites) + n_tgt
        assert problem.n_nodes == bank + 1
        assert np.array_equal(problem.node_voxel, np.concatenate(
            (sites, np.flatnonzero(nu.flat > 0), [-1])))
        kind, vox_a, vox_b = problem.arc_voxels()
        assert np.array_equal(kind, problem.arc_kind)
        assert set(kind.tolist()) <= {ARC_TRANSPORT, ARC_ADD_SRC, ARC_REM_SRC}
        add = kind == ARC_ADD_SRC
        remove = kind == ARC_REM_SRC
        assert (problem.tails[add] == bank).all()
        assert (vox_a[add] == sites).all()
        assert (problem.heads[remove] == bank).all()
        assert (vox_a[remove] == sites).all()
        arc_cost = alloc.effective_lambda(COST.max_on_domain(mu.domain))
        assert (problem.costs[add | remove] == arc_cost).all()
        assert (vox_b[add | remove] == -1).all()
        assert (problem.heads[~remove] < bank).all()
        # transport arcs run from site nodes to target nodes
        transport = kind == ARC_TRANSPORT
        assert (problem.tails[transport] < len(sites)).all()
        assert (problem.heads[transport] >= len(sites)).all()


FLOW_FIELDS = ("n_nodes", "tails", "heads", "costs", "supplies", "node_voxel",
               "mass_per_unit", "delta_real", "basis", "balanced")


def einsum_dense_pairs(domain, sources, targets, bound):
    """Dense pairs from the full einsum cost matrix, the pre-stencil build."""
    cmat = pairwise_costs(voxel_positions(domain, sources),
                          voxel_positions(domain, targets))
    ii, jj = np.nonzero(cmat <= bound)
    return sources[ii], targets[jj], cmat[ii, jj]


def fuzz_networks(rng, count):
    """Measure pairs on fuzzed 2D and 3D grids, with lambdas and units."""
    for case in range(count):
        ndim = 2 + case % 2
        dims = [int(d) for d in rng.integers(2, 9 - 3 * (ndim - 2), size=ndim)]
        dims[int(rng.integers(ndim))] |= 1  # an odd axis
        if case % 5 == 0:
            dims[int(rng.integers(ndim))] = 1
        spacing = rng.uniform(0.2, 2.5, ndim)
        dom = GridDomain(dims=dims, spacing=spacing, origin=rng.uniform(-5, 5, ndim))

        def draw():
            v = rng.random(dims) * (rng.random(dims) < rng.uniform(0.3, 1.0))
            # some tiny masses quantize to zero units: sites without supply
            v[rng.random(dims) < 0.15] = 1e-13
            v.flat[int(rng.integers(v.size))] = 1.0
            return v

        mu, nu = GridMeasure(dom, draw()), GridMeasure(dom, draw())
        max_cost = COST.max_on_domain(dom)
        units = int(rng.choice([7, 1000, 10**6]))
        for lam in (0.0, float(rng.uniform(0.05, 1.5)), max_cost / 6):
            yield mu, nu, AllocationSpec(lam=lam), QuantizationSpec(units)
        balanced = GridMeasure(dom, nu.values * (mu.total_mass / nu.total_mass))
        yield mu, balanced, BALANCED, QuantizationSpec(units)


@pytest.mark.parametrize("offset_cost", [-math.inf, math.inf],
                         ids=["stencil", "matrix"])
def test_dense_network_matches_einsum_oracle(monkeypatch, offset_cost):
    # each dense path gives every FlowProblem field of the einsum-matrix build
    rng = np.random.default_rng(2027)
    paths = set()
    for mu, nu, alloc, quant in fuzz_networks(rng, 60):
        with monkeypatch.context() as patch:
            patch.setattr(network, "_dense_pairs", einsum_dense_pairs)
            expected = network.build_unbalanced_problem(mu, nu, COST, alloc, quant)
        with monkeypatch.context() as patch:
            patch.setattr(network, "STENCIL_OFFSET_COST", offset_cost)
            for name in ("_stencil_pairs", "_matrix_pairs"):
                def traced(*args, _run=getattr(network, name), _name=name):
                    paths.add(_name)
                    return _run(*args)
                patch.setattr(network, name, traced)
            problem = network.build_unbalanced_problem(mu, nu, COST, alloc, quant)
        for field in FLOW_FIELDS:
            got, want = getattr(problem, field), getattr(expected, field)
            assert np.asarray(got).dtype == np.asarray(want).dtype, field
            assert np.array_equal(got, want), field
    assert paths == {"_stencil_pairs" if offset_cost < 0 else "_matrix_pairs"}


def tree_potentials(problem, basis):
    """Node potentials of a tree basis, 0 at its root, under which every
    tree arc's reduced cost ``C - pi[tail] + pi[head]`` is 0."""
    child = np.flatnonzero(basis >= 0)
    arc = basis[child]
    up = problem.tails[arc] == child
    parent = np.where(up, problem.heads[arc], problem.tails[arc])
    step = np.where(up, problem.costs[arc], -problem.costs[arc])
    pi = np.where(basis < 0, 0.0, np.nan)
    # one tree level per pass, from the root down
    while np.isnan(pi).any():
        ready = np.isnan(pi[child]) & ~np.isnan(pi[parent])
        assert ready.any(), "the basis is not a tree"
        pi[child[ready]] = pi[parent[ready]] + step[ready]
    return pi


def near_tie_network(seed):
    """Full random supports on a 3-7 voxel per axis grid, 2D for even seeds
    and 3D for odd ones, with non-binary spacings of 0.05-2, a random origin
    and lambda at 0.01-0.6 of the max cost.  The short axis steps make many
    pairs of routes differ by a small fraction of the cost scale."""
    rng = np.random.default_rng(seed)
    ndim = 2 + seed % 2
    dims = tuple(int(d) for d in rng.integers(3, 8, size=ndim))
    dom = GridDomain(dims=dims, spacing=rng.uniform(0.05, 2.0, ndim),
                     origin=rng.uniform(-5, 5, ndim))
    mu, nu = (GridMeasure(dom, rng.random(dims) + 0.01) for _ in range(2))
    lam = rng.uniform(0.01, 0.6) * COST.max_on_domain(dom)
    return mu, nu, AllocationSpec(lam=lam), QuantizationSpec(10**6)


# seeds whose solve, with the pricing tolerance loosened to -1e-4 (1 + max
# cost), stops on a tree that prices some arc below -1e-11 (1 + max cost)
NEAR_TIE_SEEDS = (1, 31, 80, 101, 115, 141, 159, 192, 199, 209, 213, 227, 245, 275,
                  283, 289, 397)


def test_returned_tree_prices_every_arc_non_negative():
    # dual feasibility of the final tree: potentials computed afresh from the
    # returned basis price no arc below the simplex's tolerance
    rng = np.random.default_rng(2029)
    cases = list(fuzz_networks(rng, 40))
    for seed, dims, lams in ((7, (12, 12), (10.0, 2000.0)), (8, (5, 5, 5), (10.0,)),
                             (9, (15, 15), (2000.0,)), (10, (10, 10, 10), (3.0,))):
        (mu, nu), = _blob_pairs(seed, 1, dims)
        cases += [(mu, nu, AllocationSpec(lam=lam), QuantizationSpec(10**6))
                  for lam in lams]
    cases += [near_tie_network(seed) for seed in NEAR_TIE_SEEDS]
    for mu, nu, alloc, quant in cases:
        problem = network.build_unbalanced_problem(mu, nu, COST, alloc, quant)
        assert problem.n_arcs <= 64_000
        _, _, basis = simplex.solve_min_cost_flow(problem)
        pi = tree_potentials(problem, basis)
        reduced = problem.costs - pi[problem.tails] + pi[problem.heads]
        assert reduced.min() >= -1e-11 * (1.0 + problem.costs.max())


def test_costs_sum_axis_gaps_in_einsum_order():
    # on non-binary 3D coordinates the order of the sum moves costs by an
    # ulp; every cost must equal numpy's einsum, which sums (x + z) + y
    rng = np.random.default_rng(5)
    dom = GridDomain(dims=(9, 7, 8), spacing=(0.3, 1.7, 0.9), origin=(0.1, -2.3, 1.45))
    a, b = rng.integers(dom.size, size=(2, 20_000))
    pos_a, pos_b = voxel_positions(dom, a), voxel_positions(dom, b)
    diff = pos_a - pos_b
    oracle = np.einsum("ij,ij->i", diff, diff)
    squares = diff * diff
    assert (oracle != (squares[:, 0] + squares[:, 1]) + squares[:, 2]).sum() > 1000
    assert np.array_equal(voxel_costs(dom, a, b), oracle)
    src, tgt = np.arange(dom.size), np.unique(b)
    matrix = pairwise_costs(voxel_positions(dom, src), voxel_positions(dom, tgt))
    for pairs in (network._matrix_pairs, network._stencil_pairs):
        args = (dom, src, tgt, np.inf)
        if pairs is network._stencil_pairs:
            args += (network._stencil(dom, np.inf),)
        i, j, cost = pairs(*args)
        assert np.array_equal(cost, matrix.ravel())
        assert np.array_equal(i * dom.size + j,
                              (src[:, None] * dom.size + tgt[None, :]).ravel())


def test_dense_build_memory_is_linear_in_arcs_kept():
    # a 16^3 blob pair at lambda = 10 keeps 1.15M of its 16.8M pairs; the
    # full cost matrix alone would take 134 MB.  The solve copies no arc
    # array: beyond the problem it holds the flows (8 bytes per arc) and
    # per-node state
    (mu, nu), = _blob_pairs(1, 1, (16, 16, 16))
    tracemalloc.start()
    try:
        problem = network.build_unbalanced_problem(
            mu, nu, COST, AllocationSpec(lam=10.0), QuantizationSpec(10**6))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        simplex.solve_min_cost_flow(problem)
        solve_added = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert problem.n_arcs > 10**6
    assert peak < 100 * 2**20
    assert solve_added < 16 * problem.n_arcs
