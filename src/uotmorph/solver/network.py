"""Build min-cost-flow networks for balanced and unbalanced transport.

Nodes are the support voxels of the two measures plus, for the unbalanced
program, a source-side bank node (net supply equal to the quantized mass
imbalance) and, with both-sided allocation, a target-side bank node with
zero net supply.  This realizes the three constraint families: source and
target marginals, and net source allocation minus net target allocation
equal to the imbalance.

Two exact reductions keep networks small without changing the optimum:

* a transport arc with cost greater than twice the allocation cost is
  dominated by removing at its tail and adding at its head, so it is
  pruned (never when allocation is disabled);
* a zero-mass source site can only ever forward freshly added mass, which
  is never cheaper than adding at the destination itself, so such sites
  keep only their self arc.

For finite lambda the problem also carries a starting tree for the simplex,
the bank basis: each voxel's target mass is fed in place by its self arc
(or by the arc from a given feeder voxel) and each site settles the rest
with the bank.  The tree is strongly feasible, and at lambda = 0 it is
already optimal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DataError, InfeasibleError, MassImbalanceError
from ..grid import GridMeasure, voxel_positions
from .specs import (
    ARC_ADD_SRC,
    ARC_ADD_TGT,
    ARC_REM_SRC,
    ARC_REM_TGT,
    ARC_TRANSPORT,
    SIDE_BOTH,
    AllocationSpec,
    CostSpec,
    QuantizationSpec,
    TransportSolution,
    quantize_to_total,
)


@dataclass
class FlowProblem:
    """Arc-list form of a transport network with integer node supplies."""

    n_nodes: int
    tails: np.ndarray
    heads: np.ndarray
    costs: np.ndarray
    supplies: np.ndarray  # int64, positive = sends flow
    arc_kind: np.ndarray  # int8, ARC_* constants
    arc_voxel_a: np.ndarray  # transport: source voxel; virtual: site voxel
    arc_voxel_b: np.ndarray  # transport: target voxel; virtual: -1
    mass_per_unit: float
    delta_real: float
    delta_units: int
    # per node, the arc hanging it from its parent in the simplex's starting
    # tree, or -1 for its artificial arc to the root; None means all -1
    basis: np.ndarray | None = None

    @property
    def n_arcs(self) -> int:
        return len(self.tails)


def _quantized_masses(mu_flat, nu_flat, units):
    mu_total = float(np.sum(mu_flat))
    nu_total = float(np.sum(nu_flat))
    if mu_total <= 0 and nu_total <= 0:
        raise InfeasibleError("both measures are empty")
    ref = mu_total if mu_total > 0 else nu_total
    scale = units / ref
    n_mu = units if mu_total > 0 else 0
    n_nu = int(math.floor(nu_total * scale + 0.5))
    w_units = quantize_to_total(mu_flat, n_mu)
    z_units = quantize_to_total(nu_flat, n_nu)
    return w_units, z_units, 1.0 / scale


def build_unbalanced_problem(
    mu: GridMeasure,
    nu: GridMeasure,
    cost: CostSpec,
    alloc: AllocationSpec,
    quant: QuantizationSpec,
    allowed_pairs=None,
    feeder=None,
) -> FlowProblem:
    """Network for the unbalanced program between measures on one domain.

    ``allowed_pairs`` optionally restricts transport arcs to the given
    (source_voxel, target_voxel) index arrays (multiscale refinement);
    self arcs and virtual arcs are always admitted.  For finite lambda the
    problem carries a bank basis (see ``_bank_basis``); ``feeder`` (one
    source voxel per voxel of the domain) picks the transport arc that
    hangs each target from the tree, where that arc was built.
    """
    if mu.domain != nu.domain:
        raise DataError("unbalanced solve requires measures on the same domain")
    domain = mu.domain
    w_flat = mu.flat
    z_flat = nu.flat
    w_units_full, z_units_full, mass_per_unit = _quantized_masses(
        w_flat, z_flat, quant.units
    )
    delta_units = int(z_units_full.sum() - w_units_full.sum())
    delta_real = nu.total_mass - mu.total_mass

    max_cost = cost.max_on_domain(domain)
    lam = alloc.effective_lambda(max_cost)
    finite_lam = math.isfinite(lam)
    if not finite_lam and delta_units != 0:
        raise InfeasibleError(
            "infinite allocation cost with unbalanced quantized totals"
        )

    tgt_voxels = np.flatnonzero(z_flat > 0)
    src_support = np.flatnonzero(w_flat > 0)
    if finite_lam:
        # allocation sites: union of supports, so every needed voxel can be
        # served by a self arc fed from the bank
        src_voxels = np.union1d(src_support, tgt_voxels)
    else:
        src_voxels = src_support

    n_src = len(src_voxels)
    n_tgt = len(tgt_voxels)
    # voxel -> node lookup per side
    src_node = np.full(len(w_flat), -1, dtype=np.int64)
    src_node[src_voxels] = np.arange(n_src)
    tgt_node = np.full(len(z_flat), -1, dtype=np.int64)
    tgt_node[tgt_voxels] = np.arange(n_src, n_src + n_tgt)

    n_nodes = n_src + n_tgt
    bank_src = bank_tgt = -1
    if finite_lam:
        bank_src = n_nodes
        n_nodes += 1
        if alloc.side == SIDE_BOTH:
            bank_tgt = n_nodes
            n_nodes += 1

    supplies = np.zeros(n_nodes, dtype=np.int64)
    supplies[:n_src] = w_units_full[src_voxels]
    supplies[n_src : n_src + n_tgt] -= z_units_full[tgt_voxels]
    if finite_lam:
        supplies[bank_src] = delta_units

    tails, heads, costs, kinds, vox_a, vox_b = [], [], [], [], [], []

    # transport arcs
    pos_tgt = voxel_positions(domain, tgt_voxels)
    positive_src = src_voxels[w_units_full[src_voxels] > 0]
    prune_bound = 2.0 * lam if finite_lam else math.inf
    pair_i = pair_j = np.zeros(0, dtype=np.int64)
    if n_tgt and len(positive_src):
        if allowed_pairs is None:
            pos_src = voxel_positions(domain, positive_src)
            cmat = cost.pairwise(pos_src, pos_tgt)
            keep = cmat <= prune_bound
            ii, jj = np.nonzero(keep)
            pair_i = positive_src[ii]
            pair_j = tgt_voxels[jj]
            pair_c = cmat[ii, jj]
        else:
            ai = np.asarray(allowed_pairs[0], dtype=np.int64)
            aj = np.asarray(allowed_pairs[1], dtype=np.int64)
            mask = (w_flat[ai] > 0) & (z_flat[aj] > 0) & (ai != aj)
            ai, aj = ai[mask], aj[mask]
            pa = voxel_positions(domain, ai)
            pb = voxel_positions(domain, aj)
            d = pa - pb
            pc = np.einsum("ij,ij->i", d, d)
            keep = pc <= prune_bound
            pair_i, pair_j, pair_c = ai[keep], aj[keep], pc[keep]

        tails.append(src_node[pair_i])
        heads.append(tgt_node[pair_j])
        costs.append(np.asarray(pair_c, dtype=np.float64))
        kinds.append(np.full(len(pair_i), ARC_TRANSPORT, dtype=np.int8))
        vox_a.append(pair_i.astype(np.int64))
        vox_b.append(pair_j.astype(np.int64))

    # self arcs (cost 0) for voxels present on both sides.  Without a
    # restriction the pair matrix above already holds them for every site
    # with supply, so only zero-supply sites need one; allowed_pairs
    # excludes them, so then every site does.
    both = np.zeros(0, dtype=np.int64)
    if n_tgt:
        if allowed_pairs is None:
            sites = src_voxels[w_units_full[src_voxels] == 0]
        else:
            sites = src_voxels
        both = np.intersect1d(sites, tgt_voxels)
        tails.append(src_node[both])
        heads.append(tgt_node[both])
        costs.append(np.zeros(len(both)))
        kinds.append(np.full(len(both), ARC_TRANSPORT, dtype=np.int8))
        vox_a.append(both.astype(np.int64))
        vox_b.append(both.astype(np.int64))

    if finite_lam:
        # bank -> site (mass added at source side), site -> bank (removed)
        tails.append(np.full(n_src, bank_src, dtype=np.int64))
        heads.append(np.arange(n_src, dtype=np.int64))
        costs.append(np.full(n_src, lam))
        kinds.append(np.full(n_src, ARC_ADD_SRC, dtype=np.int8))
        vox_a.append(src_voxels.astype(np.int64))
        vox_b.append(np.full(n_src, -1, dtype=np.int64))

        rem_sites = src_node[positive_src]
        tails.append(rem_sites)
        heads.append(np.full(len(rem_sites), bank_src, dtype=np.int64))
        costs.append(np.full(len(rem_sites), lam))
        kinds.append(np.full(len(rem_sites), ARC_REM_SRC, dtype=np.int8))
        vox_a.append(positive_src.astype(np.int64))
        vox_b.append(np.full(len(rem_sites), -1, dtype=np.int64))

        if alloc.side == SIDE_BOTH and n_tgt:
            lam_t = lam * (1.0 + alloc.tiebreak_epsilon)
            tgt_nodes = np.arange(n_src, n_src + n_tgt, dtype=np.int64)
            tails.append(np.full(n_tgt, bank_tgt, dtype=np.int64))
            heads.append(tgt_nodes)
            costs.append(np.full(n_tgt, lam_t))
            kinds.append(np.full(n_tgt, ARC_ADD_TGT, dtype=np.int8))
            vox_a.append(tgt_voxels.astype(np.int64))
            vox_b.append(np.full(n_tgt, -1, dtype=np.int64))

            tails.append(tgt_nodes)
            heads.append(np.full(n_tgt, bank_tgt, dtype=np.int64))
            costs.append(np.full(n_tgt, lam_t))
            kinds.append(np.full(n_tgt, ARC_REM_TGT, dtype=np.int8))
            vox_a.append(tgt_voxels.astype(np.int64))
            vox_b.append(np.full(n_tgt, -1, dtype=np.int64))

    def cat(parts, dtype):
        if not parts:
            return np.zeros(0, dtype=dtype)
        return np.concatenate([np.asarray(p, dtype=dtype) for p in parts])

    problem = FlowProblem(
        n_nodes=n_nodes,
        tails=cat(tails, np.int64),
        heads=cat(heads, np.int64),
        costs=cat(costs, np.float64),
        supplies=supplies,
        arc_kind=cat(kinds, np.int8),
        arc_voxel_a=cat(vox_a, np.int64),
        arc_voxel_b=cat(vox_b, np.int64),
        mass_per_unit=mass_per_unit,
        delta_real=delta_real,
        delta_units=delta_units,
    )
    if finite_lam:
        problem.basis = _bank_basis(
            problem, n_src, len(w_flat), pair_i, pair_j, both, tgt_voxels, feeder
        )
    return problem


def _bank_basis(problem, n_src, size, pair_i, pair_j, both, tgt_voxels, feeder):
    """Strongly feasible starting tree of a finite-lambda network.

    Relies on the arc order of ``build_unbalanced_problem``: the transport
    pairs, the self-arc block ``both``, one add arc per site, then one
    remove arc per site with supply; ``size`` is the number of voxels of
    the domain.  Each target with demand hangs from a site by a transport
    arc (its own voxel's self arc, or the built arc from ``feeder[voxel]``);
    each site hangs from the bank by its remove arc when its supply covers
    the demand hung on it, else by its add arc; the bank nodes, targets
    without demand and sites with neither supply nor demand hang from the
    simplex's root.  Every tree flow is then >= 0 and every zero-flow tree
    arc points towards the root.  At lambda = 0 this tree is optimal:
    keeping mass in place beats every other arc.
    """
    n_pairs = len(pair_i)
    n_tgt = len(tgt_voxels)
    hang = np.full(size, -1, dtype=np.int64)
    own = np.flatnonzero(pair_i == pair_j)
    hang[pair_i[own]] = own
    hang[both] = n_pairs + np.arange(len(both))
    if feeder is not None and n_pairs:
        keys = pair_i * size + pair_j
        order = np.argsort(keys, kind="stable")
        want = np.asarray(feeder, dtype=np.int64)[tgt_voxels] * size + tgt_voxels
        at = np.searchsorted(keys, want, sorter=order)
        at = order[np.minimum(at, n_pairs - 1)]
        found = keys[at] == want
        hang[tgt_voxels[found]] = at[found]

    basis = np.full(problem.n_nodes, -1, dtype=np.int64)
    demand = -problem.supplies[n_src : n_src + n_tgt]
    fed = np.flatnonzero(demand > 0)
    arcs = hang[tgt_voxels[fed]]
    basis[n_src + fed] = arcs
    hung = np.zeros(n_src, dtype=np.int64)
    np.add.at(hung, problem.tails[arcs], demand[fed])

    supply = problem.supplies[:n_src]
    add0 = n_pairs + len(both)
    remove = (supply > 0) & (supply >= hung)
    add = ~remove & ((supply > 0) | (hung > 0))
    basis[:n_src] = np.where(
        remove,
        add0 + n_src + np.cumsum(supply > 0) - 1,
        np.where(add, add0 + np.arange(n_src), -1),
    )
    return basis


def build_balanced_problem(
    mu: GridMeasure, nu: GridMeasure, cost: CostSpec, quant: QuantizationSpec
) -> FlowProblem:
    """Plain transport network; totals must agree to 1e-9 relative."""
    mu_total, nu_total = mu.total_mass, nu.total_mass
    if mu_total <= 0 or nu_total <= 0:
        raise InfeasibleError("balanced solve requires two non-empty measures")
    if abs(mu_total - nu_total) > 1e-9 * max(mu_total, nu_total):
        raise MassImbalanceError(
            f"totals differ: |mu|={mu_total!r}, |nu|={nu_total!r}"
        )
    w_units_full, z_units_full, mass_per_unit = _quantized_masses(
        mu.flat, nu.flat, quant.units
    )
    if int(w_units_full.sum()) != int(z_units_full.sum()):
        raise MassImbalanceError("quantized totals differ")

    src_voxels = np.flatnonzero(mu.flat > 0)
    tgt_voxels = np.flatnonzero(nu.flat > 0)
    n_src, n_tgt = len(src_voxels), len(tgt_voxels)
    pos_src = voxel_positions(mu.domain, src_voxels)
    pos_tgt = voxel_positions(nu.domain, tgt_voxels)
    cmat = cost.pairwise(pos_src, pos_tgt)

    ii, jj = np.meshgrid(np.arange(n_src), np.arange(n_tgt), indexing="ij")
    tails = ii.ravel().astype(np.int64)
    heads = (jj.ravel() + n_src).astype(np.int64)
    costs = cmat.ravel().astype(np.float64)

    supplies = np.zeros(n_src + n_tgt, dtype=np.int64)
    supplies[:n_src] = w_units_full[src_voxels]
    supplies[n_src:] -= z_units_full[tgt_voxels]

    return FlowProblem(
        n_nodes=n_src + n_tgt,
        tails=tails,
        heads=heads,
        costs=costs,
        supplies=supplies,
        arc_kind=np.full(len(tails), ARC_TRANSPORT, dtype=np.int8),
        arc_voxel_a=src_voxels[ii.ravel()].astype(np.int64),
        arc_voxel_b=tgt_voxels[jj.ravel()].astype(np.int64),
        mass_per_unit=mass_per_unit,
        delta_real=nu_total - mu_total,
        delta_units=0,
    )


def extract_solution(problem: FlowProblem, flows) -> TransportSolution:
    """Convert integer arc flows into a TransportSolution with real masses."""
    flows = np.asarray(flows, dtype=np.int64)
    mpu = problem.mass_per_unit
    nz = np.flatnonzero(flows > 0)
    objective = float(np.dot(problem.costs[nz], flows[nz].astype(np.float64)) * mpu)

    plan = []
    maps = {
        ARC_ADD_SRC: {},
        ARC_REM_SRC: {},
        ARC_ADD_TGT: {},
        ARC_REM_TGT: {},
    }
    for a in nz:
        kind = int(problem.arc_kind[a])
        mass = float(flows[a]) * mpu
        if kind == ARC_TRANSPORT:
            plan.append(
                (int(problem.arc_voxel_a[a]), int(problem.arc_voxel_b[a]), mass)
            )
        else:
            vox = int(problem.arc_voxel_a[a])
            maps[kind][vox] = maps[kind].get(vox, 0.0) + mass
    plan.sort()
    return TransportSolution(
        plan_arcs=tuple(plan),
        alloc_add_src=maps[ARC_ADD_SRC],
        alloc_remove_src=maps[ARC_REM_SRC],
        alloc_add_tgt=maps[ARC_ADD_TGT],
        alloc_remove_tgt=maps[ARC_REM_TGT],
        objective=objective,
        delta=problem.delta_real,
        mass_per_unit=mpu,
    )
