"""Primal network simplex for uncapacitated min-cost flow on integer supplies.

Flows are exact integers (int64); arc costs are float64.  The basis is a
spanning tree over the nodes and an artificial root, stored with
parent/thread/size arrays.  The solve starts from the problem's ``basis``,
which names for each node the arc hanging it from its parent, or -1 for a
big-M artificial arc to the root.  One DFS from the root builds the tree
arrays from it; each tree arc carries its subtree's supply and each
artificial arc is directed so that its flow is non-negative.  The start
must be strongly feasible (every zero-flow tree arc points towards the
root); a basis that is not is a ``SolverError``.  No basis is the all -1
basis: the classic artificial star.

Pivot rule.  The entering arc is chosen by the block-search rule of LEMON's
network simplex: arcs are scanned cyclically in fixed index order in blocks
of min(e, ceil(BLOCK_FACTOR * sqrt(e))) of the e arcs, taking the most
negative reduced cost ``C - pi[S] + pi[T]`` of the first block that has
one below -tol, ties broken by lowest arc index (so on a block that wraps
past the last arc, the wrapped part wins ties).  The cap at e keeps a block
from pricing an arc twice.  The rule is usually run with blocks of about
sqrt(e) arcs, but here pricing a block costs a few microseconds of numpy
per-call overhead whatever its length, so blocks of 4 sqrt(e) arcs take
fewer pivots and less time.  The leaving arc is the last blocking arc
around the cycle, which preserves strong feasibility and prevents cycling.
Potentials are computed exactly from the tree before the first pivot and
every max(64, n) pivots; in between, each pivot shifts them in place.

Each pivot is one straight-line pass over the tree arrays that builds no
list of the cycle's nodes or arcs: the apex is found by subtree sizes, each
side of the cycle is walked once to find the leaving arc (from the entering
arc's tail upward with ``<``, then from its head upward with ``<=``, so the
head side wins ties) and once more to augment, and the potentials of the
re-rooted subtree are shifted in place along the thread.  Scalars are read
and written through ``memoryview``s of the arc, flow and potential arrays,
which share memory with the numpy arrays that pricing reads, so nothing
per arc is copied into Python objects.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import InfeasibleError, SolverError
from .network import FlowProblem

# Arcs priced per block, as a multiple of sqrt(e) (see the module docstring).
BLOCK_FACTOR = 4


def solve_min_cost_flow(problem: FlowProblem):
    """Return (flows, objective_units) for the given problem.

    ``flows`` is an int64 array over the problem's arcs; ``objective_units``
    is the float cost of the flow in quantization units.
    """
    n = problem.n_nodes
    e = problem.n_arcs
    if n == 0:
        return np.zeros(0, dtype=np.int64), 0.0
    b = problem.supplies
    if int(b.sum()) != 0:
        raise InfeasibleError("node supplies do not balance")

    root = n
    max_cost = float(np.max(problem.costs)) if e else 0.0
    faux = 1.0 + 3.0 * (n + 1) * max(max_cost, 1.0)
    S, T, C, x, parent, edge, size, next_, prev, last = _start(problem, faux)
    pi = np.zeros(n + 1)
    Sv, Tv, Cv, xv, piv = (memoryview(a) for a in (S, T, C, x, pi))

    tol = 1e-11 * (1.0 + max_cost)
    block = min(e, math.ceil(BLOCK_FACTOR * math.sqrt(e)))
    n_blocks = (e + block - 1) // block if block else 0
    refresh_every = max(64, n)
    f = 0
    pivots = 0
    while True:
        if pivots % refresh_every == 0:
            # exact potentials from the tree: thread order visits parents first
            piv[root] = 0.0
            v = next_[root]
            while v != root:
                a = edge[v]
                if Tv[a] == v:
                    piv[v] = piv[parent[v]] - Cv[a]
                else:
                    piv[v] = piv[parent[v]] + Cv[a]
                v = next_[v]

        # entering arc: first block, from where the last scan stopped, whose
        # most negative reduced cost is below -tol
        i = -1
        for _ in range(n_blocks):
            l = f + block
            if l <= e:
                rc = C[f:l] - pi[S[f:l]] + pi[T[f:l]]
                k = int(rc.argmin())
                best = rc[k]
                best_idx = f + k
            else:
                # f < e < f + block, so both parts are non-empty
                l -= e
                rc1 = C[f:e] - pi[S[f:e]] + pi[T[f:e]]
                rc2 = C[:l] - pi[S[:l]] + pi[T[:l]]
                k1 = int(rc1.argmin())
                k2 = int(rc2.argmin())
                # on ties prefer the wrapped segment: lower global arc index
                if rc1[k1] < rc2[k2]:
                    best = rc1[k1]
                    best_idx = f + k1
                else:
                    best = rc2[k2]
                    best_idx = k2
            f = l % e
            if best < -tol:
                i = best_idx
                break
        if i < 0:
            break

        # apex of the cycle closed by arc i (p -> q)
        p = Sv[i]
        q = Tv[i]
        u, v = p, q
        while u != v:
            if size[u] < size[v]:
                u = parent[u]
            else:
                v = parent[v]
        apex = u

        # leaving arc: the last blocking arc in cycle order (apex down to p,
        # arc i, q up to apex); blocking arcs are traversed against their
        # direction.  ``out`` is the node whose tree edge leaves.
        delta = None
        u = p
        while u != apex:
            a = edge[u]
            if Sv[a] == u:
                r = xv[a]
                if delta is None or r < delta:
                    delta, out, out_on_p_side = r, u, True
            u = parent[u]
        u = q
        while u != apex:
            a = edge[u]
            if Sv[a] != u:
                r = xv[a]
                if delta is None or r <= delta:
                    delta, out, out_on_p_side = r, u, False
            u = parent[u]
        if delta is None:
            raise SolverError("unbounded flow (negative cycle of forward arcs)")

        if delta > 0:
            xv[i] += delta
            u = p
            while u != apex:
                a = edge[u]
                if Sv[a] == u:
                    xv[a] -= delta
                else:
                    xv[a] += delta
                u = parent[u]
            u = q
            while u != apex:
                a = edge[u]
                if Sv[a] == u:
                    xv[a] += delta
                else:
                    xv[a] -= delta
                u = parent[u]

        # the subtree cut off by the leaving edge is re-rooted at q and hung
        # from p by arc i
        if out_on_p_side:
            p, q = q, p

        # remove the edge (s, t) from the tree, t the child
        t = out
        s = parent[t]
        size_t = size[t]
        prev_t = prev[t]
        last_t = last[t]
        next_last_t = next_[last_t]
        parent[t] = None
        edge[t] = None
        next_[prev_t] = next_last_t
        prev[next_last_t] = prev_t
        next_[last_t] = t
        prev[t] = last_t
        while s is not None:
            size[s] -= size_t
            if last[s] == last_t:
                last[s] = prev_t
            s = parent[s]

        # re-root the cut subtree at q, reversing the path from t to q
        ancestors = []
        u = q
        while u is not None:
            ancestors.append(u)
            u = parent[u]
        ancestors.reverse()
        for u, v in zip(ancestors, ancestors[1:]):
            size_u = size[u]
            last_u = last[u]
            prev_v = prev[v]
            last_v = last[v]
            next_last_v = next_[last_v]
            parent[u] = v
            parent[v] = None
            edge[u] = edge[v]
            edge[v] = None
            size[u] = size_u - size[v]
            size[v] = size_u
            next_[prev_v] = next_last_v
            prev[next_last_v] = prev_v
            next_[last_v] = v
            prev[v] = last_v
            if last_u == last_v:
                last[u] = prev_v
                last_u = prev_v
            prev[u] = last_v
            next_[last_v] = u
            next_[last_u] = v
            prev[v] = last_u
            last[v] = last_u

        # hang the subtree rooted at q from p by arc i
        last_p = last[p]
        next_last_p = next_[last_p]
        size_q = size[q]
        last_q = last[q]
        parent[q] = p
        edge[q] = i
        next_[last_p] = q
        prev[q] = last_p
        prev[next_last_p] = last_q
        next_[last_q] = next_last_p
        u = p
        while u is not None:
            size[u] += size_q
            if last[u] == last_p:
                last[u] = last_q
            u = parent[u]

        # shift the potentials of the moved subtree along the thread
        if q == Tv[i]:
            d = piv[p] - Cv[i] - piv[q]
        else:
            d = piv[p] + Cv[i] - piv[q]
        u = q
        piv[u] += d
        while u != last_q:
            u = next_[u]
            piv[u] += d

        pivots += 1

    if x[e:].any():
        raise InfeasibleError("no flow satisfies the node supplies")

    flows = x[:e].copy()
    nz = np.flatnonzero(flows > 0)
    objective_units = float(np.dot(C[nz], flows[nz].astype(np.float64)))
    return flows, objective_units


def _start(problem: FlowProblem, faux: float):
    """Arc arrays, flows and tree arrays of the starting basis.

    Node v hangs from its parent by arc ``problem.basis[v]``, or by its
    artificial arc (index e + v) to the root where the entry is -1; ``None``
    means all -1.  The artificial arc runs root -> v when the supply of v's
    subtree is negative, else v -> root.  Raises ``SolverError`` naming the
    first node at fault when the basis is not a strongly feasible tree: a
    node that does not reach the root, a negative tree flow, or a zero-flow
    tree arc directed away from the root.  The solve computes the
    potentials from these arrays before the first pivot and every
    max(64, n) pivots.
    """
    n = problem.n_nodes
    e = problem.n_arcs
    root = n
    nodes = np.arange(n, dtype=np.int64)
    if problem.basis is None:
        basis = np.full(n, -1, dtype=np.int64)
    else:
        basis = np.asarray(problem.basis, dtype=np.int64)
        if basis.shape != (n,):
            raise SolverError(f"basis has shape {basis.shape}, expected ({n},)")
    bad = np.flatnonzero((basis < -1) | (basis >= e))
    if len(bad):
        raise SolverError(f"basis: node {bad[0]} names no arc ({basis[bad[0]]})")
    real = basis >= 0
    edge = np.where(real, basis, e + nodes)
    arc = basis[real]
    tails = problem.tails[arc]
    heads = problem.heads[arc]
    bad = np.flatnonzero((tails != nodes[real]) & (heads != nodes[real]))
    if len(bad):
        v = nodes[real][bad[0]]
        raise SolverError(f"basis: arc {basis[v]} of node {v} does not touch it")
    parent = np.full(n + 1, root, dtype=np.int64)
    parent[:n][real] = np.where(tails == nodes[real], heads, tails)

    # preorder from the root, children in increasing node order
    order = np.lexsort((-nodes, parent[:n]))
    kids = order.tolist()
    first = np.searchsorted(parent[order], np.arange(n + 2)).tolist()
    thread = []
    stack = [root]
    while stack:
        u = stack.pop()
        thread.append(u)
        stack.extend(kids[first[u] : first[u + 1]])
    if len(thread) <= n:
        reached = np.zeros(n + 1, dtype=bool)
        reached[thread] = True
        v = int(np.argmin(reached))
        raise SolverError(f"basis: node {v} does not reach the root (cycle)")

    # subtree supplies and sizes, children before parents
    par = parent.tolist()
    sub = problem.supplies.tolist() + [0]
    size = [1] * (n + 1)
    for u in reversed(thread[1:]):
        p = par[u]
        sub[p] += sub[u]
        size[p] += size[u]

    subtree = np.array(sub[:n], dtype=np.int64)
    below = subtree < 0
    S = np.concatenate([problem.tails, np.where(below, root, nodes)],
                       dtype=np.int64)
    T = np.concatenate([problem.heads, np.where(below, nodes, root)],
                       dtype=np.int64)
    C = np.concatenate([problem.costs, np.full(n, faux)], dtype=np.float64)

    # each tree arc carries its subtree's supply towards the root
    up = S[edge] == nodes
    flow = np.where(up, subtree, -subtree)
    bad = np.flatnonzero(flow < 0)
    if len(bad):
        v = bad[0]
        raise SolverError(f"basis: negative flow {flow[v]} on the arc of node {v}")
    bad = np.flatnonzero((flow == 0) & ~up)
    if len(bad):
        raise SolverError(
            f"basis: zero-flow arc of node {bad[0]} points away from the root"
        )
    x = np.zeros(e + n, dtype=np.int64)
    x[edge] = flow

    thread = np.array(thread, dtype=np.int64)
    pos = np.empty(n + 1, dtype=np.int64)
    pos[thread] = np.arange(n + 1)
    next_ = np.empty(n + 1, dtype=np.int64)
    next_[thread] = np.roll(thread, -1)
    prev = np.empty(n + 1, dtype=np.int64)
    prev[thread] = np.roll(thread, 1)
    last = thread[pos + np.array(size) - 1]

    par[root] = None
    edge = edge.tolist() + [None]
    return (S, T, C, x, par, edge, size, next_.tolist(),
            prev.tolist(), last.tolist())
