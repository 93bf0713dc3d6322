"""Primal network simplex for uncapacitated min-cost flow on integer supplies.

Flows are exact integers (int64); arc costs are float64.  The basis is a
spanning tree over the nodes, rooted at the one node without a tree arc,
stored per node: its parent, its tree arc, whether that arc points up to
the parent, the arc's flow, and the subtree's size and thread (preorder
successor, predecessor and last node).  In an uncapacitated simplex every
non-tree arc carries no flow, so there is no flow array over the arcs: the
arc flows are scattered from the tree once, after the last pivot.  The
solve starts from the problem's ``basis``, which names for each node the
arc hanging it from its parent, and -1 for the root alone (the bank, in
every network of the builder).  One DFS from the root builds the tree from
it; each tree arc carries its subtree's supply.  The start must be strongly
feasible (every tree flow is >= 0 and every zero-flow tree arc points
towards the root; Ahuja, Magnanti & Orlin 1993, *Network Flows*, ch. 11);
a basis that is not, or that has no root or more than one, is a
``SolverError``.  A strongly feasible tree is a feasible flow, so no
artificial arc is needed and the potentials, 0 at the root, are sums of
real arc costs along tree paths.  The solve returns its final tree in the
same form, a strongly feasible start for the same problem.

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

Each pivot walks only the cycle, the re-rooted path and the thread of the
moved subtree, and builds no list of the cycle.  One walk up from both
ends of the entering arc, led by subtree sizes, finds the apex and the
leaving arc together: the tail side keeps its first minimum flow (``<``),
the head side its last (``<=``), and the head side wins ties.  Subtree
sizes change only below the apex, so the two walks that move the subtree
(from the leaving arc up to the apex, and from the new parent up to the
apex) stop there and augment the flows on the way; the re-rooted path is
augmented as its arcs are reversed.  A thread end changes only along the
chain of ancestors whose subtrees end with the moved block, which can run
above the apex and stops at the first ancestor that does not.  The
potentials of the moved subtree are shifted in place along the thread.
Pricing reads potentials and arcs through numpy; the walks read them
through ``memoryview``s that share the same memory, so nothing per arc is
copied into Python objects.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import InfeasibleError, SolverError
from .network import FlowProblem

# Arcs priced per block, as a multiple of sqrt(e) (see the module docstring).
BLOCK_FACTOR = 4


def solve_min_cost_flow(problem: FlowProblem):
    """Return (flows, objective_units, basis) for the given problem.

    ``flows`` is an int64 array over the problem's arcs; ``objective_units``
    is the float cost of the flow in quantization units.  ``basis`` is the
    final tree in the form of ``FlowProblem.basis``: per node, the arc
    hanging it from its parent, -1 at the root.
    """
    n = problem.n_nodes
    e = problem.n_arcs
    if int(problem.supplies.sum()) != 0:
        raise InfeasibleError("node supplies do not balance")

    max_cost = float(np.max(problem.costs)) if e else 0.0
    S, T, C = problem.tails, problem.heads, problem.costs
    root, parent, tree_arc, up, tree_flow, size, next_, prev, last = _start(problem)
    edge, up, tf = tree_arc.tolist(), up.tolist(), tree_flow.tolist()
    pi = np.zeros(n)
    Sv, Tv, Cv, piv = (memoryview(a) for a in (S, T, C, pi))
    # above every tree flow, which is an int64
    no_arc = 1 << 63

    neg_tol = -1e-11 * (1.0 + max_cost)
    block = min(e, math.ceil(BLOCK_FACTOR * math.sqrt(e)))
    rc_block = np.empty(block)
    n_blocks = (e + block - 1) // block if block else 0
    refresh_every = max(64, n)
    f = 0
    pivots = 0
    while True:
        if pivots % refresh_every == 0:
            # exact potentials from the tree (thread order visits parents
            # first)
            piv[root] = 0.0
            v = next_[root]
            while v != root:
                c = Cv[edge[v]]
                piv[v] = piv[parent[v]] + (c if up[v] else -c)
                v = next_[v]

        # entering arc: first block, from where the last scan stopped, whose
        # most negative reduced cost is below -tol
        i = -1
        for _ in range(n_blocks):
            l = f + block
            if l <= e:
                rc = np.subtract(C[f:l], pi[S[f:l]], out=rc_block)
                rc += pi[T[f:l]]
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
            if best < neg_tol:
                i = best_idx
                break
        if i < 0:
            break

        # one walk up from both ends of arc i (p -> q) finds the apex of the
        # cycle and its leaving arc: the last blocking arc in cycle order
        # (apex down to p, arc i, q up to apex).  Blocking arcs are traversed
        # against their direction; ``out`` is the node whose tree arc leaves.
        p = Sv[i]
        q = Tv[i]
        u, v = p, q
        size_u, size_v = size[u], size[v]
        delta_p = delta_q = no_arc
        while u != v:
            if size_u < size_v:
                if up[u]:
                    r = tf[u]
                    if r < delta_p:
                        delta_p, out_p = r, u
                u = parent[u]
                size_u = size[u]
            else:
                if not up[v]:
                    r = tf[v]
                    if r <= delta_q:
                        delta_q, out_q = r, v
                v = parent[v]
                size_v = size[v]
        apex = u
        # the q side wins ties.  The subtree cut off by the leaving arc is
        # re-rooted at q and hung from p by arc i, so on a p-side leave the
        # ends swap.  ``push`` is the flow change of an upward arc on the
        # leaving side; it is -push on the other side, and the reverse for
        # a downward arc.
        out_on_p_side = delta_p < delta_q
        if out_on_p_side:
            delta, out, push = delta_p, out_p, -delta_p
            p, q = q, p
        else:
            if delta_q == no_arc:
                raise SolverError("unbounded flow (negative cycle of forward arcs)")
            delta, out, push = delta_q, out_q, delta_q

        # remove the arc (s, t) from the tree, t the child.  The moved
        # subtree changes sizes only below the apex, and the walk there
        # augments the leaving side above t; the thread ends of t's
        # ancestors change only along the chain whose subtrees end with t's
        # block.
        t = out
        s = parent[t]
        size_t = size[t]
        prev_t = prev[t]
        last_t = last[t]
        next_last_t = next_[last_t]
        parent[t] = None
        next_[prev_t] = next_last_t
        prev[next_last_t] = prev_t
        next_[last_t] = t
        prev[t] = last_t
        u = s
        while u != apex:
            size[u] -= size_t
            if up[u]:
                tf[u] += push
            else:
                tf[u] -= push
            u = parent[u]
        while s is not None and last[s] == last_t:
            last[s] = prev_t
            s = parent[s]

        # re-root the cut subtree at q, reversing and augmenting the path
        # from t to q
        ancestors = []
        u = q
        while u is not None:
            ancestors.append(u)
            u = parent[u]
        ancestors.reverse()
        for u, v in zip(ancestors, ancestors[1:]):
            # u roots a circular thread holding v's block; v's block moves
            # to the front, followed by what remains of u's
            last_u = last[u]
            prev_v = prev[v]
            last_v = last[v]
            next_last_v = next_[last_v]
            parent[u] = v
            edge[u] = edge[v]
            if up[v]:
                up[u] = False
                tf[u] = tf[v] + push
            else:
                up[u] = True
                tf[u] = tf[v] - push
            size_v = size[v]
            size[v] = size[u]
            size[u] -= size_v
            next_[prev_v] = next_last_v
            prev[next_last_v] = prev_v
            if last_u == last_v:
                last[u] = last_u = prev_v
            next_[last_v] = u
            prev[u] = last_v
            next_[last_u] = v
            prev[v] = last_u
            last[v] = last_u

        # hang the subtree rooted at q from p by arc i, augmenting the other
        # side of the cycle on the walk up to the apex
        last_p = last[p]
        next_last_p = next_[last_p]
        last_q = last[q]
        parent[q] = p
        edge[q] = i
        up[q] = out_on_p_side
        tf[q] = delta
        next_[last_p] = q
        prev[q] = last_p
        prev[next_last_p] = last_q
        next_[last_q] = next_last_p
        u = p
        while u != apex:
            size[u] += size_t
            if up[u]:
                tf[u] -= push
            else:
                tf[u] += push
            u = parent[u]
        u = p
        while u is not None and last[u] == last_p:
            last[u] = last_q
            u = parent[u]

        # shift the potentials of the moved subtree along the thread
        if out_on_p_side:
            d = piv[p] + Cv[i] - piv[q]
        else:
            d = piv[p] - Cv[i] - piv[q]
        u = q
        piv[u] += d
        while u != last_q:
            u = next_[u]
            piv[u] += d

        pivots += 1

    # arc flows from the tree: a non-tree arc carries none
    if pivots:
        tree_arc, tree_flow = np.array(edge), np.array(tf)
    hung = tree_arc >= 0
    flows = np.zeros(e, dtype=np.int64)
    flows[tree_arc[hung]] = tree_flow[hung]
    nz = np.flatnonzero(flows > 0)
    objective_units = float(np.dot(C[nz], flows[nz].astype(np.float64)))
    return flows, objective_units, tree_arc


def _start(problem: FlowProblem):
    """Per-node tree state of the starting basis.

    Node v hangs from its parent by arc ``problem.basis[v]``; the one node
    whose entry is -1 is the root.  Raises ``SolverError`` naming the first
    node at fault when the basis is not a strongly feasible tree: no root or
    more than one, a node that does not reach the root, a negative tree
    flow, or a zero-flow tree arc directed away from the root.

    Returns the root; numpy arrays over the nodes of the tree arc (-1 at the
    root), whether it points up to the parent, and its flow; and lists over
    the nodes of the parent (``None`` at the root), subtree size and thread
    (next, previous, last).
    """
    n = problem.n_nodes
    e = problem.n_arcs
    nodes = np.arange(n, dtype=np.int64)
    edge = np.array(problem.basis, dtype=np.int64)
    if edge.shape != (n,):
        raise SolverError(f"basis has shape {edge.shape}, expected ({n},)")
    bad = np.flatnonzero((edge < -1) | (edge >= e))
    if len(bad):
        raise SolverError(f"basis: node {bad[0]} names no arc ({edge[bad[0]]})")
    roots = np.flatnonzero(edge < 0)
    if len(roots) != 1:
        raise SolverError(f"basis has {len(roots)} roots (-1 entries), expected one")
    root = int(roots[0])
    real = edge >= 0
    arc = edge[real]
    tails = problem.tails[arc]
    heads = problem.heads[arc]
    bad = np.flatnonzero((tails != nodes[real]) & (heads != nodes[real]))
    if len(bad):
        v = nodes[real][bad[0]]
        raise SolverError(f"basis: arc {edge[v]} of node {v} does not touch it")
    # the root's parent n sorts it after every node's children
    parent = np.full(n, n, dtype=np.int64)
    parent[real] = np.where(tails == nodes[real], heads, tails)

    # preorder from the root, children in increasing node order
    order = np.lexsort((-nodes, parent))
    kids = order.tolist()
    first = np.searchsorted(parent[order], np.arange(n + 1)).tolist()
    thread = []
    stack = [root]
    while stack:
        u = stack.pop()
        thread.append(u)
        stack.extend(kids[first[u] : first[u + 1]])
    if len(thread) < n:
        reached = np.zeros(n, dtype=bool)
        reached[thread] = True
        v = int(np.argmin(reached))
        raise SolverError(f"basis: node {v} does not reach the root (cycle)")

    # subtree supplies and sizes, children before parents
    par = parent.tolist()
    sub = problem.supplies.tolist()
    size = [1] * n
    for u in reversed(thread[1:]):
        p = par[u]
        sub[p] += sub[u]
        size[p] += size[u]

    # each tree arc carries its subtree's supply towards the root
    up = np.ones(n, dtype=bool)
    up[real] = tails == nodes[real]
    subtree = np.array(sub, dtype=np.int64)
    flow = np.where(up, subtree, -subtree)
    flow[root] = 0
    bad = np.flatnonzero(flow < 0)
    if len(bad):
        v = bad[0]
        raise SolverError(f"basis: negative flow {flow[v]} on the arc of node {v}")
    bad = np.flatnonzero((flow == 0) & ~up)
    if len(bad):
        raise SolverError(
            f"basis: zero-flow arc of node {bad[0]} points away from the root"
        )

    thread = np.array(thread, dtype=np.int64)
    pos = np.empty(n, dtype=np.int64)
    pos[thread] = np.arange(n)
    next_ = np.empty(n, dtype=np.int64)
    next_[thread] = np.roll(thread, -1)
    prev = np.empty(n, dtype=np.int64)
    prev[thread] = np.roll(thread, 1)
    last = thread[pos + np.array(size) - 1]

    par[root] = None
    return root, par, edge, up, flow, size, next_.tolist(), prev.tolist(), last.tolist()
