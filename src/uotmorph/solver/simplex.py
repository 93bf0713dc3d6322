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
every network of the builder).  One numpy pass per tree level builds the
tree from it: each tree arc carries its subtree's supply, and each node's
potential is its parent's plus the arc's signed cost, the addition the
thread walk below makes.  The start must be strongly feasible (every tree
flow is >= 0 and every zero-flow tree arc points towards the root; Ahuja,
Magnanti & Orlin 1993, *Network Flows*, ch. 11); a basis that is not, or
that has no root or more than one, is a ``SolverError``.  A strongly
feasible tree is a feasible flow, so no artificial arc is needed and the
potentials, 0 at the root, are sums of real arc costs along tree paths.
The start is priced before the pivots' Python lists are built, so a start
that no arc improves (the bank basis at lambda = 0) returns as it stands.
The solve returns its final tree in the same form, a strongly feasible
start for the same problem.

Pivot rule.  The entering arc is chosen by the block-search rule of LEMON's
network simplex: arcs are scanned cyclically in fixed index order in blocks
of min(e, ceil(BLOCK_FACTOR * sqrt(e))) of the e arcs, taking the most
negative reduced cost ``C - pi[S] + pi[T]`` of the first block that has
one below -tol, tol = 1e-11 (1 + the largest |cost|), ties broken by
lowest arc index (so on a block that wraps past the last arc, the wrapped
part wins ties).  The cap at e keeps a block from pricing an arc twice.
The rule is usually run with blocks of about sqrt(e) arcs, but here pricing
a block costs a few microseconds of numpy per-call overhead whatever its
length, so blocks of 4 sqrt(e) arcs take fewer pivots and less time.  The
leaving arc is the last blocking arc around the cycle, which preserves
strong feasibility and prevents cycling.  Potentials are exact at the start
and, by a walk along the thread, after every max(64, n) pivots; in between,
each pivot shifts them in place.

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

    S, T, C = problem.tails, problem.heads, problem.costs
    max_cost = max(float(C.max()), -float(C.min())) if e else 0.0
    root, parent, tree_arc, up, tree_flow, size, pos, pi = _start(problem)
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
        if pivots and pivots % refresh_every == 0:
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
        if not pivots:
            # the start is not optimal: pivot on its tree as Python lists
            parent, edge, up, tf, size, next_, prev, last = _tree_lists(
                root, parent, tree_arc, up, tree_flow, size, pos)

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
    """Per-node state of the starting tree, from one numpy pass per level.

    Node v hangs from its parent by arc ``problem.basis[v]``; the one node
    whose entry is -1 is the root.  Raises ``SolverError`` naming the first
    node at fault when the basis is not a strongly feasible tree: no root or
    more than one, a node that does not reach the root, a negative tree
    flow, or a zero-flow tree arc directed away from the root.

    Returns the root and numpy arrays over the nodes of the parent (n at the
    root), tree arc (-1 at the root), whether it points up, its flow, the
    subtree size, the preorder position and the potential (the float of the
    refresh walk: the parent's plus the arc's signed cost).
    """
    n = problem.n_nodes
    edge = np.array(problem.basis, dtype=np.int64)
    if edge.shape != (n,):
        raise SolverError(f"basis has shape {edge.shape}, expected ({n},)")
    bad = np.flatnonzero((edge < -1) | (edge >= problem.n_arcs))
    if len(bad):
        raise SolverError(f"basis: node {bad[0]} names no arc ({edge[bad[0]]})")
    child = np.flatnonzero(edge >= 0)
    if len(child) != n - 1:
        raise SolverError(f"basis has {n - len(child)} roots (-1 entries), expected one")
    root = int(np.argmin(edge))
    arc = edge[child]
    tails = problem.tails[arc]
    heads = problem.heads[arc]
    up_child = tails == child
    bad = np.flatnonzero(~up_child & (heads != child))
    if len(bad):
        v = child[bad[0]]
        raise SolverError(f"basis: arc {edge[v]} of node {v} does not touch it")
    # the root's parent n sorts it after every node's children
    parent = np.full(n, n, dtype=np.int64)
    parent[child] = np.where(up_child, heads, tails)
    up = np.ones(n, dtype=bool)
    up[child] = up_child
    step = np.zeros(n)
    step[child] = np.where(up_child, problem.costs[arc], -problem.costs[arc])

    # level by level from the root; ``order`` lists each node's children,
    # in increasing node order, from ``first``
    order = np.argsort(parent, kind="stable")
    count = np.bincount(parent, minlength=n + 1)
    first = np.cumsum(count) - count
    pi = np.zeros(n)
    levels = []
    kids = order[first[root] : first[root] + count[root]]
    reached = 1 + len(kids)
    while True:
        above = parent[kids]
        pi[kids] = pi[above] + step[kids]
        levels.append((kids, above))
        if reached == n:
            break
        c = count[kids]
        start = np.repeat(first[kids] - np.cumsum(c) + c, c)
        kids = order[start + np.arange(len(start))]
        if not len(kids):
            seen = np.concatenate([[root], *(k for k, _ in levels)])
            v = int(np.setdiff1d(np.arange(n), seen)[0])
            raise SolverError(f"basis: node {v} does not reach the root (cycle)")
        reached += len(kids)

    # subtree supplies and sizes, children before parents
    subtree = problem.supplies.astype(np.int64)
    size = np.ones(n, dtype=np.int64)
    for kids, above in reversed(levels):
        np.add.at(subtree, above, subtree[kids])
        np.add.at(size, above, size[kids])

    # each tree arc carries its subtree's supply towards the root
    flow = np.where(up, subtree, -subtree)
    flow[root] = 0
    bad = np.flatnonzero(flow < 0)
    if len(bad):
        raise SolverError(f"basis: negative flow {flow[bad[0]]} on the arc of node {bad[0]}")
    bad = np.flatnonzero((flow == 0) & ~up)
    if len(bad):
        raise SolverError(
            f"basis: zero-flow arc of node {bad[0]} points away from the root"
        )

    # preorder: a node follows its parent and its earlier siblings' subtrees
    sizes = size[order]
    before = np.cumsum(sizes) - sizes
    offset = np.empty(n, dtype=np.int64)
    offset[order] = before + 1 - before[np.repeat(first, count)]
    pos = np.zeros(n, dtype=np.int64)
    for kids, above in levels:
        pos[kids] = pos[above] + offset[kids]
    return root, parent, edge, up, flow, size, pos, pi


def _tree_lists(root, parent, edge, up, flow, size, pos):
    """The start tree as the pivots' Python lists: parent (None at the root),
    tree arc, up, flow, size and preorder thread (next, previous, last)."""
    thread = np.empty_like(pos)
    thread[pos] = np.arange(len(pos))
    parent = parent.tolist()
    parent[root] = None
    ends = thread[(pos + 1) % len(pos)], thread[pos - 1], thread[pos + size - 1]
    return parent, *(a.tolist() for a in (edge, up, flow, size, *ends))
