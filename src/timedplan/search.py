"""Lasso emptiness search over lazily expanded graphs.

One iterative Tarjan pass serves every depth-first need.  As ``on_cycle``
it marks the reachable nodes that lie on a cycle.  As ``nested_dfs`` it is
given the accepting nodes and stops at the first of two points: an edge
onto a node still on the depth-first path that has an accepting end, the
source tested first (the early check of Schwoon & Esparza, "A note on
on-the-fly verification algorithms", TACAS 2005), or the postorder visit
of an accepting node that lies on a cycle, which the pass reads off its
low-link there (Geldenhuys & Valmari, "More efficient on-the-fly LTL
verification with Tarjan's algorithm", TCS 2005).  That is the node the
two-pass nested search of Courcoubetis, Vardi, Wolper & Yannakakis
(FMSD 1992) names, after expanding the same nodes in the same order: its
inner search from an accepting seed gets back onto the outer stack
exactly when the seed lies on a cycle, since a failed earlier inner
search never colours a node of a later seed's cycle.  The name
``nested_dfs`` stays because the benchmark's timing spans
(``perfbench/spans.py``) bind it by name; a rename waits for a change of
the benchmark.  The search returns only the accepting node; callers
build the lasso through it from a breadth-first stem (``bfs_order``,
``tree_path``) and the shortest cycle through it (``shortest_cycle``),
which keeps both parts short.

Lasso enumeration instead anchors at accepting nodes that lie on a cycle,
met one at a time by a lazy breadth-first walk (``bfs_order`` is a
generator).  A node with a self-loop is on a cycle at once; any other is
decided by an ``on_cycle`` pass from it, whose numbering carries over from
pass to pass, so all the passes of one walk together stay linear in the
graph they reach.

Callers must supply ``succ`` functions with a stable, deterministic
iteration order (memoized tuples in practice); only the initial nodes are
sorted here, in their natural order, so they must be mutually comparable.
"""

from __future__ import annotations

import math


def bfs_order(initials, succ):
    """Deterministic breadth-first discovery, one node at a time: yields
    ``(node, parent)`` as each node is first met, the initial nodes first,
    sorted and each once, with parent None.  Nodes are expanded in the
    order they are yielded, each only once the caller asks past every node
    met before its children, so a caller that stops early leaves the rest
    unexpanded.  ``dict(bfs_order(...))`` is the whole parent map, keyed
    in discovery order.
    """
    frontier = sorted(set(initials))
    seen = set(frontier)
    for node in frontier:
        yield node, None
    while frontier:
        nxt = []
        for node in frontier:
            for child in succ(node):
                if child not in seen:
                    seen.add(child)
                    nxt.append(child)
                    yield child, node
        frontier = nxt


def nested_dfs(initials, succ, accepting):
    """An accepting node on a reachable cycle, or None when no accepting
    lasso is reachable: the pass from the sorted initial nodes stops at the
    first edge onto its depth-first path with an accepting end (the edge's
    source first), or else at the first accepting node in postorder that
    lies on a cycle.  The search expanded every node of some path to it
    from an initial node and of some cycle through it.
    """
    return _tarjan(sorted(initials), succ, {}, set(), accepting)


def on_cycle(nodes, succ, num=None, cyclic=None) -> set:
    """The nodes reachable from ``nodes`` that lie on a cycle: members of a
    strongly connected component with more than one node, or with a
    self-loop.  One iterative Tarjan pass, linear in the graph it reaches.

    ``num`` and ``cyclic`` carry one call's numbering and result into the
    next: a node an earlier call numbered is not searched again, so calls
    from successive roots over one graph stay linear together.
    """
    cyclic = set() if cyclic is None else cyclic
    _tarjan(nodes, succ, {} if num is None else num, cyclic)
    return cyclic


def _tarjan(roots, succ, num, cyclic, accepting=None):
    """The Tarjan pass from each unnumbered root in turn: adds the members
    of each component it closes that lies on a cycle to ``cyclic``.  With
    ``accepting``, returns ``nested_dfs``'s node at its first stop, leaving
    the pass unfinished; otherwise, or when it never stops, returns None.
    """
    # discovery number of each node, raised past every number once the
    # node's component is closed, so edges into closed components never
    # lower a low-link; one lookup per edge.  Every finished call closes
    # all it numbers, so the numbers stay unique across calls.
    closed = math.inf
    stack = []
    path = set()  # the nodes of the depth-first path, one frame each
    for root in roots:
        if root in num:
            continue
        num[root] = len(num)
        stack.append(root)
        path.add(root)
        work = [[root, iter(succ(root)), num[root]]]
        while work:
            frame = work[-1]
            for child in frame[1]:
                seen = num.get(child)
                if seen is None:
                    num[child] = seen = len(num)
                    stack.append(child)
                    path.add(child)
                    work.append([child, iter(succ(child)), seen])
                    break
                if seen < frame[2]:
                    frame[2] = seen
                if accepting is not None and child in path:
                    # child -> ... -> node -> child is a cycle
                    for end in (frame[0], child):
                        if accepting(end):
                            return end
            else:
                work.pop()
                node, _, low = frame
                path.remove(node)
                if work and low < work[-1][2]:
                    work[-1][2] = low
                if low == num[node]:  # node roots a component: close it
                    comp = []
                    while True:
                        member = stack.pop()
                        num[member] = closed
                        comp.append(member)
                        if member == node:
                            break
                    if len(comp) == 1 and node not in succ(node):
                        continue
                    cyclic.update(comp)
                # node lies on a cycle
                if accepting is not None and accepting(node):
                    return node
    return None


def tree_path(parent, node):
    out = [node]
    while parent[out[-1]] is not None:
        out.append(parent[out[-1]])
    out.reverse()
    return out


def shortest_cycle(node, succ):
    """Shortest node cycle through ``node`` (list starting at node), or None."""
    parent = {}
    frontier = []
    for child in succ(node):
        if child == node:
            return [node]
        if child not in parent:
            parent[child] = None
            frontier.append(child)
    seen = set(frontier)
    while frontier:
        nxt = []
        for cur in frontier:
            for child in succ(cur):
                if child == node:
                    return [node] + tree_path(parent, cur)
                if child not in seen:
                    seen.add(child)
                    parent[child] = cur
                    nxt.append(child)
        frontier = nxt
    return None
