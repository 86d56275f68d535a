"""Lasso emptiness search over lazily expanded graphs.

Two-pass nested depth-first search decides emptiness.  The outer pass
explores in deterministic order and stops at the first edge back onto its
own stack that has an accepting end: that edge closes a reachable accepting
cycle (the early check of Schwoon & Esparza, "A note on on-the-fly
verification algorithms", TACAS 2005).  Failing that, at the postorder
visit of an accepting node an inner pass looks for a path back onto the
outer stack.  The inner coloring persists across seeds, keeping the whole
search linear in the explored graph.  It returns only the accepting node;
callers build the lasso through it from a breadth-first stem
(``bfs_order``, ``tree_path``) and the shortest cycle through it
(``shortest_cycle``), which keeps both parts short.

Lasso enumeration instead anchors at accepting nodes that lie on a cycle,
met one at a time by a lazy breadth-first walk (``bfs_order`` is a
generator).  A node with a self-loop is on a cycle at once; any other is
decided by a strongly-connected-component pass (``on_cycle``) from it,
whose numbering carries over from pass to pass, so all the passes of one
walk together stay linear in the graph they reach.

Callers must supply ``succ`` functions with a stable, deterministic
iteration order (memoized tuples in practice); only the initial nodes are
sorted here, in their natural order, so they must be mutually comparable.
"""

from __future__ import annotations

import math


def nested_dfs(initials, succ, accepting):
    """An accepting node on a reachable cycle, or None when no accepting
    lasso is reachable: an accepting end of the first edge back onto the
    outer stack that has one (the edge's source first), else the accepting
    node whose inner search got back onto the outer stack.  The search
    expanded every node of some path to it from an initial node and of some
    cycle through it.
    """
    blue: set = set()
    red: set = set()
    for root in sorted(initials):
        if root in blue:
            continue
        found = _blue_dfs(root, succ, accepting, blue, red)
        if found is not None:
            return found
    return None


def _blue_dfs(root, succ, accepting, blue, red):
    blue.add(root)
    on_stack = {root}
    stack = [(root, iter(succ(root)))]
    while stack:
        node, it = stack[-1]
        for child in it:
            if child not in blue:
                blue.add(child)
                on_stack.add(child)
                stack.append((child, iter(succ(child))))
                break
            if child in on_stack:
                # a back edge: node -> child -> ... -> node is a cycle
                if accepting(node):
                    return node
                if accepting(child):
                    return child
        else:
            if accepting(node) and _red_dfs(node, succ, red, on_stack):
                return node
            stack.pop()
            on_stack.remove(node)
    return None


def _red_dfs(seed, succ, red, on_stack) -> bool:
    """Inner search from an accepting seed: whether it touches the outer
    stack (the seed itself included).
    """
    stack = [iter(succ(seed))]
    while stack:
        for child in stack[-1]:
            if child in on_stack:
                return True
            if child not in red:
                red.add(child)
                stack.append(iter(succ(child)))
                break
        else:
            stack.pop()
    return False


def bfs_order(initials, succ):
    """Deterministic breadth-first discovery, one node at a time: yields
    ``(node, parent)`` as each node is first met, the initial nodes first,
    sorted, with parent None.  Nodes are expanded in the order they are
    yielded, each only once the caller asks past every node met before its
    children, so a caller that stops early leaves the rest unexpanded.
    ``dict(bfs_order(...))`` is the whole parent map, keyed in discovery
    order.
    """
    frontier = sorted(initials)
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


def on_cycle(nodes, succ, num=None, cyclic=None) -> set:
    """The nodes reachable from ``nodes`` that lie on a cycle: members of a
    strongly connected component with more than one node, or with a
    self-loop.  One iterative Tarjan pass, linear in the graph it reaches.

    ``num`` and ``cyclic`` carry one call's numbering and result into the
    next: a node an earlier call numbered is not searched again, so calls
    from successive roots over one graph stay linear together.
    """
    # discovery number of each node, raised past every number once the
    # node's component is closed, so edges into closed components never
    # lower a low-link; one lookup per edge.  Every call closes all it
    # numbers, so the numbers stay unique across calls.
    num = {} if num is None else num
    cyclic = set() if cyclic is None else cyclic
    closed = math.inf
    stack = []
    for root in nodes:
        if root in num:
            continue
        num[root] = len(num)
        stack.append(root)
        work = [[root, iter(succ(root)), num[root]]]
        while work:
            frame = work[-1]
            for child in frame[1]:
                seen = num.get(child)
                if seen is None:
                    num[child] = seen = len(num)
                    stack.append(child)
                    work.append([child, iter(succ(child)), seen])
                    break
                if seen < frame[2]:
                    frame[2] = seen
            else:
                work.pop()
                node, _, low = frame
                if work and low < work[-1][2]:
                    work[-1][2] = low
                if low < num[node]:
                    continue
                comp = []
                while True:
                    member = stack.pop()
                    num[member] = closed
                    comp.append(member)
                    if member == node:
                        break
                if len(comp) > 1 or node in succ(node):
                    cyclic.update(comp)
    return cyclic


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
