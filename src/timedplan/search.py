"""Lasso emptiness search over lazily expanded graphs.

Classic two-pass nested depth-first search: the outer pass explores in
deterministic order; at the postorder visit of an accepting node an inner
pass looks for a path back onto the outer stack, which closes a reachable
accepting cycle.  The inner coloring persists across seeds, keeping the
whole search linear in the explored graph.

Lasso enumeration instead anchors at nodes that lie on a cycle, which one
strongly-connected-component pass (``on_cycle``) finds for the whole
explored graph at once.

Callers must supply ``succ`` functions with a stable, deterministic
iteration order (memoized tuples in practice); only the initial nodes are
sorted here, in their natural order, so they must be mutually comparable.
"""

from __future__ import annotations

import math


def nested_dfs(initials, succ, accepting):
    """Return (prefix, cycle) node lists, or None when no accepting lasso.

    ``prefix`` leads from an initial node to the cycle entry (excluded);
    ``cycle`` starts at the entry and its last node closes back on it.
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
    path = [root]
    on_path = {root: 0}
    iters = [iter(succ(root))]
    while iters:
        advanced = False
        for child in iters[-1]:
            if child not in blue:
                blue.add(child)
                on_path[child] = len(path)
                path.append(child)
                iters.append(iter(succ(child)))
                advanced = True
                break
        if advanced:
            continue
        node = path[-1]
        if accepting(node):
            hit = _red_dfs(node, succ, red, on_path)
            if hit is not None:
                red_path, meet = hit
                meet_idx = on_path[meet]
                node_idx = on_path[node]
                cycle = [node] + red_path + path[meet_idx:node_idx]
                return path[:node_idx], cycle
        iters.pop()
        path.pop()
        del on_path[node]
    return None


def _red_dfs(seed, succ, red, on_path):
    """Inner search from an accepting seed; success on touching the outer
    stack (including the seed itself).  Returns (path after seed, met node).
    """
    stack = [(seed, iter(succ(seed)))]
    trail = []
    while stack:
        node, it = stack[-1]
        advanced = False
        for child in it:
            if child in on_path:
                return trail, child
            if child not in red:
                red.add(child)
                trail.append(child)
                stack.append((child, iter(succ(child))))
                advanced = True
                break
        if advanced:
            continue
        stack.pop()
        if trail:
            trail.pop()
    return None


def bfs_order(initials, succ):
    """Deterministic breadth-first discovery: (order list, parent map)."""
    order = []
    parent = {}
    frontier = sorted(initials)
    seen = set(frontier)
    for node in frontier:
        parent[node] = None
    while frontier:
        nxt = []
        for node in frontier:
            order.append(node)
            for child in succ(node):
                if child not in seen:
                    seen.add(child)
                    parent[child] = node
                    nxt.append(child)
        frontier = nxt
    return order, parent


def on_cycle(nodes, succ) -> set:
    """The nodes reachable from ``nodes`` that lie on a cycle: members of a
    strongly connected component with more than one node, or with a
    self-loop.  One iterative Tarjan pass, linear in the graph it reaches.
    """
    # discovery number of each node, raised past every number once the
    # node's component is closed, so edges into closed components never
    # lower a low-link; one lookup per edge
    num: dict = {}
    closed = math.inf
    stack = []
    cyclic: set = set()
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
