import numpy as np

from timedplan.search import (
    bfs_order,
    nested_dfs,
    on_cycle,
    shortest_cycle,
    tree_path,
)

from helpers import accepting_cycle_exists, crawl, first_calls, two_pass_nested_dfs


def graph_succ(adj):
    return lambda n: tuple(adj.get(n, ()))


def assert_on_reachable_accepting_cycle(node, roots, succ, accepting):
    """``node`` is accepting, reached from ``roots`` and closed by
    ``shortest_cycle``, a genuine walk of ``succ`` edges."""
    assert accepting(node)
    reach, _ = crawl(roots, succ)
    assert node in reach
    cycle = shortest_cycle(node, succ)
    assert cycle is not None and cycle[0] == node
    for a, b in zip(cycle, [*cycle[1:], node]):
        assert b in succ(a)


def test_simple_accepting_cycle():
    adj = {0: (1,), 1: (2,), 2: (1,)}
    got = nested_dfs([0], graph_succ(adj), lambda n: n == 2)
    assert got == 2
    assert_on_reachable_accepting_cycle(got, [0], graph_succ(adj), lambda n: n == 2)


def test_no_cycle_returns_none():
    adj = {0: (1,), 1: (2,), 2: ()}
    assert nested_dfs([0], graph_succ(adj), lambda n: True) is None


def test_cycle_without_accepting_state():
    adj = {0: (1,), 1: (0,), 2: (2,)}
    assert nested_dfs([0], graph_succ(adj), lambda n: n == 2) is None


def test_self_loop_is_a_cycle():
    adj = {0: (0,)}
    got = nested_dfs([0], graph_succ(adj), lambda n: True)
    assert got == 0
    assert shortest_cycle(got, graph_succ(adj)) == [0]


def test_unreachable_accepting_cycle_ignored():
    adj = {0: (1,), 1: (1,), 5: (6,), 6: (5,)}
    assert nested_dfs([0], graph_succ(adj), lambda n: n >= 5) is None


def test_stops_at_the_first_back_edge_that_closes_an_accepting_cycle():
    """0 is accepting and 0 -> 2 -> 0 closes a cycle: the search returns 0
    without expanding the 1,000-node chain behind 1."""
    chain = [1, *range(3, 1002)]
    adj = {0: (2, 1), 2: (0,), **{u: (v,) for u, v in zip(chain, chain[1:])}}
    expanded = []
    succ = graph_succ(adj)
    got = nested_dfs([0], lambda n: expanded.append(n) or succ(n), lambda n: n == 0)
    assert got == 0
    assert len(expanded) <= 2


def test_matches_scc_oracle_on_random_graphs():
    """The verdict is the SCC oracle's, and the node returned lies on a
    cycle, and is reached from the root, through nodes whose successors the
    search asked for: ``find_accepting`` builds its lasso over those alone."""
    rng = np.random.default_rng(31)
    for trial in range(300):
        n = int(rng.integers(2, 12))
        adj = {}
        for v in range(n):
            k = int(rng.integers(0, 4))
            adj[v] = tuple(int(rng.integers(0, n)) for _ in range(k))
        marked = {v for v in range(n) if rng.random() < 0.3}
        succ = graph_succ(adj)
        called = set()
        verdict = nested_dfs([0], lambda x: called.add(x) or succ(x), lambda x: x in marked)
        oracle = accepting_cycle_exists([0], succ, lambda x: x in marked)
        assert (verdict is not None) == oracle, (trial, adj, marked)
        if verdict is not None:
            assert_on_reachable_accepting_cycle(verdict, [0], succ, lambda x: x in marked)
            expanded = lambda x: succ(x) if x in called else ()
            assert shortest_cycle(verdict, expanded) is not None, (trial, adj, marked)
            assert verdict in dict(bfs_order([0], expanded)), (trial, adj, marked)


def test_names_the_two_pass_node_after_the_same_expansions():
    """On random graphs, sparse to dense, with self-loops, repeated roots and
    any share of accepting nodes, the one-pass search returns the two-pass
    search's node and asks for successors of the same nodes in the same
    order.  Half the graphs keep one edge into and one out of each
    accepting node, so that a cycle through it often closes at an edge
    with no accepting end, and the search stops at its postorder visit."""
    rng = np.random.default_rng(83)
    found = 0
    for trial in range(6000):
        n = int(rng.integers(1, 13))
        degree = rng.choice((1, 1.5, 2.5, 5))
        adj = {v: tuple(np.flatnonzero(rng.random(n) < degree / n).tolist()) for v in range(n)}
        share = rng.choice((-1, 0.0, 0.1, 0.3, 0.7, 1.0))
        if share < 0:
            marked = {int(rng.integers(n))}
        else:
            marked = {v for v in range(n) if rng.random() < share}
        if rng.random() < 0.5:
            for a in marked:
                adj[a] = adj[a][:1]
                for v in [v for v in range(n) if a in adj[v]][1:]:
                    adj[v] = tuple(u for u in adj[v] if u != a)
        roots = rng.integers(0, n, size=int(rng.integers(1, 4))).tolist()
        succ = graph_succ(adj)
        want = first_calls(two_pass_nested_dfs, roots, succ, marked.__contains__)
        assert first_calls(nested_dfs, roots, succ, marked.__contains__) == want, (
            trial, adj, marked, roots)
        found += want[0] is not None
    assert 2000 <= found <= 4000


def test_bfs_order_and_tree_path():
    adj = {0: (1, 2), 1: (3,), 2: (3,), 3: ()}
    parent = dict(bfs_order([0], graph_succ(adj)))
    order = list(parent)
    assert order[0] == 0 and set(order) == {0, 1, 2, 3}
    path = tree_path(parent, 3)
    assert path[0] == 0 and path[-1] == 3
    for a, b in zip(path, path[1:]):
        assert b in adj[a]


def test_bfs_order_yields_a_repeated_initial_node_once():
    adj = {1: (1, 2), 2: (), 3: (1,)}
    assert list(bfs_order([3, 1, 1, 3], graph_succ(adj))) == [
        (1, None), (3, None), (2, 1)]


def test_shortest_cycle():
    adj = {0: (1,), 1: (2,), 2: (0,), 3: (3,)}
    cyc = shortest_cycle(0, graph_succ(adj))
    assert cyc == [0, 1, 2] or tuple(cyc) == (0, 1, 2)
    assert shortest_cycle(3, graph_succ(adj)) == [3]
    dead = {0: (1,), 1: ()}
    assert shortest_cycle(0, graph_succ(dead)) is None


def test_crawl_helper():
    adj = {0: (1,), 1: (0,)}
    nodes, got = crawl([0], graph_succ(adj))
    assert set(nodes) == {0, 1}
    assert got[0] == (1,)


def test_on_cycle_matches_cycle_probes_on_random_graphs():
    rng = np.random.default_rng(37)
    for trial in range(300):
        n = int(rng.integers(1, 14))
        adj = {}
        for v in range(n):
            k = int(rng.integers(0, 4))
            kids = [int(rng.integers(0, n)) for _ in range(k)]
            if rng.random() < 0.2:
                kids.append(v)
            adj[v] = tuple(kids)
        roots = [int(r) for r in rng.integers(0, n, size=int(rng.integers(1, 3)))]
        succ = graph_succ(adj)
        reach, _ = crawl(roots, succ)
        want = {v for v in reach if shortest_cycle(v, succ) is not None}
        assert on_cycle(roots, succ) == want, (trial, adj, roots)


def test_on_cycle_is_not_recursive():
    """A 6,000-node chain into a 10-node cycle: no pass recurses, whether it
    runs to the end, stops at the back edge from ``n - 1`` or stops at the
    postorder visit of ``n - 5``."""
    n = 6000
    adj = {v: (v + 1,) for v in range(n - 1)}
    adj[n - 1] = (n - 10,)
    assert on_cycle([0], graph_succ(adj)) == set(range(n - 10, n))
    for stop in (n - 1, n - 5):
        assert nested_dfs([0], graph_succ(adj), lambda v: v == stop) == stop
