import numpy as np

from timedplan.search import (
    bfs_order,
    nested_dfs,
    on_cycle,
    shortest_cycle,
    tree_path,
)

from helpers import accepting_cycle_exists, crawl


def graph_succ(adj):
    return lambda n: tuple(adj.get(n, ()))


def test_simple_accepting_cycle():
    adj = {0: (1,), 1: (2,), 2: (1,)}
    got = nested_dfs([0], graph_succ(adj), lambda n: n == 2)
    assert got is not None
    prefix, cycle = got
    assert cycle[0] == cycle[-1] or len(cycle) >= 1
    # the lasso is genuinely a run: consecutive edges exist
    walk = list(prefix) + list(cycle)
    for a, b in zip(walk, walk[1:]):
        assert b in adj[a]
    # and the cycle closes
    assert cycle[0] in adj[cycle[-1]]
    assert any(n == 2 for n in cycle)


def test_no_cycle_returns_none():
    adj = {0: (1,), 1: (2,), 2: ()}
    assert nested_dfs([0], graph_succ(adj), lambda n: True) is None


def test_cycle_without_accepting_state():
    adj = {0: (1,), 1: (0,), 2: (2,)}
    assert nested_dfs([0], graph_succ(adj), lambda n: n == 2) is None


def test_self_loop_is_a_cycle():
    adj = {0: (0,)}
    got = nested_dfs([0], graph_succ(adj), lambda n: True)
    assert got is not None
    prefix, cycle = got
    assert list(cycle) == [0]


def test_unreachable_accepting_cycle_ignored():
    adj = {0: (1,), 1: (1,), 5: (6,), 6: (5,)}
    assert nested_dfs([0], graph_succ(adj), lambda n: n >= 5) is None


def test_matches_scc_oracle_on_random_graphs():
    rng = np.random.default_rng(31)
    for trial in range(300):
        n = int(rng.integers(2, 12))
        adj = {}
        for v in range(n):
            k = int(rng.integers(0, 4))
            adj[v] = tuple(int(rng.integers(0, n)) for _ in range(k))
        marked = {v for v in range(n) if rng.random() < 0.3}
        verdict = nested_dfs([0], graph_succ(adj), lambda x: x in marked)
        oracle = accepting_cycle_exists([0], graph_succ(adj), lambda x: x in marked)
        assert (verdict is not None) == oracle, (trial, adj, marked)
        if verdict is not None:
            prefix, cycle = verdict
            walk = list(prefix) + list(cycle)
            for a, b in zip(walk, walk[1:]):
                assert b in adj[a]
            assert cycle[0] in adj[cycle[-1]]
            assert any(x in marked for x in cycle)
            if prefix:
                assert prefix[0] == 0
            else:
                assert cycle[0] == 0


def test_bfs_order_and_tree_path():
    adj = {0: (1, 2), 1: (3,), 2: (3,), 3: ()}
    order, parent = bfs_order([0], graph_succ(adj))
    assert order[0] == 0 and set(order) == {0, 1, 2, 3}
    path = tree_path(parent, 3)
    assert path[0] == 0 and path[-1] == 3
    for a, b in zip(path, path[1:]):
        assert b in adj[a]


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
    n = 6000
    adj = {v: (v + 1,) for v in range(n - 1)}
    adj[n - 1] = (n - 10,)
    assert on_cycle([0], graph_succ(adj)) == set(range(n - 10, n))
