from fractions import Fraction

import numpy as np
import pytest

from timedplan.buchi import (
    BuchiWTS,
    enumerate_accepting,
    find_accepting,
    project_run,
)
from timedplan.errors import AlphabetMismatch, BudgetExceeded, MismatchedTimeStep
from timedplan.mitl import parse, sat
from timedplan.rational import INF, frac_gcd
from timedplan.scenario import build, load_scenario
from timedplan.search import nested_dfs
from timedplan.tba import TBA, TOP, Edge, atoms, eval_guard, intersect, mitl_to_tba
from timedplan.wts import timed_word

from helpers import (
    RationalProduct,
    WTS,
    _rand_guard,
    accepting_cycle_exists,
    crawl,
    locations,
    probe_every_accepting,
    rand_fraction,
    rand_tba,
    rand_wts,
    universal_tba,
)


LABELS = {"s0": {"green"}, "s1": set(), "s2": set()}


def reference_wts():
    return WTS(
        ["s0", "s1", "s2"],
        ["s0"],
        {
            "s0": [("s1", Fraction(1))],
            "s1": [("s2", Fraction(3, 2)), ("s0", Fraction(2))],
            "s2": [("s1", Fraction(1, 2))],
        },
        LABELS,
    )


def test_alphabet_must_match():
    w = reference_wts()
    with pytest.raises(AlphabetMismatch):
        BuchiWTS(w, universal_tba(frozenset({"blue"})))


def test_accepting_lasso_projects_to_satisfying_run():
    w = reference_wts()
    f = parse("F[2,5] green")
    b = BuchiWTS(w, mitl_to_tba(f, alphabet=w.alphabet))
    run = find_accepting(b)
    assert run is not None
    sys_run = project_run(run)
    assert sys_run.states[0] in w.initial
    # every projected step is a real transition with the recorded weight
    for j in range(len(sys_run)):
        src = sys_run.state(j)
        outs = dict(w.succ_weighted(src))
        assert sys_run.state(j + 1) in outs
        assert sys_run.durations[sys_run.canon(j)] == outs[sys_run.state(j + 1)]
    word = timed_word(sys_run, LABELS)
    assert sat(word, 0, f)


def test_unsatisfiable_goal_has_no_lasso():
    w = reference_wts()
    # the system's green visits are 3 apart; a 1-wide deadline misses them
    f = parse("G[0,inf] (green -> F[1/4,1/2] green)")
    # not in the fragment: check with a hand automaton instead -> use a
    # simple unreachable-window goal
    g = parse("F[1/4,1/2] green")
    b = BuchiWTS(w, mitl_to_tba(g, alphabet=w.alphabet))
    assert find_accepting(b) is None


def test_budget_enforced():
    w = reference_wts()
    b = BuchiWTS(w, mitl_to_tba(parse("F[2,5] green"), alphabet=w.alphabet), max_states=2)
    with pytest.raises(BudgetExceeded) as info:
        find_accepting(b)
    assert info.value.count is not None and info.value.count >= 2


def test_delta_only_answers_recorded_pairs():
    w = reference_wts()
    b = BuchiWTS(w, universal_tba(w.alphabet))
    with pytest.raises(RuntimeError):
        b.delta(("s0", "x", ()), ("s1", "x", ()))
    with pytest.raises(RuntimeError):  # a real node, not yet expanded
        b.delta(b.initial[0], b.initial[0])


def test_budget_counts_the_initial_nodes():
    w = reference_wts()
    w.initial = frozenset({"s0", "s1", "s2"})
    a = universal_tba(w.alphabet)
    assert len(BuchiWTS(w, a, max_states=3).initial) == 3
    with pytest.raises(BudgetExceeded, match=r"^acceptance product passed 2 states$"):
        BuchiWTS(w, a, max_states=2)


def test_enumerate_returns_distinct_accepted_lassos():
    w = reference_wts()
    f = parse("F[2,5] green")
    a = mitl_to_tba(f, alphabet=w.alphabet)
    b = BuchiWTS(w, a)
    runs = enumerate_accepting(b, 5)
    assert 1 <= len(runs) <= 5
    seen = set()
    for r in runs:
        key = (r.states, r.durations, r.stem_len)
        assert key not in seen
        seen.add(key)
        word = timed_word(project_run(r), LABELS)
        assert sat(word, 0, f)
        assert any(q in a.accepting for q in locations(r))


def test_enumeration_is_deterministic():
    w = reference_wts()
    f = parse("F[2,5] green")
    mk = lambda: enumerate_accepting(
        BuchiWTS(w, mitl_to_tba(f, alphabet=w.alphabet)), 4
    )
    a = [(r.states, r.durations, r.stem_len) for r in mk()]
    b = [(r.states, r.durations, r.stem_len) for r in mk()]
    assert a == b


def test_emptiness_matches_scc_oracle_on_random_products():
    rng = np.random.default_rng(23)
    agree = 0
    for _ in range(40):
        props = ("p",) if rng.random() < 0.5 else ("p", "q")
        w = rand_wts(rng, props, n_states=int(rng.integers(2, 6)))
        a = rand_tba(rng, props, n_locs=int(rng.integers(2, 4)))
        b = BuchiWTS(w, a)
        got = find_accepting(b) is not None
        b2 = BuchiWTS(w, a)
        want = accepting_cycle_exists(b2.initial, b2.succ, b2.accepting)
        assert got == want
        agree += 1
    assert agree == 40


def _rand_products(seed, n):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        props = ("p",) if rng.random() < 0.5 else ("p", "q")
        w = rand_wts(rng, props, n_states=int(rng.integers(2, 7)))
        a = rand_tba(rng, props, n_locs=int(rng.integers(2, 5)))
        yield w, a


@pytest.mark.parametrize("limit", [1, 3, 100])
def test_enumeration_matches_whole_graph_probing(limit):
    several = 0
    for w, a in _rand_products(41, 60):
        got = [
            (r.states, r.durations, r.stem_len)
            for r in enumerate_accepting(BuchiWTS(w, a), limit)
        ]
        assert got == probe_every_accepting(BuchiWTS(w, a), limit)
        several += len(got) > 1
    if limit > 1:
        assert several > 0


def test_enumeration_probes_one_cycle_per_lasso(monkeypatch):
    import timedplan.buchi as buchi

    calls = []
    real = buchi.shortest_cycle

    def counted(node, succ):
        calls.append(node)
        return real(node, succ)

    monkeypatch.setattr(buchi, "shortest_cycle", counted)
    lassos = 0
    for w, a in _rand_products(43, 60):
        lassos += len(enumerate_accepting(BuchiWTS(w, a), 100))
        assert len(calls) == lassos
    assert lassos > 0


def test_anchors_decide_emptiness_on_random_products():
    for w, a in _rand_products(47, 40):
        b = BuchiWTS(w, a)
        anchors, _ = b.anchors()
        assert bool(anchors) == accepting_cycle_exists(b.initial, b.succ, b.accepting)
        assert all(b.accepting(n) for n in anchors)


# -- tick clocks against rational clocks ------------------------------------------


def _rational(b, code):
    s, q, ticks = b.node(code)
    return (s, q, tuple(INF if v == b.cap else v * b.unit for v in ticks))


def assert_same_as_rational(w, a):
    """Crawl the tick product and the rational one; the same nodes in the
    same discovery order, the same successor lists and the same sojourns.
    Returns the node count.
    """
    b = BuchiWTS(w, a)
    ref = RationalProduct(w, a)
    nodes, adj = crawl(b.initial, b.succ)
    ref_nodes, ref_adj = crawl(ref.initial, ref.succ)
    assert [_rational(b, n) for n in nodes] == ref_nodes
    for n in nodes:
        src = _rational(b, n)
        assert [_rational(b, k) for k in adj[n]] == list(ref_adj[src])
        for k in adj[n]:
            assert b.delta(n, k) == ref.delta(src, _rational(b, k))
    return len(nodes)


def test_ticks_match_rational_clocks_on_random_products():
    rng = np.random.default_rng(53)
    finer = 0
    for _ in range(60):
        props = ("p",) if rng.random() < 0.5 else ("p", "q")
        w = rand_wts(rng, props, n_states=int(rng.integers(2, 7)))
        a = rand_tba(rng, props, n_locs=int(rng.integers(2, 5)))
        assert_same_as_rational(w, a)
        b = BuchiWTS(w, a)
        weights = {x for s in w.state_list for _, x in w.succ_weighted(s)}
        assert all((x / b.unit).denominator == 1 for x in weights)
        assert all((c / b.unit).denominator == 1 for c in a.constants)
        finer += len(weights) > 1 and b.unit < w.dt
    # unequal weights, and constants finer than the weights' own gcd
    assert finer >= 10


@pytest.mark.parametrize(
    "left,right",
    [
        ("F[1/30, 1/7] p1", "!p1 U[0, 3/10] p1"),
        ("G[1/20, 1/5] !p1", "F[1/3, 1/2] p1"),
        ("F[1/20, 1/4] p1", "G[0, 3/20] !p1"),
    ],
)
def test_ticks_match_rational_clocks_on_the_grid(left, right):
    w = build(load_scenario("scenarios/two_agent_services.cfg")).wts_list[0]
    a = intersect(
        mitl_to_tba(parse(left), alphabet=w.alphabet),
        mitl_to_tba(parse(right), alphabet=w.alphabet),
    )
    assert assert_same_as_rational(w, a) > 100


def assert_same_lasso_as_rational(w, a):
    """Nested DFS over the tick product and over the rational one, whose
    tuple nodes come in the same order: the same lasso node for node, and
    ``find_accepting`` keeps its nodes and reads the rational sojourns.
    Returns whether there is a lasso.
    """
    b = BuchiWTS(w, a)
    ref = RationalProduct(w, a)
    got = nested_dfs(b.initial, b.succ, b.accepting)
    want = nested_dfs(ref.initial, ref.succ, lambda n: n[1] in a.accepting)
    run = find_accepting(BuchiWTS(w, a))
    if want is None:
        assert got is None and run is None
        return False
    assert [[_rational(b, n) for n in part] for part in got] == [list(part) for part in want]
    codes = [*got[0], *got[1]]
    assert run.states == tuple(map(b.node, codes)) and run.stem_len == len(got[0])
    nodes = [*want[0], *want[1]]
    nxt = nodes[1:] + nodes[len(want[0]):len(want[0]) + 1]
    assert run.durations == tuple(ref.delta(u, v) for u, v in zip(nodes, nxt))
    return True


def test_lasso_matches_rational_product_on_random_products():
    # the products of test_ticks_match_rational_clocks_on_random_products
    found = sum(assert_same_lasso_as_rational(w, a) for w, a in _rand_products(53, 60))
    assert found >= 5


@pytest.mark.parametrize(
    "left,right",
    [
        ("F[1/30, 1/7] p1", "!p1 U[0, 3/10] p1"),
        ("G[1/20, 1/5] !p1", "F[1/3, 1/2] p1"),
        ("F[1/20, 1/4] p1", "G[0, 3/20] !p1"),
    ],
)
def test_lasso_matches_rational_product_on_the_grid(left, right):
    w = build(load_scenario("scenarios/two_agent_services.cfg")).wts_list[0]
    a = intersect(
        mitl_to_tba(parse(left), alphabet=w.alphabet),
        mitl_to_tba(parse(right), alphabet=w.alphabet),
    )
    assert assert_same_lasso_as_rational(w, a)


def test_initial_codes_sort_as_their_nodes():
    rng = np.random.default_rng(71)
    excluded = 0
    for w, plain in _rand_products(73, 80):
        w.initial = frozenset(
            s for s in w.state_list if rng.random() < 0.6 or s == w.state_list[-1]
        )
        # initial locations listed in reverse, so listing order is not sorted
        a = TBA(plain.locations, plain.locations[::-1], plain.clocks, plain.edges,
                plain.accepting, plain.labels, plain.ap)
        b = BuchiWTS(w, a)
        assert [b.node(c) for c in sorted(b.initial)] == sorted(b.node(c) for c in b.initial)
        locs = {b.node(c)[1] for c in b.initial}
        excluded += len(b.initial) < len(w.initial) * len(locs)
    assert excluded >= 20


def test_constants_off_the_quantum_get_their_own_ticks():
    # F[1/30, 1/7] at dt = 1/20: neither bound is a multiple of the quantum
    w = build(load_scenario("scenarios/two_agent_services.cfg")).wts_list[0]
    a = mitl_to_tba(parse("F[1/30, 1/7] p1"), alphabet=w.alphabet)
    b = BuchiWTS(w, a)
    assert b.unit == Fraction(1, 420)
    assert b.cap == 61  # one tick above 1/7
    # the window guard in ticks reads 60 as 1/7, and the capped 61 as infinity
    (exact,) = {e.guard for e in a.edges} - {TOP}
    (ticked,) = {e.guard for e in b.tba.edges} - {TOP}
    assert eval_guard({"c": 60}, ticked) and eval_guard({"c": Fraction(1, 7)}, exact)
    assert not eval_guard({"c": 61}, ticked) and not eval_guard({"c": INF}, exact)
    assert assert_same_as_rational(w, a) > 0


def _with_invariants(rng, a):
    """``a`` with a random invariant at every location (``TOP`` at about 30 %
    of them), drawn from ``rng``.
    """
    invariants = {q: _rand_guard(rng) for q in a.locations}
    return TBA(a.locations, a.initial, a.clocks, a.edges, a.accepting, a.labels, a.ap,
               invariants)


def test_ticks_match_rational_clocks_under_invariants():
    rng = np.random.default_rng(59)
    inv_rng = np.random.default_rng(61)  # rand_tba's stream stays as it was
    pruned = joint = 0
    for _ in range(200):
        props = ("p",) if rng.random() < 0.5 else ("p", "q")
        w = rand_wts(rng, props, n_states=int(rng.integers(2, 7)))
        plain = rand_tba(rng, props, n_locs=int(rng.integers(2, 5)))
        a = _with_invariants(inv_rng, plain)
        b = BuchiWTS(w, plain)
        pruned += 1 < assert_same_as_rational(w, a) < len(crawl(b.initial, b.succ)[0])
        # intersect renames both factors' invariants apart
        both = intersect(a, _with_invariants(inv_rng, plain))
        b = BuchiWTS(w, intersect(plain, plain))
        joint += 1 < assert_same_as_rational(w, both) < len(crawl(b.initial, b.succ)[0])
    # products that invariants cut without emptying
    assert pruned >= 10 and joint >= 10


def test_the_product_reads_only_int_clocks(monkeypatch):
    import timedplan.buchi as buchi

    read = []
    real = buchi.eval_guard

    def spy(nu, g):
        read.extend(nu.values())
        return real(nu, g)

    monkeypatch.setattr(buchi, "eval_guard", spy)
    w = build(load_scenario("scenarios/two_agent_services.cfg")).wts_list[0]
    b = BuchiWTS(w, mitl_to_tba(parse("F[1/30, 1/7] p1"), alphabet=w.alphabet))
    nodes, _ = crawl(b.initial, b.succ)
    assert all(type(v) is int for v in read)
    assert b.cap in read
    assert all(type(v) is int for _, _, clocks in map(b.node, nodes) for v in clocks)


def test_in_ticks_keeps_every_verdict():
    rng = np.random.default_rng(67)
    for _ in range(300):
        g = _rand_guard(rng)
        a = TBA(("q",), ("q",), ("c",), (Edge("q", g, (), "q"),), (), {}, frozenset())
        unit = frac_gcd([rand_fraction(rng), *a.constants])
        cap = int(a.c_max / unit) + 1
        (ticked,) = [e.guard for e in a.in_ticks(unit).edges]
        assert all(type(x.const) is int for x in atoms(ticked))
        for tick in range(cap + 1):
            exact = INF if tick == cap else tick * unit
            assert eval_guard({"c": tick}, ticked) == eval_guard({"c": exact}, g)
    with pytest.raises(ValueError):
        mitl_to_tba(parse("F[0, 1/7] p")).in_ticks(Fraction(1, 2))


def test_weights_off_the_quantum_are_rejected():
    class Skewed:
        alphabet = frozenset({"green"})
        initial = frozenset({"s0"})
        dt = Fraction(1, 2)

        def label(self, s):
            return frozenset({"green"}) if s == "s0" else frozenset()

        def succ_weighted(self, s):
            return [("s0", Fraction(1, 3))]

    b = BuchiWTS(Skewed(), universal_tba(Skewed.alphabet))
    with pytest.raises(MismatchedTimeStep):
        b.succ(b.initial[0])
