import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from timedplan.buchi import (
    BuchiWTS,
    SyncProduct,
    enumerate_accepting,
    find_accepting,
    project_run,
)
from timedplan.errors import AlphabetMismatch, BudgetExceeded, MismatchedTimeStep
from timedplan.mitl import parse, sat
from timedplan.rational import INF, frac_gcd
from timedplan.scenario import build, load_scenario
from timedplan.search import bfs_order, nested_dfs, on_cycle, shortest_cycle, tree_path
from timedplan.tba import (
    TBA,
    TOP,
    Atom,
    Edge,
    accepts,
    atoms,
    eval_guard,
    intersect,
    mitl_to_tba,
)
from timedplan.wts import TimedWord, product, timed_word

from helpers import (
    JointWTS,
    RationalProduct,
    TableAgentWTS,
    WTS,
    _rand_guard,
    accepting_cycle_exists,
    crawl,
    every_lasso,
    first_calls,
    locations,
    padded,
    probe_every_accepting,
    rand_fraction,
    rand_fragment,
    rand_tba,
    rand_word,
    rand_wts,
    readable_clocks,
    same_ticks,
    two_pass_nested_dfs,
    universal_tba,
    with_invariants,
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
    runs = every_lasso(enumerate_accepting(b), 5)
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
    mk = lambda: enumerate_accepting(BuchiWTS(w, mitl_to_tba(f, alphabet=w.alphabet)))
    a = [(r.states, r.durations, r.stem_len) for r in every_lasso(mk())]
    b = [(r.states, r.durations, r.stem_len) for r in every_lasso(mk())]
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
            for r in every_lasso(enumerate_accepting(BuchiWTS(w, a)), limit)
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
        lasso = enumerate_accepting(BuchiWTS(w, a))
        assert len(calls) == lassos  # nothing is probed before a lasso is read
        runs = every_lasso(lasso)
        assert every_lasso(lasso) == runs  # every lasso read, twice
        lassos += len(runs)
        assert len(calls) == lassos  # one probe per lasso built
    assert lassos > 0


def test_anchors_decide_emptiness_on_random_products():
    for w, a in _rand_products(47, 40):
        b = BuchiWTS(w, a)
        anchors, _ = b.anchors()
        assert bool(anchors) == accepting_cycle_exists(b.initial, b.succ, b.accepting)
        assert all(b.accepting(n) for n in anchors)


def test_anchors_are_the_accepting_nodes_of_a_whole_graph_scc_pass():
    """``anchors`` runs its cycle pass from the accepting nodes only: an
    accepting node's component lies in its own forward closure, so the
    anchors are those of a pass over the whole explored graph, in
    breadth-first order."""
    found = 0
    for w, a in _rand_products(53, 60):
        b = BuchiWTS(w, a)
        anchors, parent = b.anchors()
        order = list(dict(bfs_order(b.initial, b.succ)))
        cyclic = on_cycle(order, b.succ)
        assert anchors == [n for n in order if n in cyclic and b.accepting(n)]
        assert list(parent) == order
        found += bool(anchors)
    assert found >= 5


def _exhaustive_anchors(b):
    """The pass that on-demand anchors replace: the whole product breadth
    first, then one cycle pass from its accepting nodes over the memo."""
    parent = dict(bfs_order(b.initial, b.succ))
    cyclic = on_cycle(filter(b.accepting, parent), b._memo.__getitem__)
    return [n for n in parent if n in cyclic and b.accepting(n)], parent


def _window_products(seed, n):
    """Random systems under random automata and under ``F``, ``G`` and
    ``U`` windows, whose accepting nodes often lie on no self-loop."""
    rng = np.random.default_rng(seed)
    for k in range(n):
        props = ("p", "q")
        w = rand_wts(rng, props, n_states=int(rng.integers(2, 7)))
        lo, width = (Fraction(int(x), 4) for x in rng.integers(0, 4, 2))
        window = f"[{lo}, {lo + width + Fraction(1, 4)}]"
        task = ("", f"F{window} p", f"G{window} p", f"!q U{window} p", f"p U{window} q")[k % 5]
        a = mitl_to_tba(parse(task), alphabet=w.alphabet) if task else rand_tba(rng, props)
        yield w, a


@pytest.mark.parametrize("r_selec", [0, 1, 3, 100])
def test_on_demand_anchors_equal_the_exhaustive_pass(r_selec):
    """The walk meets the anchors of the exhaustive pass in the same order:
    the same lasso at every index, the same emptiness verdict, and once
    exhausted the same anchors, tree and live nodes.  Node codes number
    what each product met first, so nodes are compared as tuples."""
    no_loop = several = empty = 0
    for w, a in _window_products(59, 80):
        ref = BuchiWTS(w, a)
        hits, parent = _exhaustive_anchors(ref)
        b = BuchiWTS(w, a)
        lasso = enumerate_accepting(b)
        assert b.n_explored == len(b.initial)  # nothing walked yet
        got = [(r.states, r.durations, r.stem_len) for r in every_lasso(lasso, r_selec)]
        assert got == probe_every_accepting(ref, r_selec)
        assert (b.anchor(0) is None) == (not hits)
        assert b.n_explored <= ref.n_explored
        anchors, tree = b.anchors()
        assert [b.node(n) for n in anchors] == [ref.node(n) for n in hits]
        assert [(b.node(n), up and b.node(up)) for n, up in tree.items()] == [
            (ref.node(n), up and ref.node(up)) for n, up in parent.items()
        ]
        assert {b.node(n) for n in b.live()} == {ref.node(n) for n in ref.live()}
        no_loop += sum(n not in ref.succ(n) for n in hits)
        several += len(got) > 1
        empty += not hits
    assert no_loop >= 10 and empty >= 10
    assert several >= (10 if r_selec > 1 else 0)


def _twice_initial(prop):
    """One self-looping location, labelled ``prop``, listed twice as initial."""
    return TBA(["q"], ["q", "q"], (), [Edge("q", TOP, (), "q")], ["q"], {"q": {prop}}, {prop})


def test_a_repeated_initial_location_gives_its_lasso_once():
    """One self-looping location listed twice as initial: the automaton
    and the product keep it once, and the walk meets its one anchor once."""
    w = WTS(["s"], ["s"], {"s": [("s", 1)]}, {"s": {"p"}})
    a = _twice_initial("p")
    assert a.initial == ("q",)
    b = BuchiWTS(w, a)
    assert len(b.initial) == 1
    runs = every_lasso(enumerate_accepting(b))
    assert [(r.states, r.stem_len) for r in runs] == [((("s", "q", ()),), 0)]
    assert b.anchors()[0] == [b.initial[0]]


def test_a_repeated_initial_location_starts_the_synchronized_product_once():
    """Two agents whose automata each list their one location twice as
    initial: their products and the synchronized joint product start at one
    node each, and the joint search finds a lasso that stays put."""
    systems = [
        TableAgentWTS(k, [3 - k], 1, {(1, (1, 1)): {1}}, {1: {f"p{k}"}}, [1]) for k in (1, 2)
    ]
    tbas = [_twice_initial(f"p{k}") for k in (1, 2)]
    agents = [BuchiWTS(c, a) for c, a in zip(systems, tbas)]
    assert [len(b.initial) for b in agents] == [1, 1]
    joint = SyncProduct(product(systems), intersect(*tbas), agents)
    assert len(joint.initial) == 1
    run = find_accepting(joint)
    assert run is not None and {state for state, *_ in run.states} == {(1, 1)}


def test_reading_a_lasso_walks_only_to_its_anchor():
    """Lasso ``i`` is known once the walk meets anchor ``i``: on the
    reference system the walk stops well short of the whole product, and
    reading past the last lasso walks on to the end."""
    w = reference_wts()
    a = mitl_to_tba(parse("F[2,5] green"), alphabet=w.alphabet)
    full = BuchiWTS(w, a)
    full.anchors()
    b = BuchiWTS(w, a)
    lasso = enumerate_accepting(b)
    lasso(0)
    first = b.n_explored
    assert first < full.n_explored
    assert len(every_lasso(lasso)) == len(full.anchors()[0])
    assert b.n_explored == full.n_explored
    with pytest.raises(IndexError):
        lasso(len(full.anchors()[0]))


def test_a_walk_cut_short_by_the_budget_never_reads_as_empty():
    """A walk that ``BudgetExceeded`` ended reports the cut, not an
    exhausted product."""
    w = reference_wts()
    a = mitl_to_tba(parse("F[2,5] green"), alphabet=w.alphabet)
    b = BuchiWTS(w, a, max_states=len(BuchiWTS(w, a).initial))
    with pytest.raises(BudgetExceeded):
        b.anchor(0)
    with pytest.raises(RuntimeError, match="cut short"):
        b.anchor(0)


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
    tuple nodes come in the same order, names the same node.  Through it,
    ``find_accepting``'s run is the rational product's lasso by the same
    rule, node for node and sojourn for sojourn: the breadth-first stem and
    the shortest cycle over the nodes the search expanded.  Returns whether
    there is a lasso.
    """
    b = BuchiWTS(w, a)
    ref = RationalProduct(w, a)
    got = nested_dfs(b.initial, b.succ, b.accepting)
    want = nested_dfs(ref.initial, ref.succ, lambda n: n[1] in a.accepting)
    run = find_accepting(BuchiWTS(w, a))
    if want is None:
        assert got is None and run is None
        return False
    assert _rational(b, got) == want
    expanded = lambda n: ref._memo.get(n, ())
    stem = tree_path(dict(bfs_order(ref.initial, expanded)), want)[:-1]
    nodes = [*stem, *shortest_cycle(want, expanded)]
    assert [
        (s, q, tuple(INF if v == b.cap else v * b.unit for v in ticks))
        for s, q, ticks in run.states
    ] == nodes
    assert run.stem_len == len(stem)
    assert run.durations == tuple(ref._delta[u, v] for u, v in zip(nodes, [*nodes[1:], want]))
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


def test_ticks_match_rational_clocks_under_invariants():
    rng = np.random.default_rng(59)
    inv_rng = np.random.default_rng(61)  # rand_tba's stream stays as it was
    pruned = joint = 0
    for _ in range(200):
        props = ("p",) if rng.random() < 0.5 else ("p", "q")
        w = rand_wts(rng, props, n_states=int(rng.integers(2, 7)))
        plain = rand_tba(rng, props, n_locs=int(rng.integers(2, 5)))
        a = with_invariants(inv_rng, plain)
        b = BuchiWTS(w, plain)
        pruned += 1 < assert_same_as_rational(w, a) < len(crawl(b.initial, b.succ)[0])
        # intersect renames both factors' invariants apart
        both = intersect(a, with_invariants(inv_rng, plain))
        b = BuchiWTS(w, intersect(plain, plain))
        joint += 1 < assert_same_as_rational(w, both) < len(crawl(b.initial, b.succ)[0])
    # products that invariants cut without emptying
    assert pruned >= 10 and joint >= 10


def _spy_on_guards(monkeypatch):
    """Every clock value the automaton's guards and invariants read."""
    import timedplan.tba as tba_module

    read = []
    real = tba_module.eval_guard

    def spy(nu, g):
        read.extend(nu.values())
        return real(nu, g)

    monkeypatch.setattr(tba_module, "eval_guard", spy)
    return read


def test_the_product_reads_only_int_clocks(monkeypatch):
    read = _spy_on_guards(monkeypatch)
    w = build(load_scenario("scenarios/two_agent_services.cfg")).wts_list[0]
    b = BuchiWTS(w, mitl_to_tba(parse("F[1/30, 1/7] p1"), alphabet=w.alphabet))
    nodes, _ = crawl(b.initial, b.succ)
    assert all(type(v) is int for v in read)
    assert b.cap in read
    assert all(type(v) is int for _, _, clocks in map(b.node, nodes) for v in clocks)


# -- word acceptance in ticks against rational clocks -------------------------------


def _visit_word(k):
    """``p`` at position ``k`` only, every duration 1/20, ending in a cycle
    of one empty position.
    """
    labels = [frozenset()] * k + [frozenset({"p"}), frozenset()]
    return TimedWord(labels, [Fraction(1, 20)] * (k + 2), k + 1)


def _word_system(word, ap):
    """``word`` read as a system: position ``j`` moves to the next position
    after its duration."""
    n = len(word)
    moves = {j: [(word.canon(j + 1), word.durations[word.canon(j)])] for j in range(n)}
    return WTS(range(n), [0], moves, dict(enumerate(word.labels)), alphabet=ap)


def assert_accepts_as_rational(a, word):
    """``accepts`` against nested DFS over the rational-clock product of
    the word read as a system (position ``j`` moves to the next position
    after its duration): the same verdict and the same accepting node,
    position and location, with each clock ``ticks * unit`` and the cap read
    as ``INF``.
    Returns the verdict.
    """
    ok, got = accepts(a, word, witness=True)
    ref = RationalProduct(_word_system(word, a.ap), a)
    want = nested_dfs(ref.initial, ref.succ, lambda node: node[1] in a.accepting)
    assert ok == (want is not None)
    if ok:
        unit = frac_gcd([*word.durations, *a.constants])
        cap = int(a.c_max / unit) + 1

        def rational(node):
            pos, q, ticks = node
            return (pos, q, tuple(INF if v == cap else v * unit for v in ticks))

        assert rational(got) == want
    return ok


def _along_edges(rng, a, word):
    """``word`` relabelled along a random path of ``a``'s edges from an
    initial location, guards unread, so that its letters match a run far
    more often than random letters do.
    """
    q = a.initial[int(rng.integers(0, len(a.initial)))]
    labels = [a.labels[q]]
    while len(labels) < len(word) and a.out_edges(q):
        outs = a.out_edges(q)
        q = outs[int(rng.integers(0, len(outs)))].dst
        labels.append(a.labels[q])
    labels += word.labels[len(labels):]
    return TimedWord(labels, word.durations, word.stem_len)


def test_word_acceptance_matches_rational_clocks_on_random_automata():
    rng = np.random.default_rng(79)
    inv_rng = np.random.default_rng(83)
    accepted = invariants = 0
    for _ in range(500):
        props = ("p",) if rng.random() < 0.5 else ("p", "q")
        a = rand_tba(rng, props, n_locs=int(rng.integers(2, 5)))
        if rng.random() < 0.5:
            a = with_invariants(inv_rng, a)
            invariants += 1
        word = rand_word(rng, props)
        if rng.random() < 0.5:
            word = _along_edges(rng, a, word)
        accepted += assert_accepts_as_rational(a, word)
    assert accepted >= 20 and invariants >= 200


def test_word_acceptance_matches_rational_clocks_on_compiled_fragments():
    rng = np.random.default_rng(89)
    ap = ("p", "q")
    accepted = 0
    for _ in range(500):
        a = mitl_to_tba(rand_fragment(rng, ap), alphabet=frozenset(ap))
        accepted += assert_accepts_as_rational(a, rand_word(rng, ap))
    assert 100 <= accepted <= 400


def test_word_acceptance_with_constants_off_the_durations():
    # F[1/30, 1/7] over durations of 1/20: the unit, 1/420, is finer than
    # the durations' own gcd, and p at 3/20 comes after the window closes
    a = mitl_to_tba(parse("F[1/30, 1/7] p"))
    assert [assert_accepts_as_rational(a, _visit_word(k)) for k in range(5)] == [
        False, True, True, False, False
    ]


def test_word_acceptance_reads_only_int_clocks(monkeypatch):
    read = _spy_on_guards(monkeypatch)
    a = mitl_to_tba(parse("F[1/30, 1/7] p"))
    ok, (_, _, clocks) = accepts(a, _visit_word(2), witness=True)
    assert ok and read
    assert all(type(v) is int for v in read)
    assert 61 in read  # one tick of 1/420 above 1/7
    assert all(type(v) is int for v in clocks)


def _unguarded(rng, a):
    """``a`` with about 70 % of its edge guards dropped to ``TOP``, its
    resets kept, so that its clock falls inactive at more locations."""
    edges = [Edge(e.src, TOP if rng.random() < 0.7 else e.guard, e.resets, e.dst)
             for e in a.edges]
    return TBA(a.locations, a.initial, a.clocks, edges, a.accepting, a.labels, a.ap,
               a.invariants)


def assert_quotient_of_unreduced(w, a):
    """``BuchiWTS`` is the rational product that keeps every clock
    (``reduce=False``) with each node mapped to its clocks readable at its
    location (``helpers.readable_clocks``), and every other clock 0: the
    mapped nodes are its nodes, and each mapped node's successors are its
    successors, so the two are bisimilar.  Returns (verdict of the
    unreduced product, whether the map merged nodes).
    """
    b, full = BuchiWTS(w, a), RationalProduct(w, a, reduce=False)
    readable = readable_clocks(a)

    def mapped(node):
        s, q, nu = node
        return (s, q, tuple(v if c in readable[q] else 0 for c, v in zip(a.clocks, nu)))

    nodes, adj = crawl(b.initial, b.succ)
    code = {_rational(b, n): n for n in nodes}
    full_nodes, full_adj = crawl(full.initial, full.succ)
    assert set(map(mapped, full_nodes)) == set(code)
    for n in full_nodes:
        kids = adj[code[mapped(n)]]
        assert set(map(mapped, full_adj[n])) == {_rational(b, k) for k in kids}
    verdict = accepting_cycle_exists(full.initial, full.succ, lambda n: n[1] in a.accepting)
    assert verdict == accepting_cycle_exists(b.initial, b.succ, b.accepting)
    return verdict, len(nodes) < len(full_nodes)


def test_zeroing_inactive_clocks_keeps_every_verdict():
    """The product and word acceptance, which store a clock no guard or
    invariant can read any more as 0, are bisimilar to the rational product
    that keeps every clock and give its verdicts, on random systems, words
    and automata with resets, some with their guards thinned, some with
    invariants; many of the reduced products are smaller."""
    rng = np.random.default_rng(107)
    inv_rng = np.random.default_rng(109)
    found = accepted = merged = 0
    for k in range(300):
        props = ("p",) if rng.random() < 0.5 else ("p", "q")
        w = rand_wts(rng, props, n_states=int(rng.integers(2, 7)))
        a = rand_tba(rng, props, n_locs=int(rng.integers(2, 5)))
        if k % 3:
            a = _unguarded(rng, a)
        if k % 2:
            a = with_invariants(inv_rng, a)
        verdict, fewer = assert_quotient_of_unreduced(w, a)
        found += verdict
        merged += fewer
        word = rand_word(rng, props)
        if rng.random() < 0.5:
            word = _along_edges(rng, a, word)
        verdict, fewer = assert_quotient_of_unreduced(_word_system(word, a.ap), a)
        assert accepts(a, word) == verdict
        accepted += verdict
        merged += fewer
    assert found >= 20 and accepted >= 30 and merged >= 40


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


# -- the joint product synchronized from live agent nodes ------------------------


def _rand_team(rng, n_agents):
    """Agents on a path with random moves, disjoint alphabets and random
    tasks, some of them two-factor automata."""
    cells = (1, 2, 3)
    dt = Fraction(1, int(rng.integers(1, 3)))
    systems, tbas = [], []
    for agent in range(1, n_agents + 1):
        nbs = tuple(j for j in (agent - 1, agent + 1) if 1 <= j <= n_agents)
        table = {
            (action[0], action): {int(c) for c in rng.choice(cells, int(rng.integers(1, 3)))}
            for action in itertools.product(cells, repeat=1 + len(nbs))
        }
        roll = rng.random() if n_agents == 2 else 1.0
        props = (f"p{agent}", f"q{agent}") if roll < 0.3 else (f"p{agent}",)
        labels = {c: {x for x in props if rng.random() < 0.5} for c in cells}
        start = [int(rng.integers(1, 4))]
        systems.append(TableAgentWTS(agent, nbs, dt, table, labels, start, frozenset(props)))
        a = _rand_task(rng, props, 2 if n_agents == 2 else 1)
        if 0.3 <= roll < 0.6:
            a = intersect(a, _rand_task(rng, props, 1))
        tbas.append(a)
    return systems, tbas


def _rand_task(rng, props, per_letter):
    """``rand_tba`` with ``per_letter`` locations per letter, one of them
    initial, so that every letter starts a run (every pair is an edge when
    there is one per letter), and guards of small constants on
    a grid of its own (halves, thirds or wholes), so that runs go on."""
    den = int(rng.integers(1, 4))

    def guard():
        x = Fraction(int(rng.integers(0, 4)), den)
        roll = rng.random()
        return TOP if roll < 0.5 else Atom("c", "<=" if roll < 0.7 else ">=", x)

    letters = [
        frozenset(x) for k in range(len(props) + 1) for x in itertools.combinations(props, k)
    ]
    labels = {f"q{i}{{{','.join(sorted(l))}}}": l for i in range(per_letter) for l in letters}
    locs = list(labels)
    edges = [
        Edge(src, guard(), {"c"} if rng.random() < 0.3 else (), dst)
        for src in locs
        for dst in locs
        if per_letter == 1 or rng.random() < 0.8
    ]
    initial = [locs[k + len(letters) * int(rng.integers(per_letter))] for k in range(len(letters))]
    accepting = [q for q in locs if rng.random() < 0.4] or [locs[int(rng.integers(0, len(locs)))]]
    return TBA(locs, initial, ("c",), edges, accepting, labels, frozenset(props))


def _joint_builds(systems, own, tbas):
    """Functions of a budget that build the joint product of ``systems``
    afresh: unpruned, and synchronized from ``own``'s products, each
    explored completely first."""
    agents = [BuchiWTS(c, a) for c, a in zip(own, tbas)]
    for b in agents:
        b.anchors()
    p, folded = product(systems), intersect(*tbas)
    return (lambda m=None: BuchiWTS(JointWTS(p), folded, m)), (
        lambda m=None: SyncProduct(p, folded, agents, m))


def _joint_pair(systems, own, tbas):
    return tuple(build() for build in _joint_builds(systems, own, tbas))


def _rand_teams(seed, n):
    rng = np.random.default_rng(seed)
    for k in range(n):
        yield _rand_team(rng, 2 if k % 3 else 3)


def _teams(seed, n):
    """The unpruned and the synchronized joint product of ``n`` random
    teams, each as drawn and padded to one tick and cap."""
    for systems, tbas in _rand_teams(seed, n):
        yield _joint_pair(systems, systems, tbas)
        yield _joint_pair(systems, systems, padded(systems[0].dt, tbas))


def test_live_is_the_backward_closure_of_the_anchors():
    for w, a in _rand_products(71, 40):
        b = BuchiWTS(w, a)
        live = b.live()
        nodes, adj = crawl(b.initial, b.succ)
        for n in nodes:
            reach, _ = crawl([n], adj.__getitem__)
            assert (n in live) == accepting_cycle_exists([n], adj.__getitem__, b.accepting)
            assert (n in live) == any(r in b.anchors()[0] for r in reach)


def _lasso_of(run):
    return run and (run.states, run.durations, run.stem_len)


def test_one_pass_search_names_the_two_pass_node_on_products():
    """On random acceptance products, and on the unpruned and synchronized
    joint products of random teams as drawn and padded to one tick and cap,
    the one-pass search names the two-pass search's node after asking for
    the successors of the same nodes in the same order.  Each search runs
    on a product of its own, so nodes are compared as tuples."""
    builds = [lambda w=w, a=a: BuchiWTS(w, a) for w, a in _rand_products(61, 60)]
    for systems, tbas in _rand_teams(61, 20):
        for team in (tbas, padded(systems[0].dt, tbas)):
            builds.extend(_joint_builds(systems, systems, team))
    found = 0
    for build in builds:
        seen = []
        for search in (nested_dfs, two_pass_nested_dfs):
            b = build()
            node, asked = first_calls(search, b.initial, b.succ, b.accepting)
            seen.append((None if node is None else b.node(node), [b.node(x) for x in asked]))
        assert seen[0] == seen[1]
        found += seen[0][0] is not None
    assert found >= 30


def test_kept_joint_search_finds_the_same_lasso():
    """Dead nodes reach only dead nodes, so nested DFS meets the live ones
    in the same order with or without the dead ones, and the lasso through
    the node it names runs through live nodes only.  Where every agent
    counts the joint ticks up to the joint cap, the synchronized product's
    nodes are the unpruned product's: the same verdict and the same lasso
    node for node.  Elsewhere each agent's clock is held at its own cap,
    the synchronized product is a quotient, and the verdict is the same."""
    found = pruned = 0
    for plain, kept in _teams(73, 36):
        want = nested_dfs(plain.initial, plain.succ, plain.accepting)
        got = nested_dfs(kept.initial, kept.succ, kept.accepting)
        assert (got is None) == (want is None)
        run, ref = find_accepting(kept), find_accepting(plain)
        assert (run is None) == (ref is None)
        if same_ticks(plain, kept.agents):
            if want is not None:
                assert kept.node(got) == plain.node(want)
                found += 1
            assert _lasso_of(run) == _lasso_of(ref)
        pruned += kept.n_explored < plain.n_explored
    assert found >= 5 and pruned >= 15


def test_sync_product_matches_the_unpruned_one_on_random_teams():
    """On random 2- and 3-agent teams, as drawn and padded to one tick and
    cap, the synchronized product and the unpruned joint product give the
    same verdict, and the same projected lasso wherever every agent's unit
    and cap are the joint product's."""
    seen = Counter()
    for systems, tbas in itertools.chain(_rand_teams(1, 90), _rand_teams(2, 90)):
        for pad in (False, True):
            team = padded(systems[0].dt, tbas) if pad else tbas
            plain, kept = _joint_pair(systems, systems, team)
            run, ref = find_accepting(kept), find_accepting(plain)
            assert (run is None) == (ref is None)
            same = same_ticks(plain, kept.agents)
            assert same or not pad
            if same and ref is not None:
                assert _lasso_of(project_run(run)) == _lasso_of(project_run(ref))
            seen[len(systems), ref is not None, same] += 1
    # (agents, feasible, same ticks) -> teams
    assert all(seen[n, found, True] >= 5 for n in (2, 3) for found in (False, True))
    assert seen[2, True, False] >= 10


def _lasso_cases(seed, n):
    """Functions of a budget that build a product afresh: ``n`` random
    products, then the plain and the kept joint product of ``n`` random
    teams."""
    for w, a in _rand_products(seed, n):
        yield lambda m, w=w, a=a: BuchiWTS(w, a, m)
    for systems, tbas in _rand_teams(seed, n):
        yield from _joint_builds(systems, systems, tbas)


def _fits(build, max_states, search) -> bool:
    try:
        search(build(max_states))
    except BudgetExceeded:
        return False
    return True


def test_find_accepting_builds_its_lasso_from_what_nested_dfs_explored():
    """``find_accepting``'s cycle entry is the node nested DFS names; its
    stem is a breadth-first shortest path to that node over the nodes the
    search expanded, and its cycle the shortest one through it there.
    Building the lasso expands no node: a twin product that ran only nested
    DFS has the same size, and the smallest budget that suffices is the
    same for both."""
    found = 0
    for build in _lasso_cases(97, 30):
        twin, b = build(None), build(None)
        node = nested_dfs(twin.initial, twin.succ, twin.accepting)
        run = find_accepting(b)
        assert (b.n_explored, len(b._memo)) == (twin.n_explored, len(twin._memo))
        alone = lambda x: nested_dfs(x.initial, x.succ, x.accepting)
        for m in (twin.n_explored - 1, twin.n_explored):
            assert _fits(build, m, alone) == _fits(build, m, find_accepting) == (
                m == twin.n_explored
            )
        if node is None:
            assert run is None
            continue
        found += 1
        expanded = lambda x: b._memo.get(x, ())
        dist, level = dict.fromkeys(b.initial, 0), list(b.initial)
        while level:
            nxt = []
            for x in level:
                for c in expanded(x):
                    if c not in dist:
                        dist[c] = dist[x] + 1
                        nxt.append(c)
            level = nxt
        code = {b.node(x): x for x in b._memo}
        codes = [code[x] for x in run.states]
        assert codes[run.stem_len] == node and run.stem_len == dist[node]
        assert codes[0] in b.initial
        assert all(v in expanded(u) for u, v in zip(codes, codes[1:]))
        assert codes[run.stem_len:] == shortest_cycle(node, expanded)
    assert found >= 15


def test_kept_joint_product_holds_every_accepting_cycle():
    """Exhausted, the synchronized product has the same anchors and loses
    only nodes that lie on no accepting lasso: node for node where every
    agent counts the joint ticks up to the joint cap, else as (joint state,
    location) pairs, since each agent then holds its clock at its own cap."""
    for plain, kept in _teams(79, 24):
        order = list(dict(bfs_order(kept.initial, kept.succ)))
        cyclic = on_cycle(order, kept.succ)
        cut = (lambda n: n) if same_ticks(plain, kept.agents) else (lambda n: n[:2])
        anchors = {cut(plain.node(n)) for n in plain.anchors()[0]}
        assert {cut(kept.node(n)) for n in order if n in cyclic and kept.accepting(n)} == anchors
        assert {cut(plain.node(n)) for n in plain.live()} <= {cut(kept.node(n)) for n in kept._memo}
        assert kept.n_explored <= plain.n_explored


def test_a_missing_projection_is_an_error_not_a_dead_node():
    """Agent 1's own product below lacks the move from cell 1 to cell 2
    that the joint system makes, so it is not the over-approximation that
    the synchronized product rests on: the joint search raises instead of
    dropping the move."""
    cells = (1, 2, 3)

    def agent(k, cut=()):
        table = {
            (c, (c, nb)): {d for d in cells if (c, d) not in cut} for c in cells for nb in cells
        }
        return TableAgentWTS(k, (3 - k,), Fraction(1, 4), table, {3: {f"p{k}"}}, [1])

    systems = [agent(1), agent(2)]
    tbas = [mitl_to_tba(parse(f"F[0, 1] p{k}"), alphabet={f"p{k}"}) for k in (1, 2)]
    plain, kept = _joint_pair(systems, systems, tbas)
    assert find_accepting(kept).states == find_accepting(plain).states
    _, kept = _joint_pair(systems, [agent(1, cut={(1, 2)}), systems[1]], tbas)
    with pytest.raises(RuntimeError, match="projects outside agent product 1"):
        find_accepting(kept)
