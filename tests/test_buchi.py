from fractions import Fraction

import numpy as np
import pytest

from timedplan.buchi import (
    BuchiWTS,
    enumerate_accepting,
    find_accepting,
    locations,
    project_run,
)
from timedplan.errors import AlphabetMismatch, BudgetExceeded, MismatchedTimeStep
from timedplan.mitl import parse, sat
from timedplan.rational import INF
from timedplan.scenario import build, load_scenario
from timedplan.tba import intersect, mitl_to_tba, universal_tba
from timedplan.wts import WTS, timed_word

from helpers import (
    RationalProduct,
    accepting_cycle_exists,
    crawl,
    probe_every_accepting,
    rand_tba,
    rand_wts,
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


def _rational(b, node):
    s, q, ticks = node
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


def test_constants_off_the_quantum_get_their_own_ticks():
    # F[1/30, 1/7] at dt = 1/20: neither bound is a multiple of the quantum
    w = build(load_scenario("scenarios/two_agent_services.cfg")).wts_list[0]
    a = mitl_to_tba(parse("F[1/30, 1/7] p1"), alphabet=w.alphabet)
    b = BuchiWTS(w, a)
    assert b.unit == Fraction(1, 420)
    assert b.cap == 61  # one tick above 1/7
    assert b.valuation((60,)) == {"c": Fraction(1, 7)}
    assert b.valuation((61,)) == {"c": INF}
    assert assert_same_as_rational(w, a) > 0


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
