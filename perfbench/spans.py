"""Spans around the program's functions, installed from outside.

Each target is a binding: the module (or class) attribute through which a
caller reaches the function.  ``buchi`` imports ``shortest_cycle`` and
``bfs_order`` by name, so those are wrapped in ``buchi``'s namespace as
well as in ``synthesis``'s; methods are wrapped on their class.

Spans are aggregated as they close, per name: calls, total time and self
time (total minus the time covered by child spans), plus per
(parent, child) pair the calls and total time.  The wrapper's own cost
around a child call falls in its parent's self time.  Hooks read exact
counters from arguments and results outside the timed interval.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter


def _hook_edges(args, out):
    return {"tba.edges": len(out.edges)}


def _hook_nodes(args, out):
    return {"buchi.nodes": args[0].n_explored}


def _hook_cycle(args, out):
    return {"search.cycles_found": int(out is not None)}


def _hook_rk4(args, out):
    return {"dynamics.rk4_steps": len(out.times) - 1}


def _hook_plan(args, out):
    return {"synthesis.plan_steps": len(out.joint) if out else 0}


# (module, attribute path, span name, hook)
TARGETS = (
    ("scenario", "build", "scenario.build", None),
    ("abstraction", "successors", "abstraction.successors", None),
    ("abstraction", "AgentWTS.post_any", "abstraction.post_any", None),
    ("synthesis", "mitl_to_tba", "tba.compile", _hook_edges),
    ("tba", "mitl_to_tba", "tba.compile", None),  # conjunctions recurse
    ("synthesis", "intersect", "tba.intersect", _hook_edges),
    ("tba", "intersect", "tba.intersect", None),  # conjunctions compile to it
    ("buchi", "BuchiWTS.succ", "buchi.succ", None),
    ("synthesis", "enumerate_accepting", "buchi.enumerate", _hook_nodes),
    ("synthesis", "find_accepting", "buchi.find_accepting", _hook_nodes),
    ("buchi", "shortest_cycle", "search.shortest_cycle", _hook_cycle),
    ("synthesis", "shortest_cycle", "search.shortest_cycle", _hook_cycle),
    ("buchi", "nested_dfs", "search.nested_dfs", None),
    ("tba", "nested_dfs", "search.nested_dfs", None),
    ("buchi", "bfs_order", "search.bfs_order", None),
    ("synthesis", "bfs_order", "search.bfs_order", None),
    ("synthesis", "check_consistent", "wts.check_consistent", None),
    ("wts", "ProductWTS.successors", "wts.product_successors", None),
    ("synthesis", "synthesize", "synthesis.synthesize", _hook_plan),
    ("synthesis", "reachable_layers", "synthesis.reachable_layers", None),
    ("wts", "simulation_check", "wts.simulation_check", None),
    # simulation_check imports integrate_closed from dynamics at call time
    ("dynamics", "integrate_closed", "dynamics.integrate", _hook_rk4),
    ("synthesis", "coupling", "dynamics.coupling", None),  # the controller's law
)

SPAN_NAMES = tuple(dict.fromkeys(t[2] for t in TARGETS))


class Tracer:
    """Spans installed inside ``with tracer:``; ``reset`` starts a fresh tally."""

    def __init__(self):
        self._undo = []
        self._open: list[float] = []  # child time accumulated per open span
        self._names: list[str] = []
        self.reset()

    def reset(self):
        # the wrappers read these through the tracer, so rebinding is safe
        self.spans: dict[str, list] = {n: [0, 0.0, 0.0] for n in SPAN_NAMES}
        self.edges: dict[tuple[str, str], list] = {}
        self.counts: Counter = Counter()

    def __enter__(self):
        for module, path, name, hook in TARGETS:
            owner = importlib.import_module(f"timedplan.{module}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(fn, name, hook))
            self._undo.append((owner, attr, fn))

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def _wrap(self, fn, name, hook):
        clock = time.perf_counter
        opened = self._open
        names = self._names
        tracer = self

        def wrapper(*args, **kw):
            opened.append(0.0)
            names.append(name)
            t0 = clock()
            try:
                out = fn(*args, **kw)
            finally:
                took = clock() - t0
                child = opened.pop()
                names.pop()
                span = tracer.spans[name]
                span[0] += 1
                span[1] += took
                span[2] += took - child
                if opened:
                    opened[-1] += took
                    edge = tracer.edges.setdefault((names[-1], name), [0, 0.0])
                    edge[0] += 1
                    edge[1] += took
            if hook is not None:
                tracer.counts.update(hook(args, out))
            return out

        return wrapper

    def calls(self, name: str) -> int:
        return self.spans[name][0]

    def self_s(self, name: str) -> float:
        return self.spans[name][2]

    def summary(self) -> dict:
        return {
            "spans": {
                n: {"calls": c, "total_s": t, "self_s": s}
                for n, (c, t, s) in self.spans.items()
            },
            "edges": [
                {"parent": p, "child": c, "calls": k, "total_s": t}
                for (p, c), (k, t) in sorted(self.edges.items())
            ],
            "counts": dict(sorted(self.counts.items())),
        }
