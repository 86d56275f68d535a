"""Benchmark of the timedplan synthesis pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process, a closed loop of one caller with no
threads and BLAS pinned to one thread.  A round takes every scenario of the
workload through the library entry points in the order the README gives
them: ``load_scenario``/``build``, ``synthesize``, ``simulation_check`` with
``make_controller`` for each plan, then ``reachable_layers``; every output
is checked against ``checks.py``.  Rounds repeat until S seconds have
passed, at least once; each phase is summed over the scenarios of a round
and reported as the median over rounds.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
round beside a twin that has the spans of ``spans.py`` installed, operation
by operation, and reports per-layer self times and exact counters from the
twin, and the tracing overhead as twin minus untraced times; the span
summary is written to ``perfbench/out/``.  The last line of standard output
is one JSON object.
"""

from __future__ import annotations

import os

# pinned before numpy can be imported by anything
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import NAMES, ROOT, workload

HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
SETUP_PROBES = 6  # fresh processes timing set-up, besides this one
PHASES = ("synthesize_s", "certificate_s", "stats_s")

END_TO_END = (
    ("setup_s", "s"),
    ("synthesize_s", "s"),
    ("certificate_s", "s"),
    ("stats_s", "s"),
    ("peak_rss_mb", "MB"),
)

# name, unit, value read from the tracer after a round
PER_LAYER = (
    ("scenario.build_s", "s", lambda t: t.self_s("scenario.build")),
    ("abstraction.successors_calls", "count", lambda t: t.calls("abstraction.successors")),
    ("abstraction.successors_s", "s", lambda t: t.self_s("abstraction.successors")),
    ("abstraction.post_any_s", "s", lambda t: t.self_s("abstraction.post_any")),
    ("tba.compile_s", "s", lambda t: t.self_s("tba.compile")),
    ("tba.intersect_s", "s", lambda t: t.self_s("tba.intersect")),
    ("tba.edges", "count", lambda t: t.counts["tba.edges"]),
    ("buchi.nodes", "count", lambda t: t.counts["buchi.nodes"]),
    ("buchi.succ_s", "s", lambda t: t.self_s("buchi.succ")),
    ("buchi.enumerate_s", "s", lambda t: t.self_s("buchi.enumerate")),
    ("search.shortest_cycle_calls", "count", lambda t: t.calls("search.shortest_cycle")),
    ("search.shortest_cycle_s", "s", lambda t: t.self_s("search.shortest_cycle")),
    ("search.cycles_found", "count", lambda t: t.counts["search.cycles_found"]),
    (
        "search.cycle_yield", "1/probe",
        lambda t: t.counts["search.cycles_found"] / max(t.calls("search.shortest_cycle"), 1),
    ),
    ("search.nested_dfs_s", "s", lambda t: t.self_s("search.nested_dfs")),
    ("search.bfs_order_s", "s", lambda t: t.self_s("search.bfs_order")),
    ("wts.check_consistent_calls", "count", lambda t: t.calls("wts.check_consistent")),
    ("wts.check_consistent_s", "s", lambda t: t.self_s("wts.check_consistent")),
    ("wts.product_successors_calls", "count", lambda t: t.calls("wts.product_successors")),
    ("wts.product_successors_s", "s", lambda t: t.self_s("wts.product_successors")),
    ("synthesis.reachable_layers_s", "s", lambda t: t.self_s("synthesis.reachable_layers")),
    ("synthesis.plan_steps", "count", lambda t: t.counts["synthesis.plan_steps"]),
    ("wts.simulation_check_s", "s", lambda t: t.self_s("wts.simulation_check")),
    ("dynamics.integrate_calls", "count", lambda t: t.calls("dynamics.integrate")),
    ("dynamics.rk4_steps", "count", lambda t: t.counts["dynamics.rk4_steps"]),
    ("dynamics.coupling_calls", "count", lambda t: t.calls("dynamics.coupling")),
    ("dynamics.coupling_s", "s", lambda t: t.self_s("dynamics.coupling")),
    ("dynamics.integrate_s", "s", lambda t: t.self_s("dynamics.integrate")),
)
# traced minus untraced: the sum over phases, then each phase's share
OVERHEAD = (("trace.overhead_s", "s"),) + tuple(
    (f"trace.{p[:-2]}_overhead_pct", "%") for p in PHASES
)


def sources_present() -> bool:
    return (SRC / "timedplan" / "__init__.py").is_file()


class Program:
    """The timedplan modules of this checkout, imported once per process."""

    def __init__(self):
        if not sources_present():
            raise SystemExit(f"no timedplan sources under {SRC}")
        sys.path.insert(0, str(SRC))
        import timedplan.scenario
        import timedplan.synthesis
        import timedplan.wts

        if Path(timedplan.__file__).resolve().parent != SRC / "timedplan":
            raise SystemExit(f"imported timedplan from {timedplan.__file__}")
        self.scenario = timedplan.scenario
        self.synthesis = timedplan.synthesis
        self.wts = timedplan.wts


def set_up(name: str, seed: int):
    """Import timedplan, then parse and build every scenario of a workload.

    The seed reaches each scenario as the CLI's ``--seed`` override does.
    Returns (seconds, program, workload, scenarios, builds).
    """
    wl = workload(name)
    t0 = time.perf_counter()
    prog = Program()
    scens = [
        dataclasses.replace(prog.scenario.parse_scenario(spec.text), seed=seed)
        for spec in wl.specs
    ]
    builds = [prog.scenario.build(s) for s in scens]
    return time.perf_counter() - t0, prog, wl, scens, builds


def probe_set_up(name: str, seed: int) -> list[float]:
    """Set-up seconds measured in fresh processes, one after another."""
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(done.stdout.split()[-1]))
    return out


@dataclasses.dataclass
class Tally:
    attempted: int = 0
    failed: int = 0


def scenario_ops(prog, wl, spec, s, geo, built, times, tally):
    """Run one scenario's operations, yielding after each.

    An operation is one phase with its output check: the build (``built``
    when given), synthesis, then ``repeats`` certificates of a plan and
    ``repeats`` stats runs, each counted at its median.  Phase times add
    into ``times``.  A phase that raises counts as failed, together with
    the operations after it; a ``checks.CheckFailed`` propagates.
    """
    import checks

    planned = 2 + wl.repeats * (2 if spec.expect == "plan" else 1)
    tally.attempted += planned
    done = 0
    clock = time.perf_counter
    try:
        b = built or prog.scenario.build(s)
        checks.check_build(geo, b)
        done += 1
        yield
        t0 = clock()
        verdict = prog.synthesis.synthesize(
            b.graph, b.wts_list, b.formulas, r_selec=s.r_selec, max_states=s.max_states
        )
        times["synthesize_s"] += clock() - t0
        is_plan = isinstance(verdict, prog.synthesis.Plan)
        checks.check_verdict(geo, spec.expect, is_plan)
        if is_plan:
            joint = verdict.joint
            checks.check_plan(geo, joint.states, joint.stem_len, joint.durations)
        done += 1
        yield
        took = []
        for _ in range(wl.repeats if is_plan else 0):
            t0 = clock()
            report = prog.wts.simulation_check(
                prog.wts.product(b.wts_list), b.disc, b.graph, verdict.steps(),
                prog.synthesis.make_controller(b.disc, b.graph),
                n_samples=s.samples, seed=s.seed,
            )
            took.append(clock() - t0)
            checks.check_certificate(geo, report, len(joint))
            done += 1
            yield
        if took:
            times["certificate_s"] += statistics.median(took)
        took = []
        for _ in range(wl.repeats):
            t0 = clock()
            layers = prog.synthesis.reachable_layers(
                prog.wts.product(b.wts_list), wl.stats_steps
            )
            took.append(clock() - t0)
            checks.check_layers(geo, layers.counts, wl.stats_steps)
            done += 1
            yield
        times["stats_s"] += statistics.median(took)
    except checks.CheckFailed:
        raise
    except Exception:
        traceback.print_exc()
        tally.failed += planned - done


def run_round(prog, wl, scens, geos, builds, tally, tracer=None):
    """One pass over every scenario; returns the summed phase times.

    With a tracer, a twin of each scenario, built anew, runs beside it with
    the spans installed, one operation after each untraced one, so that
    traced and untraced times are taken close together.  Returns
    (untraced times, traced times) then.
    """
    plain = dict.fromkeys(PHASES, 0.0)
    traced = dict.fromkeys(PHASES, 0.0)
    for k, (spec, s, geo) in enumerate(zip(wl.specs, scens, geos)):
        built = builds[k] if builds else None
        ops = scenario_ops(prog, wl, spec, s, geo, built, plain, tally)
        twin = () if tracer is None else scenario_ops(
            prog, wl, spec, s, geo, None, traced, tally)
        for _ in ops:
            if tracer is not None:
                with tracer:
                    next(twin, None)
        if tracer is not None:
            with tracer:
                for _ in twin:
                    pass
    return plain if tracer is None else (plain, traced)


def repeat(seconds, once) -> list:
    """Call ``once(k)`` for whole rounds k = 0, 1, ... until ``seconds``."""
    out = []
    t0 = time.perf_counter()
    while not out or time.perf_counter() - t0 < seconds:
        out.append(once(len(out)))
    return out


def median_of(rows, key):
    return statistics.median(r[key] for r in rows)


def measure(args):
    """Returns (metrics as name -> (value, unit), tally, correct)."""
    probes = probe_set_up(args.workload, args.seed)
    setup_s, prog, wl, scens, builds = set_up(args.workload, args.seed)
    import checks

    tally = Tally()
    try:
        geos = [checks.Geometry(spec.text) for spec in wl.specs]
        if args.trace:
            return traced_metrics(args, prog, wl, scens, geos, builds, tally), tally, True
        plain = repeat(args.seconds, lambda k: run_round(
            prog, wl, scens, geos, builds if k == 0 else None, tally))
        values = {"setup_s": statistics.median(probes + [setup_s])}
        values.update({k: median_of(plain, k) for k in PHASES})
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {n: (values[n], u) for n, u in END_TO_END}, tally, True
    except checks.CheckFailed as e:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
        return {}, tally, False


def traced_metrics(args, prog, wl, scens, geos, builds, tally) -> dict:
    import spans

    tracer = spans.Tracer()
    per_round = []

    def once(k):
        tracer.reset()
        times = run_round(prog, wl, scens, geos, builds if k == 0 else None, tally, tracer)
        per_round.append({n: get(tracer) for n, _, get in PER_LAYER})
        return times

    rounds = repeat(args.seconds, once)
    out = {n: (median_of(per_round, n), u) for n, u, _ in PER_LAYER}
    base = {k: median_of([p for p, _ in rounds], k) for k in PHASES}
    diff = {k: median_of([t for _, t in rounds], k) - base[k] for k in PHASES}
    values = [sum(diff.values())]
    values += [100.0 * diff[k] / base[k] if base[k] else 0.0 for k in PHASES]
    out.update({n: (v, u) for (n, u), v in zip(OVERHEAD, values)})
    dump = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
    dump.parent.mkdir(exist_ok=True)
    dump.write_text(json.dumps(tracer.summary(), indent=1) + "\n", encoding="utf-8")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not sources_present():
        print(f"no timedplan sources under {SRC}", file=sys.stderr)
        return 2

    metrics, tally, correct = measure(args)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} operations: {tally.attempted} attempted, {tally.failed} failed")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
