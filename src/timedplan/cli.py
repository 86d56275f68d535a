"""Command-line front end.

Subcommands:
  validate    parse a scenario and run every structural check
  synthesize  produce a plan, its human-readable timetable, and the sampled
              landing certificate in a run directory
  simulate    replay a plan against the continuous dynamics and record
              trajectories plus cell-membership verdicts
  stats       forward-reachability layer sizes of the joint abstraction

Exit codes: 0 success; 1 invalid input (command line, scenario, plan file,
or property violation, with the failed property named); 2 negative verdict
(infeasible task set, or a simulation that left its planned cells); 3 search
budget exhausted before any verdict.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import integrate_closed, lyapunov
from .errors import BudgetExceeded, TimedplanError
from .mitl import sat
from .rational import decimal_str, frac_str
from .scenario import (
    Built,
    build,
    check_minimum,
    load_scenario,
    plan_dumps,
    plan_loads,
)
from .synthesis import (
    Infeasible,
    Plan,
    make_controller,
    reachable_layers,
    synthesize,
)
from .workspace import locate
from .wts import (
    SUBSTEPS,
    cell_corners,
    check_consistent,
    format_steps,
    lands_in,
    product,
    simulation_check,
    timed_word,
)


def _load_built(args) -> Built:
    s = load_scenario(args.scenario)
    for key in ("seed", "r_selec", "max_states"):
        value = getattr(args, key, None)
        if value is not None:
            check_minimum(key, value)
            s = dataclasses.replace(s, **{key: value})
    return build(s)


def cmd_validate(args) -> int:
    b = _load_built(args)
    s = b.scenario
    print(f"scenario '{s.name}': ok")
    print(f"  agents: {s.n_agents}, edges: {list(s.edges)}")
    print(f"  cells: {b.dec.n_cells} (diameter {b.dec.diameter:.6g})")
    print(f"  quantum: {frac_str(s.dt)}, contraction: {s.lam}")
    print(f"  step ball radius: {b.disc.radius:.6g}")
    for i, w in enumerate(b.wts_list, start=1):
        init = sorted(w.initial)
        print(f"  agent {i}: start cell {init[0]}, services {sorted(w.alphabet)}")
    return 0


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _plan_text(b: Built, plan: Plan) -> str:
    lines = [
        f"route: {plan.route}",
        f"quantum: {frac_str(plan.dt)}",
        f"stem: {plan.stem_len} positions, cycle: {plan.cycle_len} positions",
        "",
    ]
    for i, run in enumerate(plan.runs, start=1):
        w = b.wts_list[i - 1]
        lines.append(f"--- agent {i} ---")
        lines.append(format_steps(run.states, run.durations, run.stem_len))
        served = []
        for j, cell in enumerate(run.states):
            l = w.label(cell)
            if l:
                served.append(
                    f"  t={frac_str(run.time(j))}: cell {cell} provides "
                    + "{" + ",".join(sorted(l)) + "}"
                )
        lines.extend(served if served else ["  (no service cells visited)"])
        lines.append("")
    return "\n".join(lines)


def _self_check(b: Built, plan: Plan) -> tuple[list[bool], bool]:
    """Re-verify a plan by paths independent of the search that found it:
    the semantics evaluator on each agent's word, then joint consistency."""
    tasks_sat = [
        sat(timed_word(run, comp.label), 0, f)
        for run, comp, f in zip(plan.runs, b.wts_list, b.formulas)
    ]
    try:
        consistent = check_consistent(plan.runs, b.graph, b.wts_list)
    except TimedplanError:
        consistent = False
    return tasks_sat, consistent


def _certificate(b: Built, plan: Plan):
    p = product(b.wts_list)
    controller = make_controller(b.disc, b.graph)
    return simulation_check(
        p,
        b.disc,
        b.graph,
        plan.steps(),
        controller,
        n_samples=b.scenario.samples,
        seed=b.scenario.seed,
    )


def cmd_synthesize(args) -> int:
    b = _load_built(args)
    s = b.scenario
    out = Path(args.out) if args.out else Path("runs") / s.name
    t0 = time.perf_counter()
    result = synthesize(
        b.graph, b.wts_list, b.formulas, r_selec=s.r_selec, max_states=s.max_states
    )
    elapsed = time.perf_counter() - t0
    if isinstance(result, Infeasible):
        print(f"infeasible: {result.reason}")
        return 2
    plan = result
    tasks_sat, consistent = _self_check(b, plan)
    failed = [i for i, ok in enumerate(tasks_sat, start=1) if not ok]
    if failed or not consistent:
        what = (
            f"agent {failed[0]}'s run does not satisfy its task (mitl.sat)"
            if failed
            else "the agents' runs do not zip into one joint run (check_consistent)"
        )
        print(f"internal error: plan failed its self-check: {what}; nothing written")
        return 1
    report = _certificate(b, plan)
    manifest = {
        "tool": "timedplan",
        "version": __version__,
        "command": "synthesize",
        "scenario": str(args.scenario),
        "scenario_sha256": s.fingerprint,
        "seed": s.seed,
        "r_selec": s.r_selec,
        "max_states": s.max_states,
        "samples": s.samples,
        "route": plan.route,
        "combos_checked": plan.combos_checked,
        "elapsed_s": round(elapsed, 3),
    }
    cert = {
        "consistent": consistent,
        "tasks_sat": tasks_sat,
        "ok": report.ok,
        "total_misses": report.total_misses,
        "steps": [
            {
                "step": r.step,
                "samples": r.samples,
                "misses": r.misses,
                "worst_distance": r.worst_distance,
            }
            for r in report.steps
        ],
    }
    _write(out / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    _write(out / "plan.json", plan_dumps(plan, s.fingerprint))
    _write(out / "plan.txt", _plan_text(b, plan))
    _write(out / "certificate.json", json.dumps(cert, indent=2, sort_keys=True) + "\n")
    print(f"plan found via {plan.route} route ({plan.combos_checked} combos checked)")
    print(f"certificate: {'all landings hit' if report.ok else 'MISSES RECORDED'}")
    print(f"written to {out}/")
    return 0


def cmd_simulate(args) -> int:
    b = _load_built(args)
    plan = plan_loads(Path(args.plan).read_text(encoding="utf-8"), b)
    s = b.scenario
    g = b.graph
    disc = b.disc
    dec = b.dec

    quanta = args.quanta if args.quanta is not None else len(plan.joint)
    controller = make_controller(disc, g)
    dt_sim = disc.dt / args.substeps
    x = np.array(s.starts, dtype=float)
    out = Path(args.out) if args.out else Path("runs") / f"{s.name}-sim"
    out.mkdir(parents=True, exist_ok=True)

    traj_rows = []
    lyap_rows = []
    cell_rows = []
    misses = 0
    for j in range(quanta):
        dst = plan.joint.state(j + 1)
        traj = integrate_closed(g, x, controller(dst), dt_sim, disc.dt, s.v_max)
        offset = j * disc.dt
        first = 1 if j > 0 else 0
        for k in range(first, len(traj.times)):
            t = offset + traj.times[k]
            for i in range(s.n_agents):
                row = [decimal_str(t), i + 1] + [
                    f"{v:.12g}" for v in traj.states[k][i]
                ]
                traj_rows.append(row)
            lyap_rows.append([decimal_str(t), f"{lyapunov(g, traj.states[k]):.12g}"])
        x = traj.final()
        hits = lands_in(*cell_corners(dec, [dst]), x[None])[0]
        misses += int(np.count_nonzero(~hits))
        for i in range(s.n_agents):
            try:
                landed = locate(dec, x[i])
            except TimedplanError:
                landed = 0
            cell_rows.append([j, i + 1, dst[i], landed, "yes" if hits[i] else "NO"])

    n_dim = len(s.starts[0])
    with open(out / "trajectory.csv", "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(["t", "agent"] + [f"x{k + 1}" for k in range(n_dim)])
        wr.writerows(traj_rows)
    with open(out / "lyapunov.csv", "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(["t", "disagreement"])
        wr.writerows(lyap_rows)
    with open(out / "reachable_cells.csv", "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(["quantum", "agent", "planned_cell", "landed_cell", "ok"])
        wr.writerows(cell_rows)

    if misses:
        print(f"membership: {misses} landings missed their planned cell")
        print(f"written to {out}/")
        return 2
    print(f"membership: all {quanta * s.n_agents} landings in their planned cells")
    print(f"written to {out}/")
    return 0


def cmd_stats(args) -> int:
    b = _load_built(args)
    p = product(b.wts_list)
    st = reachable_layers(p, args.steps, max_states=b.scenario.max_states)
    print(f"layers: {', '.join(str(c) for c in st.counts)}")
    print(f"elapsed: {st.seconds:.3f}s")
    if args.out:
        out = Path(args.out)
        _write(out / "stats.csv", st.csv())
        _write(
            out / "stats.txt",
            "\n".join(
                f"step {k}: {c} joint cells reachable"
                for k, c in enumerate(st.counts)
            )
            + f"\nelapsed: {st.seconds:.3f}s\n",
        )
        print(f"written to {out}/")
    return 0


def _at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def integer(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {n}")
        return n

    return integer


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="timedplan",
        description="Timed service planning for coupled agents on a shared workspace.",
    )
    ap.add_argument("--version", action="version", version=f"timedplan {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, *overrides):
        """The scenario argument plus the [synthesis] keys the command reads."""
        p.add_argument("scenario", help="scenario file (.cfg)")
        for key in overrides:
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=int, default=None)

    p = sub.add_parser("validate", help="check a scenario file end to end")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("synthesize", help="plan, timetable, and certificate")
    common(p, "seed", "r_selec", "max_states")
    p.add_argument("--out", default=None, help="run directory (default runs/<name>)")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("simulate", help="replay a plan against the dynamics")
    common(p)
    p.add_argument("--plan", required=True, help="plan.json from a synthesize run")
    p.add_argument("--out", default=None)
    p.add_argument("--quanta", type=_at_least(1), default=None, help="steps to replay")
    p.add_argument(
        "--substeps", type=_at_least(1), default=SUBSTEPS, help="integrator substeps per quantum"
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("stats", help="forward-reachability layer sizes")
    common(p, "max_states")
    p.add_argument("--steps", type=_at_least(0), default=10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_stats)

    return ap


def _run(args) -> int:
    """The subcommand's exit code; a typed error maps to its code here."""
    try:
        return args.func(args)
    except BudgetExceeded as e:
        print(f"budget exhausted: {e}")
        return 3
    except BrokenPipeError:
        raise  # an OSError, but main's to handle
    except (TimedplanError, OSError) as e:
        print(f"invalid: {type(e).__name__}: {e}")
        return 1


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on a usage error, a verdict code here
        return 1 if e.code == 2 else e.code
    try:
        code = _run(args)
        sys.stdout.flush()  # a closed reader surfaces here, not at exit
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout again on exit; send that to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
