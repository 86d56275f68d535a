"""The benchmark's workloads: which scenarios each one runs and why.

Every scenario is scenario-file text.  ``path-three`` reads the shipped
``scenarios/path_three_fast.cfg`` unchanged; the other two generate their
scenarios here, in the geometry of the shipped ``two_agent_services.cfg``
(cell 0.012, dt = 1/20, lambda 0.14, v_max 1, starts at (0.030, 0.030) and
(0.042, 0.030)).  This module imports nothing from ``timedplan``, so the
set-up timing starts before the program is loaded.

Write the scenarios out with::

    python3 perfbench/workloads.py --out DIR
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PATH_THREE = ROOT / "scenarios" / "path_three_fast.cfg"

GRID_SIDES = (6, 10, 16)


@dataclass(frozen=True)
class Spec:
    """One scenario of a workload and the verdict it must get."""

    name: str
    text: str
    expect: str  # "plan" or "infeasible"


@dataclass(frozen=True)
class Workload:
    name: str
    specs: tuple[Spec, ...]
    stats_steps: int
    repeats: int = 1  # runs of the certificate and of stats per round


def two_agent(name, side, label1, label2, phi1, phi2, samples=25) -> str:
    """Two agents on the edge 1-2 over a side x side grid of 0.012 cells."""
    hi = f"{0.012 * side:.3f}"
    return f"""\
[scenario]
version = 1
name = {name}

[graph]
agents = 2
edges = 1-2

[dynamics]
v_max = 1.0
margin = 1.05
start.1 = 0.030, 0.030
start.2 = 0.042, 0.030

[workspace]
bounds = 0.0, 0.0 ; {hi}, {hi}
cell_size = 0.012

[abstraction]
lambda = 0.14
dt = 1/20

[labels]
1.p1 = {label1}
2.p2 = {label2}

[formulas]
phi.1 = {phi1}
phi.2 = {phi2}

[synthesis]
r_selec = 100
samples = {samples}
seed = 0
"""


def _cell(side, ix, iy) -> int:
    """1-based index of grid cell (ix, iy): lexicographic, x-major."""
    return ix * side + iy + 1


def grid_growth_spec(side: int) -> Spec:
    # labels sit where the shipped file puts them: p1 at (2, 1), one cell
    # below agent 1's start; p2 at (3, 3), one cell above agent 2's start.
    # 60 samples per step give the 7-position certificates over 0.5 s each.
    return Spec(
        f"grid-growth-{side}",
        two_agent(
            f"grid-growth-{side}", side, _cell(side, 2, 1), _cell(side, 3, 3),
            "F[1/20, 1/4] p1", "F[1/20, 1/4] p2", samples=60,
        ),
        "plan",
    )


def joint_route_specs() -> tuple[Spec, ...]:
    # p1 at the bottom and p2 at the top of x-column 2: five rows apart,
    # while coupling keeps the agents within about two cells, so no pair of
    # per-agent lassos zips and the joint product has to settle it.  Three
    # samples per step keep the 1,217-position lasso's certificate near 6 s.
    feasible = Spec(
        "joint-route-feasible",
        two_agent(
            "joint-route-feasible", 6, 13, 18,
            "F[0, 1/2] p1", "F[0, 1/2] p2", samples=3,
        ),
        "plan",
    )
    # x-columns 0 and 5 must be held together over [1/4, 1/2]: unreachable,
    # so nested DFS has to exhaust the joint product
    infeasible = Spec(
        "joint-route-infeasible",
        two_agent(
            "joint-route-infeasible", 6, "1-6", "31-36",
            "G[1/4, 1/2] p1", "G[1/4, 1/2] p2", samples=3,
        ),
        "infeasible",
    )
    return (feasible, infeasible)


def workload(name: str) -> Workload:
    # stats steps and repeats size each phase to seconds of work
    if name == "path-three":
        text = PATH_THREE.read_text(encoding="utf-8")
        spec = Spec("path_three_fast", text, "plan")
        # the shipped file fixes 25 samples over 42 steps, about 1.7 s; the
        # memory-bound stats phase is the noisiest, so both run twice
        return Workload(name, (spec,), stats_steps=10, repeats=2)
    if name == "grid-growth":
        specs = tuple(grid_growth_spec(n) for n in GRID_SIDES)
        return Workload(name, specs, stats_steps=15)
    if name == "joint-route":
        return Workload(name, joint_route_specs(), stats_steps=40)
    raise KeyError(name)


NAMES = ("path-three", "grid-growth", "joint-route")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="write the generated scenarios")
    ap.add_argument("--out", required=True, help="directory for the .cfg files")
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for spec in (*map(grid_growth_spec, GRID_SIDES), *joint_route_specs()):
        (out / f"{spec.name}.cfg").write_text(spec.text, encoding="utf-8")
        print(out / f"{spec.name}.cfg")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
