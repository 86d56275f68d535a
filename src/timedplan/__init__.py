"""timedplan: timed service planning for consensus-coupled agents.

Pipeline: a communication graph plus motion limits size a grid abstraction
of the shared workspace; each agent's moves become a weighted transition
system; per-agent timed service tasks compile to timed automata; and the
search layer either finds one joint lasso plan satisfying every task or
reports infeasibility.  A sampled landing certificate replays the plan
against the continuous dynamics.
"""

__version__ = "0.1.0"

from .abstraction import (
    AgentWTS,
    Discretization,
    build_wts,
    dmax_range,
    dt_range,
    nominal_endpoint,
    successors,
)
from .buchi import BuchiWTS, enumerate_accepting, find_accepting, project_run
from .dynamics import (
    AgentState,
    ConditionConstants,
    Trajectory,
    condition_constants,
    coupling,
    integrate,
    integrate_closed,
    lyapunov,
    relative_norm,
)
from .errors import *  # noqa: F401,F403 -- the error module defines __all__ implicitly via names
from .graphs import (
    BoundParams,
    CommGraph,
    SpectralData,
    build_graph,
    lemma2_check,
    spectral,
    theorem1_constants,
)
from .mitl import (
    Interval,
    parse,
    props,
    sat,
    service_compliance,
)
from .scenario import Scenario, build, load_scenario, parse_scenario
from .synthesis import (
    Infeasible,
    LayerStats,
    Plan,
    make_controller,
    reachable_layers,
    synthesize,
)
from .tba import (
    TBA,
    Edge,
    accepts,
    dump,
    eval_guard,
    intersect,
    mitl_to_tba,
    universal_tba,
)
from .workspace import (
    Box,
    CellDecomposition,
    ServiceLabeling,
    from_cuts,
    grid,
    intersect_decompositions,
    locate,
)
from .wts import (
    ProductWTS,
    TableAgentWTS,
    TimedRun,
    TimedWord,
    WTS,
    check_consistent,
    product,
    project,
    simulation_check,
    timed_word,
)
