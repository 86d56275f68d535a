"""timedplan: timed service planning for consensus-coupled agents.

Pipeline: a communication graph plus motion limits size a grid abstraction
of the shared workspace; each agent's moves become a weighted transition
system; per-agent timed service tasks compile to timed automata; and the
search layer either finds one joint lasso plan satisfying every task or
reports infeasibility.  A sampled landing certificate replays the plan
against the continuous dynamics.
"""

__version__ = "0.1.0"
