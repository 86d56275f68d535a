"""Exception types raised across the toolkit."""


class TimedplanError(Exception):
    """Base class for all toolkit errors."""


# -- communication graphs -------------------------------------------------

class SelfLoop(TimedplanError):
    pass


class DuplicateEdge(TimedplanError):
    pass


class DisconnectedGraph(TimedplanError):
    pass


class MarginNotAboveOne(TimedplanError):
    """The invariant-set radius must exceed the drift bound strictly."""


class DimensionMismatch(TimedplanError):
    pass


class IndexOutOfRange(TimedplanError):
    pass


# -- dynamics --------------------------------------------------------------

class InputBoundViolated(TimedplanError):
    """A free input exceeded its norm bound at a sample instant."""


class C1Violated(TimedplanError):
    """Coupling bound must strictly dominate the input bound."""


# -- workspace geometry ----------------------------------------------------

class CellSizeTooLarge(TimedplanError):
    pass


class BoundsMismatch(TimedplanError):
    pass


class OutOfBounds(TimedplanError):
    pass


# -- abstraction -----------------------------------------------------------

class LambdaOutOfRange(TimedplanError):
    pass


class InfeasibleDiameter(TimedplanError):
    """Cell diameter too large for any feasible time step."""


class TimeStepOutOfRange(TimedplanError):
    """Chosen step quantum falls outside the feasible range."""


# -- transition systems ----------------------------------------------------

class MismatchedTimeStep(TimedplanError):
    pass


class LengthMismatch(TimedplanError):
    pass


class UnknownState(TimedplanError):
    pass


# -- formulas --------------------------------------------------------------

class MitlSyntaxError(TimedplanError):
    pass


class EmptyInterval(TimedplanError):
    pass


class UnsupportedFragment(TimedplanError):
    """Formula outside the operator fragment the compiler handles."""


# -- timed automata --------------------------------------------------------

class UndeclaredClock(TimedplanError):
    pass


class AlphabetMismatch(TimedplanError):
    pass


# -- synthesis / CLI -------------------------------------------------------

class BudgetExceeded(TimedplanError):
    """State-count budget hit; reported rather than silently truncated."""

    def __init__(self, message, count=None):
        super().__init__(message)
        self.count = count


class ScenarioError(TimedplanError):
    """Malformed or inconsistent scenario file."""


class PlanMismatch(TimedplanError):
    """Plan file does not belong to the scenario it is replayed against."""
