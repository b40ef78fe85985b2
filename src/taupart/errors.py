"""Exception types shared across the package.

The CLI maps these onto exit codes: argument/target problems and files
that cannot be opened exit 2, counterexample reports exit 3, capacity
overruns exit 4.  An InternalCheckError, such as a constructed
certificate failing its own check, is a bug and aborts loudly.
"""

from __future__ import annotations


class GraphError(ValueError):
    """A graph argument is malformed or out of contract."""


class Graph6Error(GraphError):
    """A graph6 string failed to parse.

    `offset` is the 0-based byte offset within the input line at which
    the problem was detected.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class NotTwoConnectedError(GraphError):
    """The graph is not 2-connected.

    `cut_vertex` names an articulation vertex when one exists; for
    disconnected or too-small graphs it is None.
    """

    def __init__(self, reason: str, cut_vertex: int | None = None):
        super().__init__(reason)
        self.cut_vertex = cut_vertex


class FileAccessError(RuntimeError):
    """A file named on the command line cannot be opened."""


class TargetError(ValueError):
    """A partition target or colouring parameter is invalid for the graph."""


class CapacityError(RuntimeError):
    """The instance exceeds a documented size cap for the requested operation."""


class InternalCheckError(RuntimeError):
    """An internal cross-check failed; indicates a bug, aborts loudly."""


class CounterexampleError(RuntimeError):
    """Exhaustive search found no valid object where theory promises one.

    Carries the graph6 string and the target that failed so the instance
    can be reported and replayed.
    """

    def __init__(self, message: str, graph6: str, target: object = None):
        super().__init__(message)
        self.graph6 = graph6
        self.target = target


class StarRepairError(RuntimeError):
    """The search for a paired star colouring found none.

    The message says why: the search proved that the partition has no
    paired star colouring, or it used up its budget of colour tries.
    `colors` holds the paired colouring the search was given and `residual`
    that colouring's bicoloured P4s; star_coloring records both as a
    witness and colours the component by depth in a depth-first tree.
    """

    def __init__(self, message: str, residual: list[tuple[int, int, int, int]], colors: tuple[int, ...]):
        super().__init__(message)
        self.residual = residual
        self.colors = colors
