"""Exception hierarchy shared by every module in the package."""


class InterlacementError(Exception):
    """Base class for every error raised by this package."""


class GraphError(InterlacementError):
    """Invalid graph construction or malformed half-edge data."""


class NoVertices(GraphError):
    """A graph must declare at least one vertex."""


class SlotReused(GraphError):
    """A (vertex, slot) endpoint was used by more than one edge."""


class SlotMissing(GraphError):
    """Some vertex has an unused half-edge slot, so the graph is not 4-regular."""


class UnknownVertex(GraphError):
    """An edge endpoint or an operation refers to a vertex not in the graph."""


class GraphMismatch(InterlacementError):
    """Two values that must refer to the same graph (or vertex order) do not."""


class NotAJunction(InterlacementError):
    """The vertex is not incident on two distinct circuits of the partition."""


class AlreadyEuler(InterlacementError):
    """The circuit partition already has one circuit per connected component."""


class NotEulerSystem(InterlacementError):
    """A transition system expected to trace out an Euler system does not."""


class TooLarge(InterlacementError):
    """An enumeration would exceed the configured resource guard."""


class InvalidProfile(InterlacementError):
    """A computed partition profile breaks a structural invariant."""


class DimensionMismatch(InterlacementError):
    """Matrix or vector shapes are incompatible."""


class IndexOutOfRange(InterlacementError):
    """A row, column, or coordinate index lies outside the object."""


class Singular(InterlacementError):
    """The matrix has no inverse over GF(2)."""


class ParseError(InterlacementError):
    """A graph or transition file could not be parsed."""

    def __init__(self, message, lineno=None):
        super().__init__(message if lineno is None else f"line {lineno}: {message}")
        self.lineno = lineno
        self.reason = message
