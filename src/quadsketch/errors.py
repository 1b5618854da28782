"""Exception types shared across the package."""


class QuadsketchError(Exception):
    """Base class for domain errors raised by this package."""


class GraphFormatError(QuadsketchError):
    """Malformed graph or matrix file; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class QueryError(QuadsketchError, ValueError):
    """Query vector of the wrong length or with invalid entries."""


class TooLargeError(QuadsketchError):
    """Instance exceeds the hard cap of an exhaustive or dense method."""


class SketchConsistencyError(QuadsketchError):
    """A query outside the model of a sketch: a cut query that separates
    two vertices of one contraction class of a general cut sketch.

    A corrupt sketch never gets this far: decoding rejects it.
    """
