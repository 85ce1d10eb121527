"""Exception types shared across the package, and the check of eps."""


class TripwellError(Exception):
    """Base class for all package errors."""


class SpecificationError(TripwellError, ValueError):
    """A potential specification is malformed or violates its invariants."""


class ParameterError(TripwellError, ValueError):
    """An operation was called with an out-of-range parameter."""


class GridError(TripwellError, ValueError):
    """A grid function is malformed (duplicate nodes, bad boundary values, ...)."""


class ConstructionError(TripwellError, RuntimeError):
    """A microstructure construction is not admissible at the requested scale."""


class NumericError(TripwellError, RuntimeError):
    """A numerical routine failed to reach its accuracy target.

    Carries the best available estimate in ``estimate`` when one exists.
    """

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class CoercivityFailure(NumericError):
    """No positive coercivity constant fits the sampled lower bound."""


def check_eps(eps: float) -> None:
    """The one check of the length scale eps that every public entry makes."""
    if not 0.0 < eps < float("inf"):
        raise ParameterError("eps must be finite and positive")
