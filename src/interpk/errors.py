"""Semantic exception hierarchy shared by all interpk modules."""


class InterpKError(Exception):
    """Base class for all library errors."""


class WindowError(InterpKError):
    """An index window is not contained in the window it must live on."""


class InvariantError(InterpKError):
    """A data invariant (positivity, monotonicity, shape) is violated."""


class DomainError(InterpKError):
    """An argument lies outside the mathematical domain of an operation."""


class SizeError(InterpKError):
    """The problem is too large for the requested (brute-force) evaluator."""


class ParamError(InterpKError):
    """An interpolation or lattice parameter fails its admissibility check."""


class ConstructionError(InterpKError):
    """A certified construction failed its own certificate check."""


class EmptyReportError(InterpKError):
    """No usable samples remained when assembling a report."""
