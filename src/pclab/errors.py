"""Exception types shared across the package."""


class PclabError(Exception):
    """Base class for all package-specific errors."""


class GraphFormatError(PclabError, ValueError):
    """Malformed graph6 input."""


class ColoringFormatError(PclabError, ValueError):
    """Malformed coloring file, or an assignment inconsistent with its host graph."""


class UnsupportedSizeError(PclabError, ValueError):
    """Instance outside the supported size regime."""


class PreconditionError(PclabError, ValueError):
    """Operation invoked on a graph that violates its stated precondition."""


class ConstructionError(PclabError, RuntimeError):
    """A coloring construction produced a certificate that failed verification."""


class BudgetExceededError(PclabError, RuntimeError):
    """A search hit its budget: the outcome is unknown, not refuted.

    ``stage`` names the phase that was cut off; ``stats`` is a dict of the
    counters collected so far, shaped as ``PcResult.stats`` for the solver and
    ``{"entered": count}`` for the path enumeration.
    """

    def __init__(self, message, stage=None, stats=None):
        super().__init__(message)
        self.stage = stage
        self.stats = stats
