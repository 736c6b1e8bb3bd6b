"""Exception types shared across the package."""

from __future__ import annotations


class SawLabError(Exception):
    """Base class for all package errors."""


class BadDirectionError(SawLabError):
    """A step code is outside {0, ..., 2d-1}."""

    def __init__(self, code: int, index: int, dimension: int):
        self.code = code
        self.index = index
        self.dimension = dimension
        super().__init__(
            f"step code {code} at index {index} is invalid for dimension {dimension}"
        )


class NotSelfAvoidingError(SawLabError):
    """A walk revisits a vertex; ``index`` is the first repeated vertex position."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"walk revisits a vertex at index {index}")


class DimensionMismatchError(SawLabError):
    pass


class ShiftOutOfRangeError(SawLabError):
    pass


class PatternLongerThanPathError(SawLabError):
    pass


class BudgetExceededError(SawLabError):
    """An enumeration exceeded its node budget.

    ``budget`` is the limit and ``nodes`` the nodes charged when the search
    stopped (more than ``budget``).  ``checkpoint_path`` points at saved
    partial progress when checkpointing was enabled for the aborted
    computation.
    """

    def __init__(self, budget: int, nodes: int, checkpoint_path: str | None = None):
        self.budget = budget
        self.nodes = nodes
        self.checkpoint_path = checkpoint_path
        extra = f" (partial progress in {checkpoint_path})" if checkpoint_path else ""
        super().__init__(
            f"node budget of {budget} exceeded: {nodes} nodes charged{extra}")


class RejectionBudgetExceededError(SawLabError):
    def __init__(self, attempts: int):
        self.attempts = attempts
        super().__init__(f"rejection sampling gave up after {attempts} attempts")


class NoEscaperExistsError(SawLabError):
    """The requested extension length admits no escaping continuation."""


class ImpossiblePrefixError(SawLabError):
    """No walk of the requested length starts with the given prefix."""


class NoConvergenceError(SawLabError):
    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"power iteration did not converge in {iterations} iterations"
            f" (residual {residual:.3e})"
        )


class StartsDisagreeError(SawLabError):
    """Independent power-iteration starts converged to different vectors."""

    def __init__(self, spread: float, tolerance: float):
        self.spread = spread
        self.tolerance = tolerance
        super().__init__(
            f"fixed-point starts disagree by {spread:.3e} (allowed {tolerance:.3e})"
        )


class ZeroTotalMassError(SawLabError):
    """Applying the escape operator produced an all-zero vector."""


class BadMagicError(SawLabError):
    """A corpus file does not start with the expected magic bytes."""


class TruncatedRecordError(SawLabError):
    """A corpus file ended in the middle of a record."""


class CorruptCacheWarning(UserWarning):
    """A count-cache line failed its checksum and was skipped."""


class CheckpointIgnoredWarning(UserWarning):
    """A count checkpoint was unreadable or belonged to another count, so
    the count started over."""
