"""Exception types shared across the toolkit."""


class CorrintError(Exception):
    """Base class for all toolkit errors."""


class StructureError(CorrintError):
    """Objects built over mismatched atom universes or malformed structures."""


class PreconditionError(CorrintError):
    """An operation's documented precondition does not hold."""


class DivisibilityError(CorrintError):
    """A block cannot be split into the requested equal-mass parts."""


class CapacityError(CorrintError):
    """An enumeration would exceed the caller's cap.

    Carries the exact count so callers can report it.
    """

    def __init__(self, count: int, cap: int, message: str | None = None):
        self.count = count
        self.cap = cap
        super().__init__(message or f"enumeration size {count} exceeds cap {cap}")


class ConfigError(CorrintError):
    """A scenario or game configuration failed to parse or validate."""
