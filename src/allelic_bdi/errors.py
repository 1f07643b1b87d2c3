"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InapplicableEventError(DomainError):
    """A transition event cannot be applied to the given partition."""


class BoundExceededError(DomainError):
    """A request exceeds a hard enumeration or truncation bound."""


class PartitionParseError(ValueError):
    """Malformed partition text.  Carries the character position of the fault."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class RunawayError(RuntimeError):
    """A simulation exceeded its event cap before reaching the time horizon.

    ``size`` and ``groups`` are the population size and group count where
    the run stopped; ``groups`` is None for the size process, which tracks
    no groups.
    """

    def __init__(
        self, message: str, events: int, time: float, size: int, groups: int | None = None
    ):
        super().__init__(message)
        self.events = events
        self.time = time
        self.size = size
        self.groups = groups

    def __reduce__(self):
        # the default reduction replays only ``args`` and would fail to
        # rebuild the error when a pool worker sends it back
        return type(self), (self.args[0], self.events, self.time, self.size, self.groups)
