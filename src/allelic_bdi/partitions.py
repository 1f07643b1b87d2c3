"""Sparse allelic partitions and the transition events that act on them.

An allelic partition records, for each group size i >= 1, how many groups
(families, alleles, species) have exactly that size.  Only nonzero
multiplicities are stored, so states reached deep into a run stay cheap to
copy, hash and compare even when individual groups grow large.

The text form used throughout ("1^3 2^1" for three singletons and one pair,
"0" for the empty state) is the interchange format of the CLI and of every
CSV export.
"""

from __future__ import annotations

import enum
import operator
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import BoundExceededError, DomainError, InapplicableEventError, PartitionParseError

#: Hard ceiling for exhaustive enumeration; p(40) = 37338 states is still fine,
#: anything much beyond stops being "exhaustive" in tests and verifiers.
MAX_ENUMERATION_SIZE = 40

_TERM_RE = re.compile(r"^(\d+)\^(\d+)$")


class EventKind(enum.Enum):
    """The three elementary moves on an allelic partition."""

    NEW_FAMILY = "new_family"
    GROWTH = "growth"
    DEATH = "death"


@dataclass(frozen=True)
class TransitionEvent:
    """One elementary move.

    ``index`` is the size of the group acted on (the size *before* the move)
    and must be ``None`` exactly when the kind is ``NEW_FAMILY``.
    """

    kind: EventKind
    index: int | None = None

    def __post_init__(self):
        if self.kind is EventKind.NEW_FAMILY:
            if self.index is not None:
                raise DomainError("a new-family event carries no group-size index")
        else:
            if not isinstance(self.index, int) or isinstance(self.index, bool) or self.index < 1:
                raise DomainError("growth and death events need a group-size index >= 1")

    @classmethod
    def new_family(cls) -> "TransitionEvent":
        return cls(EventKind.NEW_FAMILY)

    @classmethod
    def growth(cls, index: int) -> "TransitionEvent":
        return cls(EventKind.GROWTH, index)

    @classmethod
    def death(cls, index: int) -> "TransitionEvent":
        return cls(EventKind.DEATH, index)

    @property
    def size_delta(self) -> int:
        """Change in total population size when the event is applied."""
        return -1 if self.kind is EventKind.DEATH else 1

    def __str__(self):
        if self.kind is EventKind.NEW_FAMILY:
            return "new_family"
        return f"{self.kind.value}@{self.index}"


class AllelicPartition:
    """Immutable sparse multiplicity vector.

    Entries are (group size, count) pairs of integers (Python or numpy, not
    bool) with count >= 1, kept sorted by size.  Instances are hashable and
    usable as dictionary keys; all mutation goes through :meth:`apply_event`,
    which returns a new object.
    """

    __slots__ = ("_entries", "_size", "_num_groups", "_hash")

    def __init__(self, entries: Iterable[tuple[int, int]] = ()):
        items = sorted((_integer(i), _integer(c)) for i, c in entries)
        prev = 0
        for i, c in items:
            if i < 1:
                raise DomainError("group sizes must be >= 1")
            if c < 1:
                raise DomainError("multiplicities must be >= 1")
            if i == prev:
                raise DomainError(f"duplicate entry for group size {i}")
            prev = i
        self._entries = tuple(items)
        self._size = sum(i * c for i, c in items)
        self._num_groups = sum(c for _, c in items)
        self._hash = hash(self._entries)

    # -- constructors --------------------------------------------------

    @classmethod
    def empty(cls) -> "AllelicPartition":
        return cls()

    @classmethod
    def decode(cls, text: str) -> "AllelicPartition":
        """Parse the canonical text form ("1^3 2^1", or "0" for empty).

        Terms must appear in strictly increasing group-size order with
        positive multiplicities; anything else raises
        :class:`PartitionParseError` with the character position of the fault.
        """
        tokens = [(m.group(0), m.start()) for m in re.finditer(r"\S+", text)]
        if not tokens:
            raise PartitionParseError("empty partition text", 0)
        if tokens[0][0] == "0":
            if len(tokens) > 1:
                raise PartitionParseError("unexpected term after empty-state marker", tokens[1][1])
            return cls()
        entries = []
        prev = 0
        for token, pos in tokens:
            m = _TERM_RE.match(token)
            if m is None:
                raise PartitionParseError(f"malformed term {token!r}, expected i^m", pos)
            i, c = int(m.group(1)), int(m.group(2))
            if i < 1:
                raise PartitionParseError("group size must be >= 1", pos)
            if c < 1:
                raise PartitionParseError("multiplicity must be >= 1", pos)
            if i <= prev:
                raise PartitionParseError("group sizes must be strictly increasing", pos)
            prev = i
            entries.append((i, c))
        return cls(entries)

    # -- views -----------------------------------------------------------

    @property
    def entries(self) -> tuple[tuple[int, int], ...]:
        return self._entries

    @property
    def size(self) -> int:
        """Total population size: sum of i * m_i."""
        return self._size

    @property
    def num_groups(self) -> int:
        """Number of groups: sum of m_i."""
        return self._num_groups

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self._entries)

    def multiplicity(self, i: int) -> int:
        for j, c in self._entries:
            if j == i:
                return c
            if j > i:
                break
        return 0

    def as_dict(self) -> dict[int, int]:
        return dict(self._entries)

    def dense(self, length: int | None = None) -> tuple[int, ...]:
        """Dense prefix (m_1, ..., m_L); L defaults to the population size."""
        n = self._size if length is None else length
        out = [0] * n
        for i, c in self._entries:
            if i <= n:
                out[i - 1] = c
        return tuple(out)

    # -- dynamics ----------------------------------------------------------

    def apply_event(self, event: TransitionEvent) -> "AllelicPartition":
        """Return the partition after one elementary move.

        Raises :class:`InapplicableEventError` when the event references a
        group size with zero multiplicity.
        """
        counts = dict(self._entries)
        _apply_event(counts, event)
        return AllelicPartition(counts.items())

    def encode(self) -> str:
        if not self._entries:
            return "0"
        return " ".join(f"{i}^{c}" for i, c in self._entries)

    # -- protocol ----------------------------------------------------------

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._entries)

    def __eq__(self, other):
        if not isinstance(other, AllelicPartition):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"AllelicPartition.decode({self.encode()!r})"

    def __reduce__(self):
        return (AllelicPartition, (self._entries,))


def _integer(x, what: str = "group sizes and multiplicities") -> int:
    """``x`` as a Python int if it is a Python or numpy integer other than a bool."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise DomainError(f"{what} must be integers, got {x!r}")


def _apply_event(counts: dict[int, int], event: TransitionEvent) -> None:
    """Apply ``event`` in place to ``counts`` (size -> multiplicity), unchanged when it raises."""
    if event.kind is EventKind.NEW_FAMILY:
        counts[1] = counts.get(1, 0) + 1
        return
    i = event.index
    if i not in counts:
        state = AllelicPartition(counts.items()).encode()
        raise InapplicableEventError(f"no group of size {i} to act on in {state!r}")
    if counts[i] == 1:
        del counts[i]
    else:
        counts[i] -= 1
    j = i + 1 if event.kind is EventKind.GROWTH else i - 1
    if j:  # a death in a group of size 1 leaves no group behind
        counts[j] = counts.get(j, 0) + 1


def _entries(n: int, low: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Entries of every partition of ``n`` into sizes >= ``low``, in enumeration order.

    The smallest size i runs up from ``low``, its count c down from n // i, and
    the rest n - c i takes sizes above i: descending lexicographic in (m_low, ...).
    """
    if not n:
        yield ()
        return
    for i in range(low, n + 1):
        for c in range(n // i, 0, -1):
            rest = n - c * i
            if not 0 < rest <= i:
                for tail in _entries(rest, i + 1):
                    yield ((i, c),) + tail


@lru_cache(maxsize=None)
def enumerate_partitions(n: int) -> tuple[AllelicPartition, ...]:
    """All allelic partitions of total size ``n``, in a fixed order.

    The order is descending lexicographic in the dense prefix
    (m_1, ..., m_n), so "1^n" comes first and "n^1" last, and test fixtures
    can rely on it.  Bounded at ``MAX_ENUMERATION_SIZE``.
    """
    if n < 0:
        raise DomainError("partition size must be >= 0")
    if n > MAX_ENUMERATION_SIZE:
        raise BoundExceededError(
            f"enumeration is capped at n = {MAX_ENUMERATION_SIZE} (requested {n})"
        )
    return tuple(map(AllelicPartition, _entries(n, 1)))
