"""Continuous-time dynamics on allelic partitions.

Three engines share one event vocabulary:

* ``simulate`` - Gillespie simulation of the multiplicity-level chain, whose
  rates from state m are theta + alpha * k(m) for a new family,
  (i - alpha) * m_i for growth of a size-i group and mu * i * m_i for a death
  in one, for a total jump rate of theta + (1 + mu) * s(m).
* ``simulate_bdi`` - the population-size process alone (birth theta + n,
  death mu * n), a plain integer birth-death-immigration chain.
* ``simulate_branching`` - an individual-level construction: unit-rate
  reproduction with the oldest member of each family founding a new family
  with probability alpha, exponential(mu) lifetimes, and immigration at rate
  theta.  It emits the induced multiplicity-level trajectory, which has the
  same law as ``simulate``.

Each engine is one kernel that runs the chain and returns the final state
(the sorted (size, count) entries of a partition, or an integer size).  A
kernel takes its two draws as callables, an exponential holding time and a
uniform on [0, 1), and hands each (time, event) pair to a ``record`` callable
only when it is given one: the three public functions pass a generator's
``exponential`` and ``random``, record into a list and wrap it in a path;
ensembles (:func:`allelic_bdi.montecarlo.run_ensemble`) record nothing, and
the occupation run adds up time per state as events arrive.  Every kernel
refuses a horizon that is not finite and >= 0, checks that each jump
strictly advances the clock and raises :class:`RunawayError`, naming the
state it stopped in, past its event cap.  Event objects are immutable and
shared by all runs in the process.

From the empty state with theta <= 0 every engine has total rate zero and
returns an eventless trajectory; starting such runs is refused at the CLI
level instead.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import DomainError, RunawayError
from .formulae import ModelParams
from .partitions import AllelicPartition, EventKind, TransitionEvent

DEFAULT_MAX_EVENTS = 10**8


def rates(m: AllelicPartition, params: ModelParams) -> list[tuple[TransitionEvent, float]]:
    """Positive-rate transition table from state ``m``, in selection order.

    The order is the one :func:`simulate` walks: new family, growth by
    increasing group size, death by increasing group size.  The new-family
    rate theta + alpha * k is listed only when positive (at the empty state
    a nonpositive value means the chain is frozen).  The rates sum to
    theta + (1 + mu) * s(m) whenever the new-family rate is positive; with
    mu = 0 no death events appear.
    """
    alpha, mu = params.alpha, params.mu
    out = []
    new_family = params.theta + alpha * m.num_groups
    if new_family > 0.0:
        out.append((_NEW_FAMILY, new_family))
    out.extend((_GROWTH[i], (i - alpha) * c) for i, c in m)
    if mu > 0.0:
        out.extend((_DEATH[i], mu * i * c) for i, c in m)
    return out


@dataclass(frozen=True)
class Trajectory:
    """A finite piece of one sample path of the multiplicity-level chain.

    ``events`` holds (jump time, event) pairs with strictly increasing times
    in (0, horizon]; the state at any time is recovered by replaying them
    from ``initial``.  Paths returned by the engines also carry the final
    state the engine reached (not part of equality or the constructor).
    """

    initial: AllelicPartition
    events: tuple[tuple[float, TransitionEvent], ...]
    horizon: float
    _final: AllelicPartition | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_jump_times(map(itemgetter(0), self.events), self.horizon)

    def __len__(self) -> int:
        return len(self.events)

    def state_at(self, t: float) -> AllelicPartition:
        if not 0.0 <= t <= self.horizon:
            raise DomainError(f"query time {t} outside [0, {self.horizon}]")
        state = self.initial
        for tau, ev in self.events:
            if tau > t:
                break
            state = state.apply_event(ev)
        return state

    def final_state(self) -> AllelicPartition:
        """The state at the horizon.

        O(1) on paths returned by :func:`simulate` and
        :func:`simulate_branching`, which record the state they ended in;
        paths built by hand replay their events, O(events * distinct sizes).
        Both give the same partition for the same events.
        """
        if self._final is not None:
            return self._final
        return self.state_at(self.horizon)

    def iter_states(self) -> Iterator[tuple[float, AllelicPartition]]:
        """(time, state) pairs starting with (0, initial)."""
        state = self.initial
        yield 0.0, state
        for t, ev in self.events:
            state = state.apply_event(ev)
            yield t, state


@dataclass(frozen=True)
class SizeTrajectory:
    """Sample path of the integer size process: values after each jump."""

    times: tuple[float, ...]
    values: tuple[int, ...]
    horizon: float
    initial: int = 0

    def __post_init__(self):
        if len(self.times) != len(self.values):
            raise DomainError("times and values must have equal length")
        _check_jump_times(self.times, self.horizon)

    def value_at(self, t: float) -> int:
        if not 0.0 <= t <= self.horizon:
            raise DomainError(f"query time {t} outside [0, {self.horizon}]")
        idx = bisect_right(self.times, t)
        return self.initial if idx == 0 else self.values[idx - 1]

    @property
    def final_value(self) -> int:
        return self.values[-1] if self.values else self.initial


def _check_horizon(t_end: float) -> None:
    """Refuse a negative, infinite or nan horizon (every engine and path type)."""
    if not 0.0 <= t_end < math.inf:
        raise DomainError(f"the horizon must be finite and >= 0, got {t_end}")


def _check_jump_times(times: Iterable[float], horizon: float) -> None:
    """Refuse jump times that are not strictly increasing within (0, horizon]."""
    _check_horizon(horizon)
    prev = 0.0
    for t in times:
        if not t > prev:
            raise DomainError("jump times must be strictly increasing and positive")
        prev = t
    if prev > horizon:
        raise DomainError("jump times must not exceed the horizon")


def _engine_path(start: AllelicPartition, events: list, t_end: float, final: tuple) -> Trajectory:
    path = Trajectory(start, tuple(events), t_end)
    object.__setattr__(path, "_final", AllelicPartition(final) if final else _EMPTY)
    return path


class _EventCache(dict):
    """size -> TransitionEvent of one kind, built on first use."""

    def __init__(self, kind: EventKind):
        super().__init__()
        self.kind = kind

    def __missing__(self, index: int) -> TransitionEvent:
        event = self[index] = TransitionEvent(self.kind, index)
        return event


# shared by every run in the process: an event is immutable, so one object
# per (kind, size) serves all paths, and nothing is validated per replicate
_NEW_FAMILY = TransitionEvent.new_family()
_GROWTH = _EventCache(EventKind.GROWTH)
_DEATH = _EventCache(EventKind.DEATH)
_EMPTY = AllelicPartition.empty()


def _runaway(engine: str, events: int, t: float, cap: int, s: int, k: int | None) -> RunawayError:
    state = f"population size {s}" if k is None else f"population size {s} in {k} groups"
    return RunawayError(
        f"{engine} run exceeded the event cap of {cap} at simulated time {t:.6g} "
        f"with {state}",
        events=events,
        time=t,
        size=s,
        groups=k,
    )


def _stalled(t: float) -> DomainError:
    return DomainError(
        f"jump times must be strictly increasing and positive: a jump at time {t!r} "
        "did not advance the clock"
    )


def _multiplicity_kernel(
    params: ModelParams,
    t_end: float,
    exponential: Callable[[float], float],
    uniform: Callable[[], float],
    start: AllelicPartition,
    max_events: int,
    record: Callable[[tuple], None] | None,
) -> tuple[tuple[int, int], ...]:
    """Run the multiplicity-level chain; return the sorted entries at ``t_end``.

    Passes each (time, event) pair to ``record`` unless it is None.
    """
    _check_horizon(t_end)
    counts = start.as_dict()
    support = sorted(counts)
    s, k = start.size, start.num_groups
    theta, alpha, mu = params.theta, params.alpha, params.mu
    t = 0.0
    n = 0
    while True:
        total = theta + (1.0 + mu) * s if s else (theta if theta > 0.0 else 0.0)
        if total <= 0.0:
            break
        t_next = t + exponential(1.0 / total)
        if t_next > t_end:
            break
        if not t_next > t:
            raise _stalled(t_next)
        t = t_next
        if n >= max_events:
            raise _runaway("multiplicity", n, t, max_events, s, k)
        n += 1
        u = uniform() * total
        new_family = theta + alpha * k
        acc = new_family if new_family > 0.0 else 0.0
        if u < acc or not support:  # with no groups, round-off included
            counts[1] = c = counts.get(1, 0) + 1
            if c == 1:
                support.insert(0, 1)
            s += 1
            k += 1
            if record is not None:
                record((t, _NEW_FAMILY))
            continue
        grow = True
        for index in support:
            acc += (index - alpha) * counts[index]
            if u < acc:
                break
        else:
            if mu > 0.0:
                grow = False
                for index in support:
                    acc += mu * index * counts[index]
                    if u < acc:
                        break
        c = counts[index]
        if c == 1:
            del counts[index]
            del support[bisect_left(support, index)]
        else:
            counts[index] = c - 1
        j = index + 1 if grow else index - 1
        if j:
            counts[j] = c = counts.get(j, 0) + 1
            if c == 1:
                insort(support, j)
        else:
            k -= 1
        if grow:
            s += 1
            if record is not None:
                record((t, _GROWTH[index]))
        else:
            s -= 1
            if record is not None:
                record((t, _DEATH[index]))
    return tuple([(i, counts[i]) for i in support])  # the support is kept sorted


def simulate(
    params: ModelParams,
    t_end: float,
    rng: np.random.Generator,
    *,
    initial: AllelicPartition | None = None,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> Trajectory:
    """Gillespie simulation of the multiplicity-level chain on [0, t_end].

    Starts from the empty state unless ``initial`` is given.  Each event
    costs two draws (holding time, then a uniform selector), an O(1) update
    of the total rate theta + (1 + mu) * s, and a selection walk over the
    sorted support, O(distinct sizes).  The support list changes (by bisect)
    only when a size appears or vanishes.  Recording the path adds one
    (time, shared event) pair per event; ensembles run the same kernel
    without recording, so their memory does not grow with the event count.
    The returned path carries its final state, so ``final_state()`` is O(1).

    Bit-identity: the walk visits the events in the order of :func:`rates`
    (new family, growth by increasing size, death by increasing size),
    accumulates their weights in that order and falls through to the last
    event on round-off.  A seeded generator therefore draws the same path
    as long as this walk is kept; ``tests/test_reproducibility.py`` pins
    seeded outputs.  Exceeding ``max_events`` raises :class:`RunawayError`.
    """
    start = _EMPTY if initial is None else initial
    events: list[tuple[float, TransitionEvent]] = []
    final = _multiplicity_kernel(
        params, t_end, rng.exponential, rng.random, start, max_events, events.append
    )
    return _engine_path(start, events, t_end, final)


def _size_kernel(
    params: ModelParams,
    t_end: float,
    exponential: Callable[[float], float],
    uniform: Callable[[], float],
    initial: int,
    max_events: int,
    record: Callable[[tuple], None] | None,
) -> int:
    """Run the size process; return the size at ``t_end``.

    Passes each (time, size after the jump) pair to ``record`` unless it is None.
    """
    _check_horizon(t_end)
    if initial < 0:
        raise DomainError("the initial size must be >= 0")
    theta, mu = params.theta, params.mu
    n = initial
    t = 0.0
    jumps = 0
    while True:
        birth = theta + n if (n or theta > 0.0) else 0.0
        total = birth + mu * n
        if total <= 0.0:
            break
        t_next = t + exponential(1.0 / total)
        if t_next > t_end:
            break
        if not t_next > t:
            raise _stalled(t_next)
        t = t_next
        if jumps >= max_events:
            raise _runaway("size-process", jumps, t, max_events, n, None)
        jumps += 1
        n = n + 1 if uniform() * total < birth else n - 1
        if record is not None:
            record((t, n))
    return n


def simulate_bdi(
    params: ModelParams,
    t_end: float,
    rng: np.random.Generator,
    *,
    initial: int = 0,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> SizeTrajectory:
    """Simulate the size process alone (birth theta + n, death mu * n)."""
    jumps: list[tuple[float, int]] = []
    _size_kernel(params, t_end, rng.exponential, rng.random, initial, max_events, jumps.append)
    times = tuple(t for t, _ in jumps)
    values = tuple(n for _, n in jumps)
    return SizeTrajectory(times, values, t_end, initial)


class _FamilySlots:
    """Fenwick tree over family sizes, one slot per family ever founded.

    A family that dies out keeps its slot at size zero, so slot order stays
    founding order and :meth:`locate` maps individual ``idx`` to the same
    family and position as the list walk ``locate`` in ``tests/test_ctmc.py``
    does with the empty families removed.  Every operation is O(log slots).
    """

    __slots__ = ("tree",)

    def __init__(self, sizes: Iterable[int] = ()):
        self.tree = [0]
        for size in sizes:
            self.append(size)

    def append(self, size: int) -> None:
        tree = self.tree
        i = len(tree)
        j, stop = i - 1, i - (i & -i)
        while j > stop:
            size += tree[j]
            j -= j & -j
        tree.append(size)

    def add(self, slot: int, delta: int) -> None:
        tree = self.tree
        i, end = slot + 1, len(tree)
        while i < end:
            tree[i] += delta
            i += i & -i

    def locate(self, idx: int) -> tuple[int, int]:
        """(slot, position) of individual ``idx`` (0 <= idx < population size)."""
        tree = self.tree
        n = len(tree) - 1
        pos = 0
        step = 1 << (n.bit_length() - 1)
        while step:
            nxt = pos + step
            if nxt <= n and tree[nxt] <= idx:
                pos = nxt
                idx -= tree[nxt]
            step >>= 1
        return pos, idx


def _branching_kernel(
    params: ModelParams,
    t_end: float,
    exponential: Callable[[float], float],
    uniform: Callable[[], float],
    start: AllelicPartition,
    max_events: int,
    record: Callable[[tuple], None] | None,
) -> tuple[tuple[int, int], ...]:
    """Run the individual-level construction; return the sorted entries at ``t_end``.

    Passes each (time, event) pair to ``record`` unless it is None.
    """
    _check_horizon(t_end)
    families, clock = [], 0.0
    for size in (i for i, c in start for _ in range(c)):
        clock -= size  # distinct past birth times, oldest in the last family
        families.append([clock + j for j in range(size)])
    slots = _FamilySlots(len(fam) for fam in families)
    s = start.size
    theta, alpha, mu = params.theta, params.alpha, params.mu
    t = 0.0
    n = 0
    while True:
        if theta > 0.0:
            immigration = theta
            birth_total = float(s)
        else:
            immigration = 0.0
            birth_total = s + theta if s else 0.0  # overall oldest births at rate 1 + theta
        total = immigration + birth_total + mu * s
        if total <= 0.0:
            break
        t_next = t + exponential(1.0 / total)
        if t_next > t_end:
            break
        if not t_next > t:
            raise _stalled(t_next)
        t = t_next
        if n >= max_events:
            k = sum(1 for fam in families if fam)
            raise _runaway("branching", n, t, max_events, s, k)
        n += 1
        u = uniform() * total
        if u < immigration:
            families.append([t])
            slots.append(1)
            s += 1
            event = _NEW_FAMILY
        elif u < immigration + birth_total:
            v = u - immigration
            if theta > 0.0:
                fi, pos = slots.locate(min(s - 1, int(v)))
                p_new = alpha if pos == 0 else 0.0
            else:
                oldest = _oldest_family(families)
                fi, pos = _weighted_parent(families, oldest, v, theta)
                if pos:
                    p_new = 0.0
                else:
                    p_new = alpha if fi != oldest else (alpha + theta) / (1.0 + theta)
            s += 1
            if p_new > 0.0 and uniform() < p_new:
                families.append([t])
                slots.append(1)
                event = _NEW_FAMILY
            else:
                fam = families[fi]
                event = _GROWTH[len(fam)]
                fam.append(t)
                slots.add(fi, 1)
        else:
            v = u - immigration - birth_total
            fi, pos = slots.locate(min(s - 1, int(v / mu)))
            fam = families[fi]
            event = _DEATH[len(fam)]
            del fam[pos]
            slots.add(fi, -1)
            s -= 1
        if record is not None:
            record((t, event))
    return tuple(sorted(Counter(len(fam) for fam in families if fam).items()))


def simulate_branching(
    params: ModelParams,
    t_end: float,
    rng: np.random.Generator,
    *,
    initial: AllelicPartition | None = None,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> Trajectory:
    """Simulate the individual-level construction, emitting partition events.

    Starts from the empty state unless ``initial`` is given; its groups
    become families in entry order, each family older than the one before.

    Deaths use a single exponential clock at the aggregate rate mu * s plus a
    uniform victim, and births one at the aggregate birth rate plus a
    weighted parent choice, which is distributionally identical to
    per-individual clocks.  The returned trajectory has the same law as the
    one produced by :func:`simulate` and carries its final state, so
    ``final_state()`` is O(1).

    Cost per event: with theta > 0 (every run the CLI starts) the population
    size is a counter and the parent or victim is found in a Fenwick tree
    over family slots, O(log families).  With theta <= 0 the parent walk
    stays linear in the population: it accumulates the overall oldest
    member's rate 1 + theta in floating point, and that sum cannot be
    reproduced by an index lookup without changing which parent is drawn.

    Bit-identity: each draw selects the individual that a walk over the
    family lists in order selects (the ``locate`` oracle in
    ``tests/test_ctmc.py``), so a seeded generator draws the same path as
    that walk would; ``tests/test_reproducibility.py`` pins seeded outputs.
    """
    start = _EMPTY if initial is None else initial
    events: list[tuple[float, TransitionEvent]] = []
    final = _branching_kernel(
        params, t_end, rng.exponential, rng.random, start, max_events, events.append
    )
    return _engine_path(start, events, t_end, final)


def _oldest_family(families: list[list[float]]) -> int:
    """Index of the nonempty family holding the earliest-born member."""
    return min((fi for fi, fam in enumerate(families) if fam), key=lambda fi: families[fi][0])


def _weighted_parent(
    families: list[list[float]], oldest: int, v: float, theta: float
) -> tuple[int, int]:
    # theta <= 0: every individual reproduces at unit rate except the overall
    # oldest, whose rate is 1 + theta; empty families add nothing to the sum
    acc = 0.0
    last = (0, 0)
    for fi, fam in enumerate(families):
        for pos in range(len(fam)):
            acc += 1.0 + theta if (fi == oldest and pos == 0) else 1.0
            last = (fi, pos)
            if v < acc:
                return fi, pos
    return last

