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

From the empty state with theta <= 0 every engine has total rate zero and
returns an eventless trajectory; starting such runs is refused at the CLI
level instead.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from typing import Iterable, Iterator

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
        out.append((TransitionEvent.new_family(), new_family))
    out.extend((TransitionEvent.growth(i), (i - alpha) * c) for i, c in m)
    if mu > 0.0:
        out.extend((TransitionEvent.death(i), mu * i * c) for i, c in m)
    return out


def size_process_rates(n: int, params: ModelParams) -> tuple[float, float]:
    """(birth rate, death rate) of the size process at population ``n``."""
    if n < 0:
        raise DomainError("population size must be >= 0")
    return params.theta + n, params.mu * n


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
        if self.horizon < 0.0:
            raise DomainError("the horizon must be >= 0")
        prev = 0.0
        for t, _ in self.events:
            if not t > prev:
                raise DomainError("jump times must be strictly increasing and positive")
            prev = t
        if self.events and self.events[-1][0] > self.horizon:
            raise DomainError("jump times must not exceed the horizon")

    def __len__(self) -> int:
        return len(self.events)

    def _replay(self) -> Iterator[tuple[float, AllelicPartition]]:
        state = self.initial
        yield 0.0, state
        for t, ev in self.events:
            state = state.apply_event(ev)
            yield t, state

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
        state = None
        for _, state in self._replay():
            pass
        return state

    def iter_states(self) -> Iterator[tuple[float, AllelicPartition]]:
        """(time, state) pairs starting with (0, initial)."""
        return self._replay()


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
        prev = 0.0
        for t in self.times:
            if not t > prev:
                raise DomainError("jump times must be strictly increasing and positive")
            prev = t
        if self.times and self.times[-1] > self.horizon:
            raise DomainError("jump times must not exceed the horizon")

    def value_at(self, t: float) -> int:
        if not 0.0 <= t <= self.horizon:
            raise DomainError(f"query time {t} outside [0, {self.horizon}]")
        idx = bisect_right(self.times, t)
        return self.initial if idx == 0 else self.values[idx - 1]

    @property
    def final_value(self) -> int:
        return self.values[-1] if self.values else self.initial

    def occupation(self, burn_in: float = 0.0) -> dict[int, float]:
        """Time spent in each value on (burn_in, horizon]."""
        if not 0.0 <= burn_in < self.horizon:
            raise DomainError("burn_in must lie in [0, horizon)")
        out: dict[int, float] = {}
        t_prev, v_prev = 0.0, self.initial
        for t, v in zip(self.times + (self.horizon,), self.values + (self.final_value,)):
            lo, hi = max(t_prev, burn_in), t
            if hi > lo:
                out[v_prev] = out.get(v_prev, 0.0) + (hi - lo)
            t_prev, v_prev = t, v
        return out


def _engine_path(
    start: AllelicPartition, events: list, t_end: float, final: AllelicPartition
) -> Trajectory:
    path = Trajectory(start, tuple(events), t_end)
    object.__setattr__(path, "_final", final)
    return path


class _EventCache(dict):
    """size -> TransitionEvent of one kind, built on first use."""

    def __init__(self, kind: EventKind):
        super().__init__()
        self.kind = kind

    def __missing__(self, index: int) -> TransitionEvent:
        event = self[index] = TransitionEvent(self.kind, index)
        return event


def _runaway(engine: str, events: int, t: float, cap: int) -> RunawayError:
    return RunawayError(
        f"{engine} run exceeded the event cap of {cap} at simulated time {t:.6g}",
        events=events,
        time=t,
    )


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
    only when a size appears or vanishes.  The returned path carries its
    final state, so ``final_state()`` is O(1).

    Bit-identity: the walk visits the events in the order of :func:`rates`
    (new family, growth by increasing size, death by increasing size),
    accumulates their weights in that order and falls through to the last
    event on round-off.  A seeded generator therefore draws the same path
    as long as this walk is kept; ``tests/test_reproducibility.py`` pins
    seeded outputs.  Exceeding ``max_events`` raises :class:`RunawayError`.
    """
    if t_end < 0.0:
        raise DomainError("t_end must be >= 0")
    start = AllelicPartition.empty() if initial is None else initial
    counts = start.as_dict()
    support = sorted(counts)
    s, k = start.size, start.num_groups
    theta, alpha, mu = params.theta, params.alpha, params.mu
    new_family_event = TransitionEvent.new_family()
    growth_events = _EventCache(EventKind.GROWTH)
    death_events = _EventCache(EventKind.DEATH)
    t = 0.0
    events: list[tuple[float, TransitionEvent]] = []
    while True:
        total = theta + (1.0 + mu) * s if s else (theta if theta > 0.0 else 0.0)
        if total <= 0.0:
            break
        dt = rng.exponential(1.0 / total)
        if t + dt > t_end:
            break
        t += dt
        if len(events) >= max_events:
            raise _runaway("multiplicity", len(events), t, max_events)
        u = rng.random() * total
        new_family = theta + alpha * k
        acc = new_family if new_family > 0.0 else 0.0
        if u < acc or not support:  # with no groups, round-off included
            counts[1] = c = counts.get(1, 0) + 1
            if c == 1:
                support.insert(0, 1)
            s += 1
            k += 1
            events.append((t, new_family_event))
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
            events.append((t, growth_events[index]))
        else:
            s -= 1
            events.append((t, death_events[index]))
    return _engine_path(start, events, t_end, AllelicPartition(counts.items()))


def simulate_bdi(
    params: ModelParams,
    t_end: float,
    rng: np.random.Generator,
    *,
    initial: int = 0,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> SizeTrajectory:
    """Simulate the size process alone (birth theta + n, death mu * n)."""
    if t_end < 0.0:
        raise DomainError("t_end must be >= 0")
    if initial < 0:
        raise DomainError("the initial size must be >= 0")
    theta, mu = params.theta, params.mu
    n = initial
    t = 0.0
    times: list[float] = []
    values: list[int] = []
    while True:
        birth = theta + n if (n or theta > 0.0) else 0.0
        total = birth + mu * n
        if total <= 0.0:
            break
        dt = rng.exponential(1.0 / total)
        if t + dt > t_end:
            break
        t += dt
        if len(times) >= max_events:
            raise _runaway("size-process", len(times), t, max_events)
        n = n + 1 if rng.random() * total < birth else n - 1
        times.append(t)
        values.append(n)
    return SizeTrajectory(tuple(times), tuple(values), t_end, initial)


class AgentPopulation:
    """Individual-level population state for the branching construction.

    Families are lists of member birth times in increasing order, so index 0
    is each family's oldest living member.  With theta > 0 immigrants found
    families at rate theta and every member reproduces at unit rate, the
    offspring of a family's oldest member founding a new family with
    probability alpha.  With theta in (-alpha, 0] there is no immigration;
    instead the population's overall oldest member produces joiners at rate
    1 - alpha and founders at rate alpha + theta.  Either way the induced
    rates aggregate to the multiplicity-level table of :func:`rates`.
    """

    __slots__ = ("families",)

    def __init__(self, families: Iterable[Iterable[float]] = ()):
        self.families: list[list[float]] = []
        for fam in families:
            members = [float(b) for b in fam]
            if not members:
                raise DomainError("families must be nonempty")
            if any(b2 <= b1 for b1, b2 in zip(members, members[1:])):
                raise DomainError("member birth times must be strictly increasing")
            self.families.append(members)

    @classmethod
    def from_group_sizes(cls, sizes: Iterable[int]) -> "AgentPopulation":
        """A population with the given family sizes and distinct past birth times."""
        pop = cls()
        clock = 0.0
        for size in sizes:
            if size < 1:
                raise DomainError("family sizes must be >= 1")
            clock -= size
            pop.families.append([clock + j for j in range(size)])
        return pop

    @property
    def size(self) -> int:
        return sum(len(f) for f in self.families)

    @property
    def num_groups(self) -> int:
        return len(self.families)

    def family_sizes(self) -> list[int]:
        return [len(f) for f in self.families]

    def to_partition(self) -> AllelicPartition:
        return AllelicPartition.from_group_sizes(self.family_sizes())

    def oldest_family(self) -> int:
        """Index of the family holding the population's oldest member."""
        if not self.families:
            raise DomainError("the population is empty")
        return _oldest_family(self.families)

    def locate(self, idx: int) -> tuple[int, int]:
        """(family, position) of the idx-th individual in family-list order."""
        if idx < 0:
            raise DomainError("individual index must be >= 0")
        for fi, fam in enumerate(self.families):
            if idx < len(fam):
                return fi, idx
            idx -= len(fam)
        raise DomainError("individual index beyond population size")

    def event_rates(self, params: ModelParams) -> list[tuple[TransitionEvent, float]]:
        """Multiplicity-level rate table induced by the per-individual clocks.

        Built by summing individual contributions (not by delegating to
        :func:`rates`), so tests can confirm the two constructions agree.
        """
        theta, alpha, mu = params.theta, params.alpha, params.mu
        new_family = theta if theta > 0.0 else 0.0
        growth: dict[int, float] = {}
        death: dict[int, float] = {}
        oldest = self.oldest_family() if self.families and theta <= 0.0 else None
        for fi, fam in enumerate(self.families):
            i = len(fam)
            if mu > 0.0:
                death[i] = death.get(i, 0.0) + mu * i
            growth[i] = growth.get(i, 0.0) + (i - 1)  # non-oldest members always join
            growth[i] += 1.0 - alpha  # the family's oldest joins at rate 1 - alpha
            if fi == oldest:
                new_family += alpha + theta  # overall-oldest founds at rate alpha + theta
            else:
                new_family += alpha
        out: list[tuple[TransitionEvent, float]] = []
        if new_family > 0.0:
            out.append((TransitionEvent.new_family(), new_family))
        out.extend((TransitionEvent.growth(i), w) for i, w in sorted(growth.items()) if w > 0.0)
        out.extend((TransitionEvent.death(i), w) for i, w in sorted(death.items()) if w > 0.0)
        return out


class _FamilySlots:
    """Fenwick tree over family sizes, one slot per family ever founded.

    A family that dies out keeps its slot at size zero, so slot order stays
    founding order and :meth:`locate` maps individual ``idx`` to the same
    family and position as :meth:`AgentPopulation.locate` does on the list
    with the empty families removed.  Every operation is O(log slots).
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


def simulate_branching(
    params: ModelParams,
    t_end: float,
    rng: np.random.Generator,
    *,
    initial: AgentPopulation | None = None,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> Trajectory:
    """Simulate the individual-level construction, emitting partition events.

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

    Bit-identity: each draw selects the individual that the list walk of
    :meth:`AgentPopulation.locate` selects, so a seeded generator draws the
    same path as that walk would; ``tests/test_reproducibility.py`` pins
    seeded outputs.
    """
    if t_end < 0.0:
        raise DomainError("t_end must be >= 0")
    families = [] if initial is None else AgentPopulation(initial.families).families
    start = AllelicPartition.from_group_sizes(len(fam) for fam in families)
    slots = _FamilySlots(len(fam) for fam in families)
    s = start.size
    theta, alpha, mu = params.theta, params.alpha, params.mu
    new_family_event = TransitionEvent.new_family()
    growth_events = _EventCache(EventKind.GROWTH)
    death_events = _EventCache(EventKind.DEATH)
    t = 0.0
    events: list[tuple[float, TransitionEvent]] = []
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
        dt = rng.exponential(1.0 / total)
        if t + dt > t_end:
            break
        t += dt
        if len(events) >= max_events:
            raise _runaway("branching", len(events), t, max_events)
        u = rng.random() * total
        if u < immigration:
            families.append([t])
            slots.append(1)
            s += 1
            event = new_family_event
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
            if p_new > 0.0 and rng.random() < p_new:
                families.append([t])
                slots.append(1)
                event = new_family_event
            else:
                fam = families[fi]
                event = growth_events[len(fam)]
                fam.append(t)
                slots.add(fi, 1)
        else:
            v = u - immigration - birth_total
            fi, pos = slots.locate(min(s - 1, int(v / mu)))
            fam = families[fi]
            event = death_events[len(fam)]
            del fam[pos]
            slots.add(fi, -1)
            s -= 1
        events.append((t, event))
    final = AllelicPartition.from_group_sizes(len(fam) for fam in families if fam)
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

