"""Continuous-time dynamics on allelic partitions.

Three kernels share one event vocabulary:

* ``simulate`` - Gillespie simulation of the multiplicity-level chain, whose
  rates from state m are theta + alpha * k(m) for a new family,
  (i - alpha) * m_i for growth of a size-i group and mu * i * m_i for a death
  in one, for a total jump rate of theta + (1 + mu) * s(m).
* ``simulate_branching`` - an individual-level construction: unit-rate
  reproduction with the oldest member of each family founding a new family
  with probability alpha, exponential(mu) lifetimes, and immigration at rate
  theta.  It emits the induced multiplicity-level trajectory, which has the
  same law as ``simulate``.  A family is an integer size under a Fenwick
  tree, O(log families) per event.
* the population-size process alone (birth theta + n, death mu * n), a plain
  integer birth-death-immigration chain, run only as the ``bdi`` engine of
  ensembles.

Each engine is one kernel that runs the chain and returns the final state
(the sorted (size, count) entries of a partition, or an integer size).  A
kernel takes a numpy ``Generator``; a partition kernel hands each
(time, event) pair to a ``record`` callable only when it is given one: the
two public functions record into a list and wrap it in a path; ensembles
(:func:`allelic_bdi.montecarlo.run_ensemble`) record nothing; and the two
single runs observe events as they arrive, holding memory by state, not by
event count: the occupation run adds up time per state, and
``simulate --trajectory`` writes one CSV row per event.

Random stream ``RNG_STREAM`` = 2: a kernel draws its holding times as
``standard_exponential(_DRAW_BLOCK)`` and its selectors as
``random(_DRAW_BLOCK)`` (32 at a time), each kind consumed in order from its
own block and refilled when the block is used up; a holding time is the
draw divided by the total rate.  The multiplicity kernel turns a selector u
into the event class, from the masses theta + alpha * k (new family),
(1 - alpha) * k (a uniform group grows), s - k (the group of a uniform
non-founding member grows, since (i - alpha) * m_i = (1 - alpha) * m_i +
(i - 1) * m_i) and mu * s (a uniform individual dies), and then into an
integer index into that class, which picks the size against the integer
weights m_i, (i - 1) * m_i or i * m_i over the sorted support.  Every exact
search returns the same size, so a faster search over sizes (such as a walk
from the other end of the support) draws the same paths.  Round-off past
the top of a class picks the top of the last class with mass.  A
multiplicity event takes exactly one holding time and one selector, so its
two blocks drain together and events ``32 b`` to ``32 b + 31`` read block
pair ``b``, which ensembles rely on
(:func:`allelic_bdi.montecarlo.run_ensemble`); a branching founding draw
takes an extra selector, so that kernel has no such pairing.

Every kernel refuses a horizon that is not finite and >= 0, checks that
each jump strictly advances the clock and raises :class:`RunawayError`,
naming the state it stopped in, past its event cap.  Event objects are
immutable, one per (kind, size) in each recording run, freed with its path.

From the empty state with theta <= 0 no kernel has a positive total rate,
so each stays there (an eventless trajectory); starting such runs is
refused at the CLI level instead.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Callable

import numpy as np

from .errors import DomainError, RunawayError
from .formulae import ModelParams
from .partitions import AllelicPartition, EventKind, TransitionEvent, _apply_event

DEFAULT_MAX_EVENTS = 10**8

#: Version of the random stream the kernels draw (stamped in every histogram
#: and trajectory CSV); it changes whenever a seed would give a different path.
RNG_STREAM = 2

#: Holding times and selectors are drawn this many at a time, each kind in
#: its own block, and consumed in order.
_DRAW_BLOCK = 32


@dataclass(frozen=True)
class Trajectory:
    """A finite piece of one sample path of the multiplicity-level chain.

    ``events`` holds (jump time, event) pairs with strictly increasing times
    in (0, horizon]; replaying them from ``initial`` gives the state at any time.
    """

    initial: AllelicPartition
    events: tuple[tuple[float, TransitionEvent], ...]
    horizon: float

    def __post_init__(self):
        _check_horizon(self.horizon)
        prev = 0.0
        for t, _ in self.events:
            if not t > prev:
                raise DomainError("jump times must be strictly increasing and positive")
            prev = t
        if prev > self.horizon:
            raise DomainError("jump times must not exceed the horizon")

    def __len__(self) -> int:
        return len(self.events)

    def final_state(self) -> AllelicPartition:
        """The state at the horizon: ``initial`` replayed on one dict, an O(1) update per event.

        An event with no group to act on raises :class:`InapplicableEventError`.
        """
        counts = self.initial.as_dict()
        for _, event in self.events:
            _apply_event(counts, event)
        return AllelicPartition(counts.items())


def _check_horizon(t_end: float) -> None:
    """Refuse a negative, infinite or nan horizon (every kernel and path)."""
    if not 0.0 <= t_end < math.inf:
        raise DomainError(f"the horizon must be finite and >= 0, got {t_end}")


def _recorded_path(
    kernel: Callable, params: ModelParams, t_end: float, rng, max_events: int
) -> Trajectory:
    """The path a partition ``kernel`` records from the empty state."""
    events: list[tuple[float, TransitionEvent]] = []
    kernel(params, t_end, rng, _EMPTY, max_events, events.append)
    return Trajectory(_EMPTY, tuple(events), t_end)


class _EventCache(dict):
    """size -> TransitionEvent of one kind, built on first use; a pair per recording run."""

    def __init__(self, kind: EventKind):
        super().__init__()
        self.kind = kind

    def __missing__(self, index: int) -> TransitionEvent:
        event = self[index] = TransitionEvent(self.kind, index)
        return event


_NEW_FAMILY = TransitionEvent.new_family()  # immutable and sizeless, so one serves every run
_EMPTY = AllelicPartition.empty()


def _draws(draw: Callable[[int], np.ndarray]) -> Callable[[], float]:
    """The next float of ``draw(_DRAW_BLOCK)``, ``draw(_DRAW_BLOCK)``, ...

    A block is drawn in one numpy call when the one before it is used up and
    is consumed in order.
    """
    return chain.from_iterable(iter(lambda: draw(_DRAW_BLOCK).tolist(), None)).__next__


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
    rng: np.random.Generator,
    start: AllelicPartition,
    max_events: int,
    record: Callable[[tuple], None] | None = None,
) -> tuple[tuple[int, int], ...]:
    """Run the multiplicity-level chain; return the sorted entries at ``t_end``.

    Passes each (time, event) pair to ``record`` unless it is None.  A
    selector v = u * total picks the event class from the masses
    theta + alpha * k (new family), (1 - alpha) * k (a uniform group grows),
    s - k (the group of a uniform non-founding member grows) and mu * s (a
    uniform individual dies), and then an integer index j into the class;
    the size is the one whose cumulative integer weight m_i, (i - 1) * m_i
    or i * m_i over the sorted support first exceeds j.
    """
    _check_horizon(t_end)
    counts = start.as_dict()
    support = sorted(counts)
    s, k = start.size, start.num_groups
    theta, alpha, mu = params.theta, params.alpha, params.mu
    join = 1.0 - alpha  # each group's share of the growth rate i - alpha
    hold, select = _draws(rng.standard_exponential), _draws(rng.random)
    if record is not None:  # this run's events, freed with its path
        growth, death = _EventCache(EventKind.GROWTH), _EventCache(EventKind.DEATH)
    t = 0.0
    n = 0
    while True:
        total = theta + (1.0 + mu) * s  # with theta <= 0 the empty state stays put
        if total <= 0.0:
            break
        t_next = t + hold() / total
        if t_next > t_end:
            break
        if not t_next > t:
            raise _stalled(t_next)
        t = t_next
        if n >= max_events:
            raise _runaway("multiplicity", n, t, max_events, s, k)
        n += 1
        v = select() * total - (theta + alpha * k)
        if v < 0.0 or not s:  # with no groups, round-off included
            counts[1] = c = counts.get(1, 0) + 1
            if c == 1:
                support.insert(0, 1)
            s += 1
            k += 1
            if record is not None:
                record((t, _NEW_FAMILY))
            continue
        grow = True
        if v < join * k:  # a uniform group
            x = v / join
            j = int(x) if x < k else k - 1  # the top on round-off
            for index in support:
                j -= counts[index]
                if j < 0:
                    break
        else:
            v -= join * k
            if v < s - k or not mu > 0.0:  # a uniform non-founding member
                if s == k:  # only by round-off with mu = 0: the top group
                    index = support[-1]
                else:  # j counted from the top; from the bottom in the lowest quarter
                    j = s - k - 1 - int(v) if v < s - k else 0
                    if 4 * j < 3 * (s - k):
                        walk = reversed(support)
                    else:
                        j, walk = s - k - 1 - j, support
                    for index in walk:
                        j -= (index - 1) * counts[index]
                        if j < 0:
                            break
            else:  # a uniform individual dies
                grow = False
                x = (v - (s - k)) / mu
                j = s - 1 - int(x) if x < s else 0  # counted from the top, as above
                if 2 * j < s:  # from the nearer end
                    walk = reversed(support)
                else:
                    j, walk = s - 1 - j, support
                for index in walk:
                    j -= index * counts[index]
                    if j < 0:
                        break
        c = counts[index]
        if c == 1:
            del counts[index]
        else:
            counts[index] = c - 1
        j = index + 1 if grow else index - 1
        if j:
            counts[j] = d = counts.get(j, 0) + 1
            if d == 1:
                if c == 1:  # i's slot becomes j's: no size lies strictly between them
                    support[bisect_left(support, index)] = j
                else:
                    insort(support, j)
            elif c == 1:
                del support[bisect_left(support, index)]
        else:
            k -= 1
            if c == 1:
                del support[0]  # size 1 is the bottom
        if grow:
            s += 1
            if record is not None:
                record((t, growth[index]))
        else:
            s -= 1
            if record is not None:
                record((t, death[index]))
    return tuple([(i, counts[i]) for i in support])  # the support is kept sorted


def simulate(
    params: ModelParams,
    t_end: float,
    rng: np.random.Generator,
    *,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> Trajectory:
    """Gillespie simulation of the multiplicity-level chain on [0, t_end].

    Starts from the empty state.  Each event takes one holding time and one
    selector from blocks of 32 drawn in one numpy call each, an O(1) update
    of the total rate theta + (1 + mu) * s, an O(1) choice of the event
    class and a walk over the sorted support, O(distinct sizes), to find the
    size in the class.  The uniform-group walk starts from the bottom.  The
    death walk starts from the end nearer its index in cumulative weight.
    The member walk starts from the top unless its index lies in the lowest
    quarter of the class: size 1 has no member weight and small sizes little,
    so low member mass spans many sizes.  The support list changes only when
    a size appears or vanishes: when the last group of a size moves to an
    absent neighbouring size, its entry is overwritten in place, and
    otherwise an entry is inserted or deleted by bisect.
    Recording the path adds one (time, shared event) pair per event;
    ensembles run the same kernel without recording, so their memory does
    not grow with the event count.

    Bit-identity (random stream 2, see the module docstring): the path is a
    function of the generator's draws in blocks of 32, the class masses and
    the integer index into the class, which every exact search over sizes
    maps to the same size.  ``simulate(params, t, default_rng([S, i]))``
    draws exactly what replicate ``i`` of an ensemble with master seed ``S``
    draws, so it ends in that replicate's state.  A generator passed in is
    left advanced by whole blocks.  ``tests/test_reproducibility.py`` pins
    seeded outputs.  Exceeding ``max_events`` raises :class:`RunawayError`.
    """
    return _recorded_path(_multiplicity_kernel, params, t_end, rng, max_events)


def _size_kernel(
    params: ModelParams,
    t_end: float,
    rng: np.random.Generator,
    initial: int,
    max_events: int,
) -> int:
    """Run the size process from ``initial``; return the size at ``t_end``.

    Draws holding times and selectors in blocks of 32, as the partition kernels do.
    """
    _check_horizon(t_end)
    theta, mu = params.theta, params.mu
    hold, select = _draws(rng.standard_exponential), _draws(rng.random)
    n = initial
    t = 0.0
    jumps = 0
    while True:
        birth = theta + n
        total = birth + mu * n
        if total <= 0.0:
            break
        t_next = t + hold() / total
        if t_next > t_end:
            break
        if not t_next > t:
            raise _stalled(t_next)
        t = t_next
        if jumps >= max_events:
            raise _runaway("size-process", jumps, t, max_events, n, None)
        jumps += 1
        n = n + 1 if select() * total < birth else n - 1
    return n


def _branching_kernel(
    params: ModelParams,
    t_end: float,
    rng: np.random.Generator,
    start: AllelicPartition,
    max_events: int,
    record: Callable[[tuple], None] | None = None,
) -> tuple[tuple[int, int], ...]:
    """Run the individual-level construction; return the sorted entries at ``t_end``.

    Passes each (time, event) pair to ``record`` unless it is None.  A family
    is an integer in ``sizes``, in founding order; one that dies out keeps
    its slot at size zero.  ``tree`` is a Fenwick tree over ``sizes``
    (1-based, padded with empty slots to ``width``, a power of two that
    doubles when full), and its descent maps individual index ``pos`` to the
    family ``f`` and the position in it that a walk over the families in
    order gives, empty ones skipped (the ``locate`` oracle in
    ``tests/test_ctmc.py``).  Refuses theta < 0 from a populated start.
    """
    _check_horizon(t_end)
    theta, alpha, mu = params.theta, params.alpha, params.mu
    s = start.size
    if theta < 0.0 and s:
        raise DomainError(
            f"the branching engine needs theta >= 0 from a populated start, got theta={theta}"
        )
    sizes = [i for i, c in start for _ in range(c)]
    width = 1 << max(len(sizes) - 1, 0).bit_length()
    tree = [0, *sizes] + [0] * (width - len(sizes))
    for i in range(1, width):
        tree[i + (i & -i)] += tree[i]
    hold, select = _draws(rng.standard_exponential), _draws(rng.random)
    if record is not None:  # this run's events, freed with its path
        growth, death = _EventCache(EventKind.GROWTH), _EventCache(EventKind.DEATH)
    t = 0.0
    n = 0
    while True:
        total = (theta + s) + mu * s  # with theta <= 0 the empty state stays put
        if total <= 0.0:
            break
        t_next = t + hold() / total
        if t_next > t_end:
            break
        if not t_next > t:
            raise _stalled(t_next)
        t = t_next
        if n >= max_events:
            raise _runaway("branching", n, t, max_events, s, sum(1 for x in sizes if x))
        n += 1
        u = select() * total
        found = u < theta  # an immigrant founds a family
        grow = u < theta + s
        delta = 1 if grow else -1
        if not found:
            v = u - theta if grow else (u - theta - s) / mu
            pos = int(v) if v < s else s - 1
            # descend to individual pos; the nodes it does not enter are the
            # ones that cover its slot, and they take delta on the way down
            tree[width] += delta  # covers every slot, so it holds s > pos
            f, step = 0, width >> 1
            while step:
                g = f + step
                w = tree[g]
                if w <= pos:
                    f = g
                    pos -= w
                else:
                    tree[g] = w + delta
                step >>= 1
            if grow and pos == 0 and alpha > 0.0 and select() < alpha:
                found = True  # the parent's family does not grow after all
                f += 1
                while f <= width:
                    tree[f] -= 1
                    f += f & -f
        if found:
            f = len(sizes)
            if f == width:  # double: the new top node covers every slot
                tree += [0] * (width - 1)
                tree.append(tree[width])
                width *= 2
            sizes.append(1)
            f += 1
            while f <= width:  # not added by a descent
                tree[f] += 1
                f += f & -f
        else:
            size = sizes[f]
            sizes[f] = size + delta
        s += delta
        if record is not None:
            record((t, _NEW_FAMILY if found else (growth if grow else death)[size]))
    return tuple(sorted(Counter(x for x in sizes if x).items()))


def simulate_branching(
    params: ModelParams,
    t_end: float,
    rng: np.random.Generator,
    *,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> Trajectory:
    """Simulate the individual-level construction from the empty state.

    Deaths use a single exponential clock at the aggregate rate mu * s plus a
    uniform victim, and births one at the aggregate rate s plus a uniform
    parent, which is distributionally identical to per-individual clocks.
    The returned trajectory has the same law as the one produced by
    :func:`simulate`.

    Cost per event: each family is an integer size, and one descent of a
    Fenwick tree over the families in founding order finds the parent or
    victim and its position, O(log families), adding the event's +1 or -1
    on the way.  Nothing is stored per individual.

    Bit-identity: holding times and selectors come in blocks of 32 as in
    :func:`simulate` (a founding draw takes the next selector), and each
    selector picks the individual that a walk over the families' member
    lists in order picks (the ``list_branching_kernel`` oracle in
    ``tests/test_ctmc.py``), so a seeded generator draws the same path as
    that walk would;
    ``tests/test_reproducibility.py`` pins seeded outputs.
    """
    return _recorded_path(_branching_kernel, params, t_end, rng, max_events)

