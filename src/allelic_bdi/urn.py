"""Sequential urn construction of the two-parameter sampling formula.

One urn step takes a partition of n to a partition of n + 1: a new singleton
group appears with probability (theta + alpha * k) / (theta + n), and an
existing group of size i grows with probability (i - alpha) * m_i /
(theta + n).  After n steps from the empty state the partition is distributed
exactly by the Pitman sampling formula; alpha = 0 recovers the Hoppe urn and
the Ewens formula.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .errors import DomainError
from .formulae import ModelParams
from .partitions import AllelicPartition, TransitionEvent

_BLOCK = 1 << 14


def _check_urn_params(params: ModelParams) -> None:
    if params.alpha == 0.0 and params.theta <= 0.0:
        raise DomainError("the urn with alpha = 0 requires theta > 0")


def _urn_step_distribution(
    m: AllelicPartition, params: ModelParams
) -> list[tuple[TransitionEvent, float]]:
    """Distribution of the next urn move from ``m``.

    Returned in a fixed order: the new-family event first, then growth events
    by increasing group size.  From the empty state the first move is a new
    family with probability one (for theta <= 0 the generic normalizer
    theta + s(m) would be nonpositive there, so the case is taken literally).
    """
    _check_urn_params(params)
    if m.size == 0:
        return [(TransitionEvent.new_family(), 1.0)]
    denom = params.theta + m.size  # > 0: size >= 1 and theta > -alpha > -1
    out = [(TransitionEvent.new_family(), (params.theta + params.alpha * m.num_groups) / denom)]
    for i, c in m:
        out.append((TransitionEvent.growth(i), (i - params.alpha) * c / denom))
    return out


def sample_psf(n: int, params: ModelParams, rng: np.random.Generator) -> AllelicPartition:
    """Draw one partition of size ``n`` by running the urn ``n`` steps."""
    if n < 1:
        raise DomainError("the sample size must be >= 1")
    _check_urn_params(params)
    m = AllelicPartition.empty()
    for _ in range(n):
        choices = _urn_step_distribution(m, params)
        u = rng.random()
        acc = 0.0
        event = choices[-1][0]  # guard against u landing on accumulated round-off
        for ev, p in choices:
            acc += p
            if u < acc:
                event = ev
                break
        m = m.apply_event(event)
    return m


def default_checkpoints(n_max: int) -> tuple[int, ...]:
    """Geometric checkpoint grid ceil(10^{j/4}) <= n_max, always ending at n_max."""
    points = set()
    j = 0
    while True:
        n = math.ceil(10.0 ** (j / 4.0))
        if n > n_max:
            break
        points.add(n)
        j += 1
    points.add(n_max)
    return tuple(sorted(points))


def group_count_trace(
    n_max: int,
    params: ModelParams,
    rng: np.random.Generator,
    checkpoints: tuple[int, ...] | None = None,
) -> list[tuple[int, int]]:
    """Group counts (n, k_n) along one urn run, recorded at checkpoints.

    Only the pair (sample size, group count) is tracked: under the urn the
    group count is itself a Markov chain (a new group forms with probability
    (theta + alpha * k) / (theta + n) regardless of how the current groups
    are sized), so the full partition never needs to be materialized.

    Step n (0-based) founds a group when u_n * (theta + n) < theta + alpha *
    k_n, with u_n the next uniform and k_n the count before the step; step 0
    always does.  Uniforms come ``_BLOCK`` at a time, one ``rng.random``
    call per block, and each block is solved in numpy: starting from k
    constant at the block's opening count, the indicators are recomputed
    from k and k from the indicators (an exclusive running sum) until the
    indicators stop changing.

    Why this terminates and is exact: with alpha >= 0 the test is monotone
    in k, so the iterates rise towards the step-by-step sequence and never
    pass it, and since step n depends only on earlier steps each pass
    settles at least one more step.  The fixed point is that sequence,
    computed with the same float expressions from the same draws, so a
    seeded trace is the one a step-by-step loop gives, and the generator is
    left in the same state.

    Cost: a pass is a few array operations over one block.  Blocks of
    10^5-step runs take 1.3 passes on average at alpha = 0, 4.4 at 0.5 and
    7-8 at 0.9 and above (at most 24 seen), so such a run costs 2.5-7 ms on
    one Xeon core (about 60 ms step by step).
    Memory is one block plus the recorded checkpoints.
    """
    return _group_count_traces(n_max, params, (rng,), checkpoints)[0]


def _group_count_traces(
    n_max: int,
    params: ModelParams,
    rngs: Iterable[np.random.Generator],
    checkpoints: tuple[int, ...] | None = None,
) -> list[list[tuple[int, int]]]:
    """:func:`group_count_trace` of one run per generator, in order.

    Every block of every run is solved in one set of block-sized arrays, so
    the passes allocate no array: a fresh 128 KiB temporary per operation
    made the time of a many-run report swing by a fifth with the layout of
    the C heap (glibc trims and regrows it around arrays of that size).
    """
    if n_max < 10:
        raise DomainError("the trace needs n_max >= 10")
    _check_urn_params(params)
    if checkpoints is None:
        marks = default_checkpoints(n_max)
    else:
        checkpoints = tuple(checkpoints)
        if any(isinstance(c, bool) or not isinstance(c, (int, np.integer)) for c in checkpoints):
            raise DomainError("checkpoints must be integers")
        marks = tuple(sorted({int(c) for c in checkpoints}))
    if marks and (marks[0] < 1 or marks[-1] > n_max):
        raise DomainError("checkpoints must lie in [1, n_max]")
    mark_array = np.array(marks, dtype=np.int64)
    theta, alpha = params.theta, params.alpha
    steps = np.arange(_BLOCK, dtype=float)
    u, scaled, level = np.empty(_BLOCK), np.empty(_BLOCK), np.empty(_BLOCK)
    counts = np.empty(_BLOCK, dtype=np.int64)
    flags = np.empty((2, _BLOCK), dtype=bool)
    traces = []
    for rng in rngs:
        out = []
        k0 = 0
        for start in range(0, n_max, _BLOCK):
            size = min(_BLOCK, n_max - start)
            rng.random(out=u)
            # scaled = u * (theta + n) over the block's steps n = start, ...
            np.add(steps[:size], start, out=level[:size])
            level += theta
            np.multiply(u[:size], level[:size], out=scaled[:size])
            before, new, again = counts[:size], flags[0, :size], flags[1, :size]
            new[:] = False
            while True:
                np.cumsum(new, out=before)  # k0 plus the exclusive running sum of new
                before -= new
                before += k0
                np.multiply(before, alpha, out=level[:size])
                level += theta
                np.less(scaled[:size], level[:size], out=again)
                if start == 0:
                    again[0] = True  # the empty urn always founds a group
                if np.array_equal(again, new):
                    break
                new, again = again, new
            before += new  # the count after each step
            lo, hi = np.searchsorted(mark_array, (start, start + size), side="right")
            out.extend(zip(marks[lo:hi], before[mark_array[lo:hi] - start - 1].tolist()))
            k0 = int(before[-1])
        traces.append(out)
    return traces
