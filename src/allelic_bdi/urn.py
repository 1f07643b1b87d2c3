"""Sequential urn construction of the two-parameter sampling formula.

One urn step takes a partition of n to a partition of n + 1: a new singleton
group appears with probability (theta + alpha * k) / (theta + n), and an
existing group of size i grows with probability (i - alpha) * m_i /
(theta + n).  After n steps from the empty state the partition is distributed
exactly by the Pitman sampling formula; alpha = 0 recovers the Hoppe urn and
the Ewens formula.
"""

from __future__ import annotations

import bisect
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
    always does.  Uniforms come one ``rng.random`` call per block of up to
    ``_BLOCK`` steps, so n steps draw exactly n uniforms, the stream of n
    ``rng.random()`` calls; each block is solved in numpy.  The first pass
    holds k at the block's opening count k0, so every step meets the one
    threshold theta + alpha * k0.  If the groups it founds leave that
    threshold the same float (always at alpha = 0, and whenever alpha * k
    rounds away beside theta), the pass is already exact.  Otherwise the
    indicators are recomputed from k and k from the indicators (an
    exclusive running sum) until the indicators stop changing.

    Why this terminates and is exact: with alpha >= 0 the test is monotone
    in k, so the iterates rise towards the step-by-step sequence and never
    pass it, and since step n depends only on earlier steps each pass
    settles at least one more step.  The fixed point is that sequence,
    computed with the same float expressions from the same draws, so a
    seeded trace is the one a step-by-step loop gives, and the generator is
    left in the same state.  The first pass stops early only when it is that
    fixed point: float multiply and add are monotone, so the threshold at
    any count between k0 and k0 plus the groups found lies between two equal
    floats, and a second pass would return the same indicators.

    Cost: a pass is a few array operations over one block, and the first
    needs no running sum.  Blocks of 10^5-step runs take one pass at
    alpha = 0, 4.3 on average at 0.5 and about 7 at 0.9 and above, so such
    a run costs about 1.2 ms at alpha = 0 and 4-7.5 ms at 0.5 and above on
    one Xeon core, half of it at alpha = 0 drawing the uniforms.
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

    Every block of every run is solved in one set of block-sized arrays,
    and checkpoints are read by counting the indicators before them, so no
    block allocates an array: a fresh 128 KiB temporary per operation made
    the time of a many-run report swing by a fifth with the layout of the C
    heap (glibc trims and regrows it around arrays of that size).
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
            rng.random(out=u[:size])
            # scaled = u * (theta + n) over the block's steps n = start, ...
            np.add(steps[:size], start, out=level[:size])
            level[:size] += theta
            np.multiply(u[:size], level[:size], out=scaled[:size])
            new, again = flags[0, :size], flags[1, :size]
            # first pass: k = k0 at every step, so the threshold is one number
            low = alpha * k0 + theta
            np.less(scaled[:size], low, out=new)
            if start == 0:
                new[0] = True  # the empty urn always founds a group
            # a first pass that cannot move the threshold is the fixed point
            if alpha * (k0 + np.count_nonzero(new)) + theta != low:
                before = counts[:size]
                while True:
                    np.cumsum(new, out=before)  # k0 plus the exclusive running sum of new
                    before -= new
                    before += k0
                    np.multiply(before, alpha, out=level[:size])
                    level[:size] += theta
                    np.less(scaled[:size], level[:size], out=again)
                    if start == 0:
                        again[0] = True
                    if np.array_equal(again, new):
                        break
                    new, again = again, new
            # the count after step n - 1 is k0 plus the foundings before n
            done = 0
            for mark in marks[bisect.bisect_right(marks, start) : bisect.bisect_right(marks, start + size)]:
                k0 += int(np.count_nonzero(new[done : mark - start]))
                done = mark - start
                out.append((mark, k0))
            k0 += int(np.count_nonzero(new[done:]))
        traces.append(out)
    return traces
