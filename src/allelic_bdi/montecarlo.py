"""Ensemble simulation, empirical distributions and Monte Carlo diagnostics.

Reproducibility contract: replicate ``i`` of a run with master seed ``S``
always uses the stream ``numpy.random.default_rng([S, i])``, and merged
tallies are plain integer sums, so results are bit-identical for fixed
inputs no matter how replicates are partitioned across workers.  A single
run (the occupation run, ``simulate --trajectory``) calls
``default_rng([S, 0])`` itself and observes the kernel's events as they
arrive, holding memory by state, not by event count.  Runs of many
replicates (ensembles, and the urn runs of :func:`growth_report`) are seeded
a seed block at a time by :func:`_block_rngs`, which hashes the block at
once into raw PCG64 words, loads them into one reused generator and checks
the block's first and last replicate against ``default_rng``.  Each
ensemble replicate hands its generator to an engine kernel, which draws
holding times and selectors in blocks of 32 (random stream 2,
:data:`allelic_bdi.ctmc.RNG_STREAM`, stamped ``# rng_stream=2`` in every
histogram and trajectory CSV), so replicate ``i`` ends where
``simulate(params, t, default_rng([S, i]))`` ends.  :func:`run_ensemble`
tells how an ensemble is cut into seed blocks, pooled and run in lock step
on the same draws, each replicate's block pairs loaded from and saved to
its words.  Replicates record no path and tally the sorted entries of their
final state; a partition object is built once per distinct state after the
merge.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass, fields
from typing import IO, Any, Callable, Iterable, Iterator, Mapping

import numpy as np

from . import __version__ as _pkg_version
from .ctmc import (
    _EMPTY,
    _DRAW_BLOCK,
    DEFAULT_MAX_EVENTS,
    RNG_STREAM,
    _branching_kernel,
    _check_horizon,
    _multiplicity_kernel,
    _size_kernel,
)
from .errors import DomainError, RunawayError
from .formulae import ModelParams, _require_count, _require_reversible
from .partitions import AllelicPartition, EventKind, TransitionEvent, _apply_event
from .urn import _group_count_traces

# engine name -> (kernel, the empty state its replicates start from)
_KERNELS = {
    "multiplicity": (_multiplicity_kernel, _EMPTY),
    "branching": (_branching_kernel, _EMPTY),
    "bdi": (_size_kernel, 0),
}
ENGINES = tuple(_KERNELS)
_STAMP = {"artifact": "allelic-bdi", "version": _pkg_version}  # written into every artifact


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Weighted tallies over partitions or integers.

    ``weights`` maps outcomes to nonnegative weights summing to ``total``
    (replicate counts for ensembles, occupation times for long runs).
    """

    weights: Mapping[Any, float]
    total: float
    replicates: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.total <= 0.0:
            raise DomainError("the total weight must be > 0")
        acc = 0.0
        for w in self.weights.values():
            if w < 0.0:
                raise DomainError("weights must be >= 0")
            acc += w
        if not math.isclose(acc, self.total, rel_tol=1e-9, abs_tol=1e-12):
            raise DomainError(f"weights sum to {acc}, expected {self.total}")

    def probabilities(self) -> dict[Any, float]:
        return {key: w / self.total for key, w in self.weights.items()}

    def map_keys(self, fn: Callable[[Any], Any]) -> "EmpiricalDistribution":
        merged: dict[Any, float] = {}
        for key, w in self.weights.items():
            new_key = fn(key)
            merged[new_key] = merged.get(new_key, 0.0) + w
        return EmpiricalDistribution(merged, self.total, self.replicates, self.seed)

    def size_marginal(self) -> "EmpiricalDistribution":
        return self.map_keys(lambda m: m.size)

    def group_marginal(self) -> "EmpiricalDistribution":
        return self.map_keys(lambda m: m.num_groups)

    def joint_groups_size(self) -> "EmpiricalDistribution":
        return self.map_keys(lambda m: (m.num_groups, m.size))

    def mean(self) -> float:
        return sum(k * w for k, w in self.weights.items()) / self.total

    def variance(self) -> float:
        mean = self.mean()
        return sum((k - mean) ** 2 * w for k, w in self.weights.items()) / self.total


def _seed_words(n: int) -> list[int]:
    """Little-endian 32-bit words of ``n >= 0`` (``[0]`` for 0), as numpy splits a seed."""
    words = [n & 0xFFFFFFFF]
    n >>= 32
    while n:
        words.append(n & 0xFFFFFFFF)
        n >>= 32
    return words


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and the PCG64
# seeding step (pcg64_set_seed), mirrored so that a block of replicates is
# hashed at once; _block_rngs checks the result against default_rng
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1
_SEED_BLOCK = 4096  # replicates hashed at once: bounds the block's arrays


def _seed_blocks(start: int, stop: int) -> Iterator[tuple[int, int]]:
    """``(lo, hi)`` of the seed blocks of replicates ``start <= i < stop`` (start 0 or a ``lo``)."""
    for lo in range(start, stop, _SEED_BLOCK):
        yield lo, min(lo + _SEED_BLOCK, stop)


def _word_columns(first: int, n: int) -> list[np.ndarray]:
    """Columns of the uint32 words of ``first``, ..., ``first + n - 1``.

    All ``n`` numbers must have as many words as ``first``.
    """
    carry = np.arange(n, dtype=np.uint64)
    columns = []
    for word in _seed_words(first):
        total = carry + word
        columns.append((total & _MASK32).astype(np.uint32))
        carry = total >> 32
    return columns


def _pcg64_states(entropy: list[np.ndarray]) -> np.ndarray:
    """Raw PCG64 words of ``default_rng`` seeded from each row of ``entropy``.

    ``entropy`` holds the uint32 entropy words as columns; every step is
    uint32 arithmetic on whole columns, so the rows are hashed at once.
    """
    h = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal h
        value = value ^ h
        h = h * _MULT_A & _MASK32
        value = value * h
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_L - y * _MIX_R
        return result ^ (result >> 16)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[k] if k < len(entropy) else zero) for k in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    h = _INIT_B
    halves = []  # generate_state(4, uint64): eight uint32 words, low word first
    for k in range(2 * _POOL_SIZE):
        value = pool[k % _POOL_SIZE] ^ h
        h = h * _MULT_B & _MASK32
        value = value * h
        halves.append((value ^ (value >> 16)).astype(np.uint64))
    return _pcg64_words(halves)


def _pcg64_words(halves: list[np.ndarray]) -> np.ndarray:
    """PCG64 words seeded from the uint32 words of ``generate_state(4, uint64)``.

    ``halves`` holds those eight words, low word first, in uint64 columns.
    With s0, ..., s3 the four uint64 words, seed = s0 << 64 | s1 and
    inc = (s2 << 64 | s3) << 1 | 1, and the state is
    ((inc + seed) * _PCG64_MULT + inc) mod 2^128.  That is computed on 32-bit
    limbs, low limb first, so no product or sum leaves uint64.  Returns a
    ``(rows, 4)`` uint64 array: state low, state high, inc low, inc high.
    """

    def carry(limbs: list[np.ndarray]) -> list[np.ndarray]:
        """Limbs below 2^32 of the number mod 2^128 that limbs below 2^63 make."""
        for j in range(3):
            limbs[j + 1] += limbs[j] >> 32
            limbs[j] &= _MASK32
        limbs[3] &= _MASK32
        return limbs

    seed, raw = halves[2:4] + halves[0:2], halves[6:8] + halves[4:6]
    inc = [(raw[j] << 1 | (raw[j - 1] >> 31 if j else 1)) & _MASK32 for j in range(4)]
    base = carry([a + b for a, b in zip(inc, seed)])
    state = [limb.copy() for limb in inc]
    for i in range(4):
        for j in range(4 - i):
            product = base[i] * (_PCG64_MULT >> 32 * j & _MASK32)
            state[i + j] += product & _MASK32
            if i + j < 3:
                state[i + j + 1] += product >> 32
    limbs = carry(state) + inc
    return np.stack([limbs[j + 1] << 32 | limbs[j] for j in range(0, 8, 2)], axis=1)


class _PCG64Words(ctypes.Structure):
    """numpy's ``pcg64_random_t`` with native 128-bit integers: state, then inc, low word first."""

    _fields_ = [("words", ctypes.c_uint64 * 4)]


class _RawBlock:
    """The streams of replicates ``lo``, ``lo + 1``, ... of a seed block, from raw PCG64 words.

    Row ``i - lo`` of ``words`` (:func:`_pcg64_words`) starts replicate
    ``i``'s stream.  One reused PCG64 draws for the whole block: a row's 32
    bytes are copied into numpy's struct, and ``draw_pair`` copies them back
    out to a copy of ``words``, so no ``state`` dict is built.  The ctypes
    arrays keep ``words`` alive for as long as the block (or its bound
    ``start``) is held.
    """

    def __init__(self, lo: int, words: np.ndarray):
        rows = ctypes.c_uint64 * 4 * len(words)
        self.lo = lo
        self.starts = rows.from_buffer(words)  # never written
        self.saved = rows.from_buffer_copy(words)  # each stream where its last pair ended
        self.rng = np.random.Generator(np.random.PCG64())
        # numpy's pcg64_state: a pointer to the pcg64_random_t, then the 32-bit
        # has_uint32 and uinteger, which self.buffered covers
        address = self.rng.bit_generator.ctypes.state_address
        self.pcg = _PCG64Words.from_address(ctypes.c_void_p.from_address(address).value)
        self.buffered = ctypes.c_uint64.from_address(address + ctypes.sizeof(ctypes.c_void_p))

    def start(self, i: int) -> np.random.Generator:
        """The generator at the start of replicate ``i``'s stream, valid until the next call."""
        self.pcg.words = self.starts[i - self.lo]
        self.buffered.value = 0  # no buffered 32-bit half, as the ``state`` setter leaves it
        return self.rng

    def draw_pair(self, i: int, exps: np.ndarray, unis: np.ndarray) -> None:
        """Fill ``exps``, then ``unis``, from replicate ``i``'s stream where its last pair ended."""
        r = i - self.lo
        self.pcg.words = self.saved[r]
        self.rng.standard_exponential(out=exps)  # whole 64-bit outputs: the buffer is untouched
        self.rng.random(out=unis)
        self.saved[r] = self.pcg.words


class _Generators:
    """A seed block's streams as generators made by ``start(i)``, one kept per replicate drawn."""

    def __init__(self, start: Callable[[int], Any]):
        self.start, self.running = start, {}

    def draw_pair(self, i: int, exps: np.ndarray, unis: np.ndarray) -> None:
        if i not in self.running:
            self.running[i] = self.start(i)
        self.running[i].standard_exponential(out=exps)
        self.running[i].random(out=unis)


def _block_rngs(seed: int, lo: int, hi: int) -> _RawBlock | _Generators:
    """The streams of replicates ``lo <= i < hi``, each that of ``default_rng([seed, i])``.

    A block of :func:`_seed_blocks` starts at a multiple of ``_SEED_BLOCK``,
    which divides 2^32, so all its indices have as many 32-bit words and it
    is hashed at once (:func:`_pcg64_states`) into a :class:`_RawBlock`.
    The struct layout it writes is numpy's, so its first and last replicate
    are loaded raw and compared with ``default_rng([seed, i])`` through the
    public ``state`` getter (:func:`_block_matches`); on a mismatch the
    block's streams are :class:`_Generators` of ``default_rng([seed, i])``
    instead.  That fallback guards against a numpy whose seeding or struct
    layout differs: no block the program builds crosses a word count.
    """
    columns = _word_columns(lo, hi - lo)
    entropy = [np.full_like(columns[0], word) for word in _seed_words(seed)] + columns
    block = _RawBlock(lo, _pcg64_states(entropy))
    if all(_block_matches(seed, i, block.start(i)) for i in (lo, hi - 1)):
        return block
    return _Generators(lambda i: np.random.default_rng([seed, i]))


def _block_matches(seed: int, i: int, rng: np.random.Generator) -> bool:
    """Whether ``rng`` is in the state of ``default_rng([seed, i])``."""
    return rng.bit_generator.state == np.random.default_rng([seed, i]).bit_generator.state


_LOCK_STEP_BLOCK = 256  # seed blocks this large run in lock step


def _lock_step(
    params: ModelParams,
    t_end: float,
    block: _RawBlock | _Generators,
    lo: int,
    hi: int,
    max_events: int,
) -> list:
    """Final entries of multiplicity replicates ``lo`` to ``hi - 1`` of one seed block.

    The kernel takes one holding time and one selector per event, so events
    ``32 b`` to ``32 b + 31`` of a replicate draw its block pair ``b``: an
    exponential block, then a uniform block.  Before event ``32 b`` each
    running replicate draws pair ``b`` with ``block.draw_pair``, which goes
    on from where its pair ``b - 1`` ended, so no pair is drawn twice and
    ``block.start`` still gives the kernel each stream from its start.
    Each numpy step then advances every running replicate by one event with
    the kernel's float expressions.  A state is a row of group counts by
    size; column 0 takes the updates of events that add or remove a group.
    The size in the chosen class is the first whose cumulative integer
    weight exceeds the class index, the size the kernel's walk returns, read
    from one running sum over the rows that need a search.  Returns the
    entries in index order, None for each replicate it leaves to the kernel
    (see :func:`run_ensemble`).
    """
    _check_horizon(t_end)
    theta, alpha, mu = params.theta, params.alpha, params.mu
    join, rate = 1.0 - alpha, 1.0 + mu
    rows = hi - lo
    exps = np.empty((rows, _DRAW_BLOCK))  # the block pair being drawn, a row per replicate
    unis = np.empty_like(exps)
    counts = np.zeros((rows, 0), np.int64)  # counts[r, i]: groups of size i in row r
    run = np.arange(rows)  # the rows still running
    state = np.zeros((3, rows))  # their clocks, sizes and group counts
    t, s, k = state
    left = []
    n = big = 0  # events taken; no size above big is present
    # a holding time past the float range ends the run, as in the kernel;
    # s / k is nan in rows with no groups, which take the new-family branch
    with np.errstate(over="ignore", invalid="ignore"):
        while len(run) and n < max_events:
            if not n % 16:  # replicates that rarely end run faster one by one
                if n and 4 * len(run) > 3 * earlier:
                    break
                earlier = len(run)
            col = n % _DRAW_BLOCK
            if not col:
                for r, e, u in zip(run.tolist(), exps, unis):
                    block.draw_pair(lo + r, e, u)
                hold, pick = exps[: len(run)].T.copy(), unis[: len(run)].T.copy()
                slot = np.arange(len(run))  # each running row's column in hold and pick
            if big + 2 > counts.shape[1]:  # room for a size of big + 1
                counts = np.hstack((counts, np.zeros((rows, 8), np.int64)))
                width = counts.shape[1]
                flat = counts.reshape(-1)
                size = np.arange(width)
                weights = np.stack([size > 0, size - 1, size])  # m_i, (i - 1) m_i, i m_i
                weights[:, 0] = 0
                starts = np.arange(0, rows * width, width)
            n += 1
            total = rate * s + theta
            t_next = hold[col][slot] / total + t
            ok = t_next <= t_end
            if np.count_nonzero(t < t_next) < len(run):
                stalled = ok & (t_next <= t)
                left += run[stalled].tolist()
                ok &= ~stalled
            state[0] = t_next
            if np.count_nonzero(ok) < len(run):
                keep = ok.nonzero()[0]
                run, slot, total = run[keep], slot[keep], total[keep]
                state = state.take(keep, axis=1)
                t, s, k = state
                if not len(run):
                    continue
            v = pick[col][slot] * total - (alpha * k + theta if alpha else theta)
            groups = join * k if alpha else k  # 1.0 * k is k
            grp = v < groups
            w = v - groups
            sk = s - k
            if mu > 0.0:  # w < 0 <= sk where grp holds, so grp implies mem
                mem = w < sk
                x = w - sk
                x /= mu
                np.copyto(x, w, where=mem)
                cap = np.where(mem, sk, s)
                cls = 2 - mem.view(np.int8) - grp.view(np.int8)
            else:
                mem, x, cap = np.ones_like(grp), w, sk.copy()
                cls = 1 - grp.view(np.int8)
            np.copyto(x, v / join if alpha else v, where=grp)
            np.copyto(cap, k, where=grp)
            cap -= 1.0
            np.minimum(x, cap, out=x)  # the class index, before truncation
            new = x < 0.0 if mu > 0.0 else (v < 0.0) | (s == 0.0)
            at = s / k  # the size when there is one group or every group has size 1
            idx = ((k > 1.0) & (sk > 0.0)).nonzero()[0]
            if len(idx):
                cum = counts.take(run[idx], axis=0)
                cum *= weights.take(cls[idx], axis=0)
                cum = np.cumsum(cum.reshape(-1))  # row j's sums, plus all of rows before it
                below = x[idx].astype(np.int64)
                below += cum[: len(idx) * width : width]
                found = np.searchsorted(cum, below, side="right")
                found -= starts[: len(idx)]
                at[idx] = found
            at[new] = 0.0  # a new family moves a group from column 0 to size 1
            grow = mem | new
            step = grow.view(np.int8) * 2 - 1
            s += step
            k += new
            big = max(big, int(at[at.argmax()]) + 1)
            base = run * width
            pos = at.astype(np.intp) + base
            flat[pos] -= 1
            pos += step
            flat[pos] += 1
            k -= pos == base  # a death in a group of size 1 removes the group
    keys: dict = {}  # counts by size -> sorted entries, built once per distinct state
    outcomes = []
    for row in map(tuple, counts[:, 1 : big + 1].tolist()):
        key = keys.get(row)
        if key is None:
            key = keys[row] = tuple([(i, c) for i, c in enumerate(row, 1) if c])
        outcomes.append(key)
    for r in left + run.tolist():
        outcomes[r] = None
    return outcomes


def _runaway_in(
    exc: RunawayError, run: str, params: ModelParams, t_end: float, seed: int, engine: str
) -> RunawayError:
    """``exc`` with the run, seed, point and engine it tripped in named first."""
    return RunawayError(
        f"{run} of seed {seed} (alpha={params.alpha}, theta={params.theta}, "
        f"mu={params.mu}, t={t_end}, engine {engine}): {exc}",
        events=exc.events, time=exc.time, size=exc.size, groups=exc.groups,
    )


def _run_chunk(args: tuple) -> dict:
    """Tallies of final states over one range of replicates, in first-occurrence order.

    Each seed block of the range runs as :func:`run_ensemble` describes.
    """
    params, t_end, seed, engine, start, stop, max_events = args
    kernel, empty = _KERNELS[engine]
    tallies: dict = {}
    for lo, hi in _seed_blocks(start, stop):
        block = _block_rngs(seed, lo, hi)
        outcomes = [None] * (hi - lo)  # None: the scalar kernel runs the replicate
        if engine == "multiplicity" and params.theta > 0.0 and hi - lo >= _LOCK_STEP_BLOCK:
            outcomes = _lock_step(params, t_end, block, lo, hi, max_events)
        for i, key in enumerate(outcomes, lo):
            if key is None:
                try:
                    key = kernel(params, t_end, block.start(i), empty, max_events)
                except RunawayError as exc:
                    raise _runaway_in(exc, f"replicate {i}", params, t_end, seed, engine) from exc
            tallies[key] = tallies.get(key, 0) + 1
    return tallies


def _usable_cpus() -> int:
    """CPUs this process may run on (all CPUs where affinity is unknown)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def run_ensemble(
    params: ModelParams,
    t_end: float,
    replicates: int,
    seed: int,
    engine: str = "multiplicity",
    *,
    workers: int = 1,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> EmpiricalDistribution:
    """Tally the time-``t_end`` state over independent replicates.

    Partition engines tally final partitions (size and group marginals are
    derived views); the ``bdi`` engine tallies integer sizes.  The output is
    a deterministic function of (params, t_end, replicates, seed, engine)
    alone - worker count (at least 1) only affects wall time.

    An ensemble is cut only into seed blocks: replicates ``lo`` to
    ``hi - 1``, with ``lo`` a multiple of ``_SEED_BLOCK`` (4,096).  A serial
    run walks them in one :func:`_run_chunk`; a pooled run maps
    :func:`_run_chunk` over them on min(workers, blocks, usable CPUs)
    processes, all started up front, so a pool starts only for two or more
    blocks and every block takes the same path whatever the worker count.
    With the multiplicity engine and theta > 0, a block of at least
    ``_LOCK_STEP_BLOCK`` replicates runs in lock step (:func:`_lock_step`):
    every replicate draws its next block pair of holding times and
    selectors, and one numpy step advances all running replicates by one
    event.  Every 16 events, if more than three in four of the replicates
    running 16 events earlier still run, the scalar kernel reruns them from
    the start of their streams, in index order, as it does a replicate that
    stalls or reaches ``max_events``.  Smaller blocks, theta <= 0 and the
    other engines run one replicate at a time, in index order.  Both paths
    give the same tallies in the same order, and the first guard to raise
    is the one a plain loop raises.
    """
    if replicates < 1:
        raise DomainError("need at least one replicate")
    if engine not in _KERNELS:
        raise DomainError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if seed < 0:
        raise DomainError("the seed must be >= 0")
    if workers < 1:
        raise DomainError("need at least one worker")
    blocks = list(_seed_blocks(0, replicates))
    workers = min(workers, len(blocks), _usable_cpus())
    if workers <= 1:
        tallies = _run_chunk((params, t_end, seed, engine, 0, replicates, max_events))
    else:
        from concurrent.futures import ProcessPoolExecutor  # serial runs skip its import

        jobs = [(params, t_end, seed, engine, lo, hi, max_events) for lo, hi in blocks]
        tallies = Counter()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_run_chunk, jobs):
                tallies.update(part)
    if engine != "bdi":  # one partition per distinct entries key, in first-occurrence order
        tallies = {AllelicPartition(key): count for key, count in tallies.items()}
    return EmpiricalDistribution(dict(tallies), float(replicates), replicates, seed)


def _tail(probs: Mapping[Any, float]) -> float:
    return max(0.0, 1.0 - sum(probs.values()))


def _probabilities(dist) -> Mapping[Any, float]:
    """Probabilities of an empirical law, or a mapping of them as given.

    Exact laws are plain ``{outcome: probability}`` mappings; mass they do
    not store (beyond a truncation bound) is their tail.
    """
    if isinstance(dist, EmpiricalDistribution):
        return dist.probabilities()
    if isinstance(dist, Mapping):
        return dist
    raise DomainError(f"unsupported distribution type {type(dist).__name__}")


def tv_distance(p, q) -> float:
    """Total variation distance between two (possibly truncated) laws.

    Computed as half the L1 difference over the union of stored supports
    plus half of each side's unstored tail mass; exact whenever each law's
    missing mass lives where the other has none (truncation against an
    empirical law, in particular).
    """
    p_probs, q_probs = _probabilities(p), _probabilities(q)
    for probs in (p_probs, q_probs):
        mass = 0.0
        for value in probs.values():
            if value < -1e-12:
                raise DomainError("distributions must be nonnegative")
            mass += value
        if mass > 1.0 + 1e-9:
            raise DomainError(f"mass {mass} exceeds 1")
    core = 0.0
    for key in p_probs.keys() | q_probs.keys():
        core += abs(p_probs.get(key, 0.0) - q_probs.get(key, 0.0))
    return 0.5 * core + 0.5 * (_tail(p_probs) + _tail(q_probs))


def conditional_given_size(dist, n: int) -> dict[AllelicPartition, float]:
    """Renormalized slice {s(m) = n} of a distribution over partitions.

    Accepts an empirical distribution or a mapping of probabilities; raises
    if the slice carries no mass.  Applied to the exact stationary table
    this recovers the Pitman sampling formula at n.
    """
    _require_count(n, 0, "the slice size must be >= 0")
    probs = _probabilities(dist)
    slice_probs = {m: p for m, p in probs.items() if m.size == n and p > 0.0}
    total = sum(slice_probs.values())
    if total <= 0.0:
        raise DomainError(f"the distribution carries no mass on partitions of size {n}")
    return {m: p / total for m, p in slice_probs.items()}


def stationary_occupation(
    params: ModelParams,
    horizon: float,
    burn_in: float,
    seed: int,
) -> EmpiricalDistribution:
    """Occupation fractions of one long run after a burn-in (mu > 1).

    Simulates a single run on [0, horizon] from the empty state and weights
    each visited partition by the time spent there beyond ``burn_in``.  The
    kernel hands each event to an observer that updates a mutable
    multiplicity dict and adds up occupation keyed by its sorted entries, so
    memory is O(distinct states) rather than O(events), and a partition
    object is built once per distinct state.
    """
    _require_reversible(params.mu)
    if not 0.0 <= burn_in < horizon:
        raise DomainError("need 0 <= burn_in < horizon")
    if seed < 0:
        raise DomainError("the seed must be >= 0")
    counts: dict[int, int] = {}
    weights: dict[tuple[tuple[int, int], ...], float] = {}
    t_prev = 0.0

    def occupy(t: float) -> None:
        """Credit the current state with its time in (max(t_prev, burn_in), t]."""
        nonlocal t_prev
        lo = max(t_prev, burn_in)
        if t > lo:
            key = tuple(sorted(counts.items()))
            weights[key] = weights.get(key, 0.0) + (t - lo)
        t_prev = t

    def observe(jump: tuple[float, TransitionEvent]) -> None:
        t, event = jump
        occupy(t)
        _apply_event(counts, event)

    rng = np.random.default_rng([seed, 0])
    _multiplicity_kernel(params, horizon, rng, _EMPTY, DEFAULT_MAX_EVENTS, observe)
    occupy(horizon)
    return EmpiricalDistribution(
        {AllelicPartition(key): w for key, w in weights.items()}, horizon - burn_in, None, seed
    )


@dataclass(frozen=True)
class GrowthRow:
    """Cross-replicate statistics of the group count at one checkpoint.

    Two normalizations are always reported: K_n / log(n) (NaN at n = 1) and
    K_n / n^power.  ``cv`` columns are sample coefficient of variation.
    """

    n: int
    mean_groups: float
    sd_groups: float
    log_norm_mean: float
    log_norm_cv: float
    pow_norm_mean: float
    pow_norm_cv: float


def growth_report(
    params: ModelParams,
    n_max: int,
    runs: int,
    seed: int,
    *,
    power: float | None = None,
) -> list[GrowthRow]:
    """Group-count growth statistics over independent urn runs.

    ``power`` defaults to alpha, the exponent under which the group count of
    the two-parameter urn has a nondegenerate limit (at alpha = 0 the power
    normalization degenerates to the raw count and the log column is the
    meaningful one, approaching theta).
    """
    if runs < 2:
        raise DomainError("need at least two runs for dispersion statistics")
    if seed < 0:
        raise DomainError("the seed must be >= 0")
    if power is None:
        power = params.alpha
    # run r draws from default_rng([seed, r]); each generator is used up before the next is made
    blocks = _seed_blocks(0, runs)
    rngs = (rng for lo, hi in blocks for rng in map(_block_rngs(seed, lo, hi).start, range(lo, hi)))
    traces = _group_count_traces(n_max, params, rngs)
    rows = []
    for column, (n, _) in enumerate(traces[0]):
        counts = np.array([trace[column][1] for trace in traces], dtype=float)
        mean = float(counts.mean())
        sd = float(counts.std(ddof=1))
        log_n = math.log(n)
        if log_n > 0.0:
            log_mean, log_cv = mean / log_n, sd / mean
        else:
            log_mean = log_cv = float("nan")
        scale = float(n**power)
        rows.append(
            GrowthRow(
                n=n,
                mean_groups=mean,
                sd_groups=sd,
                log_norm_mean=log_mean,
                log_norm_cv=log_cv,
                pow_norm_mean=mean / scale,
                pow_norm_cv=sd / mean,
            )
        )
    return rows


def _histogram_key(key) -> tuple[tuple[int, str], str]:
    """(sort key, text) of a histogram key: partitions by size, then text; integers by value."""
    if isinstance(key, AllelicPartition):
        text = key.encode()
        return (key.size, text), text
    if isinstance(key, (int, np.integer)):
        return (int(key), ""), str(int(key))
    raise DomainError(f"cannot serialize histogram key of type {type(key).__name__}")


@contextmanager
def _open_artifact(
    file: str | IO[str] | None, header: Mapping[str, object] | None = None
) -> Iterator[IO[str]]:
    """A text handle on ``file`` for one artifact, header lines first.

    ``file`` is a path (truncated, closed on exit, and deleted if the body
    raises and it is a regular file), an open handle (left open) or None for
    stdout.  With a ``header``, the lines ``# artifact=allelic-bdi``,
    ``# version=...`` and one ``# key=value`` per header entry come first.
    """
    own = isinstance(file, str)
    if own:
        fh: IO[str] = open(file, "w", newline="")
    else:
        fh = sys.stdout if file is None else file
    written = False
    try:
        if header is not None:
            for key, value in {**_STAMP, **header}.items():
                fh.write(f"# {key}={value}\n")
        yield fh
        written = True
    finally:
        if own:
            fh.close()
            if not written and os.path.isfile(file):  # a failed run leaves no artifact
                os.remove(file)


def _write_report(file: str | IO[str] | None, command: str, body: Mapping[str, object]) -> None:
    """Write ``body`` to ``file`` (as :func:`_open_artifact` takes it) as ``command``'s JSON report.

    The report adds the stamp and ``command`` to ``body``; its keys are
    sorted, indented by two, and it ends in a newline.
    """
    with _open_artifact(file) as fh:
        json.dump({**_STAMP, "command": command, **body}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_histogram_csv(
    dist: EmpiricalDistribution, file: str | IO[str], metadata: Mapping[str, object] | None = None
) -> None:
    """Write tallies as ``key,count,probability`` CSV with a metadata header.

    The header names the random stream (``rng_stream``) the tallies were drawn from.
    """
    header: dict[str, object] = {"rng_stream": RNG_STREAM, "total_weight": dist.total}
    if dist.replicates is not None:
        header["replicates"] = dist.replicates
    if dist.seed is not None:
        header["seed"] = dist.seed
    with _open_artifact(file, {**header, **(metadata or {})}) as fh:
        fh.write("key,count,probability\n")
        for (_, text), w in sorted((_histogram_key(key), w) for key, w in dist.weights.items()):
            count = int(w) if float(w).is_integer() else repr(w)
            fh.write(f"{text},{count},{w / dist.total!r}\n")


def write_growth_csv(
    rows: Iterable[GrowthRow], file: str | IO[str], metadata: Mapping[str, object] | None = None
) -> None:
    """Write growth rows as CSV, one column per :class:`GrowthRow` field, with a metadata header."""
    with _open_artifact(file, metadata or {}) as fh:
        fh.write(",".join(field.name for field in fields(GrowthRow)) + "\n")
        for row in rows:
            n, *stats = astuple(row)
            fh.write(",".join([str(n), *map(repr, stats)]) + "\n")


def _write_trajectory(
    file: str, params: ModelParams, t_end: float, seed: int, engine: str, max_events: int
) -> None:
    """Write the path of a partition ``engine`` from the stream ``[seed, 0]`` as CSV.

    The kernel runs from the empty state and hands each event to an observer
    that writes its row: time, event_kind, event_index (empty for a new
    family) and the size and group count after it.  The header names the
    random stream (``rng_stream``) the engines draw.
    """
    kernel, start = _KERNELS[engine]
    header = dict(
        rng_stream=RNG_STREAM, **asdict(params), seed=seed, horizon=t_end, initial=start.encode(),
        engine=engine,
    )
    with _open_artifact(file, header) as fh:
        fh.write("time,event_kind,event_index,s,k\n")
        write = fh.write
        s = k = 0  # the empty state

        def write_row(jump: tuple[float, TransitionEvent]) -> None:
            nonlocal s, k
            t, event = jump
            kind, index = event.kind, event.index
            if kind is EventKind.DEATH:
                s -= 1
                k -= index == 1  # a group of one dies out
            else:
                s += 1
                k += kind is EventKind.NEW_FAMILY
            write(f"{t!r},{kind.value},{'' if index is None else index},{s},{k}\n")

        try:
            kernel(params, t_end, np.random.default_rng([seed, 0]), start, max_events, write_row)
        except RunawayError as exc:
            raise _runaway_in(exc, "trajectory", params, t_end, seed, engine) from exc
