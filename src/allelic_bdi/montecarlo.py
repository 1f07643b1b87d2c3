"""Ensemble simulation, empirical distributions and Monte Carlo diagnostics.

Reproducibility contract: replicate ``i`` of a run with master seed ``S``
always uses the stream ``numpy.random.default_rng([S, i])``, and merged
tallies are plain integer sums, so results are bit-identical for fixed
inputs no matter how replicates are partitioned across workers.  Single
runs build that generator from the uint32 words numpy's ``SeedSequence``
makes of ``[S, i]`` (:func:`_replicate_rng`).  Ensemble replicates are
seeded a block at a time (:func:`_replicate_draws`): numpy's seed hash runs
on a whole block of ``[S, i]`` word arrays at once, each replicate's PCG64
state is assigned to one reused generator, and every block is checked
against ``default_rng`` and reseeded through :func:`_replicate_rng` if it
differs.  Their uniforms come from raw PCG64 words, the bits
``Generator.random`` would return.  Replicates run the engine kernels
without recording a path and tally the sorted entries of their final
state; a partition object is built once per distinct state after the merge.
"""

from __future__ import annotations

import math
import os
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import IO, Any, Callable, Iterable, Iterator, Mapping

import numpy as np

from . import __version__ as _pkg_version
from .ctmc import (
    _EMPTY,
    DEFAULT_MAX_EVENTS,
    Trajectory,
    _branching_kernel,
    _multiplicity_kernel,
    _size_kernel,
)
from .errors import DomainError, RunawayError
from .formulae import ModelParams
from .partitions import AllelicPartition, EventKind, TransitionEvent
from .urn import _group_count_traces

ENGINES = ("multiplicity", "branching", "bdi")


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


def _replicate_rng(seed: int, i: int) -> np.random.Generator:
    """The generator of replicate ``i`` of master seed ``seed``.

    Equal to ``np.random.default_rng([seed, i])``: numpy's ``SeedSequence``
    turns the list ``[seed, i]`` into exactly this uint32 array, words of
    ``seed`` first, and seeds from it; handing it the array skips the
    per-element conversion.
    """
    return np.random.default_rng(np.array(_seed_words(seed) + _seed_words(i), dtype=np.uint32))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and the PCG64
# seeding step (pcg64_set_seed), mirrored so that a block of replicates is
# hashed at once; _replicate_draws checks the result against default_rng
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_SEED_BLOCK = 4096  # replicates hashed at once: bounds the block's arrays


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


def _pcg64_states(entropy: list[np.ndarray]) -> list[tuple[int, int]]:
    """PCG64 (state, inc) of ``default_rng`` seeded from each row of ``entropy``.

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
    s0, s1, s2, s3 = ((halves[j + 1] << 32 | halves[j]).tolist() for j in range(0, 8, 2))
    states = []
    for seed_hi, seed_lo, inc_hi, inc_lo in zip(s0, s1, s2, s3):
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        states.append((((inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def _pcg64_state(state: int, inc: int) -> dict:
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def _replicate_draws(seed: int, start: int, stop: int) -> Iterator[tuple[int, Callable, Callable]]:
    """``(i, exponential, uniform)`` for replicates ``start`` to ``stop - 1``.

    Replicate ``i`` draws from the stream of ``default_rng([seed, i])``.  A
    block of up to ``_SEED_BLOCK`` replicates is hashed at once
    (:func:`_pcg64_states`), and each replicate's state is assigned to one
    PCG64 reused for the whole chunk; its uniforms come from raw 64-bit
    words, ``(word >> 11) * 2**-53``, which is how ``Generator.random``
    makes them.  The first and last replicate of every block are checked
    against ``default_rng([seed, i])`` (:func:`_block_matches`); on a
    mismatch the block is seeded replicate by replicate with
    :func:`_replicate_rng` and draws through it instead.  The callables of a
    replicate are only valid until the next one is yielded.
    """
    bitgen = np.random.PCG64()
    exponential = np.random.Generator(bitgen).exponential
    raw = bitgen.random_raw

    def uniform() -> float:
        return (raw() >> 11) * 2.0**-53

    seed_words = _seed_words(seed)
    for lo in range(start, stop, _SEED_BLOCK):
        hi = min(lo + _SEED_BLOCK, stop)
        states = []
        first = lo
        while first < hi:  # one run of replicate indices per word count
            last = min(hi, 1 << (32 * len(_seed_words(first))))
            columns = _word_columns(first, last - first)
            entropy = [np.full_like(columns[0], word) for word in seed_words] + columns
            states += _pcg64_states(entropy)
            first = last
        if all(
            _block_matches(seed, i, states[i - lo], bitgen, uniform) for i in (lo, hi - 1)
        ):
            for i, state in zip(range(lo, hi), states):
                bitgen.state = _pcg64_state(*state)
                yield i, exponential, uniform
        else:
            for i in range(lo, hi):
                rng = _replicate_rng(seed, i)
                yield i, rng.exponential, rng.random


def _block_matches(seed: int, i: int, state: tuple[int, int], bitgen, uniform) -> bool:
    """Whether ``bitgen`` set to ``state`` is ``default_rng([seed, i])``, first uniform included."""
    oracle = np.random.default_rng([seed, i])
    bitgen.state = _pcg64_state(*state)
    return bitgen.state == oracle.bit_generator.state and uniform() == oracle.random()


def _replicate_outcome(
    engine: str,
    params: ModelParams,
    t_end: float,
    exponential: Callable,
    uniform: Callable,
    max_events: int,
):
    """Final state of one replicate: sorted partition entries, or a size for ``bdi``."""
    if engine == "multiplicity":
        return _multiplicity_kernel(params, t_end, exponential, uniform, _EMPTY, max_events, None)
    if engine == "branching":
        return _branching_kernel(params, t_end, exponential, uniform, _EMPTY, max_events, None)
    if engine == "bdi":
        return _size_kernel(params, t_end, exponential, uniform, 0, max_events, None)
    raise DomainError(f"unknown engine {engine!r}; expected one of {ENGINES}")


def _run_chunk(args: tuple) -> dict:
    """Tallies of final states over one range of replicates, in first-occurrence order."""
    params, t_end, seed, engine, start, stop, max_events = args
    tallies: dict = {}
    for i, exponential, uniform in _replicate_draws(seed, start, stop):
        try:
            outcome = _replicate_outcome(engine, params, t_end, exponential, uniform, max_events)
        except RunawayError as exc:
            raise RunawayError(
                f"replicate {i} of seed {seed} (alpha={params.alpha}, theta={params.theta}, "
                f"mu={params.mu}, t={t_end}, engine {engine}): {exc}",
                events=exc.events,
                time=exc.time,
                size=exc.size,
                groups=exc.groups,
            ) from exc
        tallies[outcome] = tallies.get(outcome, 0) + 1
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
    alone - worker count only affects wall time.  The pool is capped at the
    usable CPUs, since every worker process is started up front.
    """
    if replicates < 1:
        raise DomainError("need at least one replicate")
    if engine not in ENGINES:
        raise DomainError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if seed < 0:
        raise DomainError("the seed must be >= 0")
    workers = min(workers, max(1, replicates // 64), _usable_cpus())  # tiny runs stay serial
    if workers <= 1:
        tallies = _run_chunk((params, t_end, seed, engine, 0, replicates, max_events))
    else:
        from concurrent.futures import ProcessPoolExecutor  # serial runs skip its import

        chunk = max(1, -(-replicates // (workers * 4)))
        jobs = [
            (params, t_end, seed, engine, lo, min(lo + chunk, replicates), max_events)
            for lo in range(0, replicates, chunk)
        ]
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
    if n < 0:
        raise DomainError("the slice size must be >= 0")
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
    *,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> EmpiricalDistribution:
    """Occupation fractions of one long run after a burn-in (mu > 1).

    Simulates a single run on [0, horizon] from the empty state and weights
    each visited partition by the time spent there beyond ``burn_in``.  The
    kernel hands each event to an observer that updates a mutable
    multiplicity dict and adds up occupation keyed by its sorted entries, so
    memory is O(distinct states) rather than O(events), and a partition
    object is built once per distinct state.
    """
    params.require_reversible()
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
        if event.kind is EventKind.NEW_FAMILY:
            counts[1] = counts.get(1, 0) + 1
            return
        i = event.index
        if counts[i] == 1:
            del counts[i]
        else:
            counts[i] -= 1
        j = i + 1 if event.kind is EventKind.GROWTH else i - 1
        if j:  # a death in a group of size 1 leaves no group behind
            counts[j] = counts.get(j, 0) + 1

    rng = _replicate_rng(seed, 0)
    _multiplicity_kernel(params, horizon, rng.exponential, rng.random, _EMPTY, max_events, observe)
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
    traces = _group_count_traces(n_max, params, (_replicate_rng(seed, r) for r in range(runs)))
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


def _key_text(key) -> str:
    if isinstance(key, AllelicPartition):
        return key.encode()
    if isinstance(key, (int, np.integer)):
        return str(int(key))
    raise DomainError(f"cannot serialize histogram key of type {type(key).__name__}")


def _sort_key(key):
    if isinstance(key, AllelicPartition):
        return (key.size, key.encode())
    if isinstance(key, (int, np.integer)):
        return (int(key), "")
    raise DomainError(f"cannot serialize histogram key of type {type(key).__name__}")


@contextmanager
def _open_artifact(
    file: str | IO[str] | None, header: Mapping[str, object] | None = None
) -> Iterator[IO[str]]:
    """A text handle on ``file`` for one artifact, header lines first.

    ``file`` is a path (opened here and closed on exit), an open handle
    (left open) or None for stdout.  With a ``header``, the lines
    ``# artifact=allelic-bdi``, ``# version=...`` and one ``# key=value``
    per header entry are written before the body.
    """
    own = isinstance(file, str)
    if own:
        fh: IO[str] = open(file, "w", newline="")
    else:
        fh = sys.stdout if file is None else file
    try:
        if header is not None:
            meta = {"artifact": "allelic-bdi", "version": _pkg_version, **header}
            for key, value in meta.items():
                fh.write(f"# {key}={value}\n")
        yield fh
    finally:
        if own:
            fh.close()


def write_histogram_csv(
    dist: EmpiricalDistribution, file: str | IO[str], metadata: Mapping[str, object] | None = None
) -> None:
    """Write tallies as ``key,count,probability`` CSV with a metadata header."""
    header: dict[str, object] = {"total_weight": dist.total}
    if dist.replicates is not None:
        header["replicates"] = dist.replicates
    if dist.seed is not None:
        header["seed"] = dist.seed
    with _open_artifact(file, {**header, **(metadata or {})}) as fh:
        fh.write("key,count,probability\n")
        for key in sorted(dist.weights, key=_sort_key):
            w = dist.weights[key]
            count = int(w) if float(w).is_integer() else repr(w)
            fh.write(f"{_key_text(key)},{count},{w / dist.total!r}\n")


def write_growth_csv(
    rows: Iterable[GrowthRow], file: str | IO[str], metadata: Mapping[str, object] | None = None
) -> None:
    with _open_artifact(file, metadata or {}) as fh:
        fh.write(
            "n,mean_groups,sd_groups,log_norm_mean,log_norm_cv,pow_norm_mean,pow_norm_cv\n"
        )
        for row in rows:
            fh.write(
                f"{row.n},{row.mean_groups!r},{row.sd_groups!r},{row.log_norm_mean!r},"
                f"{row.log_norm_cv!r},{row.pow_norm_mean!r},{row.pow_norm_cv!r}\n"
            )


def write_trajectory_csv(
    trajectory: Trajectory,
    file: str | IO[str],
    *,
    params: ModelParams | None = None,
    seed: int | None = None,
    metadata: Mapping[str, object] | None = None,
) -> None:
    """Write a trajectory as CSV with a commented metadata header.

    Columns are time, event_kind, event_index (empty for new-family events)
    and the population size and group count after the event, both tracked
    from the events themselves without replaying partitions.
    """
    header: dict[str, object] = {}
    if params is not None:
        header.update(alpha=params.alpha, theta=params.theta, mu=params.mu)
    if seed is not None:
        header["seed"] = seed
    header["horizon"] = trajectory.horizon
    header["initial"] = trajectory.initial.encode()
    with _open_artifact(file, {**header, **(metadata or {})}) as fh:
        fh.write("time,event_kind,event_index,s,k\n")
        s, k = trajectory.initial.size, trajectory.initial.num_groups
        for t, ev in trajectory.events:
            s += ev.size_delta
            if ev.kind is EventKind.NEW_FAMILY:
                k += 1
            elif ev.kind is EventKind.DEATH and ev.index == 1:
                k -= 1
            idx = "" if ev.index is None else str(ev.index)
            fh.write(f"{t!r},{ev.kind.value},{idx},{s},{k}\n")
