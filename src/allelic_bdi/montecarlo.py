"""Ensemble simulation, empirical distributions and Monte Carlo diagnostics.

Reproducibility contract: replicate ``i`` of a run with master seed ``S``
always uses the stream ``numpy.random.default_rng([S, i])``, and merged
tallies are plain integer sums, so results are bit-identical for fixed
inputs no matter how replicates are partitioned across workers.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import IO, Any, Callable, Iterable, Iterator, Mapping

import numpy as np

from . import __version__ as _pkg_version
from .ctmc import DEFAULT_MAX_EVENTS, Trajectory, simulate, simulate_bdi, simulate_branching
from .errors import DomainError, RunawayError
from .formulae import ModelParams
from .partitions import AllelicPartition, EventKind
from .urn import group_count_trace

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

    def restrict(self, predicate: Callable[[Any], bool]) -> dict[Any, float]:
        """Probabilities of the keys passing ``predicate`` (not renormalized)."""
        return {k: w / self.total for k, w in self.weights.items() if predicate(k)}

    def mean(self) -> float:
        return sum(k * w for k, w in self.weights.items()) / self.total

    def variance(self) -> float:
        mean = self.mean()
        return sum((k - mean) ** 2 * w for k, w in self.weights.items()) / self.total


def _replicate_outcome(engine: str, params: ModelParams, t_end: float, rng, max_events: int):
    if engine == "multiplicity":
        return simulate(params, t_end, rng, max_events=max_events).final_state()
    if engine == "branching":
        return simulate_branching(params, t_end, rng, max_events=max_events).final_state()
    if engine == "bdi":
        return simulate_bdi(params, t_end, rng, max_events=max_events).final_value
    raise DomainError(f"unknown engine {engine!r}; expected one of {ENGINES}")


def _run_chunk(args: tuple) -> Counter:
    params, t_end, seed, engine, start, stop, max_events = args
    tallies: Counter = Counter()
    for i in range(start, stop):
        rng = np.random.default_rng([seed, i])
        try:
            outcome = _replicate_outcome(engine, params, t_end, rng, max_events)
        except RunawayError as exc:
            raise RunawayError(
                f"replicate {i} of seed {seed} (alpha={params.alpha}, theta={params.theta}, "
                f"mu={params.mu}, t={t_end}, engine {engine}): {exc}",
                events=exc.events,
                time=exc.time,
            ) from exc
        tallies[outcome] += 1
    return tallies


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
    alone - worker count only affects wall time.
    """
    if replicates < 1:
        raise DomainError("need at least one replicate")
    if engine not in ENGINES:
        raise DomainError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if seed < 0:
        raise DomainError("the seed must be >= 0")
    workers = min(workers, max(1, replicates // 64))  # pool startup isn't worth tiny runs
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

    Simulates a single trajectory on [0, horizon] and weights each visited
    partition by the time spent there beyond ``burn_in``.  The path is
    walked on a mutable multiplicity dict, and occupation is keyed by its
    sorted entries, so a partition object is built once per distinct state
    rather than once per event.
    """
    params.require_reversible()
    if not 0.0 <= burn_in < horizon:
        raise DomainError("need 0 <= burn_in < horizon")
    if seed < 0:
        raise DomainError("the seed must be >= 0")
    trajectory = simulate(
        params, horizon, np.random.default_rng([seed, 0]), max_events=max_events
    )
    counts = trajectory.initial.as_dict()
    weights: dict[tuple[tuple[int, int], ...], float] = {}

    def occupy(lo: float, hi: float) -> None:
        if hi > lo:
            key = tuple(sorted(counts.items()))
            weights[key] = weights.get(key, 0.0) + (hi - lo)

    t_prev = 0.0
    for t, event in trajectory.events:
        occupy(max(t_prev, burn_in), t)
        t_prev = t
        if event.kind is EventKind.NEW_FAMILY:
            counts[1] = counts.get(1, 0) + 1
            continue
        i = event.index
        if counts[i] == 1:
            del counts[i]
        else:
            counts[i] -= 1
        j = i + 1 if event.kind is EventKind.GROWTH else i - 1
        if j:  # a death in a group of size 1 leaves no group behind
            counts[j] = counts.get(j, 0) + 1
    occupy(max(t_prev, burn_in), horizon)
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
    traces = []
    for r in range(runs):
        rng = np.random.default_rng([seed, r])
        traces.append(group_count_trace(n_max, params, rng))
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
