"""The four benchmark workloads: CLI invocations, law checks and traced rebuilds.

Each workload knows three things:

* ``ops(seed, outdir)``: the ``allelic_bdi.cli.main`` argument lists of one
  pass and the artifact files each writes;
* ``check(op, artifacts)``: whether those artifacts obey the law the
  workload is checked against (an oracle outside the code under test where
  one exists);
* ``rebuild(seed, trace)``: the same work rebuilt from the public
  library calls the CLI makes, each timed from outside when ``trace`` is a
  :class:`Trace`.  It returns the artifacts it made, so the caller can
  confirm they are byte-identical to the CLI's.

Only the ``allelic_bdi`` package of the checkout is imported; nothing in it
is patched or wrapped.
"""

from __future__ import annotations

import io
import json
import math
import os
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from allelic_bdi import (
    DEFAULT_MAX_EVENTS,
    AllelicPartition,
    EmpiricalDistribution,
    GrowthRow,
    ModelParams,
    alpha0_marginal,
    enumerate_partitions,
    group_count_trace,
    mixture_consistency_scan,
    nbin_time_param,
    neg_bin_pmf,
    partition_balance_scan,
    run_ensemble,
    simulate,
    simulate_branching,
    size_balance_scan,
    stationary_mass_comparison,
    tv_distance,
    weight_series_gap,
    write_growth_csv,
    write_histogram_csv,
)
from allelic_bdi import __version__ as PKG_VERSION
from allelic_bdi import cli
from allelic_bdi.stationary import PARTITION_BALANCE_MAX_SIZE
from spec import (
    SCALING_POINTS,
    SCALING_THETA,
    SMOKE_SCALING_POINTS,
    WHY,
    scaling_point_name,
)

NPROC = len(os.sched_getaffinity(0))

# criterion-6 tolerances hold at 10^5 replicates; sampling noise in TV shrinks
# like 1/sqrt(R), so a run with R replicates is held to tol * sqrt(10^5 / R)
CRIT6_REPLICATES = 100_000
CRIT6_SIZE_TOL = 0.02
CRIT6_PARTITION_TOL = 0.03
CRIT6_SIZE_RANGE = 200
CRIT6_PARTITION_BOUND = 12

# two-sided p-value below which a size law counts as rejected
LAW_P_MIN = 1e-6

# criterion 10: the last row's K_n / (theta log n) within 15% of 1
GROWTH_TOL = 0.15

ENGINE_FNS = {"multiplicity": simulate, "branching": simulate_branching}


@dataclass(frozen=True)
class Op:
    """One CLI invocation of a pass and the artifact files it writes."""

    label: str
    argv: tuple[str, ...]
    files: tuple[Path, ...]


class Trace:
    """Busy seconds and counts recorded around library calls, in memory."""

    def __init__(self):
        self.busy: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)

    def call(self, layer: str, fn, *args, **kwargs):
        start = perf_counter()
        out = fn(*args, **kwargs)
        self.busy[layer] += perf_counter() - start
        return out


def timed(trace: Trace | None, layer: str, fn, *args, **kwargs):
    """Call ``fn``; with a trace, add its wall time to ``layer``."""
    if trace is None:
        return fn(*args, **kwargs)
    return trace.call(layer, fn, *args, **kwargs)


def count(trace: Trace | None, name: str, n: float) -> None:
    if trace is not None:
        trace.counts[name] += n


def read_csv_rows(data: bytes) -> list[list[str]]:
    """Data rows of a CSV artifact: after the ``#`` header lines and the column line."""
    lines = [ln for ln in data.decode().splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def partition_text_size(text: str) -> int:
    """Population size of a partition in the "1^3 2^1" text form."""
    if text == "0":
        return 0
    total = 0
    for term in text.split():
        i, _, c = term.partition("^")
        total += int(i) * int(c)
    return total


def nb_size_law_pvalues(sizes: np.ndarray, theta: float, b: float) -> tuple[float, float]:
    """(exact p of the total, KS p of the shape) of sizes against NB(theta, b).

    The sum of R independent NB(theta, b) sizes is NB(R theta, b), so the
    total gets an exact two-sided test; the Kolmogorov-Smirnov p-value is
    conservative for a discrete law.  scipy's ``nbinom(n, p)`` counts
    failures before the n-th success at success probability p = 1 - b.
    """
    from scipy import stats  # the checks' own dependency, kept out of set-up time

    total = int(sizes.sum())
    law = stats.nbinom(len(sizes) * theta, 1.0 - b)
    p_total = min(1.0, 2.0 * min(law.cdf(total), law.sf(total - 1)))
    p_ks = stats.kstest(sizes, stats.nbinom(theta, 1.0 - b).cdf).pvalue
    return float(p_total), float(p_ks)


class Workload:
    name = ""
    why = ""

    def __init__(self, smoke: bool = False):
        self.smoke = smoke

    def ops(self, seed: int, outdir: Path, inject_fault: bool = False) -> list[Op]:
        """One pass; ``inject_fault`` asks the CLI to corrupt its result where it can."""
        raise NotImplementedError

    def warm_up_ops(self, outdir: Path) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op, artifacts: list[bytes]) -> tuple[bool, str]:
        raise NotImplementedError

    def events(self, op: Op, artifacts: list[bytes]) -> int:
        """Simulation events of one op, where its artifacts show them (else 0)."""
        return 0

    def expected_events(self) -> float:
        """Mean events of one op when they vary with the seed (else 0: no scaling)."""
        return 0.0

    def enumerate_max(self) -> int:
        """Largest partition size the workload enumerates (-1: none)."""
        return -1

    def rebuild(self, seed: int, trace: Trace | None) -> dict[str, list[bytes]]:
        raise NotImplementedError


# -- ensembles -----------------------------------------------------------------


class Ensemble(Workload):
    engines: tuple[str, ...] = ("multiplicity",)

    def point(self) -> tuple[ModelParams, float, int]:
        raise NotImplementedError

    def _argv(self, engine, params, t, replicates, seed, summary, hist):
        return (
            "simulate", "--alpha", repr(params.alpha), "--theta", repr(params.theta),
            "--mu", repr(params.mu), "--t", repr(t), "--replicates", str(replicates),
            "--seed", str(seed), "--engine", engine, "--workers", str(NPROC),
            "--summary", str(summary), "--histogram", str(hist),
        )  # fmt: skip

    def ops(self, seed: int, outdir: Path, inject_fault: bool = False) -> list[Op]:
        params, t, replicates = self.point()
        out = []
        for engine in self.engines:
            summary, hist = outdir / f"{engine}-summary.json", outdir / f"{engine}-hist.csv"
            argv = self._argv(engine, params, t, replicates, seed, summary, hist)
            out.append(Op(engine, argv, (summary, hist)))
        return out

    def warm_up_ops(self, outdir: Path) -> list[Op]:
        params, t, _ = self.point()
        out = []
        for engine in self.engines:
            summary, hist = outdir / f"warm-{engine}-summary.json", outdir / f"warm-{engine}.csv"
            argv = self._argv(engine, params, min(t, 1.0), 8, 0, summary, hist)
            out.append(Op(engine, argv, (summary, hist)))
        return out

    def tallies(self, hist: bytes) -> Counter:
        """{partition text: count} from a histogram artifact."""
        rows = read_csv_rows(hist)
        return Counter({key: int(count) for key, count, _ in rows})

    # -- traced rebuild -------------------------------------------------------

    def rebuild(self, seed: int, trace: Trace | None) -> dict[str, list[bytes]]:
        params, t, replicates = self.point()
        artifacts = {}
        for engine in self.engines:
            dist = self._rebuild_ensemble(engine, params, t, replicates, seed, trace)
            hist = io.StringIO()
            meta = {"alpha": params.alpha, "theta": params.theta, "mu": params.mu, "t": t,
                    "engine": engine}  # fmt: skip
            timed(trace, "montecarlo.write_histogram_csv", write_histogram_csv, dist, hist,
                  metadata=meta)  # fmt: skip
            summary = io.StringIO()
            json.dump(self._summary(engine, params, t, replicates, seed, dist, trace), summary,
                      indent=2, sort_keys=True)  # fmt: skip
            summary.write("\n")
            artifacts[engine] = [summary.getvalue().encode(), hist.getvalue().encode()]
            count(trace, "montecarlo.write_histogram_csv.bytes", len(artifacts[engine][1]))
        return artifacts

    def _rebuild_ensemble(self, engine, params, t, replicates, seed, trace):
        """Replicate loop of ``run_ensemble`` (one worker), each call timed."""
        engine_fn = ENGINE_FNS[engine]
        layer = f"ctmc.{engine_fn.__name__}"
        tallies: Counter = Counter()
        default_rng = np.random.default_rng
        for i in range(replicates):
            rng = timed(trace, "montecarlo.seed", default_rng, [seed, i])
            path = timed(trace, layer, engine_fn, params, t, rng, max_events=DEFAULT_MAX_EVENTS)
            state = timed(trace, "partitions.replay", path.final_state)
            if trace is None:
                tallies[state] += 1
            else:
                start = perf_counter()
                tallies[state] += 1
                trace.busy["montecarlo.tally"] += perf_counter() - start
                observe_path(path, trace, layer)
        return timed(trace, "montecarlo.tally", EmpiricalDistribution, dict(tallies),
                     float(replicates), replicates, seed)  # fmt: skip

    def _summary(self, engine, params, t, replicates, seed, dist, trace) -> dict:
        """The JSON summary of ``simulate --summary``, rebuilt call by call."""
        size_dist = timed(trace, "montecarlo.marginals", dist.size_marginal)
        group_dist = timed(trace, "montecarlo.marginals", dist.group_marginal)
        moments = {"size": {"mean": size_dist.mean(), "variance": size_dist.variance()},
                   "groups": {"mean": group_dist.mean(), "variance": group_dist.variance()}}  # fmt: skip
        b = nbin_time_param(params.mu, t)
        size_probs = size_dist.probabilities()
        n_hi = max(size_probs)
        reference = timed(trace, "formulae.reference_law", lambda: {
            n: neg_bin_pmf(n, params.theta, b) for n in range(n_hi + 1)})  # fmt: skip
        tv: dict[str, object] = {
            "size_vs_neg_binomial": timed(trace, "montecarlo.tv_distance", tv_distance,
                                          size_probs, reference)}  # fmt: skip
        bound = min(12, PARTITION_BALANCE_MAX_SIZE)  # the CLI's default --tv-max-size
        if params.alpha == 0.0:
            empirical = {m: p for m, p in dist.probabilities().items() if m.size <= bound}
            exact = timed(trace, "formulae.reference_law", lambda: {
                m: alpha0_marginal(m, params.theta, params.mu, t)
                for n in range(bound + 1) for m in enumerate_partitions(n)})  # fmt: skip
            tv["partition_vs_poisson_product"] = timed(
                trace, "montecarlo.tv_distance", tv_distance, empirical, exact)
            tv["partition_truncation"] = bound
        return {
            "artifact": "allelic-bdi", "version": PKG_VERSION, "command": "simulate",
            "parameters": {"alpha": params.alpha, "theta": params.theta, "mu": params.mu},
            "t": t, "replicates": replicates, "seed": seed, "engine": engine,
            "moments": moments, "tv": tv,
        }  # fmt: skip

    def pool_layout(self, replicates: int) -> tuple[int, int]:
        """(workers, chunks) ``run_ensemble`` uses for ``--workers NPROC``.

        Mirrors the sizing rule in ``montecarlo.run_ensemble``; the traced
        run checks the pooled tallies against the serial rebuild.
        """
        workers = min(NPROC, max(1, replicates // 64))
        if workers <= 1:
            return 1, 1
        chunk = max(1, -(-replicates // (workers * 4)))
        return workers, -(-replicates // chunk)


def observe_path(path, trace: Trace, layer: str) -> None:
    """Event counts by kind and peak state of one trajectory (not timed as busy)."""
    counts: dict[int, int] = dict(path.initial.entries)
    groups = peak_groups = path.initial.num_groups
    peak_distinct = len(counts)
    kinds = {"new_family": 0, "growth": 0, "death": 0}
    for _, ev in path.events:
        kind, i = ev.kind.value, ev.index
        kinds[kind] += 1
        if kind == "new_family":
            counts[1] = counts.get(1, 0) + 1
            groups += 1
        else:
            if counts[i] == 1:
                del counts[i]
            else:
                counts[i] -= 1
            j = i + 1 if kind == "growth" else i - 1
            if j:
                counts[j] = counts.get(j, 0) + 1
            else:
                groups -= 1
        if groups > peak_groups:
            peak_groups = groups
        if len(counts) > peak_distinct:
            peak_distinct = len(counts)
    for kind, n in kinds.items():
        trace.counts[f"ctmc.events.{kind}"] += n
    trace.counts[f"{layer}.events"] += len(path.events)
    trace.counts["ctmc.peak_groups"] = max(trace.counts["ctmc.peak_groups"], peak_groups)
    trace.counts["ctmc.peak_distinct_sizes"] = max(
        trace.counts["ctmc.peak_distinct_sizes"], peak_distinct
    )
    trace.counts["replicates"] += 1


class EnsembleSmall(Ensemble):
    name = "ensemble_small"
    why = WHY["ensemble_small"]

    def point(self):
        return ModelParams(0.0, 1.0, 2.0), 5.0, (300 if self.smoke else 10_000)

    def enumerate_max(self) -> int:
        return CRIT6_PARTITION_BOUND

    def check(self, op: Op, artifacts: list[bytes]) -> tuple[bool, str]:
        params, t, replicates = self.point()
        summary = json.loads(artifacts[0])
        tallies = self.tallies(artifacts[1])
        if sum(tallies.values()) != replicates or summary.get("replicates") != replicates:
            return False, f"histogram holds {sum(tallies.values())} replicates, not {replicates}"
        dist = EmpiricalDistribution(
            {AllelicPartition.decode(k): float(c) for k, c in tallies.items()},
            float(replicates), replicates,
        )  # fmt: skip
        b = nbin_time_param(params.mu, t)
        size_target = {n: neg_bin_pmf(n, params.theta, b) for n in range(CRIT6_SIZE_RANGE)}
        tv_size = tv_distance(dist.size_marginal(), size_target)
        partition_target = {
            m: alpha0_marginal(m, params.theta, params.mu, t)
            for n in range(CRIT6_PARTITION_BOUND + 1)
            for m in enumerate_partitions(n)
        }
        empirical = {m: p for m, p in dist.probabilities().items() if m.size <= CRIT6_PARTITION_BOUND}
        tv_partition = tv_distance(empirical, partition_target)
        scale = math.sqrt(CRIT6_REPLICATES / replicates)
        size_tol, part_tol = CRIT6_SIZE_TOL * scale, CRIT6_PARTITION_TOL * scale
        ok = tv_size < size_tol and tv_partition < part_tol
        detail = (
            f"TV(size) = {tv_size:.4f} (tol {size_tol:.4f}), "
            f"TV(partition, s <= 12) = {tv_partition:.4f} (tol {part_tol:.4f}), R = {replicates}"
        )
        return ok, detail


class EnsembleLarge(Ensemble):
    name = "ensemble_large"
    why = WHY["ensemble_large"]
    engines = ("multiplicity", "branching")

    def point(self):
        if self.smoke:
            return ModelParams(0.7, 10.0, 0.0), 2.0, 4
        return ModelParams(0.7, 10.0, 0.0), 6.5, 12

    def expected_events(self) -> float:
        """Mean event count of one engine call: R theta (e^t - 1) under pure birth."""
        params, t, replicates = self.point()
        return replicates * params.theta * math.expm1(t)

    def events(self, op: Op, artifacts: list[bytes]) -> int:
        # with mu = 0 every event adds one individual, so the events of a run
        # are exactly the sum of the final sizes
        tallies = self.tallies(artifacts[1])
        return sum(partition_text_size(k) * c for k, c in tallies.items())

    def check(self, op: Op, artifacts: list[bytes]) -> tuple[bool, str]:
        params, t, replicates = self.point()
        tallies = self.tallies(artifacts[1])
        sizes = np.array(
            [partition_text_size(k) for k, c in tallies.items() for _ in range(c)], dtype=np.int64
        )
        if len(sizes) != replicates:
            return False, f"histogram holds {len(sizes)} replicates, not {replicates}"
        b = -math.expm1(-t)  # pure-birth b(t) = 1 - e^{-t}, written out independently
        p_total, p_ks = nb_size_law_pvalues(sizes, params.theta, b)
        ok = p_total >= LAW_P_MIN and p_ks >= LAW_P_MIN
        detail = (
            f"{op.label}: total events {int(sizes.sum())} vs NB({replicates}*{params.theta:g}, "
            f"{b:.6f}) p = {p_total:.3g}, KS p = {p_ks:.3g} (min {LAW_P_MIN:g})"
        )
        return ok, detail


# -- verify ----------------------------------------------------------------------


class VerifyGrid(Workload):
    name = "verify_grid"
    why = WHY["verify_grid"]

    def _flags(self) -> tuple[str, ...]:
        if self.smoke:
            return ("--max-size", "6", "--size-max", "30", "--series-terms", "200")
        return ()

    def _sizes(self) -> tuple[int, int, int]:
        return (6, 30, 200) if self.smoke else (12, 200, 10_000)

    def ops(self, seed: int, outdir: Path, inject_fault: bool = False) -> list[Op]:
        out = outdir / "verify.json"
        argv = ("verify", *self._flags(), "--out", str(out))
        if inject_fault:
            argv += ("--inject-fault",)
        return [Op("verify", argv, (out,))]

    def warm_up_ops(self, outdir: Path) -> list[Op]:
        out = outdir / "warm-verify.json"
        argv = ("verify", "--max-size", "4", "--size-max", "10", "--series-terms", "500",
                "--out", str(out))  # fmt: skip
        return [Op("verify", argv, (out,))]

    def enumerate_max(self) -> int:
        return PARTITION_BALANCE_MAX_SIZE

    def check(self, op: Op, artifacts: list[bytes]) -> tuple[bool, str]:
        report = json.loads(artifacts[0])
        suites = report.get("suites", [])
        failed = [s["name"] for s in suites if not s["pass"]]
        ok = report.get("pass") is True and len(suites) == 5 and not failed
        return ok, f"{len(suites)} suites, failing: {failed or 'none'}"

    def rebuild(self, seed: int, trace: Trace | None) -> dict[str, list[bytes]]:
        """``cmd_verify`` on the default grid, each scan timed."""
        max_size, size_max, terms = self._sizes()
        size_points = []
        for theta in cli.SIZE_THETA_GRID:
            for mu in cli.SIZE_MU_GRID:
                scan = timed(trace, "stationary.size_balance_scan", size_balance_scan,
                             theta, mu, size_max, None)  # fmt: skip
                size_points.append({"theta": theta, "mu": mu, "n_max": size_max,
                                    "max_residual": scan.max_residual,
                                    "worst_transition": scan.worst_transition})  # fmt: skip
                count(trace, "stationary.size_balance_scan.pairs", scan.pairs_checked)
        partition_points, mixture_points, mass_points = [], [], []
        mass_states = sum(len(enumerate_partitions(n)) for n in range(PARTITION_BALANCE_MAX_SIZE + 1))
        for alpha in cli.PARTITION_ALPHA_GRID:
            for theta in (-alpha / 2.0, 0.5, 2.0):
                for mu in cli.PARTITION_MU_GRID:
                    params = ModelParams(alpha, theta, mu)
                    scan = timed(trace, "stationary.partition_balance_scan",
                                 partition_balance_scan, params, max_size, None)  # fmt: skip
                    count(trace, "stationary.partition_balance_scan.pairs", scan.pairs_checked)
                    partition_points.append({
                        "alpha": alpha, "theta": theta, "mu": mu, "s_max": max_size,
                        "max_residual": scan.max_residual, "worst_state": scan.worst_state,
                        "worst_transition": scan.worst_transition})  # fmt: skip
                    scan = timed(trace, "stationary.mixture_consistency_scan",
                                 mixture_consistency_scan, params, max_size)  # fmt: skip
                    count(trace, "stationary.mixture_consistency_scan.states", scan.pairs_checked)
                    mixture_points.append({
                        "alpha": alpha, "theta": theta, "mu": mu, "s_max": max_size,
                        "max_residual": scan.max_residual, "worst_state": scan.worst_state})  # fmt: skip
                    pi_sum, lambda_sum = timed(trace, "stationary.stationary_mass_comparison",
                                               stationary_mass_comparison, params,
                                               PARTITION_BALANCE_MAX_SIZE)  # fmt: skip
                    count(trace, "stationary.stationary_mass_comparison.states", mass_states)
                    mass_points.append({
                        "alpha": alpha, "theta": theta, "mu": mu,
                        "bound": PARTITION_BALANCE_MAX_SIZE, "pi_sum": pi_sum,
                        "lambda_sum": lambda_sum, "max_residual": abs(pi_sum - lambda_sum)})  # fmt: skip
        series_points = []
        for alpha in cli.PARTITION_ALPHA_GRID:
            for mu in cli.PARTITION_MU_GRID:
                gap = timed(trace, "stationary.weight_series_gap", weight_series_gap,
                            alpha, mu, terms)  # fmt: skip
                count(trace, "stationary.weight_series_gap.terms", terms)
                series_points.append({"alpha": alpha, "mu": mu, "terms": terms,
                                      "max_residual": gap})  # fmt: skip

        def suite(name, tolerance, points):
            worst = max(p["max_residual"] for p in points)
            return {"name": name, "tolerance": tolerance, "points": points,
                    "max_residual": worst, "pass": worst <= tolerance}  # fmt: skip

        suites = [
            suite("size_detailed_balance", cli.SIZE_BALANCE_TOLERANCE, size_points),
            suite("partition_detailed_balance", cli.PARTITION_BALANCE_TOLERANCE, partition_points),
            suite("mixture_equality", cli.MIXTURE_TOLERANCE, mixture_points),
            suite("mass_consistency", cli.MASS_TOLERANCE, mass_points),
            suite("weight_series_identity", cli.SERIES_TOLERANCE, series_points),
        ]
        report = {"artifact": "allelic-bdi", "version": PKG_VERSION, "command": "verify",
                  "fault_injected": False, "suites": suites,
                  "pass": all(s["pass"] for s in suites)}  # fmt: skip
        buf = io.StringIO()
        json.dump(report, buf, indent=2, sort_keys=True)
        buf.write("\n")
        return {"verify": [buf.getvalue().encode()]}


# -- urn -----------------------------------------------------------------------------


class UrnGrowth(Workload):
    name = "urn_growth"
    why = WHY["urn_growth"]

    def point(self) -> tuple[ModelParams, int, int]:
        if self.smoke:
            return ModelParams(0.0, 1.0), 10_000, 20
        return ModelParams(0.0, 1.0), 100_000, 150

    def _argv(self, params, n_max, runs, seed, out):
        return ("diagnose", "--alpha", repr(params.alpha), "--theta", repr(params.theta),
                "--n-max", str(n_max), "--runs", str(runs), "--seed", str(seed),
                "--out", str(out))  # fmt: skip

    def ops(self, seed: int, outdir: Path, inject_fault: bool = False) -> list[Op]:
        params, n_max, runs = self.point()
        out = outdir / "growth.csv"
        return [Op("diagnose", self._argv(params, n_max, runs, seed, out), (out,))]

    def warm_up_ops(self, outdir: Path) -> list[Op]:
        params, _, _ = self.point()
        out = outdir / "warm-growth.csv"
        return [Op("diagnose", self._argv(params, 100, 2, 0, out), (out,))]

    def check(self, op: Op, artifacts: list[bytes]) -> tuple[bool, str]:
        params, n_max, runs = self.point()
        last = read_csv_rows(artifacts[0])[-1]
        n, log_norm_mean = int(last[0]), float(last[3])
        ratio = log_norm_mean / params.theta
        ok = n == n_max and abs(ratio - 1.0) <= GROWTH_TOL
        return ok, f"K_n/(theta log n) = {ratio:.4f} at n = {n} (within {GROWTH_TOL:.0%} of 1)"

    def rebuild(self, seed: int, trace: Trace | None) -> dict[str, list[bytes]]:
        """``cmd_diagnose``: one urn trace per run, then the growth_report aggregation."""
        params, n_max, runs = self.point()
        default_rng = np.random.default_rng
        traces = []
        for r in range(runs):
            rng = timed(trace, "montecarlo.seed", default_rng, [seed, r])
            traces.append(timed(trace, "urn.group_count_trace", group_count_trace, n_max, params, rng))
        count(trace, "urn.steps", runs * n_max)
        rows = timed(trace, "montecarlo.growth_report.aggregate", aggregate_growth, traces,
                     params.alpha)  # fmt: skip
        meta = {"alpha": params.alpha, "theta": params.theta, "n_max": n_max, "runs": runs,
                "seed": seed, "power": params.alpha}  # fmt: skip
        buf = io.StringIO()
        write_growth_csv(rows, buf, metadata=meta)
        return {"diagnose": [buf.getvalue().encode()]}


def aggregate_growth(traces: list, power: float) -> list[GrowthRow]:
    """The cross-run aggregation step of ``montecarlo.growth_report``.

    A copy of the library's loop, so its time can be taken apart from the urn
    runs; the traced run confirms the CSV it leads to is byte-identical to
    the CLI's.
    """
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
        rows.append(GrowthRow(n, mean, sd, log_mean, log_cv, mean / scale, sd / mean))
    return rows


WORKLOADS = {w.name: w for w in (EnsembleSmall, EnsembleLarge, VerifyGrid, UrnGrowth)}

def pool_efficiency(wl: Ensemble, seed: int, trace: Trace, rebuilt: dict) -> dict[str, float]:
    """Time one ``run_ensemble`` call per engine with ``--workers NPROC``.

    Efficiency is the traced serial busy time divided by workers times the
    wall time of the pooled calls.  ``pooled_same`` says whether the pooled
    tallies write the same histogram as the serial rebuild ``rebuilt``.
    """
    params, t, replicates = wl.point()
    workers, chunks = wl.pool_layout(replicates)
    pooled_wall = 0.0
    same = True
    for engine in wl.engines:
        start = perf_counter()
        dist = run_ensemble(params, t, replicates, seed, engine, workers=NPROC)
        pooled_wall += perf_counter() - start
        meta = {"alpha": params.alpha, "theta": params.theta, "mu": params.mu, "t": t,
                "engine": engine}  # fmt: skip
        buf = io.StringIO()
        write_histogram_csv(dist, buf, metadata=meta)
        same = same and buf.getvalue().encode() == rebuilt[engine][1]
    serial_busy = sum(trace.busy[k] for k in SERIAL_LAYERS)
    return {
        "montecarlo.pool.efficiency": serial_busy / (workers * pooled_wall),
        "montecarlo.pool.workers": float(workers),
        "montecarlo.pool.chunks": float(chunks * len(wl.engines)),
        "pooled_wall": pooled_wall,
        "pooled_same": float(same),
    }


# the per-replicate layers a pool worker runs
SERIAL_LAYERS = ("montecarlo.seed", "ctmc.simulate", "ctmc.simulate_branching",
                 "partitions.replay", "montecarlo.tally")  # fmt: skip


def scaling_sweep(seed: int, smoke: bool) -> dict[str, float]:
    """µs/event of each engine against state size, one pure-birth path per point."""
    out: dict[str, float] = {}
    points = SMOKE_SCALING_POINTS if smoke else SCALING_POINTS
    for j, (alpha, t) in enumerate(points):
        params = ModelParams(alpha, SCALING_THETA, 0.0)
        for engine, fn in ENGINE_FNS.items():
            rng = np.random.default_rng([seed, 1_000 + j])
            start = perf_counter()
            path = fn(params, t, rng)
            busy = perf_counter() - start
            final = path.final_state()
            key = f"scaling.{engine}.{scaling_point_name(alpha, t)}"
            out[f"{key}.us_per_event"] = 1e6 * busy / max(1, len(path))
            out[f"{key}.distinct_sizes"] = float(len(final.support))
            out[f"{key}.groups"] = float(final.num_groups)
    return out
