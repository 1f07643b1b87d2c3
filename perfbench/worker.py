"""The workload process: set up, then run timed CLI passes or the traced run.

Started by ``run.py`` from the root of a source checkout.  It prints
``ready <import seconds>`` once the package is imported, the CLI parser is
built and one small warm-up invocation has run; with ``--setup-only`` it
stops there.  Otherwise it prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
SRC = ROOT / "src"
MIN_PASSES = 2


def cpu_seconds() -> float:
    """User plus system CPU of this process and of every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Larger of this process's peak RSS and that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def run_op(cli, op) -> tuple[int, float, float, list[bytes], str]:
    """Invoke the CLI once; (exit code, wall s, cpu s, artifacts, error text)."""
    for f in op.files:
        f.unlink(missing_ok=True)
    error = ""
    c0, w0 = cpu_seconds(), perf_counter()
    try:
        code = cli.main(list(op.argv))
    except Exception:  # a crash of the program is a failed operation, not of the benchmark
        code, error = -1, traceback.format_exc(limit=3)
    wall, cpu = perf_counter() - w0, cpu_seconds() - c0
    artifacts = [f.read_bytes() if f.exists() else b"" for f in op.files]
    return code, wall, cpu, artifacts, error


class OpLedger:
    """Attempted and failed operations, with the checks each one must pass."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.first: dict[tuple, list[bytes]] = {}
        self.verdicts: dict[str, tuple[bool, str]] = {}

    def record(self, op, code: int, artifacts: list[bytes], error: str) -> bool:
        self.attempted += 1
        problems = []
        if code != 0:
            problems.append(f"exit code {code}" + (f": {error.strip()}" if error else ""))
        else:
            digest = hashlib.sha256(b"\0".join(artifacts)).hexdigest()
            if digest not in self.verdicts:
                try:
                    self.verdicts[digest] = self.wl.check(op, artifacts)
                except (ValueError, KeyError, IndexError) as exc:
                    self.verdicts[digest] = (False, f"unreadable artifacts: {exc!r}")
            ok, detail = self.verdicts[digest]
            if not ok:
                problems.append(f"law check failed: {detail}")
            seen = self.first.setdefault(op.argv, artifacts)
            if seen is not artifacts and seen != artifacts:
                problems.append("artifacts differ from the first pass with the same seed")
        if problems:
            self.failures.append(f"{op.label}: " + "; ".join(problems))
        return not problems

    def details(self) -> list[str]:
        return sorted({detail for _, detail in self.verdicts.values()})


def run_passes(cli, wl, seed: int, seconds: float, outdir: Path, inject_fault: bool) -> dict:
    """Closed loop, one client: each pass starts when the previous one ends."""
    ledger = OpLedger(wl)
    walls, cpus, rates, cpu_per_event, durations = [], [], [], [], []
    start = perf_counter()
    while True:
        ops = wl.ops(seed, outdir, inject_fault)
        wall = cpu = events = raw_wall = raw_cpu = 0.0
        for op in ops:
            code, op_wall, op_cpu, artifacts, error = run_op(cli, op)
            ok = ledger.record(op, code, artifacts, error)
            op_events = wl.events(op, artifacts) if ok else 0
            # where the drawn paths set the work, time is scaled to the mean work
            scale = wl.expected_events() / op_events if op_events else 1.0
            wall += op_wall * scale
            cpu += op_cpu * scale
            raw_wall += op_wall
            raw_cpu += op_cpu
            events += op_events
        walls.append(wall)
        cpus.append(cpu)
        durations.append(raw_wall)
        if events:
            rates.append(events / raw_wall)
            cpu_per_event.append(1e6 * raw_cpu / events)
        elapsed = perf_counter() - start
        if len(walls) >= MIN_PASSES and elapsed + statistics.median(durations) > seconds:
            break
    return {
        "attempted": ledger.attempted,
        "failures": ledger.failures,
        "checks": ledger.details(),
        "samples": {
            "wall_s": walls,
            "cpu_s": cpus,
            "events_per_s": rates,
            "cpu_us_per_event": cpu_per_event,
        },
        "peak_rss_mb": peak_rss_mb(),
    }


def run_trace(cli, wl, seed: int, outdir: Path, enumerate_s: float, smoke: bool) -> dict:
    """One untraced CLI pass, then the traced rebuild of the same work."""
    import workloads as W
    from spec import SCAN_COUNTS, per_layer_spec

    ledger = OpLedger(wl)
    cli_wall = 0.0
    cli_artifacts = {}
    for op in wl.ops(seed, outdir):
        code, op_wall, _, artifacts, error = run_op(cli, op)
        ledger.record(op, code, artifacts, error)
        cli_wall += op_wall
        cli_artifacts[op.label] = artifacts

    trace = W.Trace()
    start = perf_counter()
    rebuilt = wl.rebuild(seed, trace)
    traced_wall = perf_counter() - start
    start = perf_counter()
    wl.rebuild(seed, None)
    plain_wall = perf_counter() - start
    identical = all(rebuilt.get(label) == arts for label, arts in cli_artifacts.items())

    busy, counts = trace.busy, trace.counts
    layers = {name: 0.0 for name, _, _ in per_layer_spec(smoke)}

    def put(name: str, value: float) -> None:
        if name not in layers:
            raise KeyError(f"per-layer metric {name!r} is not declared")
        layers[name] = float(value)

    def per(numerator: float, denominator: float, scale: float = 1.0) -> float:
        return scale * numerator / denominator if denominator else 0.0

    library_busy = sum(busy.values())
    if isinstance(wl, W.Ensemble):
        replicates = counts["replicates"]
        for layer in ("ctmc.simulate", "ctmc.simulate_branching"):
            put(f"{layer}.events", counts[f"{layer}.events"])
            put(f"{layer}.busy_s", busy[layer])
            put(f"{layer}.us_per_event", per(busy[layer], counts[f"{layer}.events"], 1e6))
        events = counts["ctmc.simulate.events"] + counts["ctmc.simulate_branching.events"]
        for kind in ("new_family", "growth", "death"):
            put(f"ctmc.events.{kind}", counts[f"ctmc.events.{kind}"])
        put("ctmc.peak_groups", counts["ctmc.peak_groups"])
        put("ctmc.peak_distinct_sizes", counts["ctmc.peak_distinct_sizes"])
        put("partitions.replay.busy_s", busy["partitions.replay"])
        put("partitions.replay.us_per_event", per(busy["partitions.replay"], events, 1e6))
        put("montecarlo.seed.us_per_replicate", per(busy["montecarlo.seed"], replicates, 1e6))
        put("montecarlo.tally.us_per_replicate", per(busy["montecarlo.tally"], replicates, 1e6))
        put("montecarlo.tv_distance.busy_s", busy["montecarlo.tv_distance"])
        put("formulae.reference_law.busy_s", busy["formulae.reference_law"])
        put("montecarlo.write_histogram_csv.busy_s", busy["montecarlo.write_histogram_csv"])
        put("montecarlo.write_histogram_csv.bytes", counts["montecarlo.write_histogram_csv.bytes"])
        pool = W.pool_efficiency(wl, seed, trace, rebuilt)
        for name in ("efficiency", "workers", "chunks"):
            put(f"montecarlo.pool.{name}", pool[f"montecarlo.pool.{name}"])
        identical = identical and bool(pool["pooled_same"])
        # the CLI runs the replicate loop in the pool, so its library time is
        # the pooled call's wall plus the post-processing spans
        library_busy = pool["pooled_wall"] + sum(
            v for k, v in busy.items() if k not in W.SERIAL_LAYERS
        )
        if isinstance(wl, W.EnsembleLarge):
            for name, value in W.scaling_sweep(seed, smoke).items():
                put(name, value)
    elif isinstance(wl, W.VerifyGrid):
        for scan, unit in SCAN_COUNTS.items():
            put(f"stationary.{scan}.busy_s", busy[f"stationary.{scan}"])
            put(f"stationary.{scan}.{unit}", counts[f"stationary.{scan}.{unit}"])
    elif isinstance(wl, W.UrnGrowth):
        put("urn.group_count_trace.busy_s", busy["urn.group_count_trace"])
        put("urn.group_count_trace.us_per_step",
            per(busy["urn.group_count_trace"], counts["urn.steps"], 1e6))  # fmt: skip
        put("montecarlo.growth_report.aggregate_s", busy["montecarlo.growth_report.aggregate"])
    put("partitions.enumerate.busy_s", enumerate_s)
    put("cli.overhead_s", cli_wall - library_busy)
    put("trace.overhead_s", traced_wall - plain_wall)
    put("trace.artifacts_identical", float(identical))
    package = SRC / "allelic_bdi"
    put("code.src_lines", sum(len(f.read_bytes().splitlines()) for f in package.rglob("*.py")))
    put("code.public_names", len(sys.modules["allelic_bdi"].__all__))
    return {
        "attempted": ledger.attempted,
        "failures": ledger.failures,
        "checks": ledger.details(),
        "per_layer": layers,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--inject-fault", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--outdir", required=True)
    args = ap.parse_args(argv)

    if not (SRC / "allelic_bdi" / "__init__.py").is_file():
        print(f"error: no allelic_bdi package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import allelic_bdi.cli as cli

    import_s = perf_counter() - start
    if Path(cli.__file__).resolve().parent != (SRC / "allelic_bdi").resolve():
        print(f"error: imported {cli.__file__}, not the checkout's package", file=sys.stderr)
        return 2
    cli.build_parser()
    import workloads as W

    wl = W.WORKLOADS[args.workload](smoke=args.smoke)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    enumerate_s = 0.0
    if args.trace:
        # before the warm-up, while the enumeration cache is still cold
        start = perf_counter()
        for n in range(wl.enumerate_max() + 1):
            W.enumerate_partitions(n)
        enumerate_s = perf_counter() - start
    for op in wl.warm_up_ops(outdir):
        code, *_ = run_op(cli, op)
        if code != 0:
            print(f"error: warm-up {op.argv} exited with {code}", file=sys.stderr)
            return 2
    print(f"ready {import_s!r}", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        result = run_trace(cli, wl, args.seed, outdir, enumerate_s, args.smoke)
    else:
        result = run_passes(cli, wl, args.seed, args.seconds, outdir, args.inject_fault)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
