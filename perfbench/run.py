"""Benchmark of the allelic-bdi command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads: ensemble_small, ensemble_large, verify_grid and
urn_growth (see ``perfbench/workloads.py`` and ``perfbench/NOTES.md``).

The load is a closed loop with one client.  Set-up is timed in fresh
interpreters started one at a time; then one workload process runs CLI
passes in-process (``--trace 0``) or the traced rebuild (``--trace 1``).
Nothing else runs meanwhile, and ``simulate`` gets ``--workers`` equal to
the processor count.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--smoke`` shrinks every workload so that all checks and the trace run in
seconds; ``--inject-fault`` (verify_grid only) makes the CLI corrupt its
result, which must show up as failed operations.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

from spec import END_TO_END, WHY, per_layer_spec

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 4  # fresh interpreters per run, the workload process included
RUN_TIMEOUT_S = 170
# keep BLAS and OpenMP from starting thread pools the workloads never use
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def start_worker(args, outdir: Path, setup_only: bool) -> tuple[subprocess.Popen, float, float]:
    """Start a workload process; (process, set-up seconds, import seconds).

    Set-up runs from the spawn until the process reports ``ready``.
    """
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--outdir", str(outdir)]  # fmt: skip
    cmd += ["--smoke"] * args.smoke + ["--inject-fault"] * args.inject_fault
    cmd += ["--setup-only"] * setup_only
    env = dict(os.environ, **CHILD_ENV)
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    line = proc.stdout.readline()
    setup_s = perf_counter() - start
    if not line.startswith("ready "):
        proc.kill()
        proc.wait()
        raise BenchError(f"workload process failed during set-up (exit {proc.returncode})")
    return proc, setup_s, float(line.split()[1])


def finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"workload process exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}")
    return out


def high_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest integer percentile with at least ten samples above it, if any."""
    n = len(values)
    if n < 11:
        return None
    q = math.floor(100 * (n - 10) / n)
    return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def describe(name: str, unit: str, values: list[float]) -> str:
    med = statistics.median(values)
    hp = high_percentile(values)
    tail = f"p{hp[0]} {hp[1]:.6g}" if hp else "no percentile has 10 samples beyond it"
    return f"  {name:<18} {med:>12.6g} {unit:<6} median of {len(values)}; {tail}"


def provenance(args, src: Path) -> dict:
    versions = {"python": platform.python_version()}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=src, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "versions": versions,
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "loop": "closed, 1 client; each pass starts when the previous one ends",
        "workers": len(os.sched_getaffinity(0)),
        "why": WHY[args.workload],
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=tuple(WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    ap.add_argument("--inject-fault", action="store_true", help="verify_grid only: corrupt the result")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.inject_fault and args.workload != "verify_grid":
        ap.error("--inject-fault applies to verify_grid only")

    root = Path.cwd()
    src = root / "src"
    if not (src / "allelic_bdi" / "__init__.py").is_file():
        print(f"error: run from the root of an allelic-bdi checkout (no {src}/allelic_bdi)",
              file=sys.stderr)  # fmt: skip
        return 2
    outdir = root / ".perfbench" / f"{args.workload}-{os.getpid()}"

    try:
        setup, imports = [], []
        for _ in range(1 if args.smoke else SETUP_SAMPLES - 1):
            proc, setup_s, import_s = start_worker(args, outdir, setup_only=True)
            finish(proc, 60)
            setup.append(setup_s)
            imports.append(import_s)
        proc, setup_s, import_s = start_worker(args, outdir, setup_only=False)
        setup.append(setup_s)
        imports.append(import_s)
        out = finish(proc, RUN_TIMEOUT_S - sum(setup))
        result = json.loads(out.strip().splitlines()[-1])
    except (BenchError, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            outdir.parent.rmdir()  # only when no other run is using it

    attempted, failures = result["attempted"], result["failures"]
    prov = provenance(args, root)
    print(f"workload {args.workload} seed {args.seed}  ({prov['loop']}; simulate --workers "
          f"{prov['workers']}, nproc {prov['nproc']})")  # fmt: skip
    print(f"  why: {prov['why']}")
    for line in result["checks"]:
        print(f"  check: {line}")
    for line in failures:
        print(f"  FAILED: {line}")
    print(f"  {'failed_ops':<18} {len(failures)}/{attempted}")
    if args.trace:
        metrics = dict(result["per_layer"])
        metrics["setup.import_s"] = statistics.median(imports)
        units = {name: unit for name, unit, _ in per_layer_spec(args.smoke)}
        if metrics.get("trace.artifacts_identical") != 1.0:
            print("  trace: the rebuilt artifacts differ from the CLI's (diagnostic of the trace)")
        for name, value in metrics.items():
            if value:
                print(f"  {name:<48} {value:>14.6g} {units[name]}")
        idle = sum(1 for value in metrics.values() if not value)
        print(f"  ({idle} per-layer metrics read 0: layers this workload does not exercise)")
        payload = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    else:
        samples = result["samples"]
        print(describe("setup_s", "s", setup))
        print(describe("wall_s", "s", samples["wall_s"]))
        print(describe("cpu_s", "s", samples["cpu_s"]))
        if samples["events_per_s"]:
            print(describe("events_per_s", "1/s", samples["events_per_s"]))
            print(describe("cpu_us_per_event", "us", samples["cpu_us_per_event"]))
            print("  (wall_s and cpu_s here are scaled to the expected event count)")
        print(f"  {'peak_rss_mb':<18} {result['peak_rss_mb']:>12.6g} MB")
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(samples["wall_s"]),
            "cpu_s": statistics.median(samples["cpu_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        payload = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({"correct": not failures and attempted > 0, "attempted": attempted,
                      "failed": len(failures), "metrics": payload}))  # fmt: skip
    return 0


if __name__ == "__main__":
    sys.exit(main())
