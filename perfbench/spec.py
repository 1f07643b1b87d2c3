"""What the benchmark reports: workloads, per-layer metrics and their units.

Kept free of the package under test, so the parent process can describe a
run without importing it.
"""

from __future__ import annotations

WHY = {
    "ensemble_small": (
        "criterion-6 point (alpha=0, theta=1, mu=2, t=5): ~17 events per replicate, so "
        "seeding, path build and replay, tally and the pool dominate"
    ),
    "ensemble_large": (
        "pure birth (alpha=0.7, theta=10, mu=0, t=6.5) on both engines: ~6.6k events per "
        "replicate, so per-event cost dominates and events are counted from the histogram"
    ),
    "verify_grid": (
        "verify on its default grid: no RNG and no simulation, only stationary, formulae "
        "and partitions, the guard for cuts in those modules"
    ),
    "urn_growth": (
        "diagnose at the criterion-10 point (alpha=0, theta=1, n_max=10^5): only the urn "
        "and the growth_report aggregation, the slowest Tier-1 criterion"
    ),
}

# traced-only scaling sweep (pure birth, theta = 10): (alpha, t) points
SCALING_THETA = 10.0
SCALING_POINTS = ((0.5, 3.0), (0.5, 4.5), (0.5, 6.0), (0.5, 7.5), (0.9, 4.0), (0.9, 5.5), (0.9, 7.0))
SMOKE_SCALING_POINTS = ((0.5, 2.0), (0.9, 2.0))
ENGINES = ("multiplicity", "branching")

# what each stationary scan counts
SCAN_COUNTS = {
    "size_balance_scan": "pairs",
    "partition_balance_scan": "pairs",
    "mixture_consistency_scan": "states",
    "stationary_mass_comparison": "states",
    "weight_series_gap": "terms",
}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


def scaling_point_name(alpha: float, t: float) -> str:
    return f"a{alpha:g}-t{t:g}"


def per_layer_spec(smoke: bool = False) -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order.

    A traced run reports all of them; a layer its workload does not
    exercise reads 0, and so does a ratio whose base is 0.
    """
    spec = []
    for layer in ("ctmc.simulate", "ctmc.simulate_branching"):
        spec += [(f"{layer}.events", "count", "lower"), (f"{layer}.busy_s", "s", "lower"),
                 (f"{layer}.us_per_event", "us", "lower")]  # fmt: skip
    spec += [(f"ctmc.events.{kind}", "count", "lower") for kind in ("new_family", "growth", "death")]
    spec += [
        ("ctmc.peak_groups", "count", "lower"),
        ("ctmc.peak_distinct_sizes", "count", "lower"),
        ("partitions.replay.busy_s", "s", "lower"),
        ("partitions.replay.us_per_event", "us", "lower"),
        ("partitions.enumerate.busy_s", "s", "lower"),
        ("montecarlo.seed.us_per_replicate", "us", "lower"),
        ("montecarlo.tally.us_per_replicate", "us", "lower"),
        ("montecarlo.pool.efficiency", "ratio", "higher"),
        ("montecarlo.pool.workers", "count", "higher"),
        ("montecarlo.pool.chunks", "count", "lower"),
        ("montecarlo.tv_distance.busy_s", "s", "lower"),
        ("formulae.reference_law.busy_s", "s", "lower"),
        ("montecarlo.write_histogram_csv.busy_s", "s", "lower"),
        ("montecarlo.write_histogram_csv.bytes", "B", "lower"),
    ]
    for scan, unit in SCAN_COUNTS.items():
        spec += [(f"stationary.{scan}.busy_s", "s", "lower"),
                 (f"stationary.{scan}.{unit}", "count", "higher")]  # fmt: skip
    spec += [
        ("urn.group_count_trace.busy_s", "s", "lower"),
        ("urn.group_count_trace.us_per_step", "us", "lower"),
        ("montecarlo.growth_report.aggregate_s", "s", "lower"),
        ("cli.overhead_s", "s", "lower"),
        ("setup.import_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.artifacts_identical", "bool", "higher"),
        ("code.src_lines", "lines", "lower"),
        ("code.public_names", "count", "lower"),
    ]
    for engine in ENGINES:
        for alpha, t in SMOKE_SCALING_POINTS if smoke else SCALING_POINTS:
            key = f"scaling.{engine}.{scaling_point_name(alpha, t)}"
            spec += [(f"{key}.us_per_event", "us", "lower"), (f"{key}.distinct_sizes", "count", "lower"),
                     (f"{key}.groups", "count", "lower")]  # fmt: skip
    return spec
