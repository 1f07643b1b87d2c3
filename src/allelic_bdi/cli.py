"""Command-line entry point.

Four subcommands: ``exact`` (pointwise or tabulated law evaluation),
``simulate`` (trajectories and ensembles), ``verify`` (reversibility and
stationary-identity checks over a parameter grid) and ``diagnose``
(group-count growth statistics of the urn sampler).

Exit codes: 0 success, 1 verification failure, 2 invalid parameters or
malformed input, 3 runaway guard tripped.  Every stochastic subcommand
requires ``--seed`` and is bit-reproducible from its flag set.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Sequence

from . import __version__ as _pkg_version
from .ctmc import DEFAULT_MAX_EVENTS, simulate, simulate_branching
from .errors import DomainError, PartitionParseError, RunawayError
from .formulae import ModelParams, _neg_bin_pmfs, _psf_rows, nbin_time_param, psf
from .montecarlo import (
    ENGINES,
    _open_artifact,
    growth_report,
    run_ensemble,
    tv_distance,
    write_growth_csv,
    write_histogram_csv,
    write_trajectory_csv,
)
from .partitions import MAX_ENUMERATION_SIZE, AllelicPartition, enumerate_partitions
from .stationary import (
    PARTITION_BALANCE_MAX_SIZE,
    _pi_rows,
    alpha0_marginal,
    mixture_consistency_scan,
    partition_balance_scan,
    partition_stationary_pmf,
    partition_stationary_truncated,
    size_balance_scan,
    size_stationary_pmf,
    stationary_mass_comparison,
    weight_series_gap,
)

SIZE_BALANCE_TOLERANCE = 1e-12
PARTITION_BALANCE_TOLERANCE = 1e-11
MIXTURE_TOLERANCE = 1e-12
MASS_TOLERANCE = 1e-8
SERIES_TOLERANCE = 1e-10

# default verification grids; a --alpha/--theta/--mu flag pins one dimension
SIZE_THETA_GRID = (0.5, 1.0, 2.5)
SIZE_MU_GRID = (1.5, 2.0, 5.0)
PARTITION_ALPHA_GRID = (0.1, 0.5, 0.9)
PARTITION_MU_GRID = (1.2, 2.0, 5.0)

# the flags each exact law requires, checked and written to a table header in this order
LAW_FLAGS = {
    "esf": ("theta",),
    "psf": ("alpha", "theta"),
    "pi": ("alpha", "theta", "mu"),
    "lambda": ("theta", "mu"),
    "bt": ("mu", "t"),
}


def _need(condition: bool, message: str) -> None:
    if not condition:
        raise DomainError(message)


def _need_output_dir(flag: str, path: str | None) -> None:
    """Refuse an output path whose directory does not exist, before any work."""
    if path is not None:
        parent = os.path.dirname(path) or os.curdir
        _need(os.path.isdir(parent), f"{flag} {path!r}: no directory {parent!r}")


def cmd_exact(args) -> int:
    _need_output_dir("--out", args.out)
    kind = args.kind
    if args.table and kind in ("pi", "lambda"):
        _need(args.max_size >= 0, "--max-size must be >= 0")
        if kind == "pi":  # refused before any evaluation, not at the first size past the cap
            cap = MAX_ENUMERATION_SIZE
            _need(args.max_size <= cap, f"--max-size must be <= {cap}, got {args.max_size}")
    law = {flag: getattr(args, flag) for flag in LAW_FLAGS[kind]}
    for flag, value in law.items():
        _need(value is not None, f"{kind} requires --{flag}")
    meta = {"kind": kind, **law}

    if kind == "bt":
        print(f"{nbin_time_param(args.mu, args.t):.12g}")
        return 0
    if kind == "lambda":
        if not args.table:
            _need(args.n is not None, "lambda requires --n or --table")
            print(f"{size_stationary_pmf(args.n, args.theta, args.mu):.12g}")
            return 0
        key_name = "n"
        rows = [
            (str(n), size_stationary_pmf(n, args.theta, args.mu))
            for n in range(args.max_size + 1)
        ]
    else:
        params = ModelParams(**{"alpha": 0.0, **law})  # esf is psf at alpha = 0
        if not args.table:
            _need(args.partition is not None, f"{kind} requires --partition or --table")
            m = AllelicPartition.decode(args.partition)
            n = args.n if args.n is not None else m.size
            value = partition_stationary_pmf(m, params) if kind == "pi" else psf(n, params, m)
            print(f"{value:.12g}")
            return 0
        key_name = "partition"
        if kind == "pi":
            states = [m for n in range(args.max_size + 1) for m in enumerate_partitions(n)]
            values = _pi_rows(params, states, args.max_size)
            meta["max_size"] = args.max_size
        else:
            _need(args.n is not None, f"{kind} --table requires --n")
            states = enumerate_partitions(args.n)
            values = _psf_rows(params, states, args.n)
            meta["n"] = args.n
        rows = [(m.encode(), value) for m, value in zip(states, values)]

    with _open_artifact(args.out, meta) as fh:
        fh.write(f"{key_name},value\n")
        for key, value in rows:
            fh.write(f"{key},{value:.12g}\n")
    return 0


def _simulate_summary(args, params: ModelParams, dist) -> dict:
    if args.engine == "bdi":
        size_dist, group_dist = dist, None
    else:
        size_dist, group_dist = dist.size_marginal(), dist.group_marginal()
    moments = {"size": {"mean": size_dist.mean(), "variance": size_dist.variance()}}
    if group_dist is not None:
        moments["groups"] = {"mean": group_dist.mean(), "variance": group_dist.variance()}

    b = nbin_time_param(params.mu, args.t)
    size_probs = size_dist.probabilities()
    n_hi = max(size_probs)
    reference = dict(enumerate(_neg_bin_pmfs(n_hi, params.theta, b)))
    tv: dict[str, object] = {"size_vs_neg_binomial": tv_distance(size_probs, reference)}

    if group_dist is not None:
        bound = min(args.tv_max_size, PARTITION_BALANCE_MAX_SIZE)
        empirical = {m: p for m, p in dist.probabilities().items() if m.size <= bound}
        if params.alpha == 0.0:
            exact = {
                m: alpha0_marginal(m, params.theta, params.mu, args.t)
                for n in range(bound + 1)
                for m in enumerate_partitions(n)
            }
            tv["partition_vs_poisson_product"] = tv_distance(empirical, exact)
            tv["partition_truncation"] = bound
        elif params.mu > 1.0:
            exact = partition_stationary_truncated(params, bound)
            tv["partition_vs_stationary"] = tv_distance(empirical, exact)
            tv["partition_truncation"] = bound

    return {
        "artifact": "allelic-bdi",
        "version": _pkg_version,
        "command": "simulate",
        "parameters": {"alpha": params.alpha, "theta": params.theta, "mu": params.mu},
        "t": args.t,
        "replicates": args.replicates,
        "seed": args.seed,
        "engine": args.engine,
        "moments": moments,
        "tv": tv,
    }


def cmd_simulate(args) -> int:
    params = ModelParams(args.alpha, args.theta, args.mu)
    if params.theta <= 0.0:
        raise DomainError(
            "simulation starts from the empty partition, which requires theta > 0: "
            "with theta <= 0 the empty state has total event rate 0 and the run "
            "never leaves it"
        )
    _need(args.t >= 0.0, "--t must be >= 0")
    _need(args.replicates >= 1, "--replicates must be >= 1")
    _need(args.workers >= 1, "--workers must be >= 1")
    _need(args.seed >= 0, "--seed must be >= 0")
    _need(args.tv_max_size >= 0, "--tv-max-size must be >= 0")
    _need(args.max_events >= 1, "--max-events must be >= 1")
    _need_output_dir("--histogram", args.histogram)
    _need_output_dir("--summary", args.summary)
    _need_output_dir("--trajectory", args.trajectory)

    if args.trajectory is not None:
        if args.engine == "bdi":
            raise DomainError(
                "--trajectory requires a partition engine (multiplicity or branching)"
            )
        import numpy as np  # imported here: exact and verify need none from this module
        engine_fn = simulate if args.engine == "multiplicity" else simulate_branching
        rng = np.random.default_rng([args.seed, 0])
        trajectory = engine_fn(params, args.t, rng, max_events=args.max_events)
        write_trajectory_csv(
            trajectory,
            args.trajectory,
            params=params,
            seed=args.seed,
            metadata={"engine": args.engine},
        )
        if args.histogram is None and args.summary is None:
            return 0

    dist = run_ensemble(
        params,
        args.t,
        args.replicates,
        args.seed,
        args.engine,
        workers=args.workers,
        max_events=args.max_events,
    )
    if args.histogram is not None:
        meta = {
            "alpha": params.alpha,
            "theta": params.theta,
            "mu": params.mu,
            "t": args.t,
            "engine": args.engine,
        }
        write_histogram_csv(dist, args.histogram, metadata=meta)
    with _open_artifact(args.summary) as fh:
        json.dump(_simulate_summary(args, params, dist), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def cmd_verify(args) -> int:
    if args.mu is not None and not args.mu > 1.0:
        raise DomainError("reversible regime requires mu > 1")
    if args.alpha is not None:
        _need(0.0 < args.alpha < 1.0, f"--alpha must lie in (0, 1), got {args.alpha}")
    _need(args.size_max >= 1, "--size-max must be >= 1")
    _need_output_dir("--out", args.out)
    fault = args.inject_fault

    def grid(pinned: float | None, default) -> list[float]:
        return [pinned] if pinned is not None else list(default)

    size_points = []
    for theta in grid(args.theta, SIZE_THETA_GRID):
        for mu in grid(args.mu, SIZE_MU_GRID):
            pmf = None
            if fault:
                pmf = lambda n, th=theta, m=mu: size_stationary_pmf(n, th, m) * (
                    1.01 if n == 3 else 1.0
                )
            scan = size_balance_scan(theta, mu, args.size_max, pmf)
            size_points.append(
                {
                    "theta": theta,
                    "mu": mu,
                    "n_max": args.size_max,
                    "max_residual": scan.max_residual,
                    "worst_transition": scan.worst_transition,
                }
            )

    partition_points = []
    mixture_points = []
    mass_points = []
    series_points = []
    part_mus = grid(args.mu, PARTITION_MU_GRID)
    for alpha in grid(args.alpha, PARTITION_ALPHA_GRID):
        # one theta inside (-alpha, 0), where the balance identities hold in
        # signed form, plus two ordinary positive rates
        for theta in grid(args.theta, (-alpha / 2.0, 0.5, 2.0)):
            for mu in part_mus:
                params = ModelParams(alpha, theta, mu)
                point = {"alpha": alpha, "theta": theta, "mu": mu}
                pmf = None
                if fault:
                    pmf = lambda m, p=params: partition_stationary_pmf(m, p) * (
                        1.01 if m.num_groups % 2 else 1.0
                    )
                scan = partition_balance_scan(params, args.max_size, pmf)
                partition_points.append(
                    {
                        **point,
                        "s_max": args.max_size,
                        "max_residual": scan.max_residual,
                        "worst_state": scan.worst_state,
                        "worst_transition": scan.worst_transition,
                    }
                )
                scan = mixture_consistency_scan(params, args.max_size)
                mixture_points.append(
                    {
                        **point,
                        "s_max": args.max_size,
                        "max_residual": scan.max_residual,
                        "worst_state": scan.worst_state,
                    }
                )
                pi_sum, lambda_sum = stationary_mass_comparison(
                    params, PARTITION_BALANCE_MAX_SIZE
                )
                mass_points.append(
                    {
                        **point,
                        "bound": PARTITION_BALANCE_MAX_SIZE,
                        "pi_sum": pi_sum,
                        "lambda_sum": lambda_sum,
                        "max_residual": abs(pi_sum - lambda_sum),
                    }
                )
        for mu in part_mus:
            series_points.append(
                {
                    "alpha": alpha,
                    "mu": mu,
                    "terms": args.series_terms,
                    "max_residual": weight_series_gap(alpha, mu, args.series_terms),
                }
            )

    suites = [
        {"name": name, "tolerance": tolerance, "points": points}
        for name, tolerance, points in (
            ("size_detailed_balance", SIZE_BALANCE_TOLERANCE, size_points),
            ("partition_detailed_balance", PARTITION_BALANCE_TOLERANCE, partition_points),
            ("mixture_equality", MIXTURE_TOLERANCE, mixture_points),
            ("mass_consistency", MASS_TOLERANCE, mass_points),
            ("weight_series_identity", SERIES_TOLERANCE, series_points),
        )
    ]
    for suite in suites:
        suite["max_residual"] = worst = max(p["max_residual"] for p in suite["points"])
        suite["pass"] = worst <= suite["tolerance"]
    ok = all(s["pass"] for s in suites)
    report = {
        "artifact": "allelic-bdi",
        "version": _pkg_version,
        "command": "verify",
        "fault_injected": fault,
        "suites": suites,
        "pass": ok,
    }
    with _open_artifact(args.out) as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0 if ok else 1


def cmd_diagnose(args) -> int:
    params = ModelParams(args.alpha, args.theta)
    _need_output_dir("--out", args.out)
    rows = growth_report(params, args.n_max, args.runs, args.seed, power=args.power)
    meta = {
        "alpha": args.alpha,
        "theta": args.theta,
        "n_max": args.n_max,
        "runs": args.runs,
        "seed": args.seed,
        "power": args.power if args.power is not None else params.alpha,
    }
    write_growth_csv(rows, args.out, metadata=meta)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="allelic-bdi",
        description=(
            "Exact laws, Gillespie simulation, reversibility verification and "
            "growth diagnostics for the birth-death-immigration chain on "
            "allelic partitions."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_pkg_version}"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    exact = sub.add_parser(
        "exact",
        help="evaluate an exact law at one point or as a table",
        description=(
            "Evaluate the Ewens (esf) or Pitman (psf) sampling formula, the "
            "stationary partition law (pi), the stationary size law (lambda) "
            "or the time parameter b(t) (bt).  Single values print at 12 "
            "significant digits; --table writes CSV."
        ),
    )
    exact.add_argument(
        "kind", choices=tuple(LAW_FLAGS), help="which law to evaluate"
    )
    exact.add_argument("--n", type=int, help="sample or population size, an integer >= 0")
    exact.add_argument("--alpha", type=float, help="within-family skew, in [0, 1)")
    exact.add_argument("--theta", type=float, help="immigration rate, > -alpha")
    exact.add_argument(
        "--mu", type=float, help="per-individual death rate, >= 0 (> 1 for pi and lambda)"
    )
    exact.add_argument("--t", type=float, help="elapsed time, >= 0 (bt only)")
    exact.add_argument(
        "--partition", help='allelic partition such as "1^2 3^1" ("0" for the empty one)'
    )
    exact.add_argument(
        "--table", action="store_true", help="tabulate the law over a state range as CSV"
    )
    exact.add_argument(
        "--max-size",
        type=int,
        default=12,
        help="population-size bound of pi/lambda tables (default %(default)s)",
    )
    exact.add_argument("--out", help="write the table to this file instead of stdout")
    exact.add_argument("--config", help="JSON file of flag values; explicit flags win")
    exact.set_defaults(func=cmd_exact)

    sim = sub.add_parser(
        "simulate",
        help="run trajectory or ensemble simulations",
        description=(
            "Simulate the chain from the empty partition on [0, t].  An "
            "ensemble of --replicates runs is tallied at time t; --histogram, "
            "--summary and --trajectory choose the outputs (default: JSON "
            "summary on stdout)."
        ),
    )
    sim.add_argument(
        "--alpha", type=float, default=0.0, help="within-family skew, in [0, 1) (default 0)"
    )
    sim.add_argument(
        "--theta",
        type=float,
        required=True,
        help="immigration rate; must be > 0 to leave the empty initial state",
    )
    sim.add_argument(
        "--mu", type=float, default=0.0, help="per-individual death rate, >= 0 (default 0)"
    )
    sim.add_argument("--t", type=float, required=True, help="simulation horizon, >= 0")
    sim.add_argument(
        "--replicates",
        type=int,
        default=1000,
        help="independent runs in the ensemble, >= 1 (default %(default)s)",
    )
    sim.add_argument(
        "--seed",
        type=int,
        required=True,
        help="master seed, >= 0; replicate i draws from the stream [seed, i]",
    )
    sim.add_argument(
        "--engine",
        choices=ENGINES,
        default="multiplicity",
        help="multiplicity: partition-level Gillespie; branching: individual-level "
        "construction; bdi: size process only (default %(default)s)",
    )
    sim.add_argument(
        "--workers",
        type=int,
        default=os.cpu_count() or 1,
        help="worker processes, >= 1: an ensemble is cut into seed blocks of 4,096 replicates "
        "and a pool of min(this, blocks, usable CPUs) starts only for two or more blocks; "
        "never affects results (default: processor count)",
    )
    sim.add_argument(
        "--max-events",
        type=int,
        default=DEFAULT_MAX_EVENTS,
        help="per-run event cap before the runaway guard trips (default %(default)s)",
    )
    sim.add_argument(
        "--tv-max-size",
        type=int,
        default=12,
        help="population-size bound of the partition TV comparison, capped at "
        f"{PARTITION_BALANCE_MAX_SIZE} (default %(default)s)",
    )
    sim.add_argument("--histogram", help="write final-state tallies to this CSV file")
    sim.add_argument("--summary", help="write the JSON summary to this file (default: stdout)")
    sim.add_argument(
        "--trajectory",
        help="write one sample path (drawn from the stream [seed, 0]) to this CSV file",
    )
    sim.add_argument("--config", help="JSON file of flag values; explicit flags win")
    sim.set_defaults(func=cmd_simulate)

    ver = sub.add_parser(
        "verify",
        help="verify reversibility and the stationary identities",
        description=(
            "Scan detailed balance of the size and partition chains, the "
            "mixture representation of pi, mass consistency between pi and "
            "lambda, and the weight-series identity over a parameter grid.  "
            "Exit 1 if any residual exceeds its tolerance (the report is "
            "still written)."
        ),
    )
    ver.add_argument(
        "--alpha", type=float, help="pin the alpha grid {0.1, 0.5, 0.9} to one value in (0, 1)"
    )
    ver.add_argument(
        "--theta",
        type=float,
        help="pin the theta grids (size: {0.5, 1, 2.5}; partition: {-alpha/2, 0.5, 2}) "
        "to one value > -alpha",
    )
    ver.add_argument(
        "--mu",
        type=float,
        help="pin the mu grids (size: {1.5, 2, 5}; partition: {1.2, 2, 5}) to one value > 1",
    )
    ver.add_argument(
        "--max-size",
        type=int,
        default=12,
        help="partition-state bound s(m) <= N of the scans, at most 14 (default %(default)s)",
    )
    ver.add_argument(
        "--size-max",
        type=int,
        default=200,
        help="population bound of the size balance scan (default %(default)s)",
    )
    ver.add_argument(
        "--series-terms",
        type=int,
        default=10_000,
        help="terms kept in the weight-series identity (default %(default)s)",
    )
    ver.add_argument("--out", help="write the JSON report to this file (default: stdout)")
    ver.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    ver.add_argument("--config", help="JSON file of flag values; explicit flags win")
    ver.set_defaults(func=cmd_verify)

    diag = sub.add_parser(
        "diagnose",
        help="group-count growth statistics of the urn sampler",
        description=(
            "Run independent urn chains to --n-max items and report the mean, "
            "spread and normalized growth of the group count at logarithmic "
            "checkpoints as CSV."
        ),
    )
    diag.add_argument(
        "--alpha", type=float, default=0.0, help="within-family skew, in [0, 1) (default 0)"
    )
    diag.add_argument("--theta", type=float, required=True, help="new-group rate, > -alpha")
    diag.add_argument(
        "--n-max",
        type=int,
        default=100_000,
        help="final sample size, an integer >= 10 (default %(default)s)",
    )
    diag.add_argument(
        "--runs", type=int, default=200, help="independent urn runs, >= 2 (default %(default)s)"
    )
    diag.add_argument(
        "--seed",
        type=int,
        required=True,
        help="master seed, >= 0; run r draws from the stream [seed, r]",
    )
    diag.add_argument(
        "--power", type=float, help="exponent of the power normalization (default: alpha)"
    )
    diag.add_argument("--out", help="write the CSV report to this file (default: stdout)")
    diag.add_argument("--config", help="JSON file of flag values; explicit flags win")
    diag.set_defaults(func=cmd_diagnose)

    return parser


def _expand_config(argv: list[str]) -> list[str]:
    """Replace ``--config FILE`` with the flag tokens the file encodes.

    The tokens are inserted right after the subcommand, so flags given
    explicitly on the command line take precedence (argparse keeps the last
    occurrence).  Boolean true becomes a bare flag; false and null entries
    are dropped.
    """
    index = path = None
    consumed = 0
    for i, token in enumerate(argv):
        if token == "--config":
            if i + 1 >= len(argv):
                raise DomainError("--config requires a file path")
            index, path, consumed = i, argv[i + 1], 2
            break
        if token.startswith("--config="):
            index, path, consumed = i, token.split("=", 1)[1], 1
            break
    if index is None:
        return argv
    if index == 0:
        raise DomainError("--config must follow a subcommand")
    try:
        with open(path) as fh:
            mapping = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(mapping, dict):
        raise DomainError("the config file must hold a JSON object of flag values")
    injected: list[str] = []
    for key, value in mapping.items():
        flag = "--" + str(key).lstrip("-").replace("_", "-")
        if value is True:
            injected.append(flag)
        elif value is False or value is None:
            continue
        elif isinstance(value, (list, dict)):
            raise DomainError(f"config entry {key!r} must be a scalar")
        else:
            injected.extend((flag, str(value)))
    rest = argv[:index] + argv[index + consumed :]
    return rest[:1] + injected + rest[1:]


def _need_finite_floats(args: argparse.Namespace) -> None:
    """Refuse inf and nan in every real-valued flag, before any work.

    Some reach a law or a scan without a ModelParams (lambda, b(t), the
    pinned verify grid, --t, --power), where inf or nan would print nan or
    run a simulation to its event cap.
    """
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"--{name.replace('_', '-')} must be finite, got {value}")


def main(argv: Sequence[str] | None = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_expand_config(raw))
        _need_finite_floats(args)
        return args.func(args)
    except SystemExit as exc:  # argparse usage errors and --help/--version
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    except (PartitionParseError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RunawayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        if exc.filename is None:
            raise
        print(f"error: cannot write {exc.filename!r}: {exc.strerror}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
