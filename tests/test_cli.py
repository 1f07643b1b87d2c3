"""End-to-end tests of the command-line interface, run in-process through
``main`` plus two subprocess smoke checks of the entry points."""

import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from allelic_bdi import (
    MAX_ENUMERATION_SIZE,
    AllelicPartition,
    ModelParams,
    RunawayError,
    alpha0_marginal,
    partition_stationary_pmf,
    enumerate_partitions,
    nbin_time_param,
    neg_bin_pmf,
    run_ensemble,
    simulate,
    simulate_branching,
    transient_pmf,
    tv_distance,
)
from allelic_bdi import __version__, cli, montecarlo
from allelic_bdi.cli import main
from allelic_bdi.urn import default_checkpoints
from conftest import states_after_events


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def table_rows(text):
    lines = [line for line in text.splitlines() if line and not line.startswith("# ")]
    return lines[0], lines[1:]


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------

# every flag an exact law may read, with a value each law accepts
EXACT_INPUTS = {
    "n": "2", "alpha": "0.5", "theta": "1", "mu": "2", "t": "1", "partition": "1^2",
    "max_size": "3", "out": None,
}  # fmt: skip


def flag_argv(flag, target):
    value = str(target) if flag == "out" else EXACT_INPUTS[flag]
    return [f"--{flag.replace('_', '-')}", value]


def exact_argv(kind, table, target):
    """An ``exact`` command giving every flag the law reads, writing a table to ``target``."""
    argv = ["exact", kind] + (["--table"] if table else [])
    for flag in cli.LAW_FLAGS[kind] + cli.LAW_INPUTS[kind][table]:
        argv += flag_argv(flag, target)
    return argv


class TestExact:
    def test_esf_table(self, capsys):
        code, out, err = run_cli(capsys, "exact", "esf", "--theta", "1", "--n", "3", "--table")
        assert code == 0 and err == ""
        assert "# artifact=allelic-bdi" in out
        assert "# kind=esf" in out
        header, rows = table_rows(out)
        assert header == "partition,value"
        assert rows == ["1^3,0.166666666667", "1^1 2^1,0.5", "3^1,0.333333333333"]

    def test_psf_point_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "psf", "--alpha", "0.5", "--theta", "0.5", "--partition", "1^2"
        )
        assert code == 0
        assert out.strip() == "0.666666666667"

    def test_esf_n_defaults_to_partition_size(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "esf", "--theta", "1", "--partition", "1^1 2^1")
        assert code == 0
        assert out.strip() == "0.5"

    def test_lambda_point_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "lambda", "--theta", "1", "--mu", "2", "--n", "3"
        )
        assert code == 0
        assert out.strip() == "0.0625"

    def test_lambda_table_normalizes(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "lambda", "--theta", "1", "--mu", "2", "--table",
            "--max-size", "40",
        )
        assert code == 0
        _, rows = table_rows(out)
        assert len(rows) == 41
        assert rows[0] == "0,0.5"
        total = sum(float(row.split(",")[1]) for row in rows)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_bt_point_value(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "bt", "--mu", "2", "--t", "5")
        assert code == 0
        assert out.strip() == "0.498309819075"

    def test_pi_point_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "pi", "--alpha", "0.5", "--theta", "1", "--mu", "2",
            "--partition", "1^2",
        )
        assert code == 0
        assert out.strip() == "0.09375"

    def test_pi_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "pi", "--alpha", "0.5", "--theta", "1", "--mu", "2",
            "--table", "--max-size", "3",
        )
        assert code == 0
        _, rows = table_rows(out)
        assert len(rows) == 7  # partitions of sizes 0..3
        params = ModelParams(0.5, 1.0, 2.0)
        for row in rows:
            text, value = row.rsplit(",", 1)
            m = AllelicPartition.decode(text)
            assert float(value) == pytest.approx(
                partition_stationary_pmf(m, params), rel=1e-11
            )
        assert rows[0] == "0,0.5"

    def test_table_to_file(self, capsys, tmp_path):
        target = tmp_path / "esf.csv"
        code, out, _ = run_cli(
            capsys, "exact", "esf", "--theta", "1", "--n", "3", "--table",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert "1^1 2^1,0.5" in target.read_text()

    def test_oversized_pi_table_is_refused_before_any_work(self, capsys, tmp_path, monkeypatch):
        # it used to evaluate every partition up to s = 40 (about 10 s) and
        # then name the size it failed at, not the flag
        def no_evaluation(*args):
            raise AssertionError("pi evaluated before --max-size was checked")

        monkeypatch.setattr(cli, "partition_stationary_pmf", no_evaluation)
        monkeypatch.setattr(cli, "enumerate_partitions", no_evaluation)
        target = tmp_path / "pi.csv"
        code, out, err = run_cli(
            capsys, "exact", "pi", "--alpha", "0.5", "--theta", "1", "--mu", "2",
            "--table", "--max-size", str(MAX_ENUMERATION_SIZE + 1), "--out", str(target),
        )
        assert code == 2 and out == ""
        assert err.startswith("error: --max-size")
        assert not target.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("exact", "psf", "--theta", "0.5", "--partition", "1^2"),  # missing --alpha
            ("exact", "esf", "--theta", "1"),  # neither --partition nor --table
            ("exact", "esf", "--theta", "0", "--partition", "1^1"),  # theta out of domain
            ("exact", "lambda", "--theta", "1", "--mu", "2"),  # missing --n
            ("exact", "lambda", "--theta", "1", "--mu", "1", "--n", "2"),  # mu <= 1
            ("exact", "bt", "--mu", "2"),  # missing --t
            ("exact", "bt", "--mu", "-1", "--t", "2"),  # mu < 0
            ("exact", "psf", "--alpha", "0.5", "--theta", "1", "--table"),  # table needs --n
            ("exact", "pi", "--alpha", "0", "--theta", "1", "--mu", "2", "--partition", "0"),
            ("exact", "pi", "--alpha", "0.5", "--theta", "1", "--mu", "2", "--table",
             "--max-size", "-3"),
            ("exact", "lambda", "--theta", "1", "--mu", "2", "--table", "--max-size", "-3"),
        ],
    )
    def test_domain_errors_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "kind,flag", [(kind, flag) for kind, flags in cli.LAW_FLAGS.items() for flag in flags]
    )
    def test_each_law_names_the_flag_it_misses(self, capsys, kind, flag):
        values = {"alpha": "0.5", "theta": "1", "mu": "2", "t": "1"}
        argv = ["exact", kind]
        for given in cli.LAW_FLAGS[kind]:
            if given != flag:
                argv += [f"--{given}", values[given]]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {kind} requires --{flag}\n")

    @pytest.mark.parametrize(
        "kind,table,flag",
        [
            (kind, table, flag)
            for kind in cli.LAW_FLAGS
            for table in (False, True)
            if cli.LAW_INPUTS[kind][table] is not None
            for flag in EXACT_INPUTS
            if flag not in cli.LAW_FLAGS[kind] + cli.LAW_INPUTS[kind][table]
        ],
    )
    def test_each_law_refuses_a_flag_it_does_not_read(self, capsys, tmp_path, kind, table, flag):
        target = tmp_path / "law.csv"
        code, out, err = run_cli(capsys, *exact_argv(kind, table, target), *flag_argv(flag, target))
        mode = f"{kind} --table" if table else kind
        dashed = flag.replace("_", "-")
        assert (code, out, err) == (2, "", f"error: {mode} does not take --{dashed}\n")
        assert not target.exists()

    @pytest.mark.parametrize(
        "kind,table",
        [(kind, table) for kind in cli.LAW_FLAGS for table in (False, True)
         if cli.LAW_INPUTS[kind][table] is not None],  # fmt: skip
    )
    def test_each_law_takes_every_flag_it_reads(self, capsys, tmp_path, kind, table):
        target = tmp_path / "law.csv"
        code, out, err = run_cli(capsys, *exact_argv(kind, table, target))
        assert (code, err) == (0, "")
        assert target.exists() == table and (out == "") == table

    def test_bt_has_no_table(self, capsys, tmp_path):
        target = tmp_path / "bt.csv"
        argv = ("exact", "bt", "--mu", "2", "--t", "1", "--table", "--out", str(target))
        assert run_cli(capsys, *argv) == (2, "", "error: bt has no table\n")
        assert not target.exists()

    def test_malformed_partition_reports_position(self, capsys):
        code, _, err = run_cli(
            capsys, "exact", "esf", "--theta", "1", "--partition", "1^"
        )
        assert code == 2
        assert "position" in err

    def test_unknown_kind_exits_2(self, capsys):
        assert run_cli(capsys, "exact", "pmf", "--theta", "1")[0] == 2

    def test_missing_subcommand_exits_2(self, capsys):
        assert run_cli(capsys)[0] == 2


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


class TestSimulate:
    def test_summary_alpha_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--theta", "1", "--mu", "2", "--t", "1",
            "--replicates", "200", "--seed", "5", "--workers", "1",
        )
        assert code == 0
        report = json.loads(out)
        assert report["artifact"] == "allelic-bdi"
        assert report["version"] == __version__
        assert report["engine"] == "multiplicity"
        assert report["replicates"] == 200
        assert report["seed"] == 5
        assert report["parameters"] == {"alpha": 0.0, "theta": 1.0, "mu": 2.0}
        assert report["moments"]["size"]["mean"] > 0.0
        assert report["moments"]["groups"]["mean"] > 0.0
        tv = report["tv"]
        assert 0.0 <= tv["size_vs_neg_binomial"] < 0.2
        assert 0.0 <= tv["partition_vs_poisson_product"] < 0.2
        assert tv["partition_truncation"] == 12

    def test_summary_alpha_zero_table_is_the_per_state_law(self, capsys):
        # the summary's one row pass equals alpha0_marginal state by state, bit for bit
        code, out, _ = run_cli(
            capsys, "simulate", "--theta", "1.5", "--mu", "0.5", "--t", "2",
            "--replicates", "300", "--seed", "5", "--workers", "1", "--tv-max-size", "14",
        )
        assert code == 0
        dist = run_ensemble(ModelParams(0.0, 1.5, 0.5), 2.0, 300, 5, workers=1)
        empirical = {m: p for m, p in dist.probabilities().items() if m.size <= 14}
        exact = {
            m: alpha0_marginal(m, 1.5, 0.5, 2.0) for n in range(15) for m in enumerate_partitions(n)
        }
        tv = json.loads(out)["tv"]
        assert tv["partition_vs_poisson_product"] == tv_distance(empirical, exact)

    def test_summary_reversible_partition_target(self, capsys):
        # at alpha > 0, mu > 1 the ensemble is compared with the time-t law it samples
        code, out, _ = run_cli(
            capsys, "simulate", "--alpha", "0.5", "--theta", "1", "--mu", "2", "--t", "1",
            "--replicates", "100", "--seed", "5", "--workers", "1", "--tv-max-size", "8",
        )
        assert code == 0
        params = ModelParams(0.5, 1.0, 2.0)
        dist = run_ensemble(params, 1.0, 100, 5, workers=1)
        empirical = {m: p for m, p in dist.probabilities().items() if m.size <= 8}
        exact = {
            m: transient_pmf(m, params, 1.0) for n in range(9) for m in enumerate_partitions(n)
        }
        tv = json.loads(out)["tv"]
        assert tv["partition_vs_transient"] == tv_distance(empirical, exact)
        assert "partition_vs_poisson_product" not in tv
        assert tv["partition_truncation"] == 8

    def test_summary_no_partition_target_outside_reversible(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--alpha", "0.5", "--theta", "1", "--mu", "0.5", "--t", "1",
            "--replicates", "50", "--seed", "5", "--workers", "1",
        )
        assert code == 0
        tv = json.loads(out)["tv"]
        assert set(tv) == {"size_vs_neg_binomial"}

    def test_bdi_engine_summary(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--theta", "1", "--mu", "2", "--t", "1",
            "--replicates", "100", "--seed", "5", "--engine", "bdi", "--workers", "1",
        )
        assert code == 0
        report = json.loads(out)
        assert "groups" not in report["moments"]
        assert set(report["tv"]) == {"size_vs_neg_binomial"}

    @pytest.mark.parametrize("engine", ["bdi", "branching"])
    def test_summary_size_tv_uses_the_per_n_reference(self, capsys, engine):
        # the summary builds NB(theta, b) in one pass; its TV must be the one
        # against neg_bin_pmf evaluated n by n
        params, t = ModelParams(0.5, 1.5, 0.4), 3.0
        code, out, _ = run_cli(
            capsys, "simulate", "--alpha", "0.5", "--theta", "1.5", "--mu", "0.4",
            "--t", "3", "--replicates", "200", "--seed", "9", "--engine", engine,
            "--workers", "1",
        )
        assert code == 0
        dist = run_ensemble(params, t, 200, 9, engine, workers=1)
        sizes = (dist if engine == "bdi" else dist.size_marginal()).probabilities()
        b = nbin_time_param(params.mu, t)
        reference = {n: neg_bin_pmf(n, params.theta, b) for n in range(max(sizes) + 1)}
        assert json.loads(out)["tv"]["size_vs_neg_binomial"] == tv_distance(sizes, reference)

    def test_outputs_are_reproducible(self, capsys, tmp_path):
        files = {}
        for tag in ("a", "b"):
            summary = tmp_path / f"summary-{tag}.json"
            hist = tmp_path / f"hist-{tag}.csv"
            traj = tmp_path / f"traj-{tag}.csv"
            code, out, _ = run_cli(
                capsys, "simulate", "--alpha", "0.5", "--theta", "1", "--mu", "1.5",
                "--t", "1", "--replicates", "100", "--seed", "17", "--workers", "1",
                "--summary", str(summary), "--histogram", str(hist),
                "--trajectory", str(traj),
            )
            assert code == 0 and out == ""
            files[tag] = (summary.read_bytes(), hist.read_bytes(), traj.read_bytes())
        assert files["a"] == files["b"]

    def test_worker_count_does_not_change_output(self, capsys, tmp_path, monkeypatch):
        # four seed blocks of 256, so two workers start a pool and each block runs in lock step
        monkeypatch.setattr(montecarlo, "_SEED_BLOCK", 256)
        outputs = []
        for workers in ("1", "2"):
            summary = tmp_path / f"summary-{workers}.json"
            hist = tmp_path / f"hist-{workers}.csv"
            code, _, _ = run_cli(
                capsys, "simulate", "--theta", "1", "--mu", "2", "--t", "1",
                "--replicates", "1024", "--seed", "23", "--workers", workers,
                "--summary", str(summary), "--histogram", str(hist),
            )
            assert code == 0
            outputs.append((summary.read_bytes(), hist.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_trajectory_only_run(self, capsys, tmp_path):
        target = tmp_path / "traj.csv"
        code, out, _ = run_cli(
            capsys, "simulate", "--alpha", "0.5", "--theta", "2", "--mu", "1", "--t", "2",
            "--seed", "3", "--trajectory", str(target),
        )
        assert code == 0
        assert out == ""  # no ensemble summary when only a trajectory is asked for
        text = target.read_text()
        assert "# engine=multiplicity" in text
        assert "time,event_kind,event_index,s,k" in text

    def test_trajectory_needs_partition_engine(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate", "--theta", "1", "--t", "1", "--seed", "3",
            "--engine", "bdi", "--trajectory", str(tmp_path / "t.csv"),
        )
        assert code == 2
        assert "trajectory" in err

    def test_nonpositive_theta_refused(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--alpha", "0.5", "--theta", "-0.25", "--mu", "2",
            "--t", "1", "--seed", "1",
        )
        assert code == 2
        assert "theta > 0" in err

    def test_runaway_guard_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--theta", "5", "--mu", "0", "--t", "100",
            "--replicates", "4", "--seed", "1", "--workers", "1",
            "--max-events", "100",
        )
        assert code == 3
        assert "event cap" in err

    @pytest.mark.parametrize("flag", ["--histogram", "--summary", "--trajectory"])
    def test_missing_output_directory_refused_before_the_ensemble(
        self, capsys, tmp_path, monkeypatch, flag
    ):
        def no_ensemble(*args, **kwargs):
            raise AssertionError("the ensemble ran")

        monkeypatch.setattr("allelic_bdi.cli.run_ensemble", no_ensemble)
        path = str(tmp_path / "missing" / "out.csv")
        code, _, err = run_cli(
            capsys, "simulate", "--theta", "1", "--t", "1", "--seed", "1",
            "--replicates", "20", "--workers", "1", flag, path,
        )
        assert code == 2
        assert err.startswith("error: ") and flag in err and path in err

    def test_negative_event_cap_refused_before_any_replicate(self, capsys, monkeypatch):
        def no_ensemble(*args, **kwargs):
            raise AssertionError("the ensemble ran")

        monkeypatch.setattr("allelic_bdi.cli.run_ensemble", no_ensemble)
        code, _, err = run_cli(
            capsys, "simulate", "--theta", "1", "--t", "1", "--seed", "1", "--max-events", "-5",
        )
        assert code == 2
        assert "--max-events" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--theta", "1", "--t", "1"),  # missing --seed
            ("simulate", "--theta", "1", "--seed", "1"),  # missing --t
            ("simulate", "--theta", "1", "--t", "-1", "--seed", "1"),
            ("simulate", "--theta", "1", "--t", "1", "--seed", "1", "--replicates", "0"),
            ("simulate", "--theta", "1", "--t", "1", "--seed", "1", "--workers", "0"),
            ("simulate", "--alpha", "1.5", "--theta", "1", "--t", "1", "--seed", "1"),
            ("simulate", "--theta", "1", "--t", "1", "--seed", "1", "--engine", "urn"),
            ("simulate", "--theta", "1", "--t", "1", "--seed", "-1", "--trajectory", "unused.csv"),
            ("simulate", "--theta", "1", "--t", "1", "--seed", "1", "--tv-max-size", "-1"),
            ("simulate", "--alpha", "0.5", "--theta", "1", "--mu", "2", "--t", "1", "--seed",
             "1", "--tv-max-size", "-1"),
        ],
    )
    def test_invalid_usage_exits_2(self, capsys, argv):
        assert run_cli(capsys, *argv)[0] == 2


class TestTrajectoryCsv:
    @pytest.mark.parametrize(
        "engine,record", [("multiplicity", simulate), ("branching", simulate_branching)]
    )
    def test_rows_replay_the_engine(self, capsys, tmp_path, engine, record):
        target = tmp_path / "p.csv"
        code, out, _ = run_cli(
            capsys, "simulate", "--alpha", "0.5", "--theta", "2", "--mu", "0.8", "--t", "6",
            "--seed", "21", "--engine", engine, "--trajectory", str(target),
        )
        assert code == 0 and out == ""
        header, body = {}, []
        for line in target.read_text().splitlines():
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                header[key] = value
            else:
                body.append(line)
        assert header == {
            "artifact": "allelic-bdi", "version": __version__, "rng_stream": "2",
            "alpha": "0.5", "theta": "2.0", "mu": "0.8", "seed": "21", "horizon": "6.0",
            "initial": "0", "engine": engine,
        }  # fmt: skip
        assert body[0] == "time,event_kind,event_index,s,k"

        # the rows the recording engine's events and replayed states give
        path = record(ModelParams(0.5, 2.0, 0.8), 6.0, np.random.default_rng([21, 0]))
        assert len(path) > 20
        expected = [
            f"{t!r},{event.kind.value},{'' if event.index is None else event.index},"
            f"{state.size},{state.num_groups}"
            for (t, event), state in zip(path.events, states_after_events(path))
        ]
        assert body[1:] == expected
        assert {row.split(",")[1] for row in expected} == {"new_family", "growth", "death"}

    def test_memory_does_not_grow_with_events(self, capsys, tmp_path):
        # about 123k events; recording the same run peaked at 11.8 MB of traced memory
        argv = ["simulate", "--alpha", "0.5", "--theta", "2", "--mu", "1.5", "--t", "10000",
                "--seed", "5", "--trajectory", str(tmp_path / "p.csv")]  # fmt: skip
        assert main(argv) == 0  # imports and fills the caches the traced run reads
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "p.csv").read_text().count("\n") > 120_000
        assert peak < 1_000_000

    @pytest.mark.parametrize("engine", ["multiplicity", "branching"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_runaway_names_the_run_and_leaves_no_file(self, capsys, tmp_path, engine, existing):
        target = tmp_path / "p.csv"
        if existing:
            target.write_text("an earlier artifact\n")
        code, out, err = run_cli(
            capsys, "simulate", "--theta", "1", "--t", "5", "--seed", "1", "--max-events", "5",
            "--engine", engine, "--trajectory", str(target),
        )
        assert code == 3 and out == ""
        assert err.startswith(
            f"error: trajectory of seed 1 (alpha=0.0, theta=1.0, mu=0.0, t=5.0, engine {engine}): "
            f"{engine} run exceeded the event cap of 5 "
        )
        assert not target.exists()

    @pytest.mark.parametrize("engine", ["multiplicity", "branching"])
    @pytest.mark.parametrize("artifact", ["--histogram", "--summary"])
    def test_ensemble_runaway_leaves_no_trajectory(self, capsys, tmp_path, engine, artifact):
        # replicate 0 stays within the cap and a later replicate trips it
        argv = ["simulate", "--theta", "1", "--t", "3", "--seed", "1", "--replicates", "50",
                "--workers", "1", "--max-events", "5", "--engine", engine]  # fmt: skip
        alone = tmp_path / "alone.csv"
        assert run_cli(capsys, *argv, "--trajectory", str(alone))[0] == 0
        assert alone.exists()
        target, other = tmp_path / "p.csv", tmp_path / "other"
        code, out, err = run_cli(capsys, *argv, "--trajectory", str(target), artifact, str(other))
        assert code == 3 and out == ""
        assert err.startswith("error: ") and "event cap of 5" in err
        assert not target.exists() and not other.exists()

    def test_runaway_keeps_the_kernel_state(self, tmp_path):
        params = ModelParams(0.0, 1.0, 0.0)
        with pytest.raises(RunawayError) as exc:
            montecarlo._write_trajectory(str(tmp_path / "p.csv"), params, 5.0, 1, "branching", 5)
        kernel_exc = exc.value.__cause__
        assert (exc.value.events, exc.value.time, exc.value.size, exc.value.groups) == (
            kernel_exc.events, kernel_exc.time, kernel_exc.size, kernel_exc.groups
        )
        assert exc.value.events == 5 and exc.value.groups is not None


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


# every scan verify runs; each is patched to raise in the tests of what is refused before any work
VERIFY_SCANS = (
    "size_balance_scan",
    "partition_balance_scan",
    "mixture_consistency_scan",
    "stationary_mass_comparison",
    "weight_series_gap",
)


class TestVerify:
    def test_pinned_point_passes(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "verify", "--alpha", "0.5", "--theta", "1", "--mu", "2",
            "--max-size", "8", "--size-max", "50", "--series-terms", "500",
            "--out", str(target),
        )
        assert code == 0 and out == ""
        report = json.loads(target.read_text())
        assert report["pass"] is True
        assert report["fault_injected"] is False
        names = [suite["name"] for suite in report["suites"]]
        assert names == [
            "size_detailed_balance",
            "partition_detailed_balance",
            "mixture_equality",
            "mass_consistency",
            "weight_series_identity",
        ]
        for suite in report["suites"]:
            assert suite["pass"] is True
            assert suite["max_residual"] <= suite["tolerance"]
            assert suite["points"]

    def test_default_grid_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-size", "6", "--size-max", "60")
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        by_name = {suite["name"]: suite for suite in report["suites"]}
        assert len(by_name["size_detailed_balance"]["points"]) == 9
        assert len(by_name["partition_detailed_balance"]["points"]) == 27
        assert len(by_name["weight_series_identity"]["points"]) == 9
        # the signed-measure corner theta = -alpha/2 is part of the grid
        thetas = {p["theta"] for p in by_name["partition_detailed_balance"]["points"]}
        assert any(t < 0.0 for t in thetas)

    @pytest.mark.parametrize(
        "point", [(), ("--alpha", "0.5", "--theta", "-0.25", "--mu", "2")], ids=["grid", "signed"]
    )
    def test_size_scan_holds_past_the_prefix_head(self, capsys, point):
        # n > 512 is past the stored head of the ascending-factorial table
        code, out, _ = run_cli(capsys, "verify", *point, "--max-size", "4", "--size-max", "600")
        assert code == 0
        size = json.loads(out)["suites"][0]
        assert size["name"] == "size_detailed_balance" and size["pass"] is True
        assert all(p["n_max"] == 600 for p in size["points"])

    def test_injected_fault_is_caught(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "verify", "--alpha", "0.5", "--theta", "1", "--mu", "2",
            "--max-size", "6", "--size-max", "20", "--series-terms", "100",
            "--inject-fault", "--out", str(target),
        )
        assert code == 1
        report = json.loads(target.read_text())
        assert report["pass"] is False
        assert report["fault_injected"] is True
        by_name = {suite["name"]: suite for suite in report["suites"]}
        assert by_name["size_detailed_balance"]["pass"] is False
        assert by_name["size_detailed_balance"]["max_residual"] > 0.005
        assert by_name["partition_detailed_balance"]["pass"] is False
        # the untouched identities still hold
        assert by_name["mixture_equality"]["pass"] is True
        assert by_name["weight_series_identity"]["pass"] is True

    def test_nan_point_fails_its_suite(self, capsys, monkeypatch):
        # max() keeps a nan only when it comes first: here it is the second point
        gaps = iter([1e-14, math.nan, 1e-14])
        monkeypatch.setattr(cli, "weight_series_gap", lambda *args: next(gaps))
        code, out, _ = run_cli(
            capsys, "verify", "--alpha", "0.5", "--theta", "1", "--max-size", "4",
            "--size-max", "20",
        )
        assert code == 1
        report = json.loads(out)
        series = {suite["name"]: suite for suite in report["suites"]}["weight_series_identity"]
        assert [p["mu"] for p in series["points"]] == list(cli.PARTITION_MU_GRID)
        assert math.isnan(series["max_residual"]) and series["pass"] is False
        assert report["pass"] is False
        assert [s["pass"] for s in report["suites"]] == [True, True, True, True, False]

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--mu", "0.9"),
            ("verify", "--max-size", "20"),
            ("verify", "--alpha", "0", "--max-size", "4"),
            ("verify", "--size-max", "0"),
        ],
    )
    def test_invalid_usage_exits_2(self, capsys, argv):
        assert run_cli(capsys, *argv)[0] == 2

    def test_oversized_max_size_is_refused_before_any_scan(self, capsys, tmp_path, monkeypatch):
        # it used to run the whole size suite before the first partition scan refused it
        def no_scan(*args):
            raise AssertionError("a scan ran before --max-size was checked")

        monkeypatch.setattr(cli, "size_balance_scan", no_scan)
        cap = cli.PARTITION_BALANCE_MAX_SIZE
        target = tmp_path / "report.json"
        code, out, err = run_cli(capsys, "verify", "--max-size", str(cap + 1), "--out", str(target))
        assert code == 2 and out == ""
        assert err == f"error: stationary tables and scans are capped at s <= {cap}\n"
        assert not target.exists()

    @pytest.mark.parametrize("terms", ["0", "-3"])
    def test_too_few_series_terms_refused_before_any_scan(
        self, capsys, tmp_path, monkeypatch, terms
    ):
        # it used to run the size suite and the first alpha's partition, mixture
        # and mass scans before the series refused it, naming no flag
        def no_scan(*args):
            raise AssertionError("a scan ran before --series-terms was checked")

        for name in VERIFY_SCANS:
            monkeypatch.setattr(cli, name, no_scan)
        target = tmp_path / "report.json"
        code, out, err = run_cli(capsys, "verify", "--series-terms", terms, "--out", str(target))
        assert code == 2 and out == ""
        assert err == "error: --series-terms must be >= 1\n"
        assert not target.exists()


    @pytest.mark.parametrize(
        "argv,bound",
        [
            (("--theta", "-0.3"), "-0.1"),  # below -alpha at the grid's least alpha, 0.1
            (("--theta", "-0.1"), "-0.1"),
            (("--alpha", "0.5", "--theta", "-0.5"), "-0.5"),
        ],
        ids=["grid", "grid boundary", "pinned alpha"],
    )
    def test_theta_at_or_below_minus_alpha_refused_before_any_scan(
        self, capsys, tmp_path, monkeypatch, argv, bound
    ):
        # it used to run the size suite, then fail at the first partition point
        # with ModelParams' message, naming no flag
        def no_scan(*args):
            raise AssertionError("a scan ran before --theta was checked")

        for name in VERIFY_SCANS:
            monkeypatch.setattr(cli, name, no_scan)
        target = tmp_path / "report.json"
        code, out, err = run_cli(capsys, "verify", *argv, "--out", str(target))
        assert code == 2 and out == ""
        assert err == f"error: --theta must exceed -alpha = {bound}, got {argv[-1]}\n"
        assert not target.exists()

    @pytest.mark.parametrize("alpha", ["0", "1", "-0.1", "1.5"])
    def test_alpha_outside_unit_interval_names_the_flag(self, capsys, alpha):
        code, _, err = run_cli(capsys, "verify", "--alpha", alpha, "--max-size", "4")
        assert code == 2
        assert "--alpha" in err and "(0, 1)" in err

    @pytest.mark.parametrize("theta", ["-0.29", "-0.1", "0"])
    def test_pinned_nonpositive_theta_passes(self, capsys, tmp_path, theta):
        target = tmp_path / "report.json"
        code, _, err = run_cli(
            capsys, "verify", "--alpha", "0.3", "--theta", theta, "--max-size", "8",
            "--series-terms", "500", "--out", str(target),
        )
        assert code == 0 and err == ""
        report = json.loads(target.read_text())
        assert report["pass"] is True
        size_suite = report["suites"][0]
        assert size_suite["name"] == "size_detailed_balance"
        assert [p["theta"] for p in size_suite["points"]] == [float(theta)] * 3
        assert size_suite["max_residual"] <= size_suite["tolerance"]


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------


class TestDiagnose:
    def test_report_csv(self, capsys, tmp_path):
        target = tmp_path / "growth.csv"
        code, out, _ = run_cli(
            capsys, "diagnose", "--alpha", "0.5", "--theta", "1", "--n-max", "1000",
            "--runs", "5", "--seed", "9", "--out", str(target),
        )
        assert code == 0 and out == ""
        text = target.read_text()
        assert "# power=0.5" in text  # defaults to alpha
        assert "# runs=5" in text
        header, rows = table_rows(text)
        assert header.startswith("n,mean_groups,sd_groups")
        assert len(rows) == len(default_checkpoints(1000))

    def test_stdout_and_reproducibility(self, capsys):
        argv = ("diagnose", "--theta", "2", "--n-max", "100", "--runs", "4", "--seed", "6")
        code_a, out_a, _ = run_cli(capsys, *argv)
        code_b, out_b, _ = run_cli(capsys, *argv)
        assert code_a == code_b == 0
        assert out_a == out_b
        assert "# power=0.0" in out_a

    def test_explicit_power(self, capsys):
        code, out, _ = run_cli(
            capsys, "diagnose", "--theta", "1", "--n-max", "100", "--runs", "3",
            "--seed", "6", "--power", "0.25",
        )
        assert code == 0
        assert "# power=0.25" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("diagnose", "--theta", "1", "--n-max", "100", "--seed", "1", "--runs", "1"),
            ("diagnose", "--theta", "1", "--n-max", "5", "--seed", "1"),
            ("diagnose", "--theta", "1", "--n-max", "100"),  # missing --seed
            ("diagnose", "--alpha", "0.5", "--theta", "-0.5", "--n-max", "100", "--seed", "1"),
            ("diagnose", "--theta", "1", "--n-max", "100", "--seed", "-1"),
        ],
    )
    def test_invalid_usage_exits_2(self, capsys, argv):
        assert run_cli(capsys, *argv)[0] == 2


# ---------------------------------------------------------------------------
# output paths
# ---------------------------------------------------------------------------


UNOPENABLE_OUTPUTS = {
    "exact": ("exact", "lambda", "--theta", "1", "--mu", "2", "--table", "--out"),
    "simulate": ("simulate", "--theta", "1", "--t", "1", "--seed", "1", "--replicates", "5",
                 "--workers", "1", "--summary"),
    "verify": ("verify", "--max-size", "3", "--size-max", "5", "--series-terms", "10", "--out"),
    "diagnose": ("diagnose", "--theta", "1", "--n-max", "100", "--runs", "2", "--seed", "1",
                 "--out"),
}


@pytest.mark.parametrize("command", sorted(UNOPENABLE_OUTPUTS))
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unopenable_output_exits_2_naming_the_path(capsys, tmp_path, command, where):
    path = str(tmp_path / "missing" / "out") if where == "missing directory" else str(tmp_path)
    code, _, err = run_cli(capsys, *UNOPENABLE_OUTPUTS[command], path)
    assert code == 2
    assert err.startswith("error: ") and path in err


# the work each command would do first, patched to raise: an output path in a
# missing directory, or naming a directory, must be refused before any of it runs
FIRST_WORK = {
    "exact": ("_lambda_rows",),
    "simulate": ("run_ensemble", "_write_trajectory"),
    "verify": VERIFY_SCANS,
    "diagnose": ("growth_report",),
}
# every output flag of every command
OUTPUT_FLAGS = [
    ("exact", "--out"),
    ("simulate", "--histogram"),
    ("simulate", "--summary"),
    ("simulate", "--trajectory"),
    ("verify", "--out"),
    ("diagnose", "--out"),
]


def forbid_work(monkeypatch, command):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{command} worked before checking its output paths")

    for name in FIRST_WORK[command]:
        monkeypatch.setattr(cli, name, no_work)


@pytest.mark.parametrize("command,flag", OUTPUT_FLAGS, ids=[" ".join(c) for c in OUTPUT_FLAGS])
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_missing_output_directory_refused_before_any_work(
    capsys, tmp_path, monkeypatch, command, flag, where
):
    # a path naming a directory used to pass: verify ran every scan, and
    # simulate its ensemble, before the write failed
    forbid_work(monkeypatch, command)
    (tmp_path / "dir").mkdir()
    if where == "missing directory":
        path = str(tmp_path / "missing" / "out")
        reason = f"no directory {str(tmp_path / 'missing')!r}"
    else:
        path, reason = str(tmp_path / "dir"), "is a directory"
    code, out, err = run_cli(capsys, *UNOPENABLE_OUTPUTS[command][:-1], flag, path)
    assert code == 2 and out == ""
    assert err == f"error: {flag} {path!r}: {reason}\n"
    assert [p.name for p in tmp_path.rglob("*")] == ["dir"]  # no file written


def test_refused_summary_leaves_no_histogram(capsys, tmp_path, monkeypatch):
    # it ran the ensemble and wrote ok.csv, then failed on the directory and left ok.csv
    forbid_work(monkeypatch, "simulate")
    histogram = tmp_path / "ok.csv"
    code, out, err = run_cli(
        capsys, *UNOPENABLE_OUTPUTS["simulate"][:-1], "--histogram", str(histogram),
        "--summary", str(tmp_path),
    )
    assert code == 2 and out == ""
    assert err == f"error: --summary {str(tmp_path)!r}: is a directory\n"
    assert not histogram.exists()


# ---------------------------------------------------------------------------
# non-finite parameters
# ---------------------------------------------------------------------------

# (flag, argv with {} where the value goes); each reached a law, a scan or a
# simulation that printed nan, looped to the event cap or failed a check
NON_FINITE_CASES = [
    ("--theta", ("exact", "esf", "--theta", "{}", "--partition", "1^1")),
    ("--theta", ("exact", "pi", "--alpha", "0.5", "--theta", "{}", "--mu", "2",
                 "--partition", "1^1")),
    ("--mu", ("exact", "pi", "--alpha", "0.5", "--theta", "1", "--mu", "{}",
              "--partition", "1^1")),
    ("--theta", ("exact", "lambda", "--theta", "{}", "--mu", "2", "--n", "1")),
    ("--mu", ("exact", "bt", "--mu", "{}", "--t", "1")),
    ("--t", ("exact", "bt", "--mu", "2", "--t", "{}")),
    ("--theta", ("simulate", "--alpha", "0.5", "--theta", "{}", "--mu", "2", "--t", "1",
                 "--replicates", "2", "--seed", "1", "--max-events", "1000")),
    ("--mu", ("simulate", "--alpha", "0.5", "--theta", "1", "--mu", "{}", "--t", "1",
              "--replicates", "2", "--seed", "1", "--max-events", "1000")),
    ("--t", ("simulate", "--theta", "1", "--t", "{}", "--replicates", "2", "--seed", "1",
             "--max-events", "1000")),
    ("--alpha", ("verify", "--alpha", "{}")),
    ("--theta", ("verify", "--theta", "{}")),
    ("--mu", ("verify", "--mu", "{}")),
    ("--theta", ("diagnose", "--theta", "{}", "--n-max", "100", "--runs", "2", "--seed", "1")),
    ("--power", ("diagnose", "--theta", "1", "--n-max", "100", "--runs", "2", "--seed", "1",
                 "--power", "{}")),
]  # fmt: skip


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize(
    "flag,template", NON_FINITE_CASES, ids=[f"{t[0]} {flag}" for flag, t in NON_FINITE_CASES]
)
def test_non_finite_value_exits_2_naming_it(capsys, flag, template, value):
    code, out, err = run_cli(capsys, *(value if t == "{}" else t for t in template))
    assert code == 2 and out == ""
    assert err == f"error: {flag} must be finite, got {value}\n"


def test_non_finite_value_from_config_exits_2(capsys, tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"mu": "inf"}))
    code, _, err = run_cli(capsys, "exact", "lambda", "--theta", "1", "--n", "1",
                           "--config", str(config))  # fmt: skip
    assert code == 2
    assert err == "error: --mu must be finite, got inf\n"


# ---------------------------------------------------------------------------
# --config
# ---------------------------------------------------------------------------


class TestConfig:
    def test_config_supplies_flags(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta": 1, "mu": 2, "n": 3}))
        code, out, _ = run_cli(capsys, "exact", "lambda", "--config", str(cfg))
        assert code == 0
        assert out.strip() == "0.0625"

    def test_explicit_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta": 1, "mu": 2}))
        _, expected, _ = run_cli(capsys, "exact", "lambda", "--theta", "2", "--mu", "2",
                                 "--n", "2")
        code, out, _ = run_cli(
            capsys, "exact", "lambda", "--config", str(cfg), "--theta", "2", "--n", "2"
        )
        assert code == 0
        assert out == expected
        assert out.strip() == "0.1875"

    def test_equals_form_and_underscore_keys(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 0.5, "theta": 1, "mu": 2, "max_size": 3,
                                   "table": True}))
        code, out, _ = run_cli(capsys, "exact", "pi", f"--config={cfg}")
        assert code == 0
        _, rows = table_rows(out)
        assert len(rows) == 7

    def test_false_and_null_entries_dropped(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta": 1, "table": False, "out": None, "n": 3}))
        code, out, _ = run_cli(capsys, "exact", "esf", "--config", str(cfg),
                               "--partition", "3^1")
        assert code == 0
        assert out.strip() == "0.333333333333"

    @pytest.mark.parametrize(
        "content",
        ["not json", json.dumps([1, 2]), json.dumps({"theta": [1, 2]})],
    )
    def test_bad_config_contents_exit_2(self, capsys, tmp_path, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        code, _, err = run_cli(capsys, "exact", "esf", "--config", str(cfg), "--n", "3")
        assert code == 2
        assert err.startswith("error:")

    def test_missing_config_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "exact", "esf", "--config", str(tmp_path / "absent.json"), "--n", "3"
        )
        assert code == 2
        assert "cannot read config file" in err

    @pytest.mark.parametrize(
        "second",
        [("--config", "c2.json"), ("--config=c2.json",), ("--conf", "c2.json")],
    )
    def test_second_config_exits_2_before_any_work(self, capsys, tmp_path, monkeypatch, second):
        # argparse would keep the second path unread and run at alpha = 0
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c1.json").write_text(json.dumps({"theta": 1}))
        (tmp_path / "c2.json").write_text(json.dumps({"alpha": 0.5}))
        code, out, err = run_cli(
            capsys, "simulate", "--t", "1", "--seed", "1", "--replicates", "5",
            "--workers", "1", "--summary", "s.json", "--config", "c1.json", *second,
        )  # fmt: skip
        assert (code, out) == (2, "")
        assert err.startswith("error: one --config file is read")
        assert not (tmp_path / "s.json").exists()

    def test_config_key_in_a_config_file_exits_2(self, capsys, tmp_path):
        inner = tmp_path / "inner.json"
        inner.write_text(json.dumps({"alpha": 0.5}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta": 1, "config": str(inner)}))
        code, out, err = run_cli(capsys, "exact", "lambda", "--config", str(cfg),
                                 "--mu", "2", "--n", "3")  # fmt: skip
        assert (code, out) == (2, "")
        assert err.startswith("error: one --config file is read")

    def test_config_before_subcommand_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta": 1}))
        code, _, err = run_cli(capsys, "--config", str(cfg), "exact", "esf", "--n", "3")
        assert code == 2
        assert "must follow a subcommand" in err

    def test_config_without_path_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "exact", "esf", "--theta", "1", "--config")
        assert code == 2
        assert "requires a file path" in err


# ---------------------------------------------------------------------------
# top-level behavior and installed entry points
# ---------------------------------------------------------------------------


class TestTopLevel:
    def test_help_exits_0(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0
        assert run_cli(capsys, "simulate", "--help")[0] == 0

    def test_version(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0
        assert out.strip() == f"allelic-bdi {__version__}"

    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "allelic_bdi", "--version"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.strip() == f"allelic-bdi {__version__}"

    def test_console_script(self):
        # run the entry point that pyproject.toml declares the way the
        # generated ``allelic-bdi`` wrapper does, so no install is needed
        import tomllib

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["allelic-bdi"]
        module, _, func = target.partition(":")
        wrapper = (
            f"import sys; from {module} import {func}; "
            f"sys.argv[0] = 'allelic-bdi'; sys.exit({func}())"
        )
        result = subprocess.run(
            [sys.executable, "-c", wrapper, "exact", "bt", "--mu", "2", "--t", "5"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.strip() == "0.498309819075"


# a fresh interpreter that runs CLI commands through ``main`` and reports
# their exit codes, their standard output and the modules they loaded;
# "refuse-scipy" first installs an import hook under which scipy is missing
COLD_START_SCRIPT = r"""
import contextlib, io, json, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

if sys.argv[1] == "refuse-scipy":
    sys.meta_path.insert(0, RefuseScipy())
from allelic_bdi.cli import main

results = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append([code, out.getvalue()])
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m == "concurrent.futures")
print(json.dumps({"results": results, "loaded": loaded}))
"""

# past the 513-entry head of the log-gamma tables (the lambda table to 700,
# 2000 series terms at mu = 1.2), and a serial simulate with its summary
COLD_START_COMMANDS = [
    ["verify", "--alpha", "0.5", "--theta", "1", "--mu", "1.2", "--max-size", "6",
     "--size-max", "50", "--series-terms", "2000"],
    ["exact", "lambda", "--theta", "1.5", "--mu", "1.01", "--table", "--max-size", "700"],
    ["exact", "pi", "--alpha", "0.5", "--theta", "1", "--mu", "2", "--table", "--max-size", "5"],
    ["diagnose", "--alpha", "0.5", "--theta", "1", "--n-max", "2000", "--runs", "2", "--seed", "3"],
    ["simulate", "--alpha", "0.5", "--theta", "2", "--mu", "1.5", "--t", "2", "--replicates", "50",
     "--seed", "3", "--workers", "1"],
]  # fmt: skip


def run_cold_start(mode: str) -> dict:
    result = subprocess.run(
        [sys.executable, "-c", COLD_START_SCRIPT, mode, json.dumps(COLD_START_COMMANDS)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_cli_runs_without_scipy_or_the_process_pool():
    refused, plain = run_cold_start("refuse-scipy"), run_cold_start("plain")
    assert [code for code, _ in refused["results"]] == [0] * len(COLD_START_COMMANDS)
    assert all(out for _, out in refused["results"])
    assert refused["results"] == plain["results"]
    assert refused["loaded"] == plain["loaded"] == []
