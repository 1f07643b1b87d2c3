"""End-to-end tests of the command-line interface, run in-process through
``main`` plus two subprocess smoke checks of the entry points."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from allelic_bdi import (
    MAX_ENUMERATION_SIZE,
    AllelicPartition,
    ModelParams,
    default_checkpoints,
    partition_stationary_pmf,
    enumerate_partitions,
    nbin_time_param,
    neg_bin_pmf,
    run_ensemble,
    tv_distance,
)
from allelic_bdi import __version__, cli, montecarlo
from allelic_bdi.cli import main


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

    def test_summary_reversible_partition_target(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--alpha", "0.5", "--theta", "1", "--mu", "2", "--t", "1",
            "--replicates", "100", "--seed", "5", "--workers", "1", "--tv-max-size", "8",
        )
        assert code == 0
        tv = json.loads(out)["tv"]
        assert "partition_vs_stationary" in tv
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


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


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
