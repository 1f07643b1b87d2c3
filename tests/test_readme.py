"""The README's command lines and library example run as written."""

import re
import shlex
from pathlib import Path

import pytest

from allelic_bdi import AllelicPartition
from allelic_bdi.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.S | re.M)


def readme_commands() -> list[list[str]]:
    """The arguments of every ``allelic-bdi`` line in the sh blocks, continuations joined."""
    lines = "".join(readme_blocks("sh")).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("allelic-bdi ")]


COMMANDS = readme_commands()


def test_readme_commands_were_found():
    subcommands = [argv[0] for argv in COMMANDS]
    assert subcommands == 5 * ["exact"] + 2 * ["simulate"] + 2 * ["verify"] + ["diagnose"]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_exits_0(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    assert code == 0, capsys.readouterr().err


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    (example,) = readme_blocks("python")
    monkeypatch.chdir(tmp_path)
    exec(compile(example, str(README), "exec"), {})
    psf_value, pi_value, final, mean_size = capsys.readouterr().out.splitlines()
    assert 0.0 < float(psf_value) < 1.0 and 0.0 < float(pi_value) < 1.0
    assert AllelicPartition.decode(final).size >= 0
    assert float(mean_size) > 0.0
