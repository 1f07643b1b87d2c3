"""The benchmark of record (``perfbench/workloads.py`` and ``worker.py``)
builds its work from the public API and the CLI module; these checks read
its imports and ``cli`` attributes, without running it, so a cut to
``allelic_bdi.__all__`` or the CLI cannot break the benchmark unnoticed."""

import ast
import importlib
from pathlib import Path

import allelic_bdi

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def workload_imports():
    """(module, name) for every name workloads.py imports from the package."""
    tree = ast.parse(WORKLOADS.read_text())
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("allelic_bdi")
        for alias in node.names
    ]


def test_benchmark_imports_only_public_names():
    imports = workload_imports()
    assert ("allelic_bdi", "size_balance_scan") in imports  # the parse found the import block
    for module, name in imports:
        if module != "allelic_bdi":
            assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
        elif name != "cli":  # the CLI module, whose attributes are checked below
            assert name in allelic_bdi.__all__, name


def test_benchmark_cli_attributes_exist():
    from allelic_bdi import cli

    used = {
        node.attr
        for path in (WORKLOADS, WORKLOADS.with_name("worker.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "cli"
    }
    assert {"main", "SIZE_BALANCE_TOLERANCE"} <= used  # the parse found the uses
    assert [name for name in sorted(used) if not hasattr(cli, name)] == []
