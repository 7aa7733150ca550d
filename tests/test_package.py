import ast
import importlib.util
import re
import sys
from pathlib import Path

import gkprep

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def test_every_exported_name_resolves():
    missing = [name for name in gkprep.__all__ if not hasattr(gkprep, name)]
    assert missing == []


def _readme_quick_start_names() -> list[str]:
    block = re.search(r"from gkprep import \((.*?)\)", (ROOT / "README.md").read_text(), re.S)
    return re.findall(r"\w+", block.group(1))


def _benchmark_imported_names() -> list[str]:
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "gkprep"
        for alias in node.names
    ]


def test_documented_and_benchmark_names_are_exported():
    readme, bench = _readme_quick_start_names(), _benchmark_imported_names()
    assert "failure_rate" in readme and "failure_rate" in bench
    missing = sorted(set(readme + bench) - set(gkprep.__all__))
    assert missing == []


def test_benchmark_tracer_sites_are_bound(monkeypatch):
    # the tracer patches these module attributes by name; a deleted or
    # renamed one would only show when the benchmark runs
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    sites = [site[:2] for site in tracing.SPAN_SITES + tracing.COUNT_SITES]
    unbound = [(path, attr) for path, attr in sites if attr not in vars(tracing._owner(path))]
    assert sites
    assert unbound == []
