import importlib.util
import sys
from pathlib import Path

import gkprep

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_exported_name_resolves():
    missing = [name for name in gkprep.__all__ if not hasattr(gkprep, name)]
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
