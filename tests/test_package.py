import ast
import dataclasses
import importlib.util
import inspect
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import gkprep
import gkprep.cli
from gkprep.repetition import QuadratureConfig

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


def _readme_table(header: str) -> list[list[str]]:
    """Cells of the README table under ``header``, without the header and rule rows."""
    lines = (ROOT / "README.md").read_text().splitlines()
    rows = []
    for line in lines[lines.index(header) + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def test_readme_run_file_tables_match_the_code():
    # a field the README lists that the code lacks (or the reverse) would
    # send run-file authors to an exit-2 rejection, or hide a field
    kinds = {
        kind.strip("`"): re.findall(r"`(\w+)`", re.sub(r"\([^()]*\)", "", fields))
        for kind, fields, _ in _readme_table("| kind | fields | writes |")
    }
    assert kinds == {
        kind: list(inspect.signature(build).parameters)
        for kind, (build, _) in gkprep.cli.RUN_KINDS.items()
    }
    engine = {
        name.strip("`"): json.loads(default.strip("`"))
        for name, default, _ in _readme_table("| field | default | meaning |")
    }
    assert engine == {f.name: f.default for f in dataclasses.fields(QuadratureConfig)}


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_tracer_sites_are_bound(monkeypatch):
    # the tracer patches these module attributes by name; a deleted or
    # renamed one would only show when the benchmark runs
    tracing = _load_tracing(monkeypatch)
    sites = [site[:2] for site in tracing.SPAN_SITES + tracing.COUNT_SITES]
    unbound = [(path, attr) for path, attr in sites if attr not in vars(tracing._owner(path))]
    assert sites
    assert unbound == []


def test_tracer_only_imports_are_tracer_sites(monkeypatch):
    # a name imported under noqa F401 is bound for the tracer alone: it must
    # be a site the tracer wraps, and the importing module must not use it
    tracing = _load_tracing(monkeypatch)
    sites = {site[:2] for site in tracing.SPAN_SITES}
    found = []
    for path in sorted((ROOT / "src" / "gkprep").glob("*.py")):
        module = f"gkprep.{path.stem}"
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and "# noqa: F401" in lines[node.end_lineno - 1]:
                for alias in node.names:
                    name = alias.asname or alias.name
                    found.append(name)
                    assert (module, name) in sites, (module, name)
                    assert name not in used, (module, name)
    assert found


def test_benchmark_trace_callback_span_nests_in_run_tally(monkeypatch, tmp_path):
    # the tracer wraps the callback cli passes to run_tally as trace=; a
    # callback passed another way would drop the benchmark's cli.trace span
    tracing = _load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = gkprep.cli.main([
            "mc", "--n", "3", "--delta", "0.5", "--delta-tilde", "0.2", "--shots", "20",
            "--out", str(tmp_path / "mc.json"), "--trace", str(tmp_path / "trace.jsonl"),
        ])
    finally:
        tracer.uninstall()
    assert code == 0
    spans = tracer.spans
    nested = [
        s for s in spans
        if s.name == "cli.trace" and s.parent >= 0
        and spans[s.parent].name == "montecarlo.run_tally"
    ]
    assert nested


def test_readme_examples_run(monkeypatch, tmp_path):
    # a renamed or removed flag, or a run-file field the code no longer
    # takes, would leave the README's examples failing for its readers
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", readme, re.S).group(1)
    commands = [
        shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()
    ]
    commands = [argv for argv in commands if argv]
    assert len(commands) == 12 and all(argv[0] == "gkprep" for argv in commands)
    parser = gkprep.cli.build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])
    run_file = re.search(r"```json\n(\{\n  \"schema_version\".*?)```", readme, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(run_file)
    assert gkprep.cli.main(["sweep", "--spec", "run.json"]) == 0
    assert (tmp_path / json.loads(run_file)["sweep"]["output"]).is_file()


def test_one_fork_site_and_no_process_pool():
    # every forked part goes through repetition.map_parts; a thread pool
    # (the tensor oracle's) is allowed
    forks, banned = [], []
    for path in sorted((ROOT / "src" / "gkprep").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "fork"
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "os"):
                forks.append(path.name)
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] + [
                    f"{node.module}.{alias.name}" for alias in node.names
                ]
            else:
                continue
            banned += [
                m for m in modules
                if m.split(".")[0] == "multiprocessing" or m.endswith("ProcessPoolExecutor")
            ]
    assert forks == ["repetition.py"]
    assert banned == []


def _code_lines(*dirs) -> subprocess.CompletedProcess:
    command = [sys.executable, str(ROOT / "tests" / "code_lines.py"), *map(str, dirs)]
    return subprocess.run(command, capture_output=True, text=True)


def test_code_lines_compares_two_trees(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    (old / "kept.py").write_text("x = 1\n")
    (old / "gone.py").write_text('"""Doc."""\n# comment\n\ny = 2\nz = 3\n')
    (new / "kept.py").write_text('x = 1\ny = 2\n\n\ndef f():\n    """Doc."""\n    return 3\n')
    (new / "added.py").write_text("w = 0\n")
    assert _code_lines(old, new).stdout == (
        "    0     1    +1 added\n"
        "    2     0    -2 gone\n"
        "    1     4    +3 kept\n"
        "    3     5    +2 total\n"
    )
    assert _code_lines(new).stdout == "    1 added\n    4 kept\n    5 total\n"
    # a mistyped directory would otherwise read as an empty tree
    missing = _code_lines(old, tmp_path / "none")
    assert (missing.returncode, missing.stdout) == (2, "")
