"""Run one gkprep benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mc-tally --seed 1 --seconds 20 --trace 0

Run from a checkout that holds ``src/gkprep`` and ``BENCHMARK.json``.  The
workload's CLI invocations go through ``gkprep.cli.main`` in this process,
pass after pass, for ``--seconds``; every output is checked and
fingerprinted.  The last line of stdout is one JSON object with the
fields ``correct``, ``attempted``, ``failed`` and ``metrics``: the
``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``.  Run records (environment,
per-op exit codes, times and digests), spans and fingerprints go under
``.perfbench/`` in the checkout, never to stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from io import StringIO
from pathlib import Path
from typing import Callable

import numpy as np

from tracing import Tracer, accounting_problems, layer_metrics
from workloads import WORKLOADS, OpResult, Workload, fingerprint

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Fresh interpreters timed per run for setup_s; the median is reported.
# They run one after each pass, so they sample the host over the whole run.
SETUP_REPEATS = 7
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import gkprep.cli; "
    "print(time.perf_counter() - t)"
)


def _child_python(*flags: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *flags, "-c", IMPORT_PROBE],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )


def import_seconds() -> float:
    """Time of ``import gkprep.cli`` in one fresh interpreter."""
    return float(_child_python().stdout)


def measure_import_split() -> dict[str, float]:
    """Self import time of numpy, scipy and gkprep modules, by ``-X importtime``."""
    runs = []
    for _ in range(3):
        split = {"numpy": 0.0, "scipy": 0.0, "gkprep": 0.0}
        for line in _child_python("-X", "importtime").stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            package = fields[2].strip().split(".")[0]
            if package in split:
                split[package] += int(fields[0]) * 1e-6
        runs.append(split)
    return {
        f"setup.import_{pkg}_s": statistics.median(r[pkg] for r in runs)
        for pkg in ("numpy", "scipy", "gkprep")
    }


def source_hash() -> str:
    h = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        h.update(f"\0{f.relative_to(SRC)}\0".encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30,
    )
    return proc.stdout.strip() or None


def environment(args: argparse.Namespace) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_hash(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_op(op) -> OpResult:
    """One CLI invocation, in process, with stdout and stderr captured."""
    import gkprep.cli  # looked up per call, so a traced pass sees the wrapped main

    out, err = StringIO(), StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = gkprep.cli.main(list(op.argv))
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # noqa: BLE001 - a crashing op is a failed op, not a crashed run
        code = None
        err.write(traceback.format_exc())
    return OpResult(op, code, out.getvalue(), err.getvalue(), time.perf_counter() - start)


_REFERENCE_ARRAY = np.random.default_rng(0).random(100_000)


def reference_seconds() -> float:
    """Time of a fixed kernel that never calls gkprep.

    On a shared virtual machine the CPU speed can drift by up to 2x over
    tens of seconds (measured on a 2-core VM), which moves every wall time
    with it.  Sampled between ops, this kernel's time tracks that drift, so
    an op's time divided by it (``wall_norm``) stays put.  Its two halves are
    an interpreted loop and numpy work on a large array; in trials on that
    VM each alone tracked both the MC and the quadrature ops, while many
    numpy calls on small arrays did not track the MC ops.
    """
    start = time.perf_counter()
    total = 0
    for i in range(40_000):
        total += i * i % 7
    for _ in range(6):
        np.sort(_REFERENCE_ARRAY)
    return time.perf_counter() - start


@dataclass
class Pass:
    wall: float  # seconds in the ops, summed
    norm: float  # each op's seconds over the reference time around it, summed
    results: list[OpResult]
    tracer: Tracer | None = None


def run_pass(workload: Workload, tracer: Tracer | None) -> Pass:
    """Run, then fingerprint and check, every op once; only the ops are timed.

    The reference kernel runs before each op and after the last one.
    """
    if tracer is not None:
        tracer.install()
    try:
        refs = [reference_seconds()]
        results = []
        for op in workload.ops:
            results.append(run_op(op))
            refs.append(reference_seconds())
    finally:
        if tracer is not None:
            tracer.uninstall()
    for r in results:
        r.digest = fingerprint(r)
    workload.check({r.op.name: r for r in results})
    wall = sum(r.seconds for r in results)
    norm = sum(2.0 * r.seconds / (a + b) for r, a, b in zip(results, refs, refs[1:]))
    return Pass(wall, norm, results, tracer)


def run_passes(
    workload: Workload, seconds: float, trace: bool, after_pass: Callable[[], None]
) -> list[Pass]:
    """Passes until ``seconds`` would be overrun.

    Pass 0 warms lazy imports and caches; it is checked but not timed.
    With tracing, the later passes alternate untraced and traced.
    ``after_pass`` runs after each pass, inside the time budget.
    """
    passes: list[Pass] = []
    spent: list[float] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        traced = trace and len(passes) > 0 and len(passes) % 2 == 0
        passes.append(run_pass(workload, Tracer() if traced else None))
        after_pass()
        spent.append(time.perf_counter() - began)
        enough = len(passes) >= (3 if trace else 2)
        if enough and time.perf_counter() - start + statistics.median(spent) > seconds:
            return passes


def check_determinism(passes: list[Pass], env: dict) -> dict[str, list[str]]:
    """Flag outputs that differ between passes or from an earlier run.

    An earlier run of the same sources and seed must have produced the same
    bytes.  Differences from runs of other sources are only returned, per
    source hash, so that a deliberate numerical change shows up.
    """
    first = {r.op.name: r.digest for r in passes[0].results}
    for p in passes[1:]:
        for r in p.results:
            if r.digest != first[r.op.name]:
                r.problems.append("output differs from the first pass of this run")

    store_path = OUT / "fingerprints.json"
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    key = f"{env['workload']}/seed{env['seed']}"
    mine = env["source_sha256"]
    changed: dict[str, list[str]] = {}
    for source, runs in store.items():
        earlier = runs.get(key, {})
        differing = sorted(op for op, d in first.items() if earlier.get(op) not in (None, d))
        if not differing:
            continue
        if source == mine:
            for r in passes[0].results:
                if r.op.name in differing:
                    r.problems.append(
                        "output differs from an earlier run of the same sources and seed"
                    )
        else:
            changed[source] = differing
    store.setdefault(mine, {})[key] = first
    store_path.write_text(json.dumps(store, indent=1, sort_keys=True))
    return changed


def _argv_value(argv: tuple[str, ...], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def per_layer(passes: list[Pass], workload: Workload, spans_path: Path) -> tuple[dict, list[str]]:
    """Median layer metrics over the traced passes, and accounting problems.

    Writes every traced pass's spans to ``spans_path`` on the way.
    """
    layers, problems = [], []
    with open(spans_path, "w") as fh:
        for k, p in enumerate(passes):
            if p.tracer is None:
                continue
            spans = p.tracer.spans
            metrics = layer_metrics(spans, p.tracer.counts)
            trace_bytes = sum(
                os.path.getsize(path) for r in p.results
                if (path := _argv_value(r.op.argv, "--trace")) is not None
            )
            metrics["cli.trace.bytes"] = float(trace_bytes)
            metrics["cli.trace.bytes_per_shot"] = (
                trace_bytes / workload.mc_shots if trace_bytes else 0.0
            )
            metrics["trace.unwrapped_s"] = p.wall - sum(s.seconds for s in spans if s.parent < 0)
            layers.append(metrics)
            problems += [f"pass {k}: {msg}" for msg in accounting_problems(spans, p.wall)]
            fh.writelines(
                json.dumps({"pass": k, "name": s.name, "start": s.start, "end": s.end,
                            "parent": s.parent}) + "\n"
                for s in spans
            )
    return {name: statistics.median(m[name] for m in layers) for name in layers[0]}, problems


def record(env: dict, summary: dict, passes: list[Pass], changed: dict) -> dict:
    return {
        "environment": env,
        **summary,
        "failed_ops_frac": summary["failed"] / summary["attempted"],
        "passes": [
            {
                "traced": p.tracer is not None,
                "wall_s": p.wall,
                "wall_norm": p.norm,
                "ops": [
                    {
                        "name": r.op.name,
                        "exit_code": r.exit_code,
                        "seconds": r.seconds,
                        "digest": r.digest,
                        "error_cells": r.error_cells,
                        "problems": r.problems,
                        "stderr": r.stderr[-2000:],
                    }
                    for r in p.results
                ],
            }
            for p in passes
        ],
        "digests_changed_vs_other_sources": changed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "gkprep" / "cli.py").is_file() or not spec_path.is_file():
        print(f"no gkprep sources under {SRC}, or no {spec_path.name}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64 or not args.seconds > 0:
        print("--seed must fit in 64 unsigned bits and --seconds be positive", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(SRC))

    workdir = OUT / "work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        env = environment(args)
        setup: list[float] = []

        def sample_setup() -> None:
            if len(setup) < SETUP_REPEATS:
                setup.append(import_seconds())

        if args.trace:
            measured = measure_import_split()
        else:
            measured = {}
            _child_python()  # compiles bytecode; users do not pay that on every call
        workload = WORKLOADS[args.workload](workdir, args.seed)
        passes = run_passes(
            workload, args.seconds, bool(args.trace),
            (lambda: None) if args.trace else sample_setup,
        )
        changed = check_determinism(passes, env)

        results = [r for p in passes for r in p.results]
        attempted, failed = len(results), sum(r.failed for r in results)
        correct = not any(r.problems for r in results)
        plain = [p.wall for p in passes[1:] if p.tracer is None]
        if args.trace:
            spans_path = OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            layers, problems = per_layer(passes, workload, spans_path)
            if problems:
                correct = False
                print(f"trace accounting: {problems[:5]}", file=sys.stderr)
            measured.update(layers)
            traced = [p.wall for p in passes if p.tracer is not None]
            measured["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
            measured["wall_s"] = statistics.median(plain)
            measured["mc_shots_per_s"] = workload.mc_shots / statistics.median(plain)
            measured["failed_ops_frac"] = failed / attempted
        else:
            while len(setup) < SETUP_REPEATS:
                sample_setup()
            measured["setup_s"] = statistics.median(setup)
            measured["wall_norm"] = statistics.median(
                p.norm for p in passes[1:] if p.tracer is None
            )
            measured["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        mismatch = {m["name"] for m in wanted} ^ set(measured)
        if mismatch:
            raise RuntimeError(f"measured metrics differ from BENCHMARK.json in {sorted(mismatch)}")
        summary = {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
        }
        with open(OUT / "records.jsonl", "a") as fh:
            fh.write(json.dumps(record(env, summary, passes, changed), sort_keys=True) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in dict.fromkeys(
        f"{r.op.name}: exit {r.exit_code}, {r.error_cells or r.problems or r.stderr.strip()[-300:]}"
        for r in results if r.failed
    ):
        print(line, file=sys.stderr)
    for source, ops in changed.items():
        print(f"outputs differ from those of source tree {source[:12]}: {ops}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
