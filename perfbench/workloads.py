"""The benchmark's four workloads and the checks on their outputs.

A workload is a fixed list of ``gkprep`` CLI invocations (ops), run in
order as one pass, plus a check that turns each op's outputs into a list
of problems.  Reference values come from the library before any pass.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# A Monte Carlo rate must sit within this many standard errors of the
# analytic route (at 1M shots a correct tally fails with p ~ 6e-5).
MC_SIGMAS = 4.0
# Factorized vs tensor oracle, the tolerance of acceptance criterion 03.
TENSOR_TOL = 1e-6
# Fig. 9 crossings: delta_nm / delta must fall in this range (criterion 07).
CROSSING_RATIO = (0.25, 0.5)
CROSSING_DELTAS = (0.3, 0.4, 0.5, 0.6)
CROSSING_PAIRS = ((5, 3), (7, 5), (9, 7))


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    outputs: tuple[Path, ...] = ()  # files or directories the op writes


@dataclass
class OpResult:
    op: Op
    exit_code: int | None  # None when main() raised
    stdout: str
    stderr: str
    seconds: float
    digest: str = ""
    error_cells: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or bool(self.error_cells) or bool(self.problems)


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    check: Callable[[dict[str, OpResult]], None]
    mc_shots: int = 0  # shots per pass, for mc_shots_per_s


def _files(path: Path) -> list[Path]:
    return sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]


def fingerprint(result: OpResult) -> str:
    """sha256 over the op's stdout and every byte of the files it wrote."""
    h = hashlib.sha256()
    h.update(result.stdout.encode())
    for out in result.op.outputs:
        for f in _files(out):
            h.update(f"\0{f.relative_to(out.parent)}\0".encode())
            with open(f, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
    return h.hexdigest()


def _payload(r: OpResult) -> dict | None:
    try:
        return json.loads(r.stdout)
    except json.JSONDecodeError:
        r.problems.append("stdout is not one JSON object")
        return None


def _check_tally(r: OpResult, expected: float, shots: int) -> dict | None:
    p = _payload(r)
    if p is None:
        return None
    if p["shots"] != shots or p["rate"] != p["failures"] / shots:
        r.problems.append(f"tally fields inconsistent: {p}")
    se = max(p["std_err"], math.sqrt(expected * (1.0 - expected) / shots))
    sigma = abs(p["rate"] - expected) / se
    if not sigma <= MC_SIGMAS:
        r.problems.append(
            f"MC rate {p['rate']} is {sigma:.2f} SE from the analytic {expected}"
        )
    return p


def _check_unit_interval(r: OpResult, label: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        r.problems.append(f"{label} = {value} outside [0, 1]")


def _check_sweep_csv(r: OpResult, path: Path, rows: int) -> None:
    if not path.is_file():
        r.problems.append(f"missing {path.name}")
        return
    with open(path, newline="") as fh:
        table = list(csv.DictReader(fh))
    if len(table) != rows:
        r.problems.append(f"{path.name}: {len(table)} rows, expected {rows}")
    for i, row in enumerate(table):
        if row["status"].startswith("error:"):
            r.error_cells.append(f"{path.name}:{i}:{row['status']}")
        elif row["status"] != "ok":
            r.problems.append(f"{path.name}:{i}: status {row['status']!r}")
        else:
            _check_unit_interval(r, f"{path.name}:{i}", float(row["value"]))


def _exited_nonzero(r: OpResult) -> bool:
    """Such an op has already failed and left nothing to check."""
    return r.exit_code != 0


def mc_tally(workdir: Path, seed: int) -> Workload:
    from gkprep import NoiseParams, failure_rate

    shots = 1_000_000
    expected = failure_rate(9, NoiseParams(0.5, 0.2)).total
    op = Op("mc", (
        "mc", "--n", "9", "--delta", "0.5", "--delta-tilde", "0.2",
        "--shots", str(shots), "--workers", "2", "--seed", str(seed),
    ))

    def check(results: dict[str, OpResult]) -> None:
        r = results["mc"]
        if not _exited_nonzero(r):
            _check_tally(r, expected, shots)

    return Workload((op,), check, mc_shots=shots)


def mc_trace(workdir: Path, seed: int) -> Workload:
    from gkprep import NoiseParams, overall_failure_biased

    shots = 50_000
    trace = workdir / "mc-trace.jsonl"
    expected = overall_failure_biased(3, NoiseParams(0.5, 0.2, r=1.5))
    op = Op("mc-trace", (
        "mc", "--n", "3", "--mode", "biased", "--r", "1.5", "--delta", "0.5",
        "--delta-tilde", "0.2", "--shots", str(shots), "--seed", str(seed),
        "--trace", str(trace),
    ), (trace,))

    def check(results: dict[str, OpResult]) -> None:
        r = results["mc-trace"]
        if _exited_nonzero(r):
            return
        p = _check_tally(r, expected, shots)
        lines = failed = 0
        with open(trace) as fh:
            for line in fh:
                lines += 1
                failed += (
                    '"position_failed": true' in line or '"momentum_failed": true' in line
                )
        if lines != shots:
            r.problems.append(f"trace has {lines} records for {shots} shots")
        if p is not None and failed != p["failures"]:
            r.problems.append(f"trace has {failed} failed shots, tally {p['failures']}")

    return Workload((op,), check, mc_shots=shots)


def analytic_curves(workdir: Path, seed: int) -> Workload:
    from gkprep import NoiseParams, failure_rate, read_binary_grid

    fig10, fig1 = workdir / "fig10", workdir / "fig1"
    params = NoiseParams(0.5, 0.3)
    tensor_nodes = {3: 64, 5: 24}
    factorized = {n: failure_rate(n, params).total for n in tensor_nodes}
    ops = [
        Op("fig10", ("figure", "--id", "fig10", "--outdir", str(fig10)), (fig10,)),
        Op("fig1", ("figure", "--id", "fig1", "--outdir", str(fig1)), (fig1,)),
    ] + [
        Op(f"tensor-n{n}", (
            "rate", "--quantity", "pfrep", "--method", "tensor", "--n", str(n),
            "--nodes", str(nodes), "--delta", "0.5", "--delta-tilde", "0.3",
        ))
        for n, nodes in tensor_nodes.items()
    ]

    def check(results: dict[str, OpResult]) -> None:
        r = results["fig10"]
        if not _exited_nonzero(r):
            for kind in ("ec", "noec"):
                for n in (3, 5, 7, 9):
                    _check_sweep_csv(r, fig10 / f"fig10_{kind}_n{n}.csv", 30)
        r = results["fig1"]
        if not _exited_nonzero(r):
            for tag in ("r1", "rsqrt2"):
                with open(fig1 / f"fig1_{tag}.csv", newline="") as fh:
                    values = np.array([float(row["value"]) for row in csv.DictReader(fh)])
                grid = read_binary_grid(str(fig1 / f"fig1_{tag}.bin")).values
                if grid.shape != (129, 129):
                    r.problems.append(f"fig1_{tag}.bin has shape {grid.shape}")
                elif not np.array_equal(grid.ravel().view(np.uint64), values.view(np.uint64)):
                    r.problems.append(f"fig1_{tag}.bin does not match its CSV bit for bit")
        for n in tensor_nodes:
            r = results[f"tensor-n{n}"]
            if _exited_nonzero(r) or (p := _payload(r)) is None:
                continue
            _check_unit_interval(r, f"tensor n={n}", p["value"])
            gap = abs(p["value"] - factorized[n])
            if not gap <= TENSOR_TOL:
                r.problems.append(f"tensor n={n} differs from factorized by {gap:.3g}")

    return Workload(tuple(ops), check)


def crossings(workdir: Path, seed: int) -> Workload:
    from gkprep import NoiseParams, overall_failure_biased

    ops = []
    for delta in CROSSING_DELTAS:
        for n, m in CROSSING_PAIRS:
            spec = workdir / f"crossing_d{delta}_{n}{m}.json"
            spec.write_text(json.dumps({"schema_version": 1, "crossing": {
                "delta": delta, "left_size": n, "right_size": m,
                "bracket": [0.15 * delta, 0.65 * delta],
            }}))
            ops.append(Op(f"crossing-d{delta}-{n}{m}", ("sweep", "--spec", str(spec))))
    spec = workdir / "optimal_bias.json"
    spec.write_text(json.dumps({"schema_version": 1, "optimal_bias": {
        "n": 5, "delta": 0.5, "delta_tilde": 0.1,
    }}))
    ops.append(Op("optimal-bias", ("sweep", "--spec", str(spec))))
    r_lo, r_hi = 1.0, 6.0  # the run file's default r_bracket
    edge_rates = [overall_failure_biased(5, NoiseParams(0.5, 0.1, r=r)) for r in (r_lo, r_hi)]

    def check(results: dict[str, OpResult]) -> None:
        for delta in CROSSING_DELTAS:
            found = {}
            for n, m in CROSSING_PAIRS:
                r = results[f"crossing-d{delta}-{n}{m}"]
                if _exited_nonzero(r) or (p := _payload(r)) is None:
                    continue
                if p["status"] != "found":
                    r.problems.append(f"status {p['status']!r}")
                    continue
                ratio = p["value"] / delta
                if not CROSSING_RATIO[0] <= ratio <= CROSSING_RATIO[1]:
                    r.problems.append(f"delta_nm/delta = {ratio:.4f} outside {CROSSING_RATIO}")
                found[(n, m)] = p["value"]
            if len(found) == len(CROSSING_PAIRS):
                ordered = [found[pair] for pair in reversed(CROSSING_PAIRS)]
                if not all(a < b for a, b in zip(ordered, ordered[1:])):
                    for n, m in CROSSING_PAIRS:
                        results[f"crossing-d{delta}-{n}{m}"].problems.append(
                            f"crossings at delta={delta} not ordered 97 < 75 < 53: {found}"
                        )
        r = results["optimal-bias"]
        if _exited_nonzero(r) or (p := _payload(r)) is None:
            return
        if not (p["unimodal"] and p["interior"] and r_lo <= p["r_opt"] <= r_hi):
            r.problems.append(f"optimum not an interior unimodal minimum: {p}")
        _check_unit_interval(r, "p_min", p["p_min"])
        if not p["p_min"] <= min(edge_rates):
            r.problems.append(f"p_min {p['p_min']} above a bracket edge rate {edge_rates}")

    return Workload(tuple(ops), check)


WORKLOADS: dict[str, Callable[[Path, int], Workload]] = {
    "mc-tally": mc_tally,
    "mc-trace": mc_trace,
    "analytic-curves": analytic_curves,
    "crossings": crossings,
}
