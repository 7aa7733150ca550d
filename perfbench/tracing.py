"""Layer spans for the traced benchmark run, recorded from outside gkprep.

The tracer replaces gkprep's public functions with timing wrappers at the
module attribute where their callers look them up (``gkprep.cli.run_tally``,
``gkprep.montecarlo.normal_draws``, ...), runs a pass, and puts every
original back.  No line of ``src/gkprep`` knows about it.  Spans stay in
memory as (name, start, end, parent) until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _cfg_method(args: tuple, kwargs: dict) -> str:
    cfg = kwargs.get("cfg", args[2] if len(args) > 2 else None)
    return getattr(cfg, "method", "factorized")


def _rate_name(base: str) -> Callable[[tuple, dict], str]:
    # tensor-oracle calls get their own span so the factorized self time
    # (erf windows, block contraction, refine) is not mixed with them
    return lambda args, kwargs: (
        "repetition.tensor" if _cfg_method(args, kwargs) == "tensor" else base
    )


def _count_points(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["quadrature.cell_nodes.points"] += len(result[0])


def _count_cells(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["analysis.run_sweep.cells"] += len(result.rows)
    tracer.counts["analysis.run_sweep.cells_failed"] += sum(
        1 for row in result.rows if str(row[-1]).startswith("error:")
    )


def _count_export_bytes(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    # cli passes (grid, path) positionally
    tracer.counts["wigner.export.bytes"] += os.path.getsize(args[1])


def _trace_callback(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    callback = kwargs.get("trace")
    if callback is not None:
        kwargs["trace"] = tracer.wrap(callback, "cli.trace")


# (module or "module:Class", attribute, span name or namer, after-call hook)
# Every lookup site of a function is listed: cli, analysis and repetition
# each bind their own name for failure_rate, so each must be wrapped.
SPAN_SITES: tuple[tuple[str, str, Any, Any], ...] = (
    ("gkprep.cli", "main", "cli.main", None),
    ("gkprep.cli", "run_tally", "montecarlo.run_tally", None),
    ("gkprep.montecarlo", "normal_draws", "montecarlo.normal_draws", None),
    ("gkprep.montecarlo", "uniform_draws", "montecarlo.uniform_draws", None),
    ("gkprep.montecarlo", "nearest_multiple_offset_array",
     "lattice.nearest_multiple_offset_array", None),
    ("gkprep.montecarlo", "is_pauli_zone", "lattice.is_pauli_zone", None),
    ("gkprep.montecarlo", "decode_syndrome_bits", "montecarlo.decode_syndrome_bits", None),
    ("gkprep.repetition", "peaked_cell_nodes", "quadrature.cell_nodes", _count_points),
    ("gkprep.repetition", "smooth_cell_nodes", "quadrature.cell_nodes", _count_points),
    ("gkprep.distributions", "peaked_cell_nodes", "quadrature.cell_nodes", _count_points),
    ("gkprep.distributions:ResidualDistribution", "density",
     "distributions.residual_density", None),
    ("gkprep.repetition", "pauli_rate_physical", "distributions.pauli_rate", None),
    ("gkprep.repetition", "pauli_rate_ideal", "distributions.pauli_rate", None),
    ("gkprep.analysis", "pauli_rate_physical", "distributions.pauli_rate", None),
    ("gkprep.analysis", "pauli_rate_ideal", "distributions.pauli_rate", None),
    ("gkprep.cli", "pauli_rate_ideal", "distributions.pauli_rate", None),
    ("gkprep.cli", "pauli_rate_physical_report", "distributions.pauli_rate", None),
    ("gkprep.repetition", "gaussian_window_overlap", "quadrature.gaussian_window_overlap", None),
    ("gkprep.cli", "failure_rate", _rate_name("repetition.failure_rate"), None),
    ("gkprep.analysis", "failure_rate", _rate_name("repetition.failure_rate"), None),
    ("gkprep.repetition", "failure_rate", _rate_name("repetition.failure_rate"), None),
    ("gkprep.cli", "failure_rate_no_gkp_ec",
     _rate_name("repetition.failure_rate_no_gkp_ec"), None),
    ("gkprep.analysis", "failure_rate_no_gkp_ec",
     _rate_name("repetition.failure_rate_no_gkp_ec"), None),
    ("gkprep.cli", "overall_failure_biased", "repetition.overall_failure_biased", None),
    ("gkprep.analysis", "overall_failure_biased", "repetition.overall_failure_biased", None),
    ("gkprep.cli", "critical_ancilla_spread", "analysis.critical_ancilla_spread", None),
    ("gkprep.analysis", "critical_ancilla_spread", "analysis.critical_ancilla_spread", None),
    ("gkprep.cli", "optimal_bias", "analysis.optimal_bias", None),
    ("gkprep.analysis", "optimal_bias", "analysis.optimal_bias", None),
    ("gkprep.cli", "run_sweep", "analysis.run_sweep", _count_cells),
    ("gkprep.cli", "wigner_physical_zero", "wigner.wigner_physical_zero", None),
    ("gkprep.cli", "grid_to_csv", "wigner.export", _count_export_bytes),
    ("gkprep.cli", "grid_to_binary", "wigner.export", _count_export_bytes),
)

# Wrapped for a call count only: a span here would move run_tally's self
# time (column stacking, failure logic, tally) into a private helper.
COUNT_SITES: tuple[tuple[str, str, str], ...] = (
    ("gkprep.montecarlo", "_simulate", "montecarlo.chunks"),
)

# Hooks that rewrite a call's arguments before it runs.
BEFORE_CALL: dict[str, Callable[[Tracer, tuple, dict], None]] = {
    "montecarlo.run_tally": _trace_callback,
}


def _owner(path: str) -> Any:
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Collects spans and counts while installed; inert once uninstalled."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def wrap(
        self,
        fn: Callable,
        name: str | Callable[[tuple, dict], str],
        after: Callable[[Tracer, tuple, dict, Any], None] | None = None,
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            before = BEFORE_CALL.get(span_name)
            if before is not None:
                before(tracer, args, kwargs)
            span = Span(span_name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def _count(self, fn: Callable, key: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for path, attr, name, after in SPAN_SITES:
            owner = _owner(path)
            self._patch(owner, attr, self.wrap(vars(owner)[attr], name, after))
        for path, attr, key in COUNT_SITES:
            owner = _owner(path)
            self._patch(owner, attr, self._count(vars(owner)[attr], key))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.seconds
    return own


def accounting_problems(spans: list[Span], wall: float) -> list[str]:
    """Check that self times plus the un-wrapped remainder make up ``wall``.

    Children must nest inside their parents, no self time may be negative,
    and the root spans may not outlast the pass that contains them.
    """
    problems = []
    eps = 1e-6
    for i, s in enumerate(spans):
        if s.end < s.start:
            problems.append(f"span {i} {s.name} ends before it starts")
        if s.parent >= 0:
            p = spans[s.parent]
            if s.start < p.start or s.end > p.end:
                problems.append(f"span {i} {s.name} escapes its parent {p.name}")
    own = self_seconds(spans)
    if own and min(own) < -eps:
        problems.append(f"negative self time {min(own):.3g} s")
    roots = sum(s.seconds for s in spans if s.parent < 0)
    remainder = wall - roots
    if remainder < -eps:
        problems.append(f"root spans ({roots:.6f} s) exceed the pass wall time ({wall:.6f} s)")
    if abs(sum(own) + remainder - wall) > eps * max(1.0, wall):
        problems.append("self times plus remainder do not add up to the wall time")
    return problems


def _outermost_seconds(spans: list[Span], name: str) -> float:
    """Summed time of the spans called ``name`` that have no such ancestor."""
    total = 0.0
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p >= 0 and spans[p].name != name:
            p = spans[p].parent
        if p < 0:
            total += s.seconds
    return total


def layer_metrics(spans: list[Span], counts: Counter[str]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in s, counts as numbers)."""
    own = self_seconds(spans)
    self_by_name: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    for s, t in zip(spans, own):
        self_by_name[s.name] += t
        calls[s.name] += 1

    def total(name: str) -> float:
        return _outermost_seconds(spans, name)

    def children(parent_name: str, child_names: set[str]) -> int:
        return sum(
            1 for s in spans
            if s.parent >= 0 and spans[s.parent].name == parent_name and s.name in child_names
        )

    crossings = calls["analysis.critical_ancilla_spread"]
    crossing_evals = children(
        "analysis.critical_ancilla_spread",
        {"repetition.failure_rate", "distributions.pauli_rate"},
    )
    metrics = {
        "montecarlo.uniform_draws.s": total("montecarlo.uniform_draws"),
        "montecarlo.normal_draws.self_s": self_by_name["montecarlo.normal_draws"],
        "lattice.nearest_multiple_offset_array.s": total("lattice.nearest_multiple_offset_array"),
        "lattice.is_pauli_zone.s": total("lattice.is_pauli_zone"),
        "montecarlo.decode_syndrome_bits.s": total("montecarlo.decode_syndrome_bits"),
        "montecarlo.run_tally.self_s": self_by_name["montecarlo.run_tally"],
        "montecarlo.draw_calls": calls["montecarlo.normal_draws"],
        "montecarlo.chunks": counts["montecarlo.chunks"],
        "cli.trace.s": total("cli.trace"),
        "quadrature.cell_nodes.s": total("quadrature.cell_nodes"),
        "quadrature.cell_nodes.points": counts["quadrature.cell_nodes.points"],
        "distributions.residual_density.s": total("distributions.residual_density"),
        "distributions.pauli_rate.s": total("distributions.pauli_rate"),
        "repetition.failure_rate.self_s": self_by_name["repetition.failure_rate"],
        "repetition.rate_calls": (
            calls["repetition.failure_rate"]
            + calls["repetition.failure_rate_no_gkp_ec"]
            + calls["repetition.tensor"]
        ),
        "quadrature.gaussian_window_overlap.s": total("quadrature.gaussian_window_overlap"),
        "repetition.failure_rate_no_gkp_ec.self_s": self_by_name["repetition.failure_rate_no_gkp_ec"],
        "repetition.tensor.s": total("repetition.tensor"),
        "analysis.critical_ancilla_spread.self_s": self_by_name["analysis.critical_ancilla_spread"],
        "analysis.crossing.rate_evals": crossing_evals / crossings if crossings else 0.0,
        "analysis.optimal_bias.self_s": self_by_name["analysis.optimal_bias"],
        "analysis.optimal_bias.evals": children(
            "analysis.optimal_bias", {"repetition.overall_failure_biased"}
        ),
        "analysis.run_sweep.self_s": self_by_name["analysis.run_sweep"],
        "analysis.run_sweep.cells": counts["analysis.run_sweep.cells"],
        "analysis.run_sweep.cells_failed": counts["analysis.run_sweep.cells_failed"],
        "wigner.wigner_physical_zero.s": total("wigner.wigner_physical_zero"),
        "wigner.export.s": total("wigner.export"),
        "wigner.export.bytes": counts["wigner.export.bytes"],
        "cli.main.self_s": self_by_name["cli.main"],
    }
    return {name: float(value) for name, value in metrics.items()}
