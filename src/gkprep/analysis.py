"""Derived quantities: curve crossings, optimal bias levels, parameter sweeps.

Root finding and minimization deliberately use bracketed bisection and
golden-section search: every objective evaluation is a quadrature, so
robustness beats convergence order.
"""

from __future__ import annotations

import csv
import inspect
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable

from .distributions import NoiseParams, _require_positive, _require_real, pauli_rate_ideal
from .repetition import (
    DEFAULT_QUADRATURE,
    FailureBreakdown,
    QuadratureConfig,
    failure_rate,
    failure_rate_no_gkp_ec,
    overall_failure_biased,
    pauli_rate_physical,
    pauli_rate_physical_report,
    shared_engines,
)
from .wigner import GkpEnvelope, wigner_point


class AmbiguousCrossingError(RuntimeError):
    """The rate difference changes sign more than once on the bracket."""


@dataclass(frozen=True)
class CrossingQuery:
    """Find the ancilla spread where two rate curves intersect at fixed delta.

    ``left_size`` is either ``"single"`` (the one-round GKP EC curve) or a
    code size; ``right_size`` is a code size.  The bracket must straddle
    exactly one sign change of (left - right).
    """

    delta: float
    left_size: int | str
    right_size: int
    bracket: tuple[float, float] = (0.05, 0.6)
    tol: float = 1e-4

    def __post_init__(self) -> None:
        object.__setattr__(self, "bracket", tuple(self.bracket))
        lo, hi = self.bracket
        _require_positive(delta=self.delta, tol=self.tol)
        _require_real(bracket_low=lo, bracket_high=hi)
        if not (0.0 < lo < hi):
            raise ValueError("bracket must satisfy 0 < lo < hi")


@dataclass(frozen=True)
class CrossingResult:
    status: str  # "found" or "no_crossing"
    value: float | None
    samples: tuple[tuple[float, float], ...] = ()


@dataclass(frozen=True)
class OptimalBias:
    r_opt: float
    p_min: float
    unimodal: bool
    interior: bool


def _rate_curve(
    size: int | str, delta: float, cfg: QuadratureConfig
) -> Callable[[float], float]:
    if size == "single":
        return lambda dt: pauli_rate_physical(NoiseParams(delta, dt), cfg)
    return lambda dt: failure_rate(size, NoiseParams(delta, dt), cfg).total


@shared_engines()
def critical_ancilla_spread(
    q: CrossingQuery, cfg: QuadratureConfig = DEFAULT_QUADRATURE
) -> CrossingResult:
    """Ancilla spread where the two curves of ``q`` cross, by bisection.

    Samples 8 interior points first: no sign change is reported as a
    no-crossing result, more than one sign change raises
    :class:`AmbiguousCrossingError` with the samples attached.  Both curves
    share each sampled point's engines.
    """
    left = _rate_curve(q.left_size, q.delta, cfg)
    right = _rate_curve(q.right_size, q.delta, cfg)

    def diff(dt: float) -> float:
        return left(dt) - right(dt)

    lo, hi = q.bracket
    points = [lo + (hi - lo) * i / 9.0 for i in range(10)]
    samples = [(dt, diff(dt)) for dt in points]
    signs = [math.copysign(1.0, d) for _, d in samples if d != 0.0]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    if changes == 0:
        return CrossingResult("no_crossing", None, tuple(samples))
    if changes > 1:
        raise AmbiguousCrossingError(
            f"{changes} sign changes on bracket {q.bracket}: {samples}"
        )

    for (a, fa), (b, fb) in zip(samples, samples[1:]):
        if math.copysign(1.0, fa) != math.copysign(1.0, fb):
            lo, hi, flo = a, b, fa
            break
    for _ in range(30):
        if hi - lo <= q.tol:
            break
        mid = 0.5 * (lo + hi)
        fmid = diff(mid)
        if fmid == 0.0:
            return CrossingResult("found", mid, tuple(samples))
        if math.copysign(1.0, fmid) == math.copysign(1.0, flo):
            lo, flo = mid, fmid
        else:
            hi = mid
    return CrossingResult("found", 0.5 * (lo + hi), tuple(samples))


_GOLDEN_RATIO = (math.sqrt(5.0) - 1.0) / 2.0
# optimal_bias: points of the unimodality scan, and the golden-section stop
# relative to max(|r|, 1)
_SCAN_POINTS = 20
_REL_TOL = 1e-3


def optimal_bias(
    n: int,
    delta: float,
    delta_tilde: float,
    r_bracket: tuple[float, float] = (1.0, 6.0),
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> OptimalBias:
    """Bias level minimizing the overall failure rate, by golden section.

    A coarse scan of the bracket picks the best scan point; the golden section
    then runs between its two neighbours.  ``unimodal`` is False when the scan
    saw more than one local minimum: the result is then the minimum near the
    best scan point, which another dip between scan points could undercut.
    ``interior`` is False when the best scan point is a bracket end.
    """
    lo, hi = r_bracket
    _require_real(r_bracket_low=lo, r_bracket_high=hi)
    if not (0.0 < lo < hi):
        raise ValueError("r_bracket must satisfy 0 < lo < hi")

    def objective(r: float) -> float:
        return overall_failure_biased(n, NoiseParams(delta, delta_tilde, r=r), cfg)

    rs = [lo + (hi - lo) * i / (_SCAN_POINTS - 1) for i in range(_SCAN_POINTS)]
    vals = [objective(r) for r in rs]
    k = min(range(_SCAN_POINTS), key=vals.__getitem__)
    drops = sum(
        1 for i in range(1, _SCAN_POINTS - 1) if vals[i] < vals[i - 1] and vals[i] < vals[i + 1]
    )

    a = rs[max(k - 1, 0)]
    b = rs[min(k + 1, _SCAN_POINTS - 1)]
    c = b - _GOLDEN_RATIO * (b - a)
    d = a + _GOLDEN_RATIO * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > _REL_TOL * max(abs(a), 1.0):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN_RATIO * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN_RATIO * (b - a)
            fd = objective(d)
    r_opt = 0.5 * (a + b)
    return OptimalBias(r_opt, objective(r_opt), drops <= 1, k not in (0, _SCAN_POINTS - 1))


def check_fields(fn: Callable, names, what: str) -> None:
    """Raise ``ValueError`` naming the unknown or missing ``what`` among ``names``.

    Unknown: not a parameter of ``fn``; missing: a parameter of ``fn`` without
    default.  Positional-only parameters are not names.  This is the one rule
    for named inputs: run-file kinds, the ``engine`` block, sweep parameters.
    """
    params = [p for p in inspect.signature(fn).parameters.values() if p.kind != p.POSITIONAL_ONLY]
    unknown = set(names) - {p.name for p in params}
    if unknown:
        raise ValueError(f"unknown {what}: {sorted(unknown)}")
    missing = [p.name for p in params if p.default is p.empty and p.name not in names]
    if missing:
        raise ValueError(f"missing {what}: {missing}")


@dataclass(frozen=True)
class SweepSpec:
    """Declarative parameter sweep: a quantity, ordered axes, fixed bindings."""

    quantity: str
    axes: tuple[tuple[str, tuple[float, ...]], ...]
    fixed: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        axes = tuple((name, tuple(values)) for name, values in self.axes)
        object.__setattr__(self, "axes", axes)
        if self.quantity not in QUANTITIES:
            raise ValueError(
                f"unknown quantity {self.quantity!r}; expected one of {tuple(QUANTITIES)}"
            )
        if not self.axes:
            raise ValueError("at least one axis is required")
        if not isinstance(self.fixed, dict):
            raise ValueError("fixed must map parameter names to values")
        names = [name for name, _ in axes] + list(self.fixed)
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise ValueError(f"parameters named twice in axes and fixed: {repeated}")
        check_fields(QUANTITIES[self.quantity], names, f"{self.quantity} parameters")


@dataclass(frozen=True)
class CurveTable:
    columns: tuple[str, ...]
    rows: tuple[tuple[Any, ...], ...]

    def to_csv(self, path: str) -> None:
        """17-significant-digit CSV; schema: param...,value,std_err,status."""
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow(
                    [f"{v:.17g}" if isinstance(v, float) else v for v in row]
                )


# A quantity is a function ``fn(cfg, /, *, <params>)`` of a QuadratureConfig
# and its parameters, returning the value and the detail fields that ``gkprep
# rate`` prints beside it.  Its keyword-only parameters are the quantity's
# parameters, in ``gkprep rate --out`` column order; a default marks an
# optional one.  Each looks its rate function up as a module global at call
# time, so a caller that rebinds one here (a profiler, a test) sees it used.
def _px(cfg, /, *, delta) -> tuple[float, dict]:
    return pauli_rate_ideal(delta), {}


def _pf(cfg, /, *, delta, delta_tilde) -> tuple[float, dict]:
    report = pauli_rate_physical_report(NoiseParams(delta, delta_tilde), cfg)
    return report["value"], {
        "two_cell": report["two_cell"],
        "two_cell_difference": report["difference"],
    }


def _with_breakdown(breakdown: FailureBreakdown) -> tuple[float, dict]:
    return breakdown.total, {"breakdown": dict(breakdown.per_case)}


def _pfrep(cfg, /, *, delta, delta_tilde, n) -> tuple[float, dict]:
    return _with_breakdown(failure_rate(n, NoiseParams(delta, delta_tilde), cfg))


def _pfrep_noec(cfg, /, *, delta, delta_tilde, n) -> tuple[float, dict]:
    return _with_breakdown(failure_rate_no_gkp_ec(n, NoiseParams(delta, delta_tilde), cfg))


def _pfail(cfg, /, *, delta, delta_tilde=0.0, n, r=1.0) -> tuple[float, dict]:
    return overall_failure_biased(n, NoiseParams(delta, delta_tilde, r=r), cfg), {}


def _delta_nm(cfg, /, *, delta, n, m, bracket_lo=0.02, bracket_hi=0.8,
              tol=1e-4) -> tuple[float, dict]:
    query = CrossingQuery(delta, n, m, (bracket_lo, bracket_hi), tol)
    result = critical_ancilla_spread(query, cfg)
    if result.status != "found":
        raise RuntimeError(f"no crossing on ({bracket_lo}, {bracket_hi})")
    return float(result.value), {}


def _r_opt(cfg, /, *, delta, delta_tilde=0.0, n, r_lo=1.0, r_hi=6.0) -> tuple[float, dict]:
    return optimal_bias(n, delta, delta_tilde, (r_lo, r_hi), cfg).r_opt, {}


def _wigner_grid(cfg, /, *, delta, kappa, q, p) -> tuple[float, dict]:
    return wigner_point(GkpEnvelope(delta=delta, kappa=kappa), q, p), {}


QUANTITIES: dict[str, Callable[..., tuple[float, dict]]] = {
    "px": _px,
    "pf": _pf,
    "pfrep": _pfrep,
    "pfrep_noec": _pfrep_noec,
    "pfail": _pfail,
    "delta_nm": _delta_nm,
    "r_opt": _r_opt,
    "wigner_grid": _wigner_grid,
}


def run_sweep(
    spec: SweepSpec, cfg: QuadratureConfig = DEFAULT_QUADRATURE
) -> CurveTable:
    """Evaluate the Cartesian product of the axes in lexicographic order.

    Failed cells are recorded in-row under ``status`` and the sweep
    continues; output is deterministic for a fixed spec.
    """
    axis_names = [name for name, _ in spec.axes]
    fixed_names = sorted(spec.fixed)
    columns = tuple(axis_names + fixed_names + ["value", "std_err", "status"])
    rows = []
    for combo in itertools.product(*(values for _, values in spec.axes)):
        point = dict(zip(axis_names, combo))
        point.update(spec.fixed)
        try:
            value, _ = QUANTITIES[spec.quantity](cfg, **point)
            cells = (value, "", "ok")
        except Exception as exc:  # noqa: BLE001 - cell failures stay in-row
            cells = ("", "", f"error:{type(exc).__name__}")
        rows.append((*combo, *(spec.fixed[k] for k in fixed_names), *cells))
    return CurveTable(columns=columns, rows=tuple(rows))
