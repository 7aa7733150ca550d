"""Derived quantities: curve crossings, optimal bias levels, parameter sweeps.

Root finding and minimization deliberately use bracketed bisection and
golden-section search: every objective evaluation is a quadrature, so
robustness beats convergence order.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable

from .distributions import NoiseParams, pauli_rate_ideal, pauli_rate_physical_report
from .repetition import (
    DEFAULT_QUADRATURE,
    FailureBreakdown,
    QuadratureConfig,
    _shared_pauli_rate,
    failure_rate,
    failure_rate_no_gkp_ec,
    overall_failure_biased,
    shared_engines,
)
from .wigner import GkpEnvelope, wigner_point

# Not called here; bound so that perfbench/tracing.py can wrap this lookup site.
from .distributions import pauli_rate_physical  # noqa: F401


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
        if not (0.0 < lo < hi):
            raise ValueError("bracket must satisfy 0 < lo < hi")
        if not (self.tol > 0.0):
            raise ValueError("tol must be positive")


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
        return lambda dt: _shared_pauli_rate(NoiseParams(delta, dt))
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


def optimal_bias(
    n: int,
    delta: float,
    delta_tilde: float,
    r_bracket: tuple[float, float] = (1.0, 6.0),
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    rel_tol: float = 1e-3,
    scan_points: int = 20,
) -> OptimalBias:
    """Bias level minimizing the overall failure rate, by golden section.

    A coarse scan checks the profile is unimodal; a non-unimodal scan falls
    back to grid refinement around the best scan point and flags the result.
    """
    lo, hi = r_bracket
    if not (0.0 < lo < hi):
        raise ValueError("r_bracket must satisfy 0 < lo < hi")

    def objective(r: float) -> float:
        return overall_failure_biased(n, NoiseParams(delta, delta_tilde, r=r), cfg)

    rs = [lo + (hi - lo) * i / (scan_points - 1) for i in range(scan_points)]
    vals = [objective(r) for r in rs]
    k = min(range(scan_points), key=vals.__getitem__)
    drops = sum(
        1 for i in range(1, scan_points - 1) if vals[i] < vals[i - 1] and vals[i] < vals[i + 1]
    )
    unimodal = drops <= 1

    if not unimodal:
        a = rs[max(k - 1, 0)]
        b = rs[min(k + 1, scan_points - 1)]
        for _ in range(6):
            grid = [a + (b - a) * i / 9.0 for i in range(10)]
            gvals = [objective(r) for r in grid]
            gk = min(range(10), key=gvals.__getitem__)
            a = grid[max(gk - 1, 0)]
            b = grid[min(gk + 1, 9)]
        r_opt = 0.5 * (a + b)
        return OptimalBias(r_opt, objective(r_opt), False, k not in (0, scan_points - 1))

    a = rs[max(k - 1, 0)]
    b = rs[min(k + 1, scan_points - 1)]
    c = b - _GOLDEN_RATIO * (b - a)
    d = a + _GOLDEN_RATIO * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > rel_tol * max(abs(a), 1.0):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN_RATIO * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN_RATIO * (b - a)
            fd = objective(d)
    r_opt = 0.5 * (a + b)
    return OptimalBias(
        r_opt, objective(r_opt), True, k not in (0, scan_points - 1)
    )


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


@dataclass(frozen=True)
class CurveTable:
    columns: tuple[str, ...]
    rows: tuple[tuple[Any, ...], ...]

    def to_csv(self, path_or_buf) -> None:
        """17-significant-digit CSV; schema: param...,value,std_err,status."""
        own = isinstance(path_or_buf, (str, bytes))
        handle = open(path_or_buf, "w", newline="") if own else path_or_buf
        try:
            writer = csv.writer(handle)
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow(
                    [f"{v:.17g}" if isinstance(v, float) else v for v in row]
                )
        finally:
            if own:
                handle.close()

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


@dataclass(frozen=True)
class Quantity:
    """A computed quantity: its parameters and its evaluator.

    ``params`` are the parameter names in ``gkprep rate --out`` column order.
    ``evaluate(point, cfg)`` returns the value and the detail fields that
    ``gkprep rate`` prints beside it.
    """

    params: tuple[str, ...]
    evaluate: Callable[[dict[str, Any], QuadratureConfig], tuple[float, dict]]


# The evaluators look each rate function up as a module global at call time,
# so a caller that rebinds one here (a profiler, a test) sees it used.
def _px(p: dict[str, Any], cfg: QuadratureConfig) -> tuple[float, dict]:
    return pauli_rate_ideal(p["delta"]), {}


def _pf(p: dict[str, Any], cfg: QuadratureConfig) -> tuple[float, dict]:
    report = pauli_rate_physical_report(NoiseParams(p["delta"], p["delta_tilde"]))
    return report["value"], {
        "two_cell": report["two_cell"],
        "two_cell_difference": report["difference"],
    }


def _rep_code(rate: Callable[..., FailureBreakdown], p: dict[str, Any],
              cfg: QuadratureConfig) -> tuple[float, dict]:
    breakdown = rate(p["n"], NoiseParams(p["delta"], p["delta_tilde"]), cfg)
    return breakdown.total, {"breakdown": dict(breakdown.per_case)}


def _pfail(p: dict[str, Any], cfg: QuadratureConfig) -> tuple[float, dict]:
    params = NoiseParams(p["delta"], p.get("delta_tilde", 0.0), r=p.get("r", 1.0))
    return overall_failure_biased(p["n"], params, cfg), {}


def _delta_nm(p: dict[str, Any], cfg: QuadratureConfig) -> tuple[float, dict]:
    query = CrossingQuery(
        delta=p["delta"],
        left_size=p["n"],
        right_size=p["m"],
        bracket=(p.get("bracket_lo", 0.02), p.get("bracket_hi", 0.8)),
        tol=p.get("tol", 1e-4),
    )
    result = critical_ancilla_spread(query, cfg)
    if result.status != "found":
        raise RuntimeError(f"no crossing for {p}")
    return float(result.value), {}


def _r_opt(p: dict[str, Any], cfg: QuadratureConfig) -> tuple[float, dict]:
    opt = optimal_bias(
        p["n"],
        p["delta"],
        p.get("delta_tilde", 0.0),
        (p.get("r_lo", 1.0), p.get("r_hi", 6.0)),
        cfg,
    )
    return opt.r_opt, {}


def _wigner_grid(p: dict[str, Any], cfg: QuadratureConfig) -> tuple[float, dict]:
    envelope = GkpEnvelope(delta=p["delta"], kappa=p["kappa"])
    return wigner_point(envelope, p["q"], p["p"]), {}


QUANTITIES: dict[str, Quantity] = {
    "px": Quantity(("delta",), _px),
    "pf": Quantity(("delta", "delta_tilde"), _pf),
    "pfrep": Quantity(
        ("delta", "delta_tilde", "n"), lambda p, cfg: _rep_code(failure_rate, p, cfg)
    ),
    "pfrep_noec": Quantity(
        ("delta", "delta_tilde", "n"), lambda p, cfg: _rep_code(failure_rate_no_gkp_ec, p, cfg)
    ),
    "pfail": Quantity(("delta", "delta_tilde", "n", "r"), _pfail),
    "delta_nm": Quantity(("delta", "n", "m"), _delta_nm),
    "r_opt": Quantity(("delta", "delta_tilde", "n"), _r_opt),
    "wigner_grid": Quantity(("delta", "kappa", "q", "p"), _wigner_grid),
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
            value, _ = QUANTITIES[spec.quantity].evaluate(point, cfg)
            row = list(combo) + [spec.fixed[k] for k in fixed_names] + [value, "", "ok"]
        except Exception as exc:  # noqa: BLE001 - cell failures stay in-row
            row = list(combo) + [spec.fixed[k] for k in fixed_names] + ["", "", f"error:{type(exc).__name__}"]
        rows.append(tuple(row))
    return CurveTable(columns=columns, rows=tuple(rows))
