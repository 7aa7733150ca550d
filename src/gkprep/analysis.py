"""Derived quantities: curve crossings, optimal bias levels, parameter sweeps.

Root finding stays bracketed: a crossing search scans its bracket, then
narrows the scan's sign change by ITP, which never needs more evaluations
than bisection plus one and needs fewer on smooth curves.  Minimization uses
golden-section search.  Every objective evaluation is a quadrature, so
a guaranteed bracket matters more than convergence order.
"""

from __future__ import annotations

import csv
import inspect
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any, Callable

from .distributions import NoiseParams, _require_positive, _require_real, pauli_rate_ideal
from .repetition import (
    DEFAULT_QUADRATURE,
    FailureBreakdown,
    QuadratureConfig,
    _as_size,
    failure_rate,
    failure_rate_no_gkp_ec,
    overall_failure_biased,
    pauli_rate_physical,
    pauli_rate_physical_report,
    prime_engines,
    shared_engines,
    stretch,
)
from .wigner import GkpEnvelope, wigner_point


class AmbiguousCrossingError(RuntimeError):
    """The rate difference changes sign more than once on the bracket."""


@dataclass(frozen=True)
class CrossingQuery:
    """Find the ancilla spread where two rate curves intersect at fixed delta.

    Each of ``left_size`` and ``right_size`` is either ``"single"`` (the
    one-round GKP EC curve, P_F) or a code size by :class:`CodeSize`'s rule,
    stored as ``int``; the two must differ.  Any other value raises
    ``ValueError``.  The bracket must straddle exactly one sign change of
    (left - right).
    """

    delta: float
    left_size: int | str
    right_size: int | str
    bracket: tuple[float, float] = (0.05, 0.6)
    tol: float = 1e-4

    def __post_init__(self) -> None:
        for name in ("left_size", "right_size"):
            size = getattr(self, name)
            if size != "single":
                object.__setattr__(self, name, _as_size(size).n)
        if self.left_size == self.right_size:
            raise ValueError(f"left_size and right_size must differ, both are {self.left_size!r}")
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
        check_method("pf", cfg)
        return lambda dt: pauli_rate_physical(NoiseParams(delta, dt), cfg)
    return lambda dt: failure_rate(size, NoiseParams(delta, dt), cfg).total


# ITP constants (Oliveira & Takahashi, ACM TOMS 47(1), 2020): the truncation
# step is _ITP_KAPPA1 * (b - a)**2 / w, w the width of the scan's bracket
# (kappa1 = 0.2 / w, kappa2 = 2), and the search may make _ITP_N0 more
# evaluations than bisection would.
_ITP_KAPPA1 = 0.2
_ITP_N0 = 1


def _interpolant(left: float, right: float) -> float:
    """The value ITP interpolates: log(left) - log(right), or left - right.

    The log form needs both rates positive and finite.  Either form changes
    sign with left - right and is negated exactly when the sides swap.
    """
    if 0.0 < left < math.inf and 0.0 < right < math.inf:
        return math.log(left) - math.log(right)
    return left - right


@shared_engines()
def critical_ancilla_spread(
    q: CrossingQuery, cfg: QuadratureConfig = DEFAULT_QUADRATURE
) -> CrossingResult:
    """Ancilla spread where the two curves of ``q`` cross, by ITP after a scan.

    Scans 10 evenly spaced points first, both bracket ends included: no sign
    change is reported as a no-crossing result, more than one sign change
    raises :class:`AmbiguousCrossingError` with the samples attached.  The
    scan's coarse and fine engines are built as one batch before its first
    rate (:func:`~gkprep.repetition.prime_engines`), and each code size's
    per-case values in one pass over them; each ITP step does the same for
    its one point.  So both curves share each point's engines, full ones
    even for a ``"single"`` curve.  ITP (interpolate, truncate, project)
    then narrows the two scan points that straddle the sign change until
    they are at most ``q.tol`` apart, or adjacent floats, and returns their
    midpoint, within ``q.tol / 2`` of the sign change; a point where left ==
    right exactly is returned as it is.  ITP interpolates
    :func:`_interpolant`, decides each side by the sign of left - right, and
    makes at most ceil(log2(w / tol)) + 1 evaluations on a scan interval of
    width w, one more than bisection.  A ``"single"`` curve by the tensor
    method raises ``ValueError`` before any rate (:func:`check_method`).
    """
    left = _rate_curve(q.left_size, q.delta, cfg)
    right = _rate_curve(q.right_size, q.delta, cfg)

    def prime(dts: list[float]) -> None:
        """Build the engines both curves take at ``dts``, full ones, in one batch."""
        prime_engines([(NoiseParams(q.delta, dt), None if size == "single" else size)
                       for dt in dts for size in (q.left_size, q.right_size)], cfg)

    lo, hi = q.bracket
    points = [lo + (hi - lo) * i / 9.0 for i in range(10)]
    prime(points)
    rates = [(left(dt), right(dt)) for dt in points]
    samples = [(dt, l - r) for dt, (l, r) in zip(points, rates)]
    signs = [math.copysign(1.0, d) for _, d in samples if d != 0.0]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    if changes == 0:
        return CrossingResult("no_crossing", None, tuple(samples))
    if changes > 1:
        raise AmbiguousCrossingError(
            f"{changes} sign changes on bracket {q.bracket}: {samples}"
        )

    i = next(
        i for i in range(9)
        if math.copysign(1.0, samples[i][1]) != math.copysign(1.0, samples[i + 1][1])
    )
    a, b = points[i], points[i + 1]
    ya, yb = _interpolant(*rates[i]), _interpolant(*rates[i + 1])
    side_a = math.copysign(1.0, samples[i][1])
    width = b - a
    # the budget counts no halvings past the float spacing, which no step can
    # narrow (so 2**budget stays finite at any tol), and its brackets aim a
    # few spacings below tol, so that rounding never leaves the last one just
    # wider than tol
    spacing = math.ulp(b)
    budget = max(math.ceil(math.log2(width) - math.log2(max(q.tol, spacing))), 0) + _ITP_N0
    target = max(q.tol - 4.0 * spacing, spacing)
    j = 0
    while b - a > q.tol:
        mid = 0.5 * (a + b)
        if not a < mid < b:  # a and b are adjacent floats
            break
        # regula falsi, truncated toward the midpoint, projected into the
        # radius that keeps the bracket within budget
        radius = max(math.ldexp(target, budget - j - 1) - 0.5 * (b - a), 0.0)
        falsi = mid if ya == yb else (yb * a - ya * b) / (yb - ya)
        toward_mid = math.copysign(1.0, mid - falsi)
        step = _ITP_KAPPA1 * (b - a) ** 2 / width
        x = falsi + toward_mid * step if step <= abs(mid - falsi) else mid
        if not abs(x - mid) <= radius:
            x = mid - toward_mid * radius
        if not a < x < b:
            x = mid
        prime([x])
        lx, rx = left(x), right(x)
        if lx - rx == 0.0:
            return CrossingResult("found", x, tuple(samples))
        if math.copysign(1.0, lx - rx) == side_a:
            a, ya = x, _interpolant(lx, rx)
        else:
            b, yb = x, _interpolant(lx, rx)
        j += 1
    return CrossingResult("found", 0.5 * (a + b), tuple(samples))


_GOLDEN_RATIO = (math.sqrt(5.0) - 1.0) / 2.0
# optimal_bias: points of the unimodality scan, and the golden-section stop
# relative to max(|r|, 1)
_SCAN_POINTS = 20
_REL_TOL = 1e-3


@shared_engines()
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
    ``interior`` is False when the best scan point is a bracket end.  The
    scan's engines are built as one batch before its first rate
    (:func:`~gkprep.repetition.prime_engines`): its points differ in the
    position spread r*delta only, so each rung's points share one panel
    layout and one complement table.
    """
    lo, hi = r_bracket
    _require_real(r_bracket_low=lo, r_bracket_high=hi)
    if not (0.0 < lo < hi):
        raise ValueError("r_bracket must satisfy 0 < lo < hi")

    def objective(r: float) -> float:
        return overall_failure_biased(n, NoiseParams(delta, delta_tilde, r=r), cfg)

    rs = [lo + (hi - lo) * i / (_SCAN_POINTS - 1) for i in range(_SCAN_POINTS)]
    prime_engines([(NoiseParams(delta, delta_tilde, r=r).position_noise(), n) for r in rs], cfg)
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

    @property
    def size(self) -> int:
        """The number of cells: the product of the axis lengths."""
        return math.prod(len(values) for _, values in self.axes)


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


def check_method(quantity: str, cfg: QuadratureConfig) -> None:
    """Raise ``ValueError`` if ``quantity`` has no route by ``cfg.method``.

    P_F has no tensor route: ``pf``, and the ``"single"`` curve of a crossing,
    refuse it rather than answer by the factorized one.
    """
    if quantity == "pf" and cfg.method == "tensor":
        raise ValueError("pf has no tensor method; P_F is computed by the factorized method only")


def _pf(cfg, /, *, delta, delta_tilde) -> tuple[float, dict]:
    check_method("pf", cfg)
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


# The engines a sweep cell of these quantities asks for: (with GKP EC,
# full engines rather than P_F-only ones, the cell's noise point and the
# code size of its rate, None for P_F alone).  run_sweep builds them ahead.
_ENGINE_POINTS: dict[str, tuple[bool, bool, Callable[..., tuple[NoiseParams, Any]]]] = {
    "pf": (True, False, lambda *, delta, delta_tilde: (NoiseParams(delta, delta_tilde), None)),
    "pfrep": (True, True, lambda *, delta, delta_tilde, n: (NoiseParams(delta, delta_tilde), n)),
    "pfrep_noec": (False, True,
                   lambda *, delta, delta_tilde, n: (NoiseParams(delta, delta_tilde), n)),
    "pfail": (True, True, lambda *, delta, delta_tilde=0.0, n, r=1.0: (
        NoiseParams(delta, delta_tilde, r=r).position_noise(), n)),
}

# Cells of one sweep stretch whose engines are built in one batch: their
# coarse and fine engines fill at most half the shared_engines memo.
_PRIME_CELLS = 256


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
    spec: SweepSpec, cfg: QuadratureConfig = DEFAULT_QUADRATURE, part: int = 0, parts: int = 1
) -> CurveTable:
    """Evaluate the Cartesian product of the axes in lexicographic order.

    The table holds the rows of stretch ``part`` of ``parts`` of that order
    (:func:`~gkprep.repetition.stretch`), all of them by default; a quantity
    without a route by ``cfg.method`` raises ``ValueError`` before any cell
    (:func:`check_method`).  Failed cells are recorded in-row under
    ``status`` and the sweep continues; output is deterministic for a fixed
    spec.  Inside a :func:`~gkprep.repetition.shared_engines` block the
    engines of a ``pf``, ``pfrep``, ``pfrep_noec`` or ``pfail`` stretch are
    built ahead, ``_PRIME_CELLS`` cells to a batch
    (:func:`~gkprep.repetition.prime_engines`); a cell whose parameters do
    not make a noise point is left to raise for itself.
    """
    check_method(spec.quantity, cfg)
    axis_names = [name for name, _ in spec.axes]
    fixed_names = sorted(spec.fixed)
    columns = tuple(axis_names + fixed_names + ["value", "std_err", "status"])
    span = stretch(spec.size, part, parts)
    combos = itertools.islice(
        itertools.product(*(values for _, values in spec.axes)), span.start, span.stop
    )
    rows = []
    for batch in iter(lambda: list(itertools.islice(combos, _PRIME_CELLS)), []):
        points = [{**dict(zip(axis_names, combo)), **spec.fixed} for combo in batch]
        if spec.quantity in _ENGINE_POINTS:
            gkp_ec, full, engine_point = _ENGINE_POINTS[spec.quantity]
            prime_engines(_engine_points(engine_point, points), cfg, gkp_ec, full)
        for combo, point in zip(batch, points):
            try:
                value, _ = QUANTITIES[spec.quantity](cfg, **point)
                cells = (value, "", "ok")
            except Exception as exc:  # noqa: BLE001 - cell failures stay in-row
                cells = ("", "", f"error:{type(exc).__name__}")
            rows.append((*combo, *(spec.fixed[k] for k in fixed_names), *cells))
    return CurveTable(columns=columns, rows=tuple(rows))


def _engine_points(
    engine_point: Callable[..., tuple[NoiseParams, Any]], points: list[dict]
) -> Iterator[tuple[NoiseParams, Any]]:
    """``engine_point`` of each cell's parameters, skipping cells where it raises."""
    for point in points:
        try:
            yield engine_point(**point)
        except Exception:  # noqa: BLE001 - the cell's own call raises it in-row
            continue
