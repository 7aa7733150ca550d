"""Failure probabilities of n-qubit GKP repetition codes.

The failure probability decomposes over the set of data qubits that
actually flipped.  For each correctable flip count m (0 <= m <= (n-1)/2)
the decoder succeeds exactly when every syndrome lands in the zone the flip
pattern dictates; for a fixed point the success probability is a product
over k = 2..n of an erf window evaluated at the pair sum u1' + uk', and the
block contribution is the n-dimensional integral of the residual densities
times one minus that product.  Patterns with more than (n-1)/2 flips always
count as failure (the classical binomial tail).

Flip patterns with the same count m are NOT all equivalent: every syndrome
compares qubit 1 with one other qubit, so the window layout depends on
whether qubit 1 is in the flip set, and on the sign of the PZ cell each
flipped qubit occupies relative to qubit 1.  The blocks therefore enumerate
the flip count, the qubit-1 membership and the cell-sign split; patterns
within one such class are exchange-symmetric and carry a plain counting
factor.  (Collapsing all of this to a single representative per m is a good
approximation only when the residual density is sharply concentrated; it
visibly biases the rate at moderate ancilla spreads.)

Because every window couples only u1' with one other coordinate, the inner
(n-1) integrals separate once u1' is fixed: each block reduces to a single
1-D integral over u1' of F(u1') * [prod(a_k) - prod(a_k - M_k(u1'))], with
cell masses a_k and 1-D miss integrals M_k, the probability that the k-th
coordinate lies in its cell but its syndrome leaves the window.  That brings
the cost from nodes^n down to O(n * nodes^2).  A direct tensor-grid
summation of the same integrands is kept for n <= 5 as an independent check
on this reduction.

Both products are close to 1 while the block can be far below 1e-16, so
neither route ever forms 1 - (success).  The miss integrals come from the
complement window erfc((hi-y)/dt) + erfc((y-lo)/dt), the factorized blocks
telescope the difference of products into non-negative terms, and the
tensor oracle sums -expm1(sum log1p(-miss)) pointwise.  Every per-case
value therefore keeps its relative accuracy deep in the tail.

The miss integrals do not depend on n.  Each cell engine keeps the
log(1 - M/a) it has computed, and inside :func:`shared_engines` (one
``gkprep`` command, one crossing search) the engines and the overweight
tail of a noise point are built once and reused by every code size and by
both sides of a crossing.  Every call still contracts the blocks at both
node counts and checks the refine certificate.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cache, reduce
from typing import Any

import numpy as np
from scipy import special as sp

from .distributions import (
    GaussianDisplacement,
    NoiseParams,
    ResidualDistribution,
    pauli_rate_ideal,
    pauli_rate_physical,
)
from .lattice import HALF_CELL, SQRT_PI
from .quadrature import gaussian_window_overlap, peaked_cell_nodes, smooth_cell_nodes

NPZ_CELL = (-HALF_CELL, HALF_CELL)
PZ_CELL = (HALF_CELL, 3.0 * HALF_CELL)

# Syndrome windows for the pair sum u1' + uk', by what the decoder must see:
# WIN_NPZ0 when the pair sum sits near 0 and must stay NPZ, WIN_PZ1 /
# WIN_PZ1_NEG when exactly one of the pair flipped (sum near +-sqrt(pi),
# must read PZ), WIN_NPZ1 when both flipped (sum near 2*sqrt(pi), must read
# NPZ).
WIN_NPZ0 = (-HALF_CELL, HALF_CELL)
WIN_PZ1 = (HALF_CELL, 3.0 * HALF_CELL)
WIN_PZ1_NEG = (-3.0 * HALF_CELL, -HALF_CELL)
WIN_NPZ1 = (3.0 * HALF_CELL, 5.0 * HALF_CELL)


class QuadratureError(RuntimeError):
    """A rate quadrature could not certify the requested tolerance."""


def _integral(value: Any) -> int | None:
    """``value`` as ``int`` if it is integral (3, 3.0, a numpy integer), else None.

    A fractional, non-finite, non-numeric or ``bool`` value is not integral.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or value % 1 != 0:
        return None
    return int(value)


@dataclass(frozen=True)
class CodeSize:
    """Odd repetition-code size 3 <= n <= 15.

    The cap bounds both routes: the Monte Carlo slot layout draws 4n - 1
    slots per shot out of 64, and the quadrature is checked up to n = 15.
    Stored as ``int`` by :func:`_integral`'s rule; any other value raises
    ``ValueError``.
    """

    n: int

    def __post_init__(self) -> None:
        n = _integral(self.n)
        if n is None or not (3 <= n <= 15 and n % 2 == 1):
            raise ValueError(f"code size must be an odd integer from 3 to 15, got {self.n!r}")
        object.__setattr__(self, "n", n)

    @property
    def correctable_weight(self) -> int:
        return (self.n - 1) // 2

    @property
    def syndrome_count(self) -> int:
        return 2 ** (self.n - 1)


def _as_size(n: int | CodeSize) -> CodeSize:
    return n if isinstance(n, CodeSize) else CodeSize(n)


@dataclass(frozen=True)
class QuadratureConfig:
    """Node budget and method selection for the block integrals.

    ``nodes_per_dim`` is the per-cell node count along each dimension.  The
    tensor method is an n <= 5 cost-guarded oracle; ``refine`` re-evaluates
    the factorized blocks at doubled node count and certifies ``abs_tol``.
    The integer fields follow :func:`_integral`; ``refine`` must be a
    ``bool``.  Any other value raises ``ValueError``.
    """

    nodes_per_dim: int = 64
    method: str = "factorized"
    abs_tol: float = 1e-8
    refine: bool = True
    window_neighbors: int = 0

    def __post_init__(self) -> None:
        for name in ("nodes_per_dim", "window_neighbors"):
            value = _integral(getattr(self, name))
            if value is None:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
            object.__setattr__(self, name, value)
        if not isinstance(self.refine, bool):
            raise ValueError(f"refine must be a boolean, got {self.refine!r}")
        if self.nodes_per_dim < 8:
            raise ValueError("nodes_per_dim must be at least 8")
        if self.method not in ("factorized", "tensor"):
            raise ValueError(f"unknown method {self.method!r}")
        if not (self.abs_tol > 0.0):
            raise ValueError("abs_tol must be positive")
        if self.window_neighbors < 0:
            raise ValueError("window_neighbors must be >= 0")


DEFAULT_QUADRATURE = QuadratureConfig()


@dataclass(frozen=True)
class FailureBreakdown:
    """Total failure probability with its per-case decomposition.

    ``per_case`` holds one entry per flip count ("s1" = no flip,
    "s2" = one flip, ...) plus the classical "overweight" tail; the entries
    sum to ``total`` exactly as computed.
    """

    total: float
    per_case: tuple[tuple[str, float], ...]


def classical_failure(n: int | CodeSize, p: float) -> float:
    """Binomial majority-vote failure rate: P(more than (n-1)/2 of n flip)."""
    size = _as_size(n)
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must be a probability, got {p}")
    total = 0.0
    for i in range((size.n + 1) // 2, size.n + 1):
        total += math.comb(size.n, i) * p**i * (1.0 - p) ** (size.n - i)
    return total


def _window_complement(
    y: np.ndarray,
    window: tuple[float, float],
    delta_tilde: float,
    neighbors: int = 0,
) -> np.ndarray:
    """Twice the probability that y plus the ancilla displacement misses the window.

    The ancilla displacement has spread ``delta_tilde``; the window counts
    with its ``neighbors`` 2*sqrt(pi) translates on each side.  The central
    window contributes erfc((hi-y)/dt) + erfc((y-lo)/dt), computed without
    cancellation; each translate's erf((hi-y)/dt) - erf((lo-y)/dt) is then
    subtracted.  Clipped to [0, 2].
    """
    lo, hi = window
    y = np.asarray(y, dtype=np.float64)
    out = sp.erfc((hi - y) / delta_tilde) + sp.erfc((y - lo) / delta_tilde)
    for t in range(-neighbors, neighbors + 1):
        if t:
            shift = 2.0 * t * SQRT_PI
            out = out - (
                sp.erf((hi + shift - y) / delta_tilde) - sp.erf((lo + shift - y) / delta_tilde)
            )
    return np.clip(out, 0.0, 2.0)


@dataclass(frozen=True)
class _Cell:
    """Quadrature nodes ``x``, weights ``w``, density values ``f`` and mass of one cell."""

    x: np.ndarray
    w: np.ndarray
    f: np.ndarray
    mass: float


class _CellEngine:
    """Cells of one density at one node count, and their miss ratios.

    Subclasses fill ``cells`` (the NPZ_CELL and PZ_CELL bounds mapped to
    their :class:`_Cell`) and implement ``miss``.  ``log_keep`` memoizes
    what it derives from ``miss``, which does not depend on the code size.
    """

    cells: dict[tuple[float, float], _Cell]

    def __init__(self, params: NoiseParams, neighbors: int) -> None:
        self.dt = params.delta_tilde
        self.neighbors = neighbors
        self._log_keep: dict[tuple, np.ndarray] = {}

    def log_keep(self, outer_cell: tuple[float, float], cell: tuple[float, float],
                 window: tuple[float, float], reflect: bool) -> np.ndarray:
        """log(1 - M/a) on the outer nodes; -inf where the cell misses entirely."""
        key = (outer_cell, cell, window, reflect)
        if key not in self._log_keep:
            x = self.cells[outer_cell].x
            mass = self.cells[cell].mass
            if mass > 0.0:
                ratio = np.clip(self.miss(x, cell, window, reflect) / mass, 0.0, 1.0)
            else:
                ratio = np.zeros_like(x)
            with np.errstate(divide="ignore"):
                self._log_keep[key] = np.log1p(-ratio)
        return self._log_keep[key]


class _ResidualCellEngine(_CellEngine):
    """Per-cell nodes, densities and inner integrals for the post-EC density."""

    def __init__(self, params: NoiseParams, n_nodes: int, neighbors: int) -> None:
        super().__init__(params, neighbors)
        dist = ResidualDistribution(params.delta, params.delta_tilde)

        def cell(center: float) -> _Cell:
            x, w = peaked_cell_nodes(center, HALF_CELL, self.dt, n_nodes)
            f = dist.density(x)
            return _Cell(x, w, f, float(np.dot(w, f)))

        self.cells = {NPZ_CELL: cell(0.0), PZ_CELL: cell(SQRT_PI)}

    def miss(self, outer_x: np.ndarray, bounds: tuple[float, float],
             window: tuple[float, float], reflect: bool = False) -> np.ndarray:
        """M(u1) = integral over the cell of F(x) * (1 - window(u1 +/- x)/2) dx.

        The cell mass less the in-window part, taken from the complement
        window directly.  ``reflect=True`` evaluates the window at u1 - x,
        which is the even-density image of integrating over the mirrored cell.
        """
        cell = self.cells[bounds]
        x = cell.x
        arg = outer_x[:, None] - x[None, :] if reflect else outer_x[:, None] + x[None, :]
        q = _window_complement(arg, window, self.dt, self.neighbors)
        return 0.5 * (q @ (cell.w * cell.f))


class _IntrinsicCellEngine(_CellEngine):
    """Same interface for the raw (no GKP EC) Gaussian data density.

    Cell masses are closed-form erf differences and the inner integrals are
    exact bivariate-normal rectangle probabilities, so the sharp syndrome
    windows of small ancilla spreads cost nothing in accuracy.
    """

    def __init__(self, params: NoiseParams, n_nodes: int, neighbors: int) -> None:
        super().__init__(params, neighbors)
        self.delta = params.delta
        gauss = GaussianDisplacement(params.delta)
        scale = max(params.delta / 2.0, (2.0 * HALF_CELL) / (n_nodes // 4))

        def cell(lo: float, hi: float) -> _Cell:
            # the syndrome-window transitions sweep past the cell edges when
            # the outer variable crosses the cell centre, kinking the inner
            # integrals there over a width of a few ancilla spreads; an own
            # panel around the centre keeps the outer rule spectrally
            # accurate even for sharp windows
            mid = 0.5 * (lo + hi)
            half = min(8.0 * self.dt, 0.25 * (hi - lo))
            if half > 0.0:
                edges = [lo, mid - half, mid + half, hi]
                scales = [scale, max(self.dt, 1e-300), scale]
            else:
                edges = [lo, mid, hi]
                scales = [scale, scale]
            budget = max(n_nodes // len(scales), 8)
            parts = [
                smooth_cell_nodes(a, b, s, budget)
                for a, b, s in zip(edges, edges[1:], scales)
            ]
            x = np.concatenate([p[0] for p in parts])
            w = np.concatenate([p[1] for p in parts])
            mass = 0.5 * (math.erf(hi / self.delta) - math.erf(lo / self.delta))
            return _Cell(x, w, gauss.pdf(x), mass)

        self.cells = {NPZ_CELL: cell(*NPZ_CELL), PZ_CELL: cell(*PZ_CELL)}

    def miss(self, outer_x: np.ndarray, bounds: tuple[float, float],
             window: tuple[float, float], reflect: bool = False) -> np.ndarray:
        """P(x in cell, u1 +/- x + ancilla outside the window and its translates).

        The two out-of-window rectangles of the central window, less the
        overlaps with the ``neighbors`` translates, kept >= 0.
        """
        lo, hi = window

        def limits(shift: float) -> tuple[np.ndarray, np.ndarray]:
            if reflect:
                return outer_x - (hi + shift), outer_x - (lo + shift)
            return lo + shift - outer_x, hi + shift - outer_x

        out = gaussian_window_overlap(
            bounds, *limits(0.0), self.delta, self.dt, outside=True
        )
        for t in range(-self.neighbors, self.neighbors + 1):
            if t:
                out = out - gaussian_window_overlap(
                    bounds, *limits(2.0 * t * SQRT_PI), self.delta, self.dt
                )
        return np.maximum(out, 0.0)


@dataclass(frozen=True)
class _BlockSpec:
    """One exchange-symmetric class of flip patterns.

    ``factors`` lists (count, cell, window, reflect) for the n-1 inner
    coordinates, each cell named by its NPZ_CELL or PZ_CELL bounds;
    ``reflect`` marks flipped qubits sitting in the mirrored PZ cell, folded
    onto the positive cell through the even density.
    """

    multiplicity: float
    outer_cell: tuple[float, float]
    factors: tuple[tuple[int, tuple[float, float], tuple[float, float], bool], ...]


@cache
def _case_blocks(m: int, n: int) -> tuple[_BlockSpec, ...]:
    """Pattern classes with exactly m flipped qubits.

    Class A has qubit 1 flipped (C(n-1, m-1) flip sets, overall sign pair
    folded to u1 in the positive PZ cell, j of the other flipped qubits in
    the opposite-sign cell); class B has qubit 1 clean (C(n-1, m) flip sets,
    j of the flipped qubits in the negative cell).
    """
    if m == 0:
        return [_BlockSpec(1.0, NPZ_CELL, ((n - 1, NPZ_CELL, WIN_NPZ0, False),))]
    blocks = []
    for j in range(m):
        factors = []
        if m - 1 - j:
            factors.append((m - 1 - j, PZ_CELL, WIN_NPZ1, False))
        if j:
            factors.append((j, PZ_CELL, WIN_NPZ0, True))
        factors.append((n - m, NPZ_CELL, WIN_PZ1, False))
        blocks.append(
            _BlockSpec(
                2.0 * math.comb(n - 1, m - 1) * math.comb(m - 1, j),
                PZ_CELL,
                tuple(factors),
            )
        )
    for j in range(m + 1):
        factors = []
        if m - j:
            factors.append((m - j, PZ_CELL, WIN_PZ1, False))
        if j:
            factors.append((j, PZ_CELL, WIN_PZ1_NEG, True))
        if n - 1 - m:
            factors.append((n - 1 - m, NPZ_CELL, WIN_NPZ0, False))
        blocks.append(
            _BlockSpec(
                float(math.comb(n - 1, m) * math.comb(m, j)),
                NPZ_CELL,
                tuple(factors),
            )
        )
    return tuple(blocks)


def _factorized_cases(engine: _CellEngine, size: CodeSize) -> list[float]:
    """Per-flip-count contributions via the 1-D reduction over u1'.

    Factor group g (count c, cell mass a, miss M) contributes A = a^c to the
    mass product and B = (a - M)^c to the success product.  The block
    integrand prod(A) - prod(B) is telescoped as
    sum_g (A_g - B_g) * prod_{h<g} B_h * prod_{h>g} A_h, a sum of
    non-negative terms with A - B = -a^c * expm1(c * log1p(-M/a)).
    """
    n = size.n

    @cache
    def group(outer_cell: tuple[float, float], count: int, cell: tuple[float, float],
              window: tuple[float, float], reflect: bool) -> tuple[float, np.ndarray, np.ndarray]:
        """(A, A - B, B) of one factor group on the outer nodes."""
        full = engine.cells[cell].mass ** count
        log_b = count * engine.log_keep(outer_cell, cell, window, reflect)
        return full, -full * np.expm1(log_b), full * np.exp(log_b)

    cases = []
    for m in range((n + 1) // 2):
        total = 0.0
        for block in _case_blocks(m, n):
            outer = engine.cells[block.outer_cell]
            groups = [group(block.outer_cell, *factor) for factor in block.factors]
            # the telescoped sum, accumulated from the last group down
            full, value, _ = groups[-1]
            for a, drop, keep in reversed(groups[:-1]):
                value = drop * full + keep * value
                full *= a
            total += block.multiplicity * float(np.dot(outer.w * outer.f, value))
        cases.append(total)
    return cases


def _tensor_cases(engine: _CellEngine, size: CodeSize) -> list[float]:
    """Direct grid summation of the block integrands (independent oracle).

    Materializes the pointwise failure probability -expm1(sum_k log1p(-q_k/2))
    on the full (n-1)-dimensional inner grid for every outer node, where q_k
    is the complement window of pair k, with no use of the factorized
    contraction.
    """
    n = size.n
    cases = []
    for m in range((n + 1) // 2):
        total = 0.0
        for block in _case_blocks(m, n):
            outer = engine.cells[block.outer_cell]
            axes = [
                (engine.cells[bounds], window, reflect)
                for count, bounds, window, reflect in block.factors
                for _ in range(count)
            ]
            weight_grid = reduce(np.multiply.outer, [cell.w * cell.f for cell, _, _ in axes])
            block_total = 0.0
            for i, u1 in enumerate(outer.x):
                with np.errstate(divide="ignore"):  # log1p(-1) = -inf is exact
                    log_keep = reduce(np.add.outer, [
                        np.log1p(-0.5 * _window_complement(
                            u1 - cell.x if reflect else u1 + cell.x,
                            window, engine.dt, engine.neighbors,
                        ))
                        for cell, window, reflect in axes
                    ])
                block_total -= outer.w[i] * outer.f[i] * float(
                    np.sum(weight_grid * np.expm1(log_keep))
                )
            total += block.multiplicity * block_total
        cases.append(float(total))
    return cases


def _breakdown(cases: list[float], tail: float, size: CodeSize) -> FailureBreakdown:
    labels = [f"s{s}" for s in range(1, (size.n + 1) // 2 + 1)] + ["overweight"]
    values = cases + [tail]
    return FailureBreakdown(
        total=math.fsum(values), per_case=tuple(zip(labels, values))
    )


def _ideal_breakdown(size: CodeSize, p: float) -> FailureBreakdown:
    cases = [0.0] * ((size.n + 1) // 2)
    return _breakdown(cases, classical_failure(size, p), size)


# The memo of the open shared_engines() block; None outside one.
_SHARED: ContextVar[dict[tuple, Any] | None] = ContextVar("gkprep_shared_engines", default=None)

# Entries (engines and tail rates) one block keeps, oldest dropped first.  A
# fine engine with its miss integrals takes about 17 kB, so a sweep over any
# number of noise points holds at most about 17 MB here.
_SHARED_MAX = 1024


@contextmanager
def shared_engines() -> Iterator[None]:
    """Build each noise point's engines and tail rate once inside the block.

    Rate calls in the block reuse the cell engines (nodes, densities, miss
    integrals) and the overweight tail of any noise point an earlier call
    built.  A nested block joins the outer one; the memo is dropped when
    the outermost block exits.
    """
    if _SHARED.get() is not None:
        yield
        return
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def _shared(key: tuple, build: Callable[[], Any]) -> Any:
    """``build()``, memoized under ``key`` inside :func:`shared_engines`."""
    memo = _SHARED.get()
    if memo is None:
        return build()
    if key not in memo:
        if len(memo) >= _SHARED_MAX:
            del memo[next(iter(memo))]
        memo[key] = build()
    return memo[key]


def _make_engine(gkp_ec: bool, params: NoiseParams, n_nodes: int, neighbors: int) -> _CellEngine:
    engine = _ResidualCellEngine if gkp_ec else _IntrinsicCellEngine
    return _shared(
        ("engine", gkp_ec, params.delta, params.delta_tilde, n_nodes, neighbors),
        lambda: engine(params, n_nodes, neighbors),
    )


def _shared_pauli_rate(params: NoiseParams) -> float:
    """P_F at ``params``, computed once per noise point inside :func:`shared_engines`."""
    return _shared(
        ("tail", params.delta, params.delta_tilde), lambda: pauli_rate_physical(params)
    )


def _failure_rate_impl(
    n: int | CodeSize,
    params: NoiseParams,
    cfg: QuadratureConfig,
    gkp_ec: bool,
) -> FailureBreakdown:
    size = _as_size(n)
    if gkp_ec and params.ideal_ancilla:
        return _ideal_breakdown(size, pauli_rate_ideal(params.delta))
    tail_p = _shared_pauli_rate(params) if gkp_ec else pauli_rate_ideal(params.delta)
    tail = classical_failure(size, tail_p)
    engine = _make_engine(gkp_ec, params, cfg.nodes_per_dim, cfg.window_neighbors)
    if cfg.method == "tensor":
        if size.n > 5:
            raise ValueError("tensor method is cost-guarded to n <= 5")
        spacing = max(float(np.max(np.diff(cell.x))) for cell in engine.cells.values())
        if spacing > params.delta_tilde:
            # fixed nodes cannot integrate windows of edge width delta_tilde
            # that move with u1' unless the node spacing resolves them
            raise ValueError(
                f"tensor method needs node spacing <= delta_tilde = "
                f"{params.delta_tilde:g}, got {spacing:.3g}; raise nodes_per_dim "
                f"or use the factorized method"
            )
        if size.n == 5 and max(len(cell.x) for cell in engine.cells.values()) > 40:
            raise ValueError("tensor with n=5 allows at most 40 nodes per cell")
        return _breakdown(_tensor_cases(engine, size), tail, size)

    cases = _factorized_cases(engine, size)
    if cfg.refine:
        fine_engine = _make_engine(gkp_ec, params, 2 * cfg.nodes_per_dim, cfg.window_neighbors)
        fine = _factorized_cases(fine_engine, size)
        gap = max(abs(a - b) for a, b in zip(cases, fine))
        if gap > cfg.abs_tol:
            raise QuadratureError(
                f"factorized blocks changed by {gap:.3e} under node doubling "
                f"(requested abs_tol={cfg.abs_tol:g}); increase nodes_per_dim"
            )
        cases = fine
    return _breakdown(cases, tail, size)


def failure_rate(
    n: int | CodeSize,
    params: NoiseParams,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> FailureBreakdown:
    """P_f,n-rep: failure probability of the n-qubit GKP repetition code.

    Uses the post-EC residual density for the data qubits; ancilla spreads
    below 1e-6 reduce exactly to the classical majority-vote formula with
    the ideal-ancilla flip rate.
    """
    return _failure_rate_impl(n, params, cfg, gkp_ec=True)


def failure_rate_no_gkp_ec(
    n: int | CodeSize,
    params: NoiseParams,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> FailureBreakdown:
    """P'_f,n-rep: same code but skipping the round of GKP error correction.

    The data displacements keep their raw Gaussian density (spread delta)
    and the classical tail uses the ideal-ancilla flip rate.  Unlike the
    with-EC variant this does not collapse to the classical formula as
    delta_tilde -> 0: the syndrome windows become sharp but the data
    density stays wide.
    """
    return _failure_rate_impl(n, params, cfg, gkp_ec=False)


def overall_failure_biased(
    n: int | CodeSize,
    params: NoiseParams,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """Overall logical failure rate under biased noise.

    Position errors (amplified to spread r*delta) are handled by the
    repetition code; momentum errors are single-qubit flips at the spreads
    of :meth:`NoiseParams.biased_momentum_spreads`.  Failure events are
    composed as independent.
    """
    size = _as_size(n)
    mom_first, mom_rest = params.biased_momentum_spreads(size.n)
    pos_params = NoiseParams(delta=params.position_spread, delta_tilde=params.delta_tilde)
    p_rep = failure_rate(size, pos_params, cfg).total
    keep = (
        (1.0 - pauli_rate_ideal(mom_rest)) ** (size.n - 1)
        * (1.0 - pauli_rate_ideal(mom_first))
        * (1.0 - p_rep)
    )
    return 1.0 - keep
