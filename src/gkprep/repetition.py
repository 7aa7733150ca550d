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
flipped qubit occupies relative to qubit 1.  (Collapsing all of this to a
single representative per m is a good approximation only when the residual
density is sharply concentrated; it visibly biases the rate at moderate
ancilla spreads.)

Because every window couples only u1' with one other coordinate, the other
n - 1 coordinates are independent and identically distributed once u1' is
fixed: each lies in the NPZ cell or in one of the two mirror PZ cells, and
its window depends only on its own cell, its sign and the cell of u1'.
Merging the two PZ signs (mass 2a, miss integrals added) leaves, per flip
count m, one binomial term for each cell of u1': qubit 1 flipped (u1' folded
into the positive PZ cell, C(n-1, m-1) flip sets counted twice) and qubit 1
clean (u1' in the NPZ cell, C(n-1, m) flip sets).  Each reduces to a 1-D
integral over u1' of F(u1') * [prod(a_k) - prod(a_k - M_k(u1'))], with cell
masses a_k and 1-D miss integrals M_k, the probability that the k-th
coordinate lies in its cell but its syndrome leaves the window.  That brings
the cost from nodes^n down to O(nodes^2) per cell engine.  A direct
tensor-grid summation of the same integrands is kept for n <= 5 as an
independent check on this reduction; it enumerates the sign-split pattern
classes of :func:`_case_blocks`, which only the oracle uses, so the two
routes also check each other's combinatorics.  The coordinates of one
class that share a cell, a window and a side are exchangeable, so the
oracle sums each such group over its sorted index multisets, weighted by
multinomial counts, and evaluates the unfactorized integrand once per
distinct grid point: at n = 5 with 24 nodes per cell, 637,500 points per
outer node over the 9 classes instead of 9 * 24^4 = 2,985,984.  It still
never factorizes the product over the pairs.

Both products are close to 1 while the block can be far below 1e-16, so
neither route ever forms 1 - (success).  The miss integrals come from the
complement window erfc((hi-y)/dt) + erfc((y-lo)/dt), the factorized blocks
telescope the difference of products into non-negative terms, and the
tensor oracle sums -expm1(sum log1p(-miss)) pointwise.  Every per-case
value therefore keeps its relative accuracy deep in the tail.

The miss integrals do not depend on n, and the post-EC engine evaluates
the complement window only once: its two cells share one panel layout and
every window is centred on the pair's nominal sum, so u1' +/- x sits at
one of (2P - 1) * k^2 offsets from the window centre (P panels of k nodes)
rather than at (P * k)^2.  The Gauss-Legendre nodes are exactly odd, so
reversing the offset table along all three axes negates it exactly, and
the lower edge's erfc is the upper edge's reversed: one erfc per offset.
One matrix product per inner cell and sign turns that table into the
engine's three miss arrays.  The residual density comes from one call on
the two cells' nodes stacked with the first shifted PZ cell of P_F.  The
no-EC engine takes exact bivariate-normal rectangles instead, stacked over
all six sides: one call for the central windows and one for all their
translates.  Each engine is one frozen, read-only :class:`_Engine` record
that its builder fills in one pass: cells, miss arrays, the log(1 - M/a)
they give and P_F, the flip rate whose majority vote is the overweight
tail.  Inside
:func:`shared_engines` (one ``gkprep`` command, one crossing search) the
engines of a noise point are built once and reused by P_F, by every code
size and by both sides of a crossing.  Every call still checks the refine
certificate (:func:`_certified`) on the per-case values and P_F.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import signal
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cache, reduce
from typing import BinaryIO

import numpy as np
from scipy import special as sp

from .distributions import (
    GaussianDisplacement,
    NoiseParams,
    ResidualDistribution,
    _integral,
    _require_real,
    _store_integers,
    pauli_rate_ideal,
)
from .lattice import ABS_TAIL_BOUND, HALF_CELL, MAX_TERMS, SQRT_PI, TruncationError
from .quadrature import (
    _leggauss,
    gaussian_window_overlap,
    peaked_cell_layout,
    peaked_cell_nodes,
    smooth_cell_nodes,
)

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

# The (window, reflect) sides of an inner coordinate, by the cell of u1' and
# its own cell.  Given u1', the other n - 1 coordinates are i.i.d.; a PZ
# coordinate sits in either mirror cell with equal mass, and its window
# depends on which, so its group lists both sides.
_SIDES = {
    (PZ_CELL, PZ_CELL): ((WIN_NPZ1, False), (WIN_NPZ0, True)),
    (PZ_CELL, NPZ_CELL): ((WIN_PZ1, False),),
    (NPZ_CELL, PZ_CELL): ((WIN_PZ1, False), (WIN_PZ1_NEG, True)),
    (NPZ_CELL, NPZ_CELL): ((WIN_NPZ0, False),),
}

# The (outer cell, inner cell, window, reflect) key of every miss integral.
_MISS_KEYS = tuple(
    (outer_cell, cell, window, reflect)
    for (outer_cell, cell), sides in _SIDES.items()
    for window, reflect in sides
)


# Largest per-case change between the two node counts that the refine
# certificate accepts.
_ABS_TOL = 1e-8

# The nodes_per_dim range.  From 16 up every cell of both engines grows at
# the 1.5x refine step, and no with-EC layout leans on a floor.  The cap
# bounds a refine rule's Gauss-Legendre order at 768: without it, 100,000
# nodes at delta_tilde >= 0.443 would lay 2 panels of order 50,000, whose
# dense companion matrix alone takes about 20 GB.
MIN_NODES, MAX_NODES = 16, 1024
# The no-EC rate needs at least 48 nodes per dimension.  Below that its
# cells hold 6 * (N // 6) nodes, fewer than any no-EC value was computed on
# while a panel order floor held them at 48, and the certificate fails at
# 11 to all 36 of the 36 points per N of a (delta, delta_tilde, n) grid
# (at 6 of them at N = 48).
MIN_NOEC_NODES = 48


class QuadratureError(RuntimeError):
    """A rate quadrature could not certify its tolerance, ``_ABS_TOL``."""


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


def _as_size(n: int | CodeSize) -> CodeSize:
    return n if isinstance(n, CodeSize) else CodeSize(n)


@dataclass(frozen=True)
class QuadratureConfig:
    """Node budget and method selection for the block integrals.

    ``nodes_per_dim`` is the per-cell node count along each dimension; P_F
    follows it too.  The tensor method is an n <= 5 cost-guarded oracle.
    Every factorized rate and P_F is certified: the engines are rebuilt at
    ``3 * nodes_per_dim // 2`` nodes and each per-case value and P_F must
    move by at most ``_ABS_TOL``.  ``nodes_per_dim`` runs from
    ``MIN_NODES``, where both engines' cells start to grow at that step, to
    ``MAX_NODES``; the no-EC rate refuses any below ``MIN_NOEC_NODES``.
    ``nodes_per_dim`` follows :func:`_integral`; any other value raises
    ``ValueError``.
    """

    nodes_per_dim: int = 64
    method: str = "factorized"

    def __post_init__(self) -> None:
        _store_integers(self, "nodes_per_dim")
        if not (MIN_NODES <= self.nodes_per_dim <= MAX_NODES):
            raise ValueError(
                f"nodes_per_dim must be from {MIN_NODES} to {MAX_NODES}, "
                f"got {self.nodes_per_dim}"
            )
        if self.method not in ("factorized", "tensor"):
            raise ValueError(f"unknown method {self.method!r}")


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
    _require_real(p=p)
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must be a probability, got {p}")
    total = 0.0
    for i in range((size.n + 1) // 2, size.n + 1):
        total += math.comb(size.n, i) * p**i * (1.0 - p) ** (size.n - i)
    return total


# Offsets of the 2*sqrt(pi) translates counted with each syndrome window,
# subtracted in this order.  The decoder reads the syndrome modulo
# 2*sqrt(pi); empty counts the central window only, and the translates it
# leaves out move no figure value by more than about 1.2e-5 relative at
# delta_tilde <= 0.5.  The engine memo of shared_engines() does not key on
# it, so it must not change while a block is open.
_TRANSLATES: tuple[float, ...] = ()


def _window_complement(
    y: np.ndarray, window: tuple[float, float], delta_tilde: float
) -> np.ndarray:
    """Twice the probability that y plus the ancilla displacement misses the window.

    The ancilla displacement has spread ``delta_tilde``; the window counts
    with its ``_TRANSLATES``.  The central window contributes
    erfc((hi-y)/dt) + erfc((y-lo)/dt), computed without cancellation;
    :func:`_less_translates` then subtracts the translates and clips.  The
    tensor oracle calls it on u1' +/- x directly; the residual engine forms
    the central part of the same table by reversal instead.
    """
    lo, hi = window
    y = np.asarray(y, dtype=np.float64)
    central = sp.erfc((hi - y) / delta_tilde) + sp.erfc((y - lo) / delta_tilde)
    return _less_translates(central, y, window, delta_tilde)


def _less_translates(
    central: np.ndarray, y: np.ndarray, window: tuple[float, float], delta_tilde: float
) -> np.ndarray:
    """``central``, the central window's complement at y, less the translates'.

    Each translate's erf((hi-y)/dt) - erf((lo-y)/dt) is subtracted in turn,
    in ``_TRANSLATES`` order; the result is clipped to [0, 2].
    """
    lo, hi = window
    out = central
    for shift in _TRANSLATES:
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


@dataclass(frozen=True)
class _Engine:
    """Cells of one density at one node count, their miss integrals, log(1 - M/a) and P_F.

    ``cells`` maps NPZ_CELL and PZ_CELL to their :class:`_Cell`.  ``miss``
    maps each (outer cell, inner cell, window, reflect) of ``_MISS_KEYS`` to
    M(u1) = P(x in cell, u1 +/- x + ancilla outside the window and its
    translates) on the outer nodes u1; ``reflect`` puts the window at u1 - x,
    the even-density image of the mirrored cell.  ``log_keep`` maps each
    ``_SIDES`` key to log(1 - M/a), -inf where the cell misses entirely, with
    the side ratios clipped to [0, 1] before they are averaged.
    ``pauli_rate`` is P_F of the density.  None of it depends on the code
    size.  :func:`_residual_engine` and
    :func:`_intrinsic_engine` build it in one pass; its arrays are read-only,
    because :func:`shared_engines` hands one engine to many rate calls.
    """

    cells: dict[tuple[float, float], _Cell]
    miss: dict[tuple, np.ndarray]
    log_keep: dict[tuple, np.ndarray]
    pauli_rate: float
    dt: float


def _finish_engine(cells: dict, miss: dict, pauli_rate: float, dt: float) -> _Engine:
    """The read-only :class:`_Engine` of ``cells`` and ``miss``, every ``log_keep`` derived."""
    log_keep = {}
    with np.errstate(divide="ignore"):
        for (outer_cell, cell), sides in _SIDES.items():
            mass = cells[cell].mass
            if mass > 0.0:
                ratio = sum(
                    np.clip(miss[outer_cell, cell, window, reflect] / mass, 0.0, 1.0)
                    for window, reflect in sides
                ) / len(sides)
            else:
                ratio = np.zeros_like(cells[outer_cell].x)
            log_keep[outer_cell, cell] = np.log1p(-ratio)
    cell_arrays = (a for c in cells.values() for a in (c.x, c.w, c.f))
    for a in itertools.chain(miss.values(), log_keep.values(), cell_arrays):
        a.flags.writeable = False
    return _Engine(cells, miss, log_keep, pauli_rate, dt)


def _residual_engine(params: NoiseParams, n_nodes: int) -> _Engine:
    """Per-cell nodes, densities and inner integrals for the post-EC density.

    Both cells share the :func:`peaked_cell_layout` of P panels of half-width
    hw, each carrying the order-k Gauss-Legendre nodes t, and every window
    of ``_SIDES`` is HALF_CELL wide on each side of the pair's nominal sum,
    c_outer + c_inner (c_outer - c_inner when reflected).  Outer node (p, i)
    and inner node (q, j) therefore put u1 + x at 2*hw*(p + q + 1 - P) +
    hw*(t_i + t_j) from the window centre, and t_{k-1-j} = -t_j makes the
    reflected u1 - x the same offset with the inner nodes reversed.  The
    complement window is evaluated once on those (2P - 1)*k*k offsets and
    contracted into the only three distinct miss arrays, one per inner cell
    and ``reflect``; each side's miss is the cell mass less its in-window
    part, taken from the complement window directly.  Reversing the offset
    table along all three axes maps p + q + 1 - P and each t to their exact
    negatives, so it maps every offset y to exactly -y: the central window's
    erfc((y + HALF_CELL)/dt) is its erfc((HALF_CELL - y)/dt) reversed, and
    only the latter is evaluated.  The translates go through
    :func:`_less_translates`, as in :func:`_window_complement`, so each
    table element equals that function's value bit for bit.  P_F sums
    twice the masses of the PZ cells at (2m + 1)*sqrt(pi): m = 0 is
    ``cells[PZ_CELL]``, and cell m >= 1 reuses its nodes shifted by
    2m*sqrt(pi).  One ``density`` call covers the NPZ nodes, the PZ nodes
    and the m = 1 cell, stacked; cells m >= 2 take one call each.  The sum
    stops at the first cell below ``ABS_TAIL_BOUND`` and raises
    :class:`TruncationError` if none of the first ``MAX_TERMS`` is.
    """
    dt = params.delta_tilde
    dist = ResidualDistribution(params.delta, dt)
    (npz_x, npz_w), (pz_x, pz_w) = (
        peaked_cell_nodes(center, HALF_CELL, dt, n_nodes) for center in (0.0, SQRT_PI)
    )
    npz_f, pz_f, next_pz_f = dist.density(np.stack([npz_x, pz_x, pz_x + 2 * SQRT_PI]))
    cells = {
        NPZ_CELL: _Cell(npz_x, npz_w, npz_f, float(np.dot(npz_w, npz_f))),
        PZ_CELL: _Cell(pz_x, pz_w, pz_f, float(np.dot(pz_w, pz_f))),
    }
    reach, n_panels, order = peaked_cell_layout(HALF_CELL, dt, n_nodes)
    hw = reach / n_panels
    t = _leggauss(order)[0]
    d = np.arange(1 - n_panels, n_panels)
    offsets = 2.0 * hw * d[:, None, None] + hw * (t[:, None] + t[None, :])
    # the lower edge's erfc is the upper edge's reversed on all three axes
    upper = sp.erfc((HALF_CELL - offsets) / dt)
    table = _less_translates(
        upper + upper[::-1, ::-1, ::-1], offsets, (-HALF_CELL, HALF_CELL), dt
    )
    # outer panel p meets inner panel q at table row p + q
    panels = np.arange(n_panels)
    rows = panels[:, None] + panels[None, :]

    def contract(g: np.ndarray) -> np.ndarray:
        by_panel = table @ g.reshape(n_panels, order).T
        return 0.5 * by_panel[rows, :, panels].sum(axis=1).ravel()

    npz, pz = npz_w * npz_f, pz_w * pz_f
    contracted = {
        (NPZ_CELL, False): contract(npz),
        (PZ_CELL, False): contract(pz),
        (PZ_CELL, True): contract(pz[::-1]),
    }
    miss = {key: contracted[key[1], key[3]] for key in _MISS_KEYS}
    pauli_rate = 0.0
    for m in range(MAX_TERMS):
        f = (pz_f, next_pz_f)[m] if m < 2 else dist.density(pz_x + 2 * m * SQRT_PI)
        cell_rate = 2.0 * float(np.dot(pz_w, f))
        pauli_rate += cell_rate
        if cell_rate < ABS_TAIL_BOUND:
            return _finish_engine(cells, miss, min(pauli_rate, 1.0), dt)
    raise TruncationError(f"PZ lattice sum did not converge within {MAX_TERMS} cells")


def _intrinsic_cell_nodes(
    cell: tuple[float, float], params: NoiseParams, n_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a no-EC cell: ``n_nodes`` shared among its segments.

    The syndrome-window transitions sweep past the cell edges when the outer
    variable crosses the cell centre, kinking the inner integrals there over
    a width of a few ancilla spreads; an own segment 16 ancilla spreads wide
    (at most half the cell) around the centre keeps the outer rule
    spectrally accurate even for sharp windows.  Each segment gets
    ``n_nodes // 3`` nodes (``// 2`` without the centre segment, at zero
    ancilla spread) under :func:`smooth_cell_nodes`' layout.
    """
    lo, hi = cell
    delta, dt = params.delta, params.delta_tilde
    scale = max(delta / 2.0, (2.0 * HALF_CELL) / (n_nodes // 4))
    mid = 0.5 * (lo + hi)
    half = min(8.0 * dt, 0.25 * (hi - lo))
    if half > 0.0:
        edges, scales = [lo, mid - half, mid + half, hi], [scale, max(dt, 1e-300), scale]
    else:
        edges, scales = [lo, mid, hi], [scale, scale]
    x, w = zip(*(smooth_cell_nodes(a, b, s, n_nodes // len(scales))
                 for a, b, s in zip(edges, edges[1:], scales)))
    return np.concatenate(x), np.concatenate(w)


def _intrinsic_engine(params: NoiseParams, n_nodes: int) -> _Engine:
    """Cells and miss integrals for the raw (no GKP EC) Gaussian data density.

    Cell masses are closed-form erf differences and the inner integrals are
    exact bivariate-normal rectangle probabilities, so the sharp syndrome
    windows of small ancilla spreads cost nothing in accuracy.  Each miss is
    the two out-of-window rectangles of the central window, less the
    overlaps with the translates at ``_TRANSLATES``, kept >= 0.  Every side's
    window limits are stacked on its outer nodes, with the inner cell's
    bounds repeated per node, so one call takes all central windows and at
    most one more all translates.  P_F is :func:`pauli_rate_ideal` of the
    raw density.
    """
    delta, dt = params.delta, params.delta_tilde
    gauss = GaussianDisplacement(delta)
    cells = {}
    for lo, hi in (NPZ_CELL, PZ_CELL):
        x, w = _intrinsic_cell_nodes((lo, hi), params, n_nodes)
        mass = 0.5 * (math.erf(hi / delta) - math.erf(lo / delta))
        cells[lo, hi] = _Cell(x, w, gauss.pdf(x), mass)
    outer_x = [cells[key[0]].x for key in _MISS_KEYS]
    sizes = [len(x) for x in outer_x]
    bounds = tuple(np.repeat([key[1][i] for key in _MISS_KEYS], sizes) for i in (0, 1))

    def limits(shift: float) -> tuple[np.ndarray, np.ndarray]:
        """Each side's window on inner coordinate plus ancilla at ``shift``, stacked."""
        sides = [
            (x - (w_hi + shift), x - (w_lo + shift)) if reflect
            else (w_lo + shift - x, w_hi + shift - x)
            for x, (_, _, (w_lo, w_hi), reflect) in zip(outer_x, _MISS_KEYS)
        ]
        return tuple(np.concatenate(part) for part in zip(*sides))

    out = gaussian_window_overlap(bounds, *limits(0.0), delta, dt, outside=True)
    if _TRANSLATES:
        lo, hi = zip(*map(limits, _TRANSLATES))
        overlap = gaussian_window_overlap(
            tuple(np.tile(b, len(_TRANSLATES)) for b in bounds),
            np.concatenate(lo), np.concatenate(hi), delta, dt,
        )
        # subtracted translate by translate, as one call per side would
        for part in overlap.reshape(len(_TRANSLATES), -1):
            out = out - part
    out = np.maximum(out, 0.0)
    miss = dict(zip(_MISS_KEYS, np.split(out, np.cumsum(sizes)[:-1])))
    return _finish_engine(cells, miss, pauli_rate_ideal(delta), dt)


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


# The two classes of a flip count m, one row per cell of u1': (outer cell,
# 1 if qubit 1 is flipped, which leaves k = m - 1 flipped inner qubits, else
# 0, the sign folding, the window of a flipped inner qubit on u1's sign and
# on the opposite sign, the window of a clean one).  The windows are spelled
# out rather than read from _SIDES, so that the oracle checks the factorized
# route's combinatorics on its own.
_CLASS_TABLE = (
    (PZ_CELL, 1, 2, WIN_NPZ1, WIN_NPZ0, WIN_PZ1),
    (NPZ_CELL, 0, 1, WIN_PZ1, WIN_PZ1_NEG, WIN_NPZ0),
)


@cache
def _case_blocks(m: int, n: int) -> tuple[_BlockSpec, ...]:
    """Pattern classes with exactly m flipped qubits, for the tensor oracle.

    Qubit 1 flipped: C(n-1, m-1) flip sets, the overall sign pair folded to
    u1 in the positive PZ cell.  Qubit 1 clean: C(n-1, m) flip sets, u1 in
    the NPZ cell.  Each splits by the number j of the k inner flipped
    qubits on the sign opposite to u1, C(k, j) ways.
    """
    blocks = []
    for outer_cell, qubit1_flipped, folding, same, opposite, clean in _CLASS_TABLE:
        k = m - qubit1_flipped
        for j in range(k + 1):
            factors = ((k - j, PZ_CELL, same, False), (j, PZ_CELL, opposite, True),
                       (n - 1 - k, NPZ_CELL, clean, False))
            blocks.append(_BlockSpec(
                float(folding * math.comb(n - 1, k) * math.comb(k, j)),
                outer_cell,
                tuple(factor for factor in factors if factor[0]),
            ))
    return tuple(blocks)


def _factorized_cases(engine: _Engine, size: CodeSize) -> list[float]:
    """Per-flip-count contributions via the 1-D reduction over u1'.

    Flip count m has two blocks: qubit 1 flipped (u1' folded into the
    positive PZ cell, 2*C(n-1, m-1) flip sets, m-1 PZ and n-m NPZ inner
    coordinates) and qubit 1 clean (u1' in the NPZ cell, C(n-1, m) flip
    sets, m PZ and n-1-m NPZ).  The group of c coordinates in one cell
    (mass a over its s sides, mean miss ratio r) contributes A = (s*a)^c to
    the mass product and B = (s*a*(1 - r))^c to the success product.  The
    block integrand prod(A) - prod(B) is telescoped as
    sum_g (A_g - B_g) * prod_{h<g} B_h * prod_{h>g} A_h, a sum of
    non-negative terms with A - B = -(s*a)^c * expm1(c * log1p(-r)).
    """
    n = size.n
    weighted = {key: c.w * c.f for key, c in engine.cells.items()}

    def block(outer_cell: tuple[float, float], pz_count: int, npz_count: int) -> float:
        """Integral over u1' of prod(A) - prod(B) for the two groups."""
        groups = [
            ((len(_SIDES[outer_cell, cell]) * engine.cells[cell].mass) ** count,
             count * engine.log_keep[outer_cell, cell])
            for count, cell in ((pz_count, PZ_CELL), (npz_count, NPZ_CELL))
            if count
        ]
        # the telescoped sum, accumulated from the last group down; it never
        # reads the last group's B
        full, log_b = groups[-1]
        value = -full * np.expm1(log_b)
        for a, log_b in reversed(groups[:-1]):
            value = -a * np.expm1(log_b) * full + a * np.exp(log_b) * value
            full *= a
        return float(np.dot(weighted[outer_cell], value))

    cases = []
    for m in range((n + 1) // 2):
        total = 2.0 * math.comb(n - 1, m - 1) * block(PZ_CELL, m - 1, n - m) if m else 0.0
        total += math.comb(n - 1, m) * block(NPZ_CELL, m, n - 1 - m)
        cases.append(total)
    return cases


@cache
def _multisets(n_nodes: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted index tuples i_1 <= ... <= i_count over ``n_nodes`` nodes, with multiplicities.

    Each of the C(n_nodes + count - 1, count) rows stands for the
    count! / prod(run length!) ordered tuples that sort to it, so the
    multiplicities sum to n_nodes**count.  Both arrays are read-only.
    """
    rows = math.comb(n_nodes + count - 1, count)
    idx = np.fromiter(
        itertools.chain.from_iterable(
            itertools.combinations_with_replacement(range(n_nodes), count)
        ),
        dtype=np.intp,
        count=rows * count,
    ).reshape(rows, count)
    # position of each index within its run of equal indices: the product
    # of the positions along a row is the product of its run-length factorials
    position = np.ones_like(idx)
    for j in range(1, count):
        position[:, j] = np.where(idx[:, j] == idx[:, j - 1], position[:, j - 1] + 1, 1)
    multiplicity = math.factorial(count) / position.prod(axis=1)
    idx.flags.writeable = multiplicity.flags.writeable = False
    return idx, multiplicity


# A block whose grid holds at least this many points per outer node spreads
# its outer nodes over threads: the expm1, multiply and sum passes over
# such a grid release the GIL long enough to pay for a thread.  At n = 3
# with 64 nodes threads made the oracle 1.4x slower.
_THREAD_MIN_POINTS = 1 << 14


def _node_sums(
    groups: list[tuple[np.ndarray, np.ndarray]], weight_grid: np.ndarray, nodes: int
) -> list[float]:
    """sum(weight_grid * expm1(log_keep)) at each of the ``nodes`` outer nodes.

    log_keep at node i is the outer sum, over the ``groups`` (log_keep
    table, multiset indices), of each table's row i summed along the
    multisets.  A grid of at least ``_THREAD_MIN_POINTS`` points spreads
    the nodes over :func:`available_cores` threads in contiguous stretches.
    Each thread reuses one buffer shaped like the grid, and every node's
    sum takes the same float operations on any thread count.
    """
    threads = min(available_cores(), nodes) if weight_grid.size >= _THREAD_MIN_POINTS else 1
    sums = [0.0] * nodes

    def run(part: int) -> None:
        buf = np.empty_like(weight_grid)
        for i in stretch(nodes, part, threads):
            *head, last = [lk[i][idx].sum(axis=1) for lk, idx in groups]
            if head:
                np.add.outer(reduce(np.add.outer, head), last, out=buf)
            else:
                buf[...] = last
            np.expm1(buf, out=buf)
            np.multiply(weight_grid, buf, out=buf)
            sums[i] = float(buf.sum())

    if threads == 1:
        run(0)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(threads - 1) as pool:
            children = [pool.submit(run, part) for part in range(1, threads)]
            run(0)
            for child in children:
                child.result()
    return sums


def _tensor_cases(engine: _Engine, size: CodeSize) -> list[float]:
    """Direct grid summation of the block integrands (independent oracle).

    Sums the pointwise failure probability -expm1(sum_k log1p(-q_k/2)) over
    the (n-1)-dimensional inner grid for every outer node, where q_k is the
    complement window of pair k; the product over the pairs is never
    factorized.  The ``count`` coordinates of one factor share a cell, a
    window and a side, so the integrand and the weight are symmetric under
    permutations of them: each such group is summed over its sorted index
    multisets (:func:`_multisets`), each weighted by its multinomial count,
    which visits every distinct grid point once.  A large block spreads its
    outer nodes over threads (:func:`_node_sums`); the node terms are added
    up in node order, so the values keep their bits on any thread count.
    """
    n = size.n
    cases = []
    for m in range((n + 1) // 2):
        total = 0.0
        for block in _case_blocks(m, n):
            outer = engine.cells[block.outer_cell]
            groups, weights = [], []
            for count, bounds, window, reflect in block.factors:
                cell = engine.cells[bounds]
                idx, multiplicity = _multisets(len(cell.x), count)
                pair = (np.subtract if reflect else np.add).outer(outer.x, cell.x)
                with np.errstate(divide="ignore"):  # log1p(-1) = -inf is exact
                    log_keep = np.log1p(-0.5 * _window_complement(pair, window, engine.dt))
                groups.append((log_keep, idx))
                weights.append(multiplicity * (cell.w * cell.f)[idx].prod(axis=1))
            weight_grid = reduce(np.multiply.outer, weights)
            block_total = 0.0
            for i, node_sum in enumerate(_node_sums(groups, weight_grid, len(outer.x))):
                block_total -= outer.w[i] * outer.f[i] * node_sum
            total += block.multiplicity * block_total
        cases.append(float(total))
    return cases


def _breakdown(cases: list[float], tail: float, size: CodeSize) -> FailureBreakdown:
    labels = [f"s{s}" for s in range(1, (size.n + 1) // 2 + 1)] + ["overweight"]
    values = cases + [tail]
    return FailureBreakdown(
        total=math.fsum(values), per_case=tuple(zip(labels, values))
    )


# The memo of the open shared_engines() block; None outside one.
_SHARED: ContextVar[dict[tuple, _Engine] | None] = ContextVar("gkprep_shared_engines", default=None)

# Engines (P_F among their fields) one block keeps, oldest dropped first.  A
# fine engine's arrays (cells, miss integrals and miss ratios) take about
# 10 kB, so a sweep over any number of noise points holds at most about
# 10 MB here.
_SHARED_MAX = 1024


@contextmanager
def shared_engines() -> Iterator[None]:
    """Build each noise point's engines once inside the block.

    Rate and P_F calls in the block reuse the cell engines (nodes,
    densities, miss integrals, P_F) of any noise point an earlier call
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


# True while this process computes a part of map_parts with other parts
# running beside it: those parts already keep every core busy, so nothing
# inside one spreads further.
_IN_PART = False


def available_cores() -> int:
    """The cores this process may spread work over: its CPU affinity, 1 inside a part."""
    if _IN_PART:
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def stretch(total: int, part: int, parts: int) -> range:
    """Part ``part`` of ``parts`` contiguous stretches of range(total), sizes within one."""
    return range(total * part // parts, total * (part + 1) // parts)


def _send_items(fn: Callable[[int, int], Iterable], part: int, parts: int, out: BinaryIO) -> None:
    """Pickle each item of ``fn(part, parts)`` onto ``out`` as ``(True, item)``.

    The last message is ``(False, None)`` at the end of the items, or
    ``(False, exc)`` for an exception raised on the way.  An exception
    that does not pickle ends the child without a last message.
    """
    try:
        for item in fn(part, parts):
            out.write(pickle.dumps((True, item), pickle.HIGHEST_PROTOCOL))
            out.flush()
        last = (False, None)
    except BaseException as exc:  # noqa: BLE001 - the caller re-raises it
        last = (False, exc)
    out.write(pickle.dumps(last, pickle.HIGHEST_PROTOCOL))


def _received_items(source: BinaryIO) -> Iterator:
    """The items :func:`_send_items` wrote to ``source``, raising a sent exception in turn."""
    while True:
        try:
            ok, item = pickle.load(source)
        except EOFError:
            raise ChildProcessError("a forked part ended before it sent all its items") from None
        if ok:
            yield item
        elif item is None:
            return
        else:
            raise item


@contextmanager
def map_parts(fn: Callable[[int, int], Iterable], parts: int) -> Iterator[list[Iterator]]:
    """One iterator per part over the items of ``fn(part, parts)``, all parts but the first forked.

    Part 0 runs here, lazily, as the caller draws its items.  Each other
    part runs in a child forked on entry, which pickles every item it yields
    onto a pipe of its own as soon as the item exists; the caller reads each
    part's items in the order it needs, so a child computes ahead of the
    caller until its pipe is full.  A child's exception is pickled in turn
    and raised here when the caller reaches it, with its type.  Children are
    forked, not spawned: a spawned child would re-import numpy and scipy.
    No thread of this package runs at the fork (:func:`_node_sums` joins
    its threads before it returns).  A child never returns into the
    caller's code and leaves through ``os._exit``, so no inherited stdio or
    file buffer is flushed twice.  On exit, with or without an exception,
    the pipes are closed and every child is killed and reaped: by then a
    child has sent every item the caller drew.  With more than one part
    every part, the first included, sees one available core.  Without
    ``os.fork`` every part runs here.
    """
    global _IN_PART
    readers: list[BinaryIO] = []
    pids: list[int] = []
    was = _IN_PART
    local = 1 if hasattr(os, "fork") else parts  # the parts that run here
    try:
        for part in range(local, parts):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: send the part, then leave without returning
                try:
                    _IN_PART = True
                    os.close(read_fd)
                    for reader in readers:
                        reader.close()
                    with os.fdopen(write_fd, "wb") as out:
                        _send_items(fn, part, parts, out)
                finally:
                    os._exit(0)
            pids.append(pid)
            os.close(write_fd)
            readers.append(os.fdopen(read_fd, "rb"))
        _IN_PART = was or parts > 1
        yield [iter(fn(part, parts)) for part in range(local)] + [
            _received_items(reader) for reader in readers
        ]
    finally:
        _IN_PART = was
        for reader in readers:
            reader.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _make_engine(gkp_ec: bool, params: NoiseParams, n_nodes: int) -> _Engine:
    """The engine of ``params`` at ``n_nodes``, memoized inside :func:`shared_engines`."""
    build = _residual_engine if gkp_ec else _intrinsic_engine
    memo = _SHARED.get()
    if memo is None:
        return build(params, n_nodes)
    key = (gkp_ec, params.delta, params.delta_tilde, n_nodes)
    if key not in memo:
        if len(memo) >= _SHARED_MAX:
            del memo[next(iter(memo))]
        memo[key] = build(params, n_nodes)
    return memo[key]


def _certified(
    gkp_ec: bool,
    params: NoiseParams,
    cfg: QuadratureConfig,
    values: Callable[[_Engine], list[float]],
) -> list[float]:
    """``values`` of the refine engine, each within ``_ABS_TOL`` of the coarse engine's.

    The refine engine has ``3 * cfg.nodes_per_dim // 2`` nodes; every
    accepted ``nodes_per_dim`` gives it more nodes in every cell.
    """
    fine_nodes = 3 * cfg.nodes_per_dim // 2
    coarse, fine = (values(_make_engine(gkp_ec, params, nodes))
                    for nodes in (cfg.nodes_per_dim, fine_nodes))
    gap = max(abs(a - b) for a, b in zip(coarse, fine))
    if gap > _ABS_TOL:
        raise QuadratureError(
            f"engine values changed by {gap:.3e} from {cfg.nodes_per_dim} to "
            f"{fine_nodes} nodes per dimension (abs_tol={_ABS_TOL:g}); "
            f"increase nodes_per_dim"
        )
    return fine


def _require_unbiased(params: NoiseParams) -> None:
    """Refuse a bias that a rate of the spreads at face value would drop."""
    if params.r != 1.0:
        raise ValueError(f"r applies only to overall_failure_biased; this rate takes r = 1, "
                         f"got {params.r!r}")


def _failure_rate_impl(
    n: int | CodeSize,
    params: NoiseParams,
    cfg: QuadratureConfig,
    gkp_ec: bool,
) -> FailureBreakdown:
    """The breakdown of one of three routes: ideal ancilla, tensor oracle or certified factorized.

    Each route gives the per-case values and P_F; the one exit below turns
    them into the breakdown, with the majority vote of P_F as its tail.
    """
    size = _as_size(n)
    _require_unbiased(params)
    if not gkp_ec and cfg.nodes_per_dim < MIN_NOEC_NODES:
        raise ValueError(
            f"the no-EC rate needs nodes_per_dim of at least {MIN_NOEC_NODES}, "
            f"got {cfg.nodes_per_dim}"
        )
    if gkp_ec and params.ideal_ancilla:
        cases, pauli_rate = [0.0] * ((size.n + 1) // 2), pauli_rate_ideal(params.delta)
    elif cfg.method == "tensor":
        if size.n > 5:
            raise ValueError("tensor method is cost-guarded to n <= 5")
        engine = _make_engine(gkp_ec, params, cfg.nodes_per_dim)
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
        cases, pauli_rate = _tensor_cases(engine, size), engine.pauli_rate
    else:
        *cases, pauli_rate = _certified(
            gkp_ec, params, cfg, lambda e: [*_factorized_cases(e, size), e.pauli_rate]
        )
    return _breakdown(cases, classical_failure(size, pauli_rate), size)


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


def pauli_rate_physical(params: NoiseParams, cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Logical flip rate P_F after one round of GKP EC with a noisy ancilla.

    The residual density over the Pauli error zones: the certified
    ``pauli_rate`` of the engines :func:`failure_rate` uses.  For ancilla
    spreads below 1e-6 the ideal formula is returned (the density is
    singular there).
    """
    return pauli_rate_physical_report(params, cfg)["value"]


def pauli_rate_physical_report(
    params: NoiseParams, cfg: QuadratureConfig = DEFAULT_QUADRATURE
) -> dict[str, float]:
    """P_F, its two-cell approximation (the innermost PZ cell pair) and their gap."""
    _require_unbiased(params)
    if params.ideal_ancilla:
        full = two_cell = pauli_rate_ideal(params.delta)
    else:
        full, two_cell = _certified(
            True, params, cfg, lambda e: [e.pauli_rate, 2.0 * e.cells[PZ_CELL].mass]
        )
    return {"value": full, "two_cell": two_cell, "difference": full - two_cell}


def overall_failure_biased(
    n: int | CodeSize,
    params: NoiseParams,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """Overall logical failure rate under biased noise.

    Position errors (amplified to spread r*delta) are handled by the
    repetition code; momentum errors are single-qubit flips at the spreads
    of :meth:`NoiseParams.biased_momentum_spreads`.  Failure events are
    composed as independent, through log1p/expm1 so that the result keeps
    its relative accuracy and is never below the position part.
    """
    size = _as_size(n)
    mom_first, mom_rest = params.biased_momentum_spreads(size.n)
    pos_params = NoiseParams(delta=params.position_spread, delta_tilde=params.delta_tilde)
    p_rep = failure_rate(size, pos_params, cfg).total
    return -math.expm1(
        (size.n - 1) * math.log1p(-pauli_rate_ideal(mom_rest))
        + math.log1p(-pauli_rate_ideal(mom_first))
        + math.log1p(-p_rep)
    )
