"""Quadrature helpers: panelled Gauss-Legendre nodes and Gaussian rectangle
probabilities.

The rate integrands are products of a narrow wave-packet comb (scale
``delta_tilde``), a smooth erf modulating factor (scale ``delta``) and
erf syndrome windows (scale ``delta_tilde`` again, at positions that move
with the outer integration variable).  Fixed nodes therefore have to resolve
scale ``delta_tilde`` everywhere the density is non-negligible; the builders
below place uniform panels of roughly that width across the support and put
a Gauss-Legendre rule on each panel.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import special as sp

# Beyond this many widths from a Gaussian peak the weight is < 1e-31 of the
# peak value, far below every tolerance used in the package.
PEAK_SUPPORT_WIDTHS = 8.5


@lru_cache(maxsize=64)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def panel_nodes(lo: float, hi: float, n_panels: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule: ``n_panels`` equal panels on [lo, hi]."""
    base_x, base_w = _leggauss(order)
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    w = (half[:, None] * base_w[None, :]).ravel()
    return x, w


def _panels(target: int, n_nodes: int, per_panel: int) -> tuple[int, int]:
    """(panel count, order) of ``n_nodes`` nodes: ``target`` panels of at most ``per_panel``.

    The panel count is the smaller of ``target`` and ``n_nodes // per_panel``,
    and the order is ``n_nodes`` shared among the panels.  Both cell builders
    take their layout from here, so their only floor is at least 2 panels,
    and a layout of p panels holds between ``n_nodes`` - p + 1 and
    ``n_nodes`` nodes.
    """
    n_panels = max(min(target, n_nodes // per_panel), 2)
    return n_panels, n_nodes // n_panels


def peaked_cell_layout(
    half_width: float,
    feature_scale: float,
    n_nodes: int,
) -> tuple[float, int, int]:
    """(reach, panel count, order) of the panels :func:`peaked_cell_nodes` lays.

    The layout does not depend on the cell centre, so every cell built with
    the same ``half_width``, ``feature_scale`` and ``n_nodes`` carries the
    same nodes relative to its centre.
    """
    if not (feature_scale > 0.0):
        raise ValueError("feature_scale must be positive")
    reach = min(PEAK_SUPPORT_WIDTHS * feature_scale, half_width)
    # High-order rules on few panels beat many low-order panels for these
    # entire integrands; aim for panel widths of ~4 feature scales and at
    # least 16 nodes per panel.
    return reach, *_panels(math.ceil(reach / (2.0 * feature_scale)), n_nodes, 16)


def peaked_cell_nodes(
    center: float,
    half_width: float,
    feature_scale: float,
    n_nodes: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes for a cell whose integrand lives under a Gaussian peak.

    The integrand is assumed to carry a factor exp(-(x-center)^2/s^2) with
    s = ``feature_scale``, so everything further than PEAK_SUPPORT_WIDTHS*s
    from the centre is dropped; the retained window is covered with panels
    of width about s so that any other feature of that scale (the syndrome
    window transitions) is resolved wherever it matters.
    """
    reach, n_panels, order = peaked_cell_layout(half_width, feature_scale, n_nodes)
    return panel_nodes(center - reach, center + reach, n_panels, order)


def smooth_cell_nodes(
    lo: float,
    hi: float,
    feature_scale: float,
    n_nodes: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes for a cell with smooth structure of scale ``feature_scale``."""
    if not (feature_scale > 0.0):
        raise ValueError("feature_scale must be positive")
    target = math.ceil((hi - lo) / (3.0 * feature_scale))
    return panel_nodes(lo, hi, *_panels(target, n_nodes, 12))


def _std_normal_cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * sp.erfc(-x / math.sqrt(2.0))


def _bvn_cdf(h: np.ndarray, k: np.ndarray, rho: float) -> np.ndarray:
    """P(X <= h, Y <= k) for standard bivariate normals with correlation rho.

    Owen's T-function formulation; requires |rho| < 1 (the rho -> 1 limit is
    handled by the callers analytically).
    """
    h = np.asarray(h, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    h, k = np.broadcast_arrays(h, k)
    s = math.sqrt(max(1.0 - rho * rho, 0.0))
    if s == 0.0:
        raise ValueError("_bvn_cdf requires |rho| < 1")

    eps = 1e-300
    hs = np.where(np.abs(h) < eps, np.copysign(eps, np.where(h == 0.0, 1.0, h)), h)
    ks = np.where(np.abs(k) < eps, np.copysign(eps, np.where(k == 0.0, 1.0, k)), k)
    ah = np.clip((ks - rho * hs) / (hs * s), -1e300, 1e300)
    ak = np.clip((hs - rho * ks) / (ks * s), -1e300, 1e300)
    t_h = sp.owens_t(hs, ah)
    t_k = sp.owens_t(ks, ak)
    beta = np.where(
        (hs * ks < 0.0) | ((hs * ks == 0.0) & (hs + ks < 0.0)), 0.5, 0.0
    )
    return _std_normal_cdf(h) / 2.0 + _std_normal_cdf(k) / 2.0 - t_h - t_k - beta


def gaussian_window_overlap(
    cell: tuple[float | np.ndarray, float | np.ndarray],
    window_lo: np.ndarray,
    window_hi: np.ndarray,
    spread_x: float,
    spread_y: float,
    outside: bool = False,
) -> np.ndarray:
    """P(cell_lo < X < cell_hi, window_lo < X + Y < window_hi).

    X and Y are independent zero-mean Gaussians with densities proportional
    to exp(-x^2/spread^2) (standard deviation spread/sqrt(2)).  ``window_lo``
    and ``window_hi`` may be arrays, and so may the two cell bounds; the
    result broadcasts with all four.  Each element goes through the same
    float operations as a call with that element's scalar bounds, so one
    call on stacked cells and windows equals the per-cell calls bit for bit.
    Where the correlation of X with X + Y rounds to 1 (``spread_y == 0``, or
    so small next to ``spread_x`` that 1 - rho^2 is 0 in floating point), the
    exact interval-overlap limit is returned.

    ``outside=True`` returns the complement within the cell instead,
    P(cell_lo < X < cell_hi, X + Y outside the window), as the sum of the
    two out-of-window rectangles rather than as cell mass minus overlap, so
    that it keeps its relative accuracy when it is tiny.
    """
    a, b = cell
    window_lo = np.asarray(window_lo, dtype=np.float64)
    window_hi = np.asarray(window_hi, dtype=np.float64)
    sx = spread_x / math.sqrt(2.0)
    rho = spread_x / math.sqrt(spread_x**2 + spread_y**2)
    if rho * rho >= 1.0:

        def interval(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
            mass = 0.5 * (sp.erf(hi / spread_x) - sp.erf(lo / spread_x))
            return np.where(hi > lo, mass, 0.0)

        if outside:
            return interval(a, np.minimum(window_lo, b)) + interval(np.maximum(window_hi, a), b)
        return interval(np.maximum(window_lo, a), np.minimum(window_hi, b))
    sz = math.sqrt(spread_x**2 + spread_y**2) / math.sqrt(2.0)
    a_std, b_std = a / sx, b / sx

    def below(upper: np.ndarray) -> np.ndarray:
        # P(a < X < b, X + Y < upper)
        return _bvn_cdf(b_std, upper / sz, rho) - _bvn_cdf(a_std, upper / sz, rho)

    if outside:

        def above(lower: np.ndarray) -> np.ndarray:
            # P(a < X < b, X + Y > lower), by reflecting X + Y
            return _bvn_cdf(b_std, -lower / sz, -rho) - _bvn_cdf(a_std, -lower / sz, -rho)

        return np.clip(below(window_lo) + above(window_hi), 0.0, 1.0)
    return np.clip(below(window_hi) - below(window_lo), 0.0, 1.0)
