"""Lattice geometry and the truncated Gaussian comb for the square-lattice GKP code.

The code lattice has half-period sqrt(pi) (full stabilizer period 2*sqrt(pi)).
A real displacement is classified by which width-sqrt(pi) cell it falls in:
cells centred on even multiples of sqrt(pi) are harmless ("no Pauli error
zone", NPZ), cells centred on odd multiples act as a logical flip ("Pauli
error zone", PZ).  Everything downstream -- densities, failure rates, the
decoder -- reduces to this cell geometry, so boundary conventions are fixed
here once: every cell is half-open, [lo, hi).
"""

from __future__ import annotations

import math

import numpy as np

SQRT_PI = math.sqrt(math.pi)
HALF_CELL = SQRT_PI / 2.0


class TruncationError(RuntimeError):
    """A truncated lattice sum could not certify its tail bound within MAX_TERMS terms."""


# Every truncated sum certifies an a-posteriori tail bound of at most
# ABS_TAIL_BOUND within MAX_TERMS terms or raises TruncationError.
ABS_TAIL_BOUND = 1e-12
MAX_TERMS = 64


def nearest_multiple_offset_array(x: np.ndarray) -> np.ndarray:
    """Distance from each ``x`` to its nearest multiple of sqrt(pi).

    Returns ``x - k*sqrt(pi)`` for the unique integer ``k`` with
    ``(k - 1/2)*sqrt(pi) <= x < (k + 1/2)*sqrt(pi)``; the result lies in
    ``[-sqrt(pi)/2, sqrt(pi)/2)``.
    """
    x = np.asarray(x, dtype=np.float64)
    k = np.floor(x / SQRT_PI + 0.5)
    return x - k * SQRT_PI


def is_pauli_zone(x: np.ndarray) -> np.ndarray:
    """Vectorized PZ membership test (True where the cell index is odd)."""
    x = np.asarray(x, dtype=np.float64)
    j = np.floor(x / SQRT_PI + 0.5).astype(np.int64)
    return (j & 1) == 1


def _comb_term_count(spacing: float, sigma_sq: float) -> int:
    """Smallest half-width K with a certified comb tail below ABS_TAIL_BOUND.

    Terms beyond the K nearest neighbours on each side are bounded by the
    geometric-majorant tail 2*exp(-a^2/s^2) / (1 - exp(-2*a*spacing/s^2))
    with a = (K - 1/2)*spacing, valid for any evaluation point inside the
    central cell.
    """
    for k in range(1, MAX_TERMS + 1):
        a = (k - 0.5) * spacing
        lead = math.exp(-min(a * a / sigma_sq, 745.0))
        ratio = math.exp(-min(2.0 * a * spacing / sigma_sq, 745.0))
        tail = 2.0 * lead / (1.0 - ratio) if ratio < 1.0 else math.inf
        if tail <= ABS_TAIL_BOUND:
            return k
    raise TruncationError(
        f"comb tail bound {ABS_TAIL_BOUND:g} not reached within "
        f"{MAX_TERMS} terms (spacing={spacing:g}, sigma_sq={sigma_sq:g})"
    )


def gaussian_comb_array(x: np.ndarray, spacing: float, sigma_sq: float) -> np.ndarray:
    """Sum_t exp(-(x - t*spacing)^2 / sigma_sq) at each ``x``, with a certified tail.

    The sum is truncated symmetrically around the lattice index nearest to
    ``x`` so accuracy is uniform in ``x``.  All 2K + 1 terms come from one
    ``exp`` over a (2K + 1, *x.shape) array; they are then added one at a
    time from t = -K up to t = K, never by ``ndarray.sum``, whose pairwise
    summation would regroup the additions from 8 terms on.
    """
    if not spacing > 0.0:
        raise ValueError("spacing must be positive")
    if not sigma_sq > 0.0:
        raise ValueError("sigma_sq must be positive")
    x = np.asarray(x, dtype=np.float64)
    n_terms = _comb_term_count(spacing, sigma_sq)
    t0 = np.round(x / spacing)
    steps = np.arange(-n_terms, n_terms + 1).reshape((-1,) + (1,) * x.ndim)
    d = x - (t0 + steps) * spacing
    terms = np.exp(-np.minimum(d * d / sigma_sq, 745.0))
    total = np.zeros_like(x)
    for term in terms:
        total += term
    return total
