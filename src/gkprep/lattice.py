"""Lattice geometry and scalar special functions for the square-lattice GKP code.

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
from dataclasses import dataclass
from enum import Enum

import numpy as np

SQRT_PI = math.sqrt(math.pi)
HALF_CELL = SQRT_PI / 2.0


class TruncationError(RuntimeError):
    """A truncated lattice sum could not certify its tail bound in budget."""


@dataclass(frozen=True)
class TruncationBudget:
    """Controls for truncated infinite sums.

    Every truncated sum either certifies an a-posteriori tail bound of at
    most ``abs_tail_bound`` or raises :class:`TruncationError`.
    """

    abs_tail_bound: float = 1e-12
    max_terms: int = 64

    def __post_init__(self) -> None:
        if not (self.abs_tail_bound > 0.0 and math.isfinite(self.abs_tail_bound)):
            raise ValueError("abs_tail_bound must be a positive finite real")
        if self.max_terms < 1:
            raise ValueError("max_terms must be a positive integer")


DEFAULT_BUDGET = TruncationBudget()


class ZoneKind(Enum):
    NPZ = "NPZ"
    PZ = "PZ"


@dataclass(frozen=True)
class Zone:
    """One width-sqrt(pi) cell of the real line.

    NPZ_m covers [2m*sqrt(pi) - sqrt(pi)/2, 2m*sqrt(pi) + sqrt(pi)/2); the PZ
    cells tile the complement, serially numbered so that PZ_1 is centred on
    +sqrt(pi), PZ_{-1} on -sqrt(pi), PZ_2 on +3*sqrt(pi), and so on.  There is
    no PZ_0.
    """

    kind: ZoneKind
    index: int

    def __post_init__(self) -> None:
        if self.kind is ZoneKind.PZ and self.index == 0:
            raise ValueError("PZ_0 does not exist")

    @property
    def center(self) -> float:
        if self.kind is ZoneKind.NPZ:
            return 2.0 * self.index * SQRT_PI
        return (2.0 * self.index - math.copysign(1.0, self.index)) * SQRT_PI


def _check_finite(x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"expected a finite real, got {x!r}")
    return x


def erf(x: float) -> float:
    """Gauss error function, accurate to better than 1e-14.

    Odd symmetry is exact by construction of the underlying libm routine.
    """
    return math.erf(_check_finite(x))


def nearest_multiple_offset(x: float) -> float:
    """Distance from ``x`` to its nearest multiple of sqrt(pi).

    Returns ``x - k*sqrt(pi)`` for the unique integer ``k`` with
    ``(k - 1/2)*sqrt(pi) <= x < (k + 1/2)*sqrt(pi)``; the result lies in
    ``[-sqrt(pi)/2, sqrt(pi)/2)``.
    """
    x = _check_finite(x)
    k = math.floor(x / SQRT_PI + 0.5)
    return x - k * SQRT_PI


def nearest_multiple_offset_array(x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`nearest_multiple_offset`."""
    x = np.asarray(x, dtype=np.float64)
    k = np.floor(x / SQRT_PI + 0.5)
    return x - k * SQRT_PI


def classify_zone(x: float) -> Zone:
    """Classify a displacement into its NPZ_m / PZ_m cell.

    The classification is total and disjoint: cell j (centred on j*sqrt(pi))
    is NPZ_{j/2} for even j and PZ with serial index (j + sign(j))/2 for odd j.
    """
    x = _check_finite(x)
    j = math.floor(x / SQRT_PI + 0.5)
    if j % 2 == 0:
        return Zone(ZoneKind.NPZ, j // 2)
    m = (j + 1) // 2 if j > 0 else (j - 1) // 2
    return Zone(ZoneKind.PZ, m)


def is_pauli_zone(x: np.ndarray) -> np.ndarray:
    """Vectorized PZ membership test (True where the cell index is odd)."""
    x = np.asarray(x, dtype=np.float64)
    j = np.floor(x / SQRT_PI + 0.5).astype(np.int64)
    return (j & 1) == 1


def _comb_term_count(
    spacing: float, sigma_sq: float, budget: TruncationBudget
) -> int:
    """Smallest half-width K with a certified comb tail below budget.

    Terms beyond the K nearest neighbours on each side are bounded by the
    geometric-majorant tail 2*exp(-a^2/s^2) / (1 - exp(-2*a*spacing/s^2))
    with a = (K - 1/2)*spacing, valid for any evaluation point inside the
    central cell.
    """
    for k in range(1, budget.max_terms + 1):
        a = (k - 0.5) * spacing
        lead = math.exp(-min(a * a / sigma_sq, 745.0))
        ratio = math.exp(-min(2.0 * a * spacing / sigma_sq, 745.0))
        tail = 2.0 * lead / (1.0 - ratio) if ratio < 1.0 else math.inf
        if tail <= budget.abs_tail_bound:
            return k
    raise TruncationError(
        f"comb tail bound {budget.abs_tail_bound:g} not reached within "
        f"{budget.max_terms} terms (spacing={spacing:g}, sigma_sq={sigma_sq:g})"
    )


def truncated_gaussian_comb(
    x: float,
    spacing: float,
    sigma_sq: float,
    budget: TruncationBudget = DEFAULT_BUDGET,
) -> float:
    """Sum_t exp(-(x - t*spacing)^2 / sigma_sq) with a certified tail.

    The sum is truncated symmetrically around the lattice index nearest to
    ``x`` so accuracy is uniform in ``x``.
    """
    x = _check_finite(x)
    if not spacing > 0.0:
        raise ValueError("spacing must be positive")
    if not sigma_sq > 0.0:
        raise ValueError("sigma_sq must be positive")
    return float(gaussian_comb_array(np.array([x]), spacing, sigma_sq, budget)[0])


def gaussian_comb_array(
    x: np.ndarray,
    spacing: float,
    sigma_sq: float,
    budget: TruncationBudget = DEFAULT_BUDGET,
) -> np.ndarray:
    """Vectorized :func:`truncated_gaussian_comb`."""
    x = np.asarray(x, dtype=np.float64)
    n_terms = _comb_term_count(spacing, sigma_sq, budget)
    t0 = np.round(x / spacing)
    total = np.zeros_like(x)
    for dt in range(-n_terms, n_terms + 1):
        d = x - (t0 + dt) * spacing
        total += np.exp(-np.minimum(d * d / sigma_sq, 745.0))
    return total
