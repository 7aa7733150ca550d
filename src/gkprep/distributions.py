"""Single-mode error densities and single-qubit logical error rates.

Spread convention
-----------------
All spreads ``s`` in this package parameterize densities proportional to
exp(-x^2/s^2), i.e. f(x) = exp(-x^2/s^2) / (sqrt(pi)*s).  The variance of
such a density is s^2/2, so the standard deviation of the equivalent normal
distribution is s/sqrt(2).  That single conversion lives in
:class:`GaussianDisplacement.sigma`; samplers and everything else go through
it.  Mixing up s and sigma is the classic silent bug in this domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .lattice import (
    ABS_TAIL_BOUND,
    HALF_CELL,
    MAX_TERMS,
    SQRT_PI,
    TruncationError,
    gaussian_comb_array,
)
from .quadrature import peaked_cell_nodes

# Ancilla spreads below this are treated as exactly ideal: the residual
# density degenerates to a lattice comb of delta functions and the closed
# ideal-ancilla formulas apply.
IDEAL_ANCILLA_CUTOFF = 1e-6


class DegenerateDistributionError(ValueError):
    """Raised when a density is requested in its delta-function limit."""


@dataclass(frozen=True)
class NoiseParams:
    """The three scalars parameterizing every computation.

    ``delta`` is the data-qubit spread, ``delta_tilde`` the ancilla spread
    (0 encodes the ideal-ancilla limit) and ``r`` the bias level: under bias
    the effective position spread is ``r*delta`` and the effective momentum
    spread ``kappa/r``, with ``kappa`` defaulting to ``delta``.

    Rate functions take the spreads at face value; bias composition happens
    only in ``repetition.overall_failure_biased`` and in the biased Monte
    Carlo mode.
    """

    delta: float
    delta_tilde: float = 0.0
    r: float = 1.0
    kappa: float | None = None

    def __post_init__(self) -> None:
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise ValueError("delta must be a positive finite real")
        if not (self.delta_tilde >= 0.0 and math.isfinite(self.delta_tilde)):
            raise ValueError("delta_tilde must be a non-negative finite real")
        if not (self.r > 0.0 and math.isfinite(self.r)):
            raise ValueError("r must be a positive finite real")
        if self.kappa is None:
            object.__setattr__(self, "kappa", self.delta)
        elif not (self.kappa > 0.0 and math.isfinite(self.kappa)):
            raise ValueError("kappa must be a positive finite real")

    @property
    def position_spread(self) -> float:
        return self.r * self.delta

    @property
    def momentum_spread(self) -> float:
        return self.kappa / self.r

    @property
    def ideal_ancilla(self) -> bool:
        return self.delta_tilde < IDEAL_ANCILLA_CUTOFF


@dataclass(frozen=True)
class GaussianDisplacement:
    """Zero-mean Gaussian displacement with density exp(-x^2/s^2)/(sqrt(pi)*s)."""

    spread: float

    def __post_init__(self) -> None:
        if not (self.spread > 0.0 and math.isfinite(self.spread)):
            raise ValueError("spread must be a positive finite real")

    @property
    def sigma(self) -> float:
        """Standard deviation of the equivalent normal: spread/sqrt(2)."""
        return self.spread / math.sqrt(2.0)

    def pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = np.exp(-np.minimum((x / self.spread) ** 2, 745.0)) / (SQRT_PI * self.spread)
        return out if out.ndim else float(out)


def pauli_rate_ideal(delta_eff: float) -> float:
    """Logical flip rate of one round of GKP error correction, ideal ancilla.

    Probability that a spread-``delta_eff`` displacement lands in a Pauli
    error zone:

        1/2 * sum_n [erf((4n+3)*sqrt(pi)/(2*delta)) - erf((4n+1)*sqrt(pi)/(2*delta))]

    evaluated with erfc differences (pairing n with -n-1) so precision
    survives deep in the tails; the remaining tail after truncation is
    bounded by the first omitted erfc term.
    """
    if not (delta_eff > 0.0 and math.isfinite(delta_eff)):
        raise ValueError("delta_eff must be a positive finite real")
    a = SQRT_PI / (2.0 * delta_eff)
    total = 0.0
    for n in range(MAX_TERMS):
        lo = math.erfc((4 * n + 1) * a)
        hi = math.erfc((4 * n + 3) * a)
        total += lo - hi
        if lo <= ABS_TAIL_BOUND:
            return total
    raise TruncationError(
        f"pauli_rate_ideal tail not below {ABS_TAIL_BOUND:g} within "
        f"{MAX_TERMS} terms (delta_eff={delta_eff:g})"
    )


@dataclass(frozen=True)
class ResidualDistribution:
    """Density of the residual displacement after one round of GKP EC.

    F(u') is an erf modulating factor of scale ``delta`` times a Gaussian
    wave-packet comb of scale ``delta_tilde`` on the sqrt(pi) lattice; it is
    even in u' and integrates to one.
    """

    delta: float
    delta_tilde: float

    def __post_init__(self) -> None:
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise ValueError("delta must be a positive finite real")
        if not (self.delta_tilde > 0.0 and math.isfinite(self.delta_tilde)):
            raise DegenerateDistributionError(
                "delta_tilde must be strictly positive; the delta_tilde -> 0 "
                "limit is a lattice comb of point masses, use the ideal-ancilla "
                "code path instead"
            )

    def modulating(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        return sp.erf((u + HALF_CELL) / self.delta) - sp.erf((u - HALF_CELL) / self.delta)

    def density(self, u) -> float | np.ndarray:
        """F(u'), the residual displacement density (even, unit mass)."""
        u_arr = np.asarray(u, dtype=np.float64)
        comb = gaussian_comb_array(u_arr, SQRT_PI, self.delta_tilde**2)
        out = self.modulating(u_arr) * comb / (2.0 * SQRT_PI * self.delta_tilde)
        return out if out.ndim else float(out)


def residual_cdf(dist: ResidualDistribution, x: float) -> float:
    """P(u' <= x) built from first principles, independent of ``density``.

    Splits the residual u' = k*sqrt(pi) - u2 by lattice cell of u1 + u2:
    cells entirely below the threshold contribute their closed-form mass (a
    Gaussian of spread sqrt(delta^2 + delta_tilde^2) over the cell), the at
    most few straddling cells are integrated numerically over the ancilla
    displacement.  Serves as the test oracle for
    :meth:`ResidualDistribution.density`.
    """
    from scipy.integrate import quad

    if not math.isfinite(x):
        raise ValueError("x must be finite")
    d, dt = dist.delta, dist.delta_tilde
    s_sum = math.sqrt(d * d + dt * dt)
    reach = 9.0 * dt

    def cell_mass(k: int) -> float:
        hi = (k + 0.5) * SQRT_PI / s_sum
        lo = (k - 0.5) * SQRT_PI / s_sum
        return 0.5 * (math.erf(hi) - math.erf(lo))

    def partial(k: int) -> float:
        lower = k * SQRT_PI - x

        def integrand(u2: float) -> float:
            f2 = math.exp(-((u2 / dt) ** 2)) / (SQRT_PI * dt)
            bracket = math.erf(((k + 0.5) * SQRT_PI - u2) / d) - math.erf(
                ((k - 0.5) * SQRT_PI - u2) / d
            )
            return 0.5 * f2 * bracket

        lo = max(lower, -reach)
        if lo >= reach:
            return 0.0
        val, _ = quad(integrand, lo, reach, epsabs=1e-13, epsrel=1e-11, limit=200)
        return val

    k_max = int(math.ceil((abs(x) + reach) / SQRT_PI)) + 1
    total = 0.0
    for k in range(-k_max, k_max + 1):
        lower = k * SQRT_PI - x
        if lower <= -reach:
            total += cell_mass(k)
        elif lower < reach:
            total += partial(k)
    return min(max(total, 0.0), 1.0)


def _pz_cell_integral(dist: ResidualDistribution, m: int, n_nodes: int = 128) -> float:
    """Integral of F over the PZ cell centred on (2m+1)*sqrt(pi), m >= 0."""
    center = (2 * m + 1) * SQRT_PI
    x, w = peaked_cell_nodes(center, HALF_CELL, dist.delta_tilde, n_nodes)
    return float(np.dot(w, dist.density(x)))


def pauli_rate_physical(params: NoiseParams, *, two_cell: bool = False) -> float:
    """Logical flip rate P_F after one round of GKP EC with a noisy ancilla.

    Integrates the residual density over the Pauli error zones.  The lattice
    sum over PZ cells runs until a cell contributes below 1e-12; with
    ``two_cell=True`` only the innermost pair of cells is kept (the standard
    plotting approximation).  For ancilla spreads below 1e-6 the ideal
    formula is returned (the density is singular there).
    """
    if params.ideal_ancilla:
        return pauli_rate_ideal(params.delta)
    dist = ResidualDistribution(params.delta, params.delta_tilde)
    if two_cell:
        return 2.0 * _pz_cell_integral(dist, 0)
    total = 0.0
    for m in range(64):
        cell = 2.0 * _pz_cell_integral(dist, m)
        total += cell
        if cell < 1e-12:
            return min(total, 1.0)
    raise TruncationError("PZ lattice sum did not converge within 64 cells")


def pauli_rate_physical_report(params: NoiseParams) -> dict[str, float]:
    """Full lattice sum and two-cell approximation of P_F, with their gap."""
    full = pauli_rate_physical(params)
    if params.ideal_ancilla:
        return {"value": full, "two_cell": full, "difference": 0.0}
    approx = pauli_rate_physical(params, two_cell=True)
    return {"value": full, "two_cell": approx, "difference": full - approx}
