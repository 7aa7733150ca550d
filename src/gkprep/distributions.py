"""Single-mode error densities and the ideal-ancilla flip rate P_X.

Spread convention
-----------------
All spreads ``s`` in this package parameterize densities proportional to
exp(-x^2/s^2), i.e. f(x) = exp(-x^2/s^2) / (sqrt(pi)*s).  The variance of
such a density is s^2/2, so the standard deviation of the equivalent normal
distribution is s/sqrt(2).  That conversion lives in
:class:`GaussianDisplacement.sigma`; the Monte Carlo sampler and everything
else go through it, except ``quadrature.gaussian_window_overlap``, which
cannot import this module (this module imports ``quadrature``) and divides by
sqrt(2) itself.  Mixing up s and sigma is the classic silent bug in this
domain.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy import special as sp

from .lattice import (
    ABS_TAIL_BOUND,
    HALF_CELL,
    MAX_TERMS,
    SQRT_PI,
    TruncationError,
    _comb_term_count,
    gaussian_comb_array,
)

# Not called here; bound so that perfbench/tracing.py can wrap this lookup site.
from .quadrature import peaked_cell_nodes  # noqa: F401

# Ancilla spreads below this are treated as exactly ideal: the residual
# density degenerates to a lattice comb of delta functions and the closed
# ideal-ancilla formulas apply.
IDEAL_ANCILLA_CUTOFF = 1e-6

# Gaussians exp(-d^2) clip d at this many widths: exp(-28^2) is exactly 0.0,
# and neither the clipped d nor its square can overflow.
_GAUSS_REACH = 28.0


def _integral(value: Any) -> int | None:
    """``value`` as ``int`` if it is integral (3, 3.0, a numpy integer), else None.

    A fractional, non-finite, non-numeric or ``bool`` value is not integral.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or value % 1 != 0:
        return None
    return int(value)


def _finite_real(value: Any) -> bool:
    return (not isinstance(value, bool) and isinstance(value, numbers.Real)
            and abs(value) <= sys.float_info.max)


def _require_real(**fields: Any) -> None:
    """Raise ``ValueError`` naming the first field that is not a finite real number.

    Ints, floats and numpy reals within the float range are; a ``bool`` (an
    ``int`` to Python), a non-numeric value, nan and +-inf are not.
    """
    for name, value in fields.items():
        if not _finite_real(value):
            raise ValueError(f"{name} must be a real number, got {value!r}")


def _require_positive(**fields: Any) -> None:
    """As :func:`_require_real`, for fields that must also be > 0."""
    for name, value in fields.items():
        if not (_finite_real(value) and value > 0.0):
            raise ValueError(f"{name} must be a positive finite real")


def _require_non_negative(**fields: Any) -> None:
    """As :func:`_require_real`, for fields that must also be >= 0."""
    _require_real(**fields)
    for name, value in fields.items():
        if value < 0.0:
            raise ValueError(f"{name} must be a non-negative finite real")


def _store_integers(obj: Any, *names: str) -> None:
    """Store each named field of the frozen dataclass ``obj`` as ``int``.

    A value that :func:`_integral` does not accept raises ``ValueError``.
    """
    for name in names:
        value = _integral(getattr(obj, name))
        if value is None:
            raise ValueError(f"{name} must be an integer, got {getattr(obj, name)!r}")
        object.__setattr__(obj, name, value)


class DegenerateDistributionError(ValueError):
    """Raised when a density is requested in its delta-function limit."""


@dataclass(frozen=True)
class NoiseParams:
    """The three scalars parameterizing every computation.

    ``delta`` is the data-qubit spread, ``delta_tilde`` the ancilla spread
    (0 encodes the ideal-ancilla limit) and ``r`` the bias level: under bias
    the effective position spread is ``r*delta`` and the effective momentum
    spread ``delta/r``.

    Rate functions take the spreads at face value and raise ``ValueError``
    at r != 1; bias composition happens only in
    ``repetition.overall_failure_biased`` and in the biased Monte Carlo mode.
    """

    delta: float
    delta_tilde: float = 0.0
    r: float = 1.0

    def __post_init__(self) -> None:
        _require_positive(delta=self.delta, r=self.r)
        _require_non_negative(delta_tilde=self.delta_tilde)

    @property
    def position_spread(self) -> float:
        return self.r * self.delta

    @property
    def momentum_spread(self) -> float:
        return self.delta / self.r

    @property
    def ideal_ancilla(self) -> bool:
        return self.delta_tilde < IDEAL_ANCILLA_CUTOFF

    def position_noise(self) -> NoiseParams:
        """The position quadrature's spreads at face value: (r*delta, delta_tilde) at r = 1."""
        return NoiseParams(delta=self.position_spread, delta_tilde=self.delta_tilde)

    def biased_momentum_spreads(self, n: int) -> tuple[float, float]:
        """Momentum spreads of qubit 1 and of every other qubit of an n-qubit code.

        Each syndrome coupling leaks ancilla noise into the momentum
        quadrature, so qubit 1's spread grows to sqrt((delta/r)^2 + n*dt^2)
        and every other qubit's to sqrt((delta/r)^2 + 2*dt^2).
        """
        mom = self.momentum_spread
        dt = self.delta_tilde
        return math.sqrt(mom**2 + n * dt**2), math.sqrt(mom**2 + 2.0 * dt**2)


@dataclass(frozen=True)
class GaussianDisplacement:
    """Zero-mean Gaussian displacement with density exp(-x^2/s^2)/(sqrt(pi)*s)."""

    spread: float

    def __post_init__(self) -> None:
        _require_positive(spread=self.spread)

    @property
    def sigma(self) -> float:
        """Standard deviation of the equivalent normal: spread/sqrt(2)."""
        return self.spread / math.sqrt(2.0)

    def pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        d = np.minimum(np.abs(x), _GAUSS_REACH * self.spread) / self.spread
        out = np.exp(-d * d) / (SQRT_PI * self.spread)
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
    _require_positive(delta_eff=delta_eff)
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
        _require_positive(delta=self.delta)
        if not (self.delta_tilde > 0.0 and math.isfinite(self.delta_tilde)):
            raise DegenerateDistributionError(
                "delta_tilde must be strictly positive; the delta_tilde -> 0 "
                "limit is a lattice comb of point masses, use the ideal-ancilla "
                "code path instead"
            )

    def density(self, u) -> float | np.ndarray:
        """F(u'), the residual displacement density (even, unit mass)."""
        u_arr = np.asarray(u, dtype=np.float64)
        out = density(u_arr.ravel(), [self.delta], [self.delta_tilde], [u_arr.size])
        return out.reshape(u_arr.shape) if u_arr.ndim else float(out[0])


def _modulating(u: np.ndarray, delta: float | np.ndarray) -> np.ndarray:
    a = np.abs(u)
    return sp.erfc((a - HALF_CELL) / delta) - sp.erfc((a + HALF_CELL) / delta)


def density(
    u: np.ndarray, delta: Sequence[float], delta_tilde: Sequence[float], sizes: Sequence[int]
) -> np.ndarray:
    """F(u') of many residual densities in one pass.

    ``u`` is 1-D: one stretch of ``sizes[i]`` points per density
    (``delta[i]``, ``delta_tilde[i]``), one after the other.  The spreads are
    taken as given; :class:`ResidualDistribution` checks them.  Each comb
    variance is the float power ``delta_tilde[i]**2``, never numpy's square,
    which rounds differently on about one input in a thousand, and every
    element goes through the same float operations whatever else the call
    holds: each stretch has the bits of a call of its own.
    """
    sigma_sq, n_terms = [], []
    for dt in delta_tilde:
        sigma_sq.append(dt**2)
        if not sigma_sq[-1] > 0.0:
            raise ValueError("sigma_sq must be positive")
        n_terms.append(_comb_term_count(SQRT_PI, sigma_sq[-1]))
    comb = gaussian_comb_array(
        u, SQRT_PI, _per_element(sigma_sq, sizes), _per_element(n_terms, sizes)
    )
    return (
        _modulating(u, _per_element(delta, sizes))
        * comb
        / (2.0 * SQRT_PI * _per_element(delta_tilde, sizes))
    )


def _per_element(values: Sequence, sizes: Sequence[int]) -> Any:
    """``values[i]`` repeated over stretch i, or the one value they all share."""
    first = values[0]
    return first if all(v == first for v in values) else np.repeat(values, sizes)


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
