"""Wavefunctions and Wigner functions of finite-energy GKP states.

Small-spread closed forms are the primary implementation: combs of
Gaussians with Gaussian envelopes.  The exact finite-spread corrections
(slightly shrunk widths and peak positions, controlled by delta^2*kappa^2/4)
are available behind ``exact=True``; they matter only when the product of
the spreads is not small.

A :class:`GkpEnvelope` holds the two widths only.  :func:`wavefunction`
takes the logical state (zero, one or plus) as its ``logical`` argument;
every Wigner function here is of logical zero.

Normalization convention: the Wigner combs carry unit amplitude at the
origin, so the phase-space integral of a logical-zero grid is pi (divide by
pi for a unit-mass quasi-distribution).  The position-basis zero/one
wavefunctions are normalized in the small-spread limit; the momentum-basis
and plus-state forms keep the same prefactor convention, which puts their
squared norm at 2 in that limit (their combs are twice as dense).  Grids
are emitted unnormalized.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .distributions import _GAUSS_REACH, _require_non_negative, _require_positive, _require_real
from .lattice import SQRT_PI

# Comb terms whose envelope weight falls below this fraction of the leading
# peak are dropped; far below every documented tolerance.
WEIGHT_CUTOFF = 1e-14

_MAGIC = b"GKPW"
_HEADER = struct.Struct("<4sII4fI")  # magic, n_q, n_p, q_lo, q_hi, p_lo, p_hi, reserved
assert _HEADER.size == 32


@dataclass(frozen=True)
class GkpEnvelope:
    """Finite-energy GKP envelope: position comb width delta, momentum kappa.

    The logical state is an argument of :func:`wavefunction`, its one reader.
    """

    delta: float
    kappa: float

    def __post_init__(self) -> None:
        _require_positive(delta=self.delta, kappa=self.kappa)

    def widths(self, exact: bool) -> tuple[float, float, float]:
        """(delta, kappa, gamma) of the exact form if ``exact``, else of the small-spread one.

        The exact form divides both widths by sqrt(1 + x) and scales the peak
        positions by gamma = (1 - x)/(1 + x), with x = (delta*kappa)^2/4.
        """
        if not exact:
            return self.delta, self.kappa, 1.0
        x = (self.delta * self.kappa) ** 2 / 4.0
        shrink = math.sqrt(1.0 + x)
        return self.delta / shrink, self.kappa / shrink, (1.0 - x) / (1.0 + x)


@dataclass(frozen=True)
class GridSpec:
    q_range: tuple[float, float]
    p_range: tuple[float, float]
    n_q: int
    n_p: int

    def __post_init__(self) -> None:
        if self.q_range[0] >= self.q_range[1] or self.p_range[0] >= self.p_range[1]:
            raise ValueError("ranges must be increasing")
        if self.n_q < 2 or self.n_p < 2:
            raise ValueError("resolution must be at least 2 per axis")

    def q_axis(self) -> np.ndarray:
        return np.linspace(*self.q_range, self.n_q)

    def p_axis(self) -> np.ndarray:
        return np.linspace(*self.p_range, self.n_p)


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Dense evaluation; values[i, j] = W(q_axis[i], p_axis[j])."""

    spec: GridSpec
    values: np.ndarray


def _comb(
    x: np.ndarray,
    centers: np.ndarray,
    weights: np.ndarray,
    width: float,
) -> np.ndarray:
    """sum_k weights[k] * exp(-(x - centers[k])^2 / width^2) (vectorized)."""
    d = np.minimum(np.abs(x[..., None] - centers), _GAUSS_REACH * width) / width
    return np.einsum("...k,k->...", np.exp(-d * d), weights)


def _indices(max_abs: float) -> np.ndarray:
    return np.arange(-math.ceil(max_abs), math.ceil(max_abs) + 1)


_LOG_CUTOFF = -math.log(WEIGHT_CUTOFF)


# Peak layout per (logical, basis): spacing and offset of the peak label L
# (peaks sit at L*sqrt(pi)) and whether the weights alternate in sign.  The
# envelope weight is exp(-(pi/2) * scale^2 * L^2) in every case, with scale
# the conjugate-quadrature comb width.
_COMB_LAYOUT = {
    ("zero", "position"): (2, 0, False),
    ("zero", "momentum"): (1, 0, False),
    ("one", "position"): (2, 1, False),
    ("one", "momentum"): (1, 0, True),
    ("plus", "position"): (1, 0, False),
    ("plus", "momentum"): (2, 0, False),
}


def _wavefunction_comb(
    env: GkpEnvelope, basis: str, exact: bool, logical: str
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(centers, weights, width, prefactor) of the requested comb."""
    d, k, gamma = env.widths(exact)
    if basis == "position":
        width, envelope_scale = d, k
        prefactor = (4.0 * env.kappa**2 / (math.pi * env.delta**2)) ** 0.25
    elif basis == "momentum":
        width, envelope_scale = k, d
        prefactor = (4.0 * env.delta**2 / (math.pi * env.kappa**2)) ** 0.25
    else:
        raise ValueError(f"basis must be 'position' or 'momentum', got {basis!r}")

    spacing, offset, alternating = _COMB_LAYOUT[(logical, basis)]
    coeff = 0.5 * math.pi * envelope_scale**2
    label_max = math.sqrt(_LOG_CUTOFF / coeff)
    n_max = (label_max + abs(offset)) / spacing + 1.0
    n = _indices(n_max)
    label = spacing * n + offset
    weights = np.exp(-coeff * label.astype(np.float64) ** 2)
    if alternating:
        weights = weights * np.where(n % 2 == 0, 1.0, -1.0)
    centers = label * gamma * SQRT_PI
    keep = np.abs(weights) >= WEIGHT_CUTOFF
    return centers[keep], weights[keep], width, prefactor


def wavefunction(
    env: GkpEnvelope, basis: str, x, *, exact: bool = False, logical: str = "zero"
) -> float | np.ndarray:
    """Approximate GKP wavefunction of the ``logical`` state at quadrature value(s) ``x``.

    ``logical`` is ``"zero"``, ``"one"`` or ``"plus"``; any other value
    raises ``ValueError``.  Logical zero peaks at even multiples of sqrt(pi)
    in position; logical one at odd multiples; in momentum both comb over
    all multiples with the logical-one peaks alternating in sign.
    ``exact=True`` applies the finite-spread width/position corrections.
    """
    if logical not in ("zero", "one", "plus"):
        raise ValueError(f"logical must be zero/one/plus, got {logical!r}")
    centers, weights, width, prefactor = _wavefunction_comb(env, basis, exact, logical)
    x_arr = np.asarray(x, dtype=np.float64)
    out = prefactor * _comb(x_arr, centers, weights, width * math.sqrt(2.0))
    return out if out.ndim else float(out)


def _wigner_axes(
    env: GkpEnvelope,
    q: np.ndarray,
    p: np.ndarray,
    q_width: float,
    p_width: float,
    exact: bool,
) -> np.ndarray:
    """Double-comb Wigner evaluation on the outer product of q and p axes."""
    d_s, k_s, gamma = env.widths(exact)
    m_max = math.sqrt(4.0 * _LOG_CUTOFF / math.pi) / d_s + 1.0
    m = _indices(m_max)
    w_m = np.exp(-math.pi * d_s**2 * m**2 / 4.0)
    p_centers = m * gamma * SQRT_PI / 2.0
    p_plus = _comb(p, p_centers, w_m, p_width)
    p_minus = _comb(p, p_centers, w_m * np.where(m % 2 == 0, 1.0, -1.0), p_width)

    n_max = math.sqrt(_LOG_CUTOFF / math.pi) / k_s + 1.0
    n = _indices(n_max)
    even_idx = 2 * n
    w_even = np.exp(-math.pi * k_s**2 * even_idx**2)
    q_even = _comb(q, even_idx * gamma * SQRT_PI, w_even, q_width)
    odd_idx = 2 * n + 1
    w_odd = np.exp(-math.pi * k_s**2 * odd_idx**2)
    q_odd = _comb(q, odd_idx * gamma * SQRT_PI, w_odd, q_width)

    return np.outer(q_even, p_plus) + np.outer(q_odd, p_minus)


def wigner_physical_zero(
    env: GkpEnvelope, spec: GridSpec, *, exact: bool = False
) -> PhaseSpaceGrid:
    """Wigner function of the logical-zero state on a phase-space grid.

    Positive peaks sit at (2n*sqrt(pi), m*sqrt(pi)/2); the peaks at odd
    multiples of sqrt(pi) in q alternate in sign with m.
    """
    d_s, k_s, _ = env.widths(exact)
    values = _wigner_axes(env, spec.q_axis(), spec.p_axis(), d_s, k_s, exact)
    return PhaseSpaceGrid(spec=spec, values=values)


def wigner_after_gdc(
    env: GkpEnvelope,
    channel: tuple[float, float],
    spec: GridSpec,
) -> PhaseSpaceGrid:
    """Wigner function of logical zero after a Gaussian displacement channel.

    The channel convolves each Gaussian peak, so peak variances add
    (delta^2 + dq^2 along q, kappa^2 + dp^2 along p) and the amplitude
    rescales by delta*kappa/sqrt((dq^2+delta^2)(dp^2+kappa^2)); envelope
    weights are untouched.  Each spread must be a non-negative finite real
    (``ValueError`` otherwise); zero leaves its quadrature unchanged.
    """
    dq, dp = channel
    _require_non_negative(dq=dq, dp=dp)
    q_width = math.sqrt(env.delta**2 + dq**2)
    p_width = math.sqrt(env.kappa**2 + dp**2)
    amplitude = env.delta * env.kappa / (q_width * p_width)
    values = amplitude * _wigner_axes(
        env, spec.q_axis(), spec.p_axis(), q_width, p_width, exact=False
    )
    return PhaseSpaceGrid(spec=spec, values=values)


def wigner_point(env: GkpEnvelope, q: float, p: float) -> float:
    """W(q, p) of the logical-zero state at a single phase-space point."""
    _require_real(q=q, p=p)
    out = _wigner_axes(
        env, np.asarray([q], dtype=np.float64), np.asarray([p], dtype=np.float64),
        env.delta, env.kappa, exact=False,
    )
    return float(out[0, 0])


def grid_to_csv(grid: PhaseSpaceGrid, path: str) -> None:
    """CSV export: header q,p,value with 17 significant digits.

    Each axis value is formatted once, and each q-row is written with one
    ``%``-format over its values, so at most one row's text is held at a time.
    """
    p_fields = [f"{pv:.17g},%.17g\n" for pv in grid.spec.p_axis().tolist()]
    with open(path, "w", newline="") as handle:
        handle.write("q,p,value\n")
        for qv, row in zip(grid.spec.q_axis().tolist(), grid.values):
            q_field = f"{qv:.17g},"
            handle.write((q_field + q_field.join(p_fields)) % tuple(row.tolist()))


def grid_to_binary(grid: PhaseSpaceGrid, path: str) -> None:
    """Dense binary export: 32-byte header then row-major float64 values.

    Header layout (little endian): magic "GKPW", n_q and n_p as uint32,
    q_lo, q_hi, p_lo, p_hi as float32, 4 reserved bytes.
    """
    spec = grid.spec
    header = _HEADER.pack(
        _MAGIC, spec.n_q, spec.n_p,
        spec.q_range[0], spec.q_range[1], spec.p_range[0], spec.p_range[1],
        0,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(grid.values, dtype="<f8").tobytes())


def read_binary_grid(path: str) -> PhaseSpaceGrid:
    """Load a grid written by :func:`grid_to_binary`.

    A file that is not exactly the header plus n_q * n_p float64 values,
    as its header gives them, raises ``ValueError`` naming the path and the
    byte count expected.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        raise ValueError(f"{path}: {len(data)} bytes, expected at least {_HEADER.size}")
    magic, n_q, n_p, q_lo, q_hi, p_lo, p_hi, _ = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise ValueError(f"{path}: not a grid file (magic {magic!r})")
    size = _HEADER.size + 8 * n_q * n_p
    if len(data) != size:
        raise ValueError(f"{path}: {len(data)} bytes, expected {size} for a {n_q}x{n_p} grid")
    values = np.frombuffer(data, dtype="<f8", offset=_HEADER.size).reshape(n_q, n_p)
    spec = GridSpec(
        q_range=(float(q_lo), float(q_hi)),
        p_range=(float(p_lo), float(p_hi)),
        n_q=n_q,
        n_p=n_p,
    )
    return PhaseSpaceGrid(spec=spec, values=values.copy())
