"""Wigner functions of finite-energy GKP states.

Every Wigner function here is of logical zero, in one closed form: a double
comb of Gaussians with Gaussian envelopes, in its finite-spread form.  With
x = (delta*kappa)^2/4, both widths shrink by sqrt(1 + x) and the peak
positions scale by gamma = (1 - x)/(1 + x).  That form is kept because it is
the Weyl transform of its own position wavefunction (a comb of Gaussians of
the same widths and centres), within 1e-6 at both fig. 1 envelopes; the
small-spread form (no shrink, gamma = 1) misses it by up to 4.2e-3.  The
form needs delta*kappa < 2: gamma is 0 at 2, and past it the form would
alias a smaller spread, so :class:`GkpEnvelope` raises ``ValueError`` there.

Normalization convention: the Wigner combs carry unit amplitude at the
origin, so the phase-space integral of a logical-zero grid is pi (divide by
pi for a unit-mass quasi-distribution).  Grids are emitted unnormalized.
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

    Both must be positive finite reals with delta*kappa < 2, where the
    finite-spread form is defined; anything else raises ``ValueError``.
    """

    delta: float
    kappa: float

    def __post_init__(self) -> None:
        _require_positive(delta=self.delta, kappa=self.kappa)
        if not self.delta * self.kappa < 2.0:
            raise ValueError(f"delta*kappa must be below 2, got {self.delta * self.kappa!r}")


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


def _comb_terms(
    x: np.ndarray, count: int, spacing: float, width: float, shift: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Labels n and Gaussians exp(-(x - shift - n*spacing)^2 / width^2) of the peaks near each x.

    Of the peaks |n| <= ``count``, each x takes a window of 2k + 1 centred
    on its nearest one (moved inside the cap at the ends), with k the
    peaks within ``_GAUSS_REACH`` widths, at most ``count``.  A Gaussian
    clipped at that reach is exactly 0, so every peak outside the window
    would add 0; and the window depends on x alone, so a point's comb sums
    the same terms in the same order on any axis.  Both arrays are shaped
    ``x.shape + (2k + 1,)``.
    """
    k = min(math.ceil(_GAUSS_REACH * width / spacing) + 1, count)
    nearest = np.clip(np.rint((x - shift) / spacing), k - count, count - k)
    n = nearest[..., None] + np.arange(-k, k + 1)
    d = np.minimum(np.abs(x[..., None] - (shift + n * spacing)), _GAUSS_REACH * width) / width
    return n, np.exp(-d * d)


_LOG_CUTOFF = -math.log(WEIGHT_CUTOFF)


def _wigner_axes(
    env: GkpEnvelope, q: np.ndarray, p: np.ndarray, channel: tuple[float, float] = (0.0, 0.0)
) -> np.ndarray:
    """Wigner values on the outer product of the q and p axes, after the channel.

    A Gaussian displacement channel of spreads (dq, dp) convolves each peak:
    its widths become sqrt(d_s^2 + dq^2) and sqrt(k_s^2 + dp^2), with d_s and
    k_s the shrunk widths, and the amplitude d_s*k_s/(q_width*p_width), which
    is exactly 1.0 for the zero channel.  Each comb sums, at each point, the
    peaks within reach of it (:func:`_comb_terms`), so the cost does not
    grow with 1/delta or 1/kappa.
    """
    x = (env.delta * env.kappa) ** 2 / 4.0
    shrink = math.sqrt(1.0 + x)
    d_s, k_s, gamma = env.delta / shrink, env.kappa / shrink, (1.0 - x) / (1.0 + x)
    q_width = math.sqrt(d_s**2 + channel[0] ** 2)
    p_width = math.sqrt(k_s**2 + channel[1] ** 2)

    m_count = math.ceil(math.sqrt(4.0 * _LOG_CUTOFF / math.pi) / d_s + 1.0)
    m, gauss = _comb_terms(p, m_count, gamma * SQRT_PI / 2.0, p_width)
    w_m = np.exp(-math.pi * d_s**2 * m**2 / 4.0)
    p_plus = np.einsum("...k,...k->...", gauss, w_m)
    p_minus = np.einsum("...k,...k->...", gauss, w_m * np.where(m % 2 == 0, 1.0, -1.0))

    n_count = math.ceil(math.sqrt(_LOG_CUTOFF / math.pi) / k_s + 1.0)

    def q_comb(odd: int) -> np.ndarray:
        """The q comb of the peaks at (2n + odd)*gamma*sqrt(pi)."""
        n, gauss = _comb_terms(q, n_count, 2.0 * gamma * SQRT_PI, q_width, odd * gamma * SQRT_PI)
        return np.einsum("...k,...k->...", gauss, np.exp(-math.pi * k_s**2 * (2 * n + odd) ** 2))

    q_even, q_odd = q_comb(0), q_comb(1)

    amplitude = d_s * k_s / (q_width * p_width)
    return amplitude * (np.outer(q_even, p_plus) + np.outer(q_odd, p_minus))


def wigner_physical_zero(env: GkpEnvelope, spec: GridSpec) -> PhaseSpaceGrid:
    """Wigner function of the logical-zero state on a phase-space grid.

    Positive peaks sit at (2n*gamma*sqrt(pi), m*gamma*sqrt(pi)/2); the peaks
    at odd multiples of gamma*sqrt(pi) in q alternate in sign with m.
    """
    return PhaseSpaceGrid(spec=spec, values=_wigner_axes(env, spec.q_axis(), spec.p_axis()))


def wigner_after_gdc(
    env: GkpEnvelope,
    channel: tuple[float, float],
    spec: GridSpec,
) -> PhaseSpaceGrid:
    """Wigner function of logical zero after a Gaussian displacement channel.

    The channel convolves each Gaussian peak, so peak variances add along
    each quadrature and the amplitude rescales (:func:`_wigner_axes`);
    envelope weights are untouched.  Each spread must be a non-negative
    finite real (``ValueError`` otherwise); zero leaves its quadrature
    unchanged, and the zero channel gives :func:`wigner_physical_zero`'s
    grid bit for bit.
    """
    _require_non_negative(dq=channel[0], dp=channel[1])
    return PhaseSpaceGrid(
        spec=spec, values=_wigner_axes(env, spec.q_axis(), spec.p_axis(), channel)
    )


def wigner_point(env: GkpEnvelope, q: float, p: float) -> float:
    """W(q, p) of the logical-zero state at a single phase-space point.

    It equals the cell of :func:`wigner_physical_zero`'s grid at (q, p) bit for bit.
    """
    _require_real(q=q, p=p)
    return float(_wigner_axes(env, np.asarray([q], dtype=np.float64),
                              np.asarray([p], dtype=np.float64))[0, 0])


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
