"""Displacement-tracking Monte Carlo of the repetition-code EC circuit.

Every random quantity is derived statelessly from (seed, shot index, slot)
through a splitmix64-style counter hash, and normals come from the inverse
CDF rather than rejection sampling, so a shot's draws never depend on any
other shot.  Tallies are therefore bit-identical under any partitioning of
the shot range, which is the whole reproducibility contract.

Slot layout per shot (64 slots reserved; ``CodeSize`` enforces n <= 15, so
the 4n - 1 slots of a shot never reach the next shot's counters):
  [0, n)        data displacements u_i
  [n, 2n)       GKP-EC ancilla displacements
  [2n, 3n-1)    syndrome ancilla displacements alpha_i
  [3n-1, 4n-1)  momentum displacements (biased mode only)
Each stage draws its slot range as one (shots, slots) counter block, which
hashes to the same bits as drawing the slots one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator

import numpy as np
from scipy import special as sp

from .distributions import GaussianDisplacement, NoiseParams
from .lattice import is_pauli_zone, nearest_multiple_offset_array
from .repetition import CodeSize, _as_size, _integral

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SLOT_BITS = 6  # 64 slots per shot


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _derive_key(seed: int) -> np.uint64:
    return _mix64(np.asarray([np.uint64(seed) ^ np.uint64(0xD1B54A32D192ED03)],
                             dtype=np.uint64))[0]


def uniform_draws(seed: int, shot_indices: np.ndarray, slot: int | range) -> np.ndarray:
    """Uniforms in (0, 1) for each shot index at one slot, or a (shots, k) block for k slots."""
    counters = np.bitwise_or.outer(
        shot_indices.astype(np.uint64) << np.uint64(_SLOT_BITS), np.asarray(slot, dtype=np.uint64)
    )
    key = _derive_key(seed)
    bits = _mix64(key + _GOLDEN * (counters + np.uint64(1)))
    return (bits >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54


def normal_draws(
    seed: int, shot_indices: np.ndarray, slot: int | range, spread: float
) -> np.ndarray:
    """Zero-mean draws with density exp(-x^2/spread^2) (sigma = spread/sqrt(2)).

    Shaped as :func:`uniform_draws`; zeros (never -0.0) at spread 0.
    """
    if spread == 0.0:
        return np.zeros((len(shot_indices), *np.shape(slot)))
    return sp.ndtri(uniform_draws(seed, shot_indices, slot)) * GaussianDisplacement(spread).sigma


class Mode(Enum):
    POSITION_ONLY = "position"
    BIASED_FULL = "biased"


@dataclass(frozen=True)
class ShotConfig:
    """One Monte Carlo experiment; (config, seed) fully determine the output.

    ``shots`` and ``seed`` follow ``CodeSize``'s integer rule; ``gkp_ec``
    must be a ``bool``.  Any other value raises ``ValueError``.
    """

    n: int | CodeSize
    params: NoiseParams
    shots: int
    seed: int = 0
    mode: Mode = Mode.POSITION_ONLY
    gkp_ec: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _as_size(self.n))
        for name in ("shots", "seed"):
            value = _integral(getattr(self, name))
            if value is None:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
            object.__setattr__(self, name, value)
        if not isinstance(self.gkp_ec, bool):
            raise ValueError(f"gkp_ec must be a boolean, got {self.gkp_ec!r}")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")

    @property
    def position_spread(self) -> float:
        if self.mode is Mode.BIASED_FULL:
            return self.params.position_spread
        return self.params.delta


@dataclass(frozen=True)
class ShotOverrides:
    """Deterministic injection hooks replacing sampled quantities.

    Arrays are broadcast over shots.  ``residuals`` bypasses the GKP EC
    stage entirely; the raw overrides feed the normal pipeline.
    """

    raw_data: np.ndarray | None = None
    raw_ancilla: np.ndarray | None = None
    residuals: np.ndarray | None = None
    alphas: np.ndarray | None = None


@dataclass(frozen=True)
class TallyResult:
    """Aggregated failure counts with the binomial standard error."""

    failures: int
    shots: int
    seed: int
    rate: float
    std_err: float
    breakdown: dict[str, int] = field(default_factory=dict)


def decode_syndrome_bits(syndromes: np.ndarray) -> np.ndarray:
    """Infer the flip pattern from PZ/NPZ syndrome bits (rule form).

    Syndrome i compares qubit 1 with qubit i+2, so a syndrome vector s is
    explained either by flips on {i+2 : s_i = 1} (qubit 1 clean) or by flips
    on {1} + {i+2 : s_i = 0}; exactly one of the two has correctable weight
    for odd n, and the decoder picks it.  Reproduces the lookup table (see
    :func:`decoder_table`) for every n.
    """
    syndromes = np.atleast_2d(np.asarray(syndromes, dtype=bool))
    shots, n_minus_1 = syndromes.shape
    weight = syndromes.sum(axis=1)
    qubit1_clean = weight <= n_minus_1 // 2
    pattern = np.empty((shots, n_minus_1 + 1), dtype=bool)
    pattern[:, 0] = ~qubit1_clean
    pattern[:, 1:] = np.where(qubit1_clean[:, None], syndromes, ~syndromes)
    return pattern


def decoder_table(n: int | CodeSize) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Explicit syndrome -> flip-pattern lookup, enumerated for n <= 9.

    Built by running every correctable pattern through the syndrome map
    (syndrome i fires iff exactly one of qubit 1, qubit i+2 flipped); the
    2^(n-1) syndromes are in bijection with the correctable patterns.
    """
    size = _as_size(n)
    if size.n > 9:
        raise ValueError("explicit table generated only for n <= 9")
    import itertools

    table: dict[tuple[int, ...], tuple[int, ...]] = {}
    qubits = range(size.n)
    for w in range(size.correctable_weight + 1):
        for flipped in itertools.combinations(qubits, w):
            pattern = tuple(1 if q in flipped else 0 for q in qubits)
            syndrome = tuple(
                pattern[0] ^ pattern[i + 1] for i in range(size.n - 1)
            )
            if syndrome in table:
                raise RuntimeError("syndrome collision; table construction bug")
            table[syndrome] = pattern
    return table


def sample_residual(
    delta: float,
    delta_tilde: float,
    seed: int = 0,
    shots: int = 1,
    *,
    first_shot: int = 0,
) -> np.ndarray:
    """Residual displacements u' after one round of GKP EC.

    Draws the data displacement u1 (spread ``delta``) and the ancilla
    displacement u2 (spread ``delta_tilde``), then returns
    u1 - g(u1 + u2) = k*sqrt(pi) - u2.  With ``delta_tilde = 0`` the
    residual is an exact lattice multiple.
    """
    idx = np.arange(first_shot, first_shot + shots, dtype=np.uint64)
    u1 = normal_draws(seed, idx, 0, delta)
    u2 = normal_draws(seed, idx, 1, delta_tilde)
    s = u1 + u2
    return u1 - nearest_multiple_offset_array(s)


def _simulate(
    cfg: ShotConfig,
    shot_indices: np.ndarray,
    overrides: ShotOverrides | None = None,
) -> dict[str, np.ndarray]:
    size: CodeSize = cfg.n
    n = size.n
    shots = len(shot_indices)
    params = cfg.params
    ov = overrides or ShotOverrides()

    def stage(slots: range, spread: float, values: np.ndarray | None) -> np.ndarray:
        """The injected ``values`` broadcast over shots, else the slot block's draws."""
        if values is None:
            return normal_draws(cfg.seed, shot_indices, slots, spread)
        return np.broadcast_to(np.asarray(values, dtype=np.float64), (shots, len(slots))).copy()

    u = stage(range(n), cfg.position_spread, ov.raw_data)
    if ov.residuals is not None:
        resid = stage(range(n), 0.0, ov.residuals)
    elif cfg.gkp_ec:
        resid = u - nearest_multiple_offset_array(
            u + stage(range(n, 2 * n), params.delta_tilde, ov.raw_ancilla)
        )
    else:
        resid = u
    alpha = stage(range(2 * n, 3 * n - 1), params.delta_tilde, ov.alphas)

    measured = resid[:, :1] + resid[:, 1:] + alpha
    syndromes = is_pauli_zone(measured)
    true_pattern = is_pauli_zone(resid)
    inferred = decode_syndrome_bits(syndromes)

    weight = true_pattern.sum(axis=1)
    overweight = weight > size.correctable_weight
    misidentified = ~overweight & np.any(inferred != true_pattern, axis=1)
    position_failed = overweight | misidentified

    momentum_failed = np.zeros(shots, dtype=bool)
    if cfg.mode is Mode.BIASED_FULL:
        spread_first, spread_rest = params.biased_momentum_spreads(n)
        first = normal_draws(cfg.seed, shot_indices, 3 * n - 1, spread_first)
        rest = normal_draws(cfg.seed, shot_indices, range(3 * n, 4 * n - 1), spread_rest)
        momentum_failed = is_pauli_zone(first) | np.any(is_pauli_zone(rest), axis=1)

    return {
        "u": u,
        "u_resid": resid,
        "alpha": alpha,
        "syndromes": syndromes,
        "true_pattern": true_pattern,
        "inferred_pattern": inferred,
        "overweight": overweight,
        "misidentified": misidentified,
        "position_failed": position_failed,
        "momentum_failed": momentum_failed,
        "failed": position_failed | momentum_failed,
    }


def _shot_records(first_shot: int, out: dict[str, np.ndarray]) -> Iterator[dict]:
    """The trace-schema record of each shot of one ``_simulate`` chunk, built lazily."""
    for i in range(len(out["failed"])):
        yield {
            "shot": first_shot + i,
            "u": out["u"][i].tolist(),
            "u_resid": out["u_resid"][i].tolist(),
            "alpha": out["alpha"][i].tolist(),
            "syndromes": ["PZ" if b else "NPZ" for b in out["syndromes"][i]],
            "true_pattern": [int(b) for b in out["true_pattern"][i]],
            "inferred_pattern": [int(b) for b in out["inferred_pattern"][i]],
            "position_failed": bool(out["position_failed"][i]),
            "momentum_failed": bool(out["momentum_failed"][i]),
        }


def run_shot(
    cfg: ShotConfig,
    shot_index: int = 0,
    overrides: ShotOverrides | None = None,
) -> dict:
    """Run a single trajectory and return its record, the line ``--trace`` writes for it."""
    out = _simulate(cfg, np.asarray([shot_index], dtype=np.uint64), overrides)
    return next(_shot_records(shot_index, out))


def run_tally(
    cfg: ShotConfig,
    partitions: int = 1,
    chunk_size: int = 1 << 16,
    trace: Callable[[Iterator[dict]], None] | None = None,
) -> TallyResult:
    """Aggregate ``cfg.shots`` trajectories into a failure tally.

    ``partitions`` splits the shot range into independently evaluated
    stretches (order-independent aggregation); the result is identical for
    any partition count because the per-shot randomness is stateless.
    ``trace`` receives, chunk by chunk in shot order, an iterator over the
    chunk's shot records (see :func:`run_shot`).
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    partitions = max(1, min(int(partitions), cfg.shots))
    bounds = np.linspace(0, cfg.shots, partitions + 1, dtype=np.int64)

    failures = 0
    counts = {"overweight": 0, "misidentified": 0, "momentum": 0}
    for p in range(partitions):
        start, stop = int(bounds[p]), int(bounds[p + 1])
        pos = start
        while pos < stop:
            hi = min(pos + chunk_size, stop)
            idx = np.arange(pos, hi, dtype=np.uint64)
            out = _simulate(cfg, idx)
            failures += int(out["failed"].sum())
            counts["overweight"] += int(out["overweight"].sum())
            counts["misidentified"] += int(out["misidentified"].sum())
            counts["momentum"] += int(out["momentum_failed"].sum())
            if trace is not None:
                trace(_shot_records(pos, out))
            pos = hi

    rate = failures / cfg.shots
    std_err = math.sqrt(rate * (1.0 - rate) / cfg.shots)
    return TallyResult(
        failures=failures,
        shots=cfg.shots,
        seed=cfg.seed,
        rate=rate,
        std_err=std_err,
        breakdown=counts,
    )
