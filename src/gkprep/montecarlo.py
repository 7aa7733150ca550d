"""Displacement-tracking Monte Carlo of the repetition-code EC circuit.

Every random quantity is derived statelessly from (seed, shot index, slot)
through a splitmix64-style counter hash, and normals come from the inverse
CDF rather than rejection sampling, so a shot's draws never depend on any
other shot.  Tallies are therefore bit-identical under any partitioning of
the shot range, which is the whole reproducibility contract.

Slot layout per shot (64 slots reserved; ``CodeSize`` enforces n <= 15, so
the 4n - 1 slots of a shot never reach the next shot's counters):
  [0, n)        data displacements u_i, spread r*delta (``position_spread``)
  [n, 2n)       GKP-EC ancilla displacements
  [2n, 3n-1)    syndrome ancilla displacements alpha_i
  [3n-1, 4n-1)  momentum displacements (biased mode only)
Position mode tracks the position quadrature alone, so it takes no bias:
its r must be 1, and its data spread is then delta.
Each stage draws its slot range as one (shots, slots) counter block, which
hashes to the same bits as drawing the slots one at a time.

:func:`run_tally` simulates the shots in chunks of ``_CHUNK_SHOTS`` =
4,096 shots (8 trace blocks) and deals chunk k to part k mod P, with P
the worker count (``partitions``, capped at the available cores and at the
chunks).  On POSIX it forks a child process for every part but the first,
which the calling process simulates itself; each child sends its chunks'
counts and, for a traced tally, their JSONL text back over a pipe, and the
caller adds the counts and hands the text over in shot order, in blocks of
512 shots.  The worker count never changes a tally or a trace byte.

Every draw block is column-major, each slot's shots contiguous, and
numpy's K order keeps that layout through the normal transform, the EC
rounding, the zone tests, the pair sums, the decoder and the per-shot
reductions.  Row-major, each reduction or broadcast over the k slots of a
shot is one k-element inner loop per shot; column-major it is k loops over
all the chunk's shots.  At n = 9 and 4,096 shots (2-core Xeon, numpy
2.4.6) the counter block took 13 against 71 us, a per-shot ``sum`` 25
against 108 us, an ``any`` 6 against 121 us and the pair sums 53 against
118 us.  A chunk's 3n - 1 position-slot draws then take 0.85 MB at n = 9,
within a core's 2 MiB L2 cache, and the memory a process holds is bounded
by the chunk, whatever the shot count.  Chunking never changes a draw, a
tally or a trace byte.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator

import numpy as np
from scipy import special as sp

from .distributions import GaussianDisplacement, NoiseParams, _integral, _store_integers
from .lattice import SQRT_PI, is_pauli_zone, nearest_multiple_offset_array
from .repetition import CodeSize, _as_size, available_cores, map_parts

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SLOT_BITS = 6  # 64 slots per shot
_SHOT_LIMIT = 1 << (64 - _SLOT_BITS)  # shot k + 2**58 would hash to shot k's counters
_SHOT_STEP = np.uint64((_GOLDEN << _SLOT_BITS) % 2**64)  # a shot's counters step by 64 goldens


def _mix64(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, applied to ``z`` in place."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _derive_key(seed: int) -> np.uint64:
    return _mix64(np.asarray([np.uint64(seed) ^ np.uint64(0xD1B54A32D192ED03)],
                             dtype=np.uint64))[0]


def uniform_draws(seed: int, shot_indices: np.ndarray, slot: int | range) -> np.ndarray:
    """Uniforms in (0, 1) for each shot index at one slot, or a (shots, k) block for k slots.

    The block is column-major, the transpose of a (k, shots) array.  Its
    counters ((index << 6) | slot) + 1 = index * 64 + slot + 1 are hashed as
    index * (64 * golden) plus a per-slot (slot + 1) * golden + key, all
    mod 2^64: the same words, in one pass over the shots and one add.
    """
    per_slot = (np.asarray(slot, dtype=object) + 1) * _GOLDEN + int(_derive_key(seed))
    z = np.add.outer(
        np.asarray(per_slot % 2**64, dtype=np.uint64),
        shot_indices.astype(np.uint64, copy=False) * _SHOT_STEP,
    ).T
    _mix64(z)
    z >>= np.uint64(11)
    u = z.astype(np.float64)
    u *= 2.0**-53
    u += 2.0**-54
    return u


def normal_draws(
    seed: int, shot_indices: np.ndarray, slot: int | range, spread: float
) -> np.ndarray:
    """Zero-mean draws with density exp(-x^2/spread^2) (sigma = spread/sqrt(2)).

    Shaped as :func:`uniform_draws`; zeros (never -0.0) at spread 0.
    """
    if spread == 0.0:
        return np.zeros((len(shot_indices), *np.shape(slot)), order="F")
    x = uniform_draws(seed, shot_indices, slot)
    sp.ndtri(x, out=x)
    x *= GaussianDisplacement(spread).sigma
    return x


# Largest |draw| per unit spread: the smallest uniform, 2**-54, maps to
# ndtri(2**-54), about -8.3 standard deviations of spread / sqrt(2).
_DRAW_REACH = float(-sp.ndtri(2.0**-54)) / math.sqrt(2.0)

# Below this |x| the cell index floor(x / sqrt(pi) + 1/2) of a displacement
# is exact; beyond it the rounding loses the index's parity, and past the
# int64 range its cast is undefined.
_EXACT_CELL_RANGE = 2.0**52 * SQRT_PI


class Mode(Enum):
    POSITION_ONLY = "position"
    BIASED_FULL = "biased"


@dataclass(frozen=True)
class ShotConfig:
    """One Monte Carlo experiment; (config, seed) fully determine the output.

    ``mode`` is a :class:`Mode` or its value (``"biased"``); ``shots`` and
    ``seed`` follow ``CodeSize``'s integer rule, and ``shots`` is at most
    2^58, the number of shots with counters of their own; ``gkp_ec`` must be
    a ``bool``.  The data draws have spread ``params.position_spread``
    (r*delta); position mode draws no momentum, so there the bias r must be
    1.  Any other value raises ``ValueError``, and so does a spread whose
    draws can reach a value beyond ``_EXACT_CELL_RANGE``, where its zone
    could no longer be told.
    """

    n: int | CodeSize
    params: NoiseParams
    shots: int
    seed: int = 0
    mode: Mode = Mode.POSITION_ONLY
    gkp_ec: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", Mode(self.mode))
        object.__setattr__(self, "n", _as_size(self.n))
        _store_integers(self, "shots", "seed")
        if not isinstance(self.gkp_ec, bool):
            raise ValueError(f"gkp_ec must be a boolean, got {self.gkp_ec!r}")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.shots > _SHOT_LIMIT:
            raise ValueError(f"shots must be at most 2**58, got {self.shots}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.mode is Mode.POSITION_ONLY and self.params.r != 1.0:
            raise ValueError(f"r applies only in biased mode; position mode takes r = 1, "
                             f"got {self.params.r!r}")
        # a syndrome sums two residuals, each within sqrt(pi)/2 of its data
        # draw, and an alpha draw; a momentum draw is classified as it is
        spreads = [2.0 * self.params.position_spread + self.params.delta_tilde]
        if self.mode is Mode.BIASED_FULL:
            spreads += self.params.biased_momentum_spreads(self.n.n)
        reach = _DRAW_REACH * max(spreads) + SQRT_PI
        if not reach < _EXACT_CELL_RANGE:
            raise ValueError(
                f"spreads this large draw displacements up to {reach:.3g}, beyond "
                f"{_EXACT_CELL_RANGE:.3g}, where the Monte Carlo can no longer tell "
                f"their zones"
            )


@dataclass(frozen=True)
class ShotOverrides:
    """Deterministic injection hooks replacing sampled quantities.

    Arrays hold one value per qubit (n; n - 1 for ``alphas``), or one such
    row per shot; a shot given another shape raises ``ValueError``.
    ``residuals`` bypasses the GKP EC stage entirely; the raw overrides feed
    the normal pipeline.  A value that does not convert to an array of
    finite floats raises ``ValueError``, and so does one beyond a quarter of
    ``_EXACT_CELL_RANGE``: a syndrome sums two residuals and an alpha, and
    that bound keeps any such sum within the range where zones are exact.
    """

    raw_data: np.ndarray | None = None
    raw_ancilla: np.ndarray | None = None
    residuals: np.ndarray | None = None
    alphas: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in ("raw_data", "raw_ancilla", "residuals", "alphas"):
            value = getattr(self, name)
            if value is None:
                continue
            try:
                values = np.asarray(value, dtype=np.float64)
                finite = np.isfinite(values).all()
            except (TypeError, ValueError):
                finite = False
            if not finite:
                raise ValueError(f"{name} must be an array of finite floats, got {value!r}")
            if not (np.abs(values) <= _EXACT_CELL_RANGE / 4).all():
                raise ValueError(
                    f"{name} must stay within +-{_EXACT_CELL_RANGE / 4:.3g}, where the "
                    f"Monte Carlo can still tell the zones of their sums"
                )


@dataclass(frozen=True)
class TallyResult:
    """Aggregated failure counts with the binomial standard error.

    ``std_err`` is sqrt(rate * (1 - rate) / shots), which is 0 when no shot
    (or every shot) fails; ``ci95`` is the Wilson score interval at 95 %
    (Brown, Cai & DasGupta, Statist. Sci. 16, 2001): the two rates p with
    (rate - p)^2 = z^2 p (1 - p) / shots, z the 0.975 normal quantile.  Its
    upper bound stays above 0 with no failures.
    """

    failures: int
    shots: int
    seed: int
    rate: float
    std_err: float
    ci95: tuple[float, float]
    breakdown: dict[str, int] = field(default_factory=dict)


def _wilson_interval(failures: int, shots: int) -> tuple[float, float]:
    """:attr:`TallyResult.ci95` of ``failures`` in ``shots``.

    The lower bound is taken as the product of the two roots,
    failures^2 / (shots * (shots + z^2)), over the upper one: no
    cancellation, and exactly 0 with no failures.
    """
    z2 = float(sp.ndtri(0.975)) ** 2
    upper = failures + z2 / 2.0 + math.sqrt(z2 * (failures * (shots - failures) / shots + z2 / 4.0))
    return failures**2 / (shots * upper), min(upper / (shots + z2), 1.0)


def decode_syndrome_bits(syndromes: np.ndarray) -> np.ndarray:
    """Infer the flip pattern from PZ/NPZ syndrome bits (rule form).

    Syndrome i compares qubit 1 with qubit i+2, so a syndrome vector s is
    explained either by flips on {i+2 : s_i = 1} (qubit 1 clean) or by flips
    on {1} + {i+2 : s_i = 0}; exactly one of the two has correctable weight
    for odd n, and the decoder picks it.  This is the lookup table that runs
    every correctable pattern through the syndrome map, which
    ``tests/test_montecarlo.py`` enumerates for every odd n from 3 to 15.
    """
    syndromes = np.atleast_2d(np.asarray(syndromes, dtype=bool))
    shots, n_minus_1 = syndromes.shape
    qubit1_flipped = syndromes.sum(axis=1) > n_minus_1 // 2
    pattern = np.empty_like(syndromes, shape=(shots, n_minus_1 + 1))  # in the input's order
    pattern[:, 0] = qubit1_flipped
    np.not_equal(syndromes, qubit1_flipped[:, None], out=pattern[:, 1:])
    return pattern


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
    residual is an exact lattice multiple.  ``first_shot`` and ``shots`` must
    be integers (``CodeSize``'s rule) with the shots [first_shot, first_shot
    + shots) in [0, 2^58); beyond that a shot would reuse another shot's
    counters.
    """
    first, count = _integral(first_shot), _integral(shots)
    if first is None or count is None or not 0 <= first <= first + count <= _SHOT_LIMIT:
        raise ValueError(
            "first_shot and shots must be integers with [first_shot, first_shot + shots)"
            f" in [0, 2**58), got first_shot={first_shot!r}, shots={shots!r}"
        )
    idx = np.arange(first, first + count, dtype=np.uint64)
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

    def stage(slots: range, spread: float, name: str) -> np.ndarray:
        """Override ``name`` broadcast over shots if it is set, else the slot block's draws."""
        values = getattr(ov, name)
        if values is None:
            return normal_draws(cfg.seed, shot_indices, slots, spread)
        values, k = np.asarray(values, dtype=np.float64), len(slots)
        if values.shape[-1:] != (k,) or values.shape[:-1] not in ((), (1,), (shots,)):
            raise ValueError(f"{name} must hold {k} values per shot at n = {n}, got {values.shape}")
        return np.broadcast_to(values, (shots, k)).copy(order="F")

    u = stage(range(n), params.position_spread, "raw_data")
    if ov.residuals is not None:
        resid = stage(range(n), 0.0, "residuals")
    elif cfg.gkp_ec:
        resid = u - nearest_multiple_offset_array(
            u + stage(range(n, 2 * n), params.delta_tilde, "raw_ancilla")
        )
    else:
        resid = u
    alpha = stage(range(2 * n, 3 * n - 1), params.delta_tilde, "alphas")

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


_TRACE_BLOCK = 512  # shots per trace text block; bounds the text held at once
_CHUNK_SHOTS = 1 << 12  # shots simulated at once; bounds the arrays held at once


@functools.cache
def _bit_lists(width: int, zero: str, one: str) -> np.ndarray:
    """The JSON list of every ``width``-bit row, indexed by the row read as a binary number."""
    rows = ["[" + ", ".join(bits) + "]" for bits in itertools.product((zero, one), repeat=width)]
    table = np.array(rows, dtype=object)
    table.flags.writeable = False  # shared by every caller through the cache
    return table


def _shot_lines(first_shot: int, out: dict[str, np.ndarray]) -> Iterator[str]:
    """The trace JSONL text of one ``_simulate`` chunk, built lazily block by block.

    Each block of ``_TRACE_BLOCK`` shots is one ``%`` format of the line
    template repeated, whose keys are in sorted order: the bytes of
    ``json.dumps(record, sort_keys=True)`` for every record.  ``%r`` spells
    a float as JSON does only when it is finite, which ``ShotOverrides``
    and the finite draws ensure.
    """
    shots, n = out["u"].shape

    def floats(count: int) -> str:
        return "[" + ", ".join(["%r"] * count) + "]"

    line = (
        f'{{"alpha": {floats(n - 1)}, "inferred_pattern": %s, "momentum_failed": %s, '
        f'"position_failed": %s, "shot": %d, "syndromes": %s, "true_pattern": %s, '
        f'"u": {floats(n)}, "u_resid": {floats(n)}}}\n'
    )
    booleans = np.array(["false", "true"], dtype=object)

    def lists(bits: np.ndarray, zero: str, one: str) -> np.ndarray:
        width = bits.shape[1]
        return _bit_lists(width, zero, one)[bits @ (1 << np.arange(width - 1, -1, -1)), None]

    for lo in range(0, shots, _TRACE_BLOCK):
        rows = slice(lo, lo + _TRACE_BLOCK)
        block = np.concatenate([
            out["alpha"][rows],
            lists(out["inferred_pattern"][rows], "0", "1"),
            booleans[out["momentum_failed"][rows].astype(np.intp), None],
            booleans[out["position_failed"][rows].astype(np.intp), None],
            np.arange(first_shot + lo, first_shot + min(lo + _TRACE_BLOCK, shots))[:, None],
            lists(out["syndromes"][rows], '"NPZ"', '"PZ"'),
            lists(out["true_pattern"][rows], "0", "1"),
            out["u"][rows],
            out["u_resid"][rows],
        ], axis=1, dtype=object)
        yield (line * len(block)) % tuple(block.ravel().tolist())


def run_shot(
    cfg: ShotConfig,
    shot_index: int = 0,
    overrides: ShotOverrides | None = None,
) -> dict:
    """Run a single trajectory and return its record, the line ``--trace`` writes for it.

    ``shot_index`` must be an integer (``CodeSize``'s rule) in [0, 2^58);
    beyond that a shot would reuse another shot's counters.
    """
    index = _integral(shot_index)
    if index is None or not 0 <= index < _SHOT_LIMIT:
        raise ValueError(f"shot_index must be an integer in [0, 2**58), got {shot_index!r}")
    out = _simulate(cfg, np.asarray([index], dtype=np.uint64), overrides)
    return json.loads(next(_shot_lines(index, out)))


# Per-shot outcomes a tally counts: the failures, then the breakdown.
_COUNTED = ("failed", "overweight", "misidentified", "momentum_failed")


def _tally_part(cfg: ShotConfig, traced: bool, part: int, parts: int) -> Iterator:
    """Chunks ``part``, ``part + parts``, ... of the shots: per chunk its counts, then its text.

    A chunk's counts are the ``_COUNTED`` sums; a traced chunk's
    ``_shot_lines`` blocks follow them, one item each.  Part 0, which
    :func:`~gkprep.repetition.map_parts` runs in the calling process,
    formats its blocks as they are drawn; any other part formats its whole
    chunk before it sends any item of it, so that it does not wait on a
    full pipe while the caller formats a chunk of its own.
    """
    for pos in range(part * _CHUNK_SHOTS, cfg.shots, parts * _CHUNK_SHOTS):
        out = _simulate(cfg, np.arange(pos, min(pos + _CHUNK_SHOTS, cfg.shots), dtype=np.uint64))
        blocks = _shot_lines(pos, out) if traced else ()
        if part:
            blocks = list(blocks)
        yield [int(out[key].sum()) for key in _COUNTED]
        yield from blocks


def run_tally(
    cfg: ShotConfig,
    partitions: int = 1,
    trace: Callable[[Iterator[str]], None] | None = None,
) -> TallyResult:
    """Aggregate ``cfg.shots`` trajectories into a failure tally.

    ``partitions`` must be an integer >= 1 (``ValueError`` otherwise).  The
    shots are simulated in chunks of 4,096, so the memory each process
    holds does not grow with ``cfg.shots``, and the tally uses
    ``min(partitions, chunks, available cores)`` parts: chunk k goes to
    part k mod parts.  The calling process simulates part 0 and, on POSIX,
    a forked child each other part (:func:`~gkprep.repetition.map_parts`);
    the caller adds the chunks' counts in shot order.  ``trace`` receives,
    chunk by chunk in shot order, a lazy iterator over the chunk's trace
    text: blocks of JSONL lines, one line per shot (see :func:`run_shot`),
    such as ``file.writelines`` takes.  The caller holds one of a child's
    blocks at a time, and drains what ``trace`` leaves unread.  The result
    and the trace are identical for any worker count because the per-shot
    randomness is stateless.
    """
    workers = _integral(partitions)
    if workers is None or workers < 1:
        raise ValueError(f"partitions must be an integer >= 1, got {partitions!r}")
    chunks = -(-cfg.shots // _CHUNK_SHOTS)
    parts = min(workers, chunks, available_cores())
    totals = [0] * len(_COUNTED)
    tally = functools.partial(_tally_part, cfg, trace is not None)
    with map_parts(tally, parts) as streams:
        for k in range(chunks):
            stream = streams[k % parts]
            totals = [a + b for a, b in zip(totals, next(stream))]
            if trace is not None:
                shots = min(_CHUNK_SHOTS, cfg.shots - k * _CHUNK_SHOTS)
                blocks = itertools.islice(stream, -(-shots // _TRACE_BLOCK))
                trace(blocks)
                for _ in blocks:  # keep the stream in step past blocks trace left unread
                    pass
    failures, *breakdown = totals

    rate = failures / cfg.shots
    std_err = math.sqrt(rate * (1.0 - rate) / cfg.shots)
    return TallyResult(
        failures=failures,
        shots=cfg.shots,
        seed=cfg.seed,
        rate=rate,
        std_err=std_err,
        ci95=_wilson_interval(failures, cfg.shots),
        breakdown=dict(zip(("overweight", "misidentified", "momentum"), breakdown)),
    )
