import collections
import dataclasses
import hashlib
import itertools
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from gkprep import montecarlo
from gkprep.distributions import NoiseParams, ResidualDistribution
from gkprep.lattice import SQRT_PI, is_pauli_zone
from gkprep.montecarlo import (
    _SLOT_BITS,
    Mode,
    ShotConfig,
    ShotOverrides,
    decode_syndrome_bits,
    normal_draws,
    run_shot,
    run_tally,
    sample_residual,
    uniform_draws,
)
from gkprep.quadrature import panel_nodes
from gkprep.repetition import (
    CodeSize,
    failure_rate,
    failure_rate_no_gkp_ec,
    overall_failure_biased,
    pauli_rate_physical,
)


class TestCounterRng:
    def test_moment_matches_spread_convention(self):
        # density exp(-x^2/s^2) has variance s^2/2
        draws = normal_draws(9, np.arange(500_000, dtype=np.uint64), 3, 0.5)
        assert draws.var() == pytest.approx(0.5**2 / 2.0, rel=5e-3)
        assert abs(draws.mean()) < 3.0 * 0.5 / math.sqrt(2 * 500_000)

    @pytest.mark.parametrize("spread", [0.0, 0.37])
    @pytest.mark.parametrize("first_shot", [0, 2**57 - 3])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_slot_range_block_equals_per_slot_draws(self, seed, first_shot, spread):
        idx = np.arange(first_shot, first_shot + 7, dtype=np.uint64)
        slots = range(5, 9)
        block = normal_draws(seed, idx, slots, spread)
        per_slot = np.column_stack([normal_draws(seed, idx, s, spread) for s in slots])
        assert block.shape == (7, 4)
        assert block.flags.f_contiguous  # each slot's shots contiguous
        assert block.tobytes() == per_slot.tobytes()
        uniforms = np.column_stack([uniform_draws(seed, idx, s) for s in slots])
        assert uniform_draws(seed, idx, slots).tobytes() == uniforms.tobytes()
        if spread == 0.0:
            assert not np.signbit(block).any()

    def test_slots_are_independent_streams(self):
        idx = np.arange(100_000, dtype=np.uint64)
        a = normal_draws(9, idx, 0, 1.0)
        b = normal_draws(9, idx, 1, 1.0)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.01

    def test_deterministic(self):
        idx = np.arange(1000, dtype=np.uint64)
        assert np.array_equal(
            normal_draws(5, idx, 2, 0.7), normal_draws(5, idx, 2, 0.7)
        )

    def test_seed_changes_stream(self):
        idx = np.arange(1000, dtype=np.uint64)
        assert not np.array_equal(
            normal_draws(5, idx, 2, 0.7), normal_draws(6, idx, 2, 0.7)
        )

    # Bits of the counter hash, fixed so that a rewrite of the hash is checked
    # against constants and not only against itself.
    PINNED_UNIFORM_BITS = {
        (0, 5): [0x3FE78F04A159AC90, 0x3FE16C043A75A3CE],
        (0, range(60, 64)): [
            [0x3FDF7BE49B551937, 0x3FE401732D41C6CA, 0x3FE80F502BB045FA, 0x3FE94943D6C5F5E4],
            [0x3FEEB3E1AD120036, 0x3FE5EE2A0AA4C638, 0x3FDE677F7388F24F, 0x3FCEE887B50EB122],
        ],
        (2**64 - 1, 5): [0x3F96110548957EB0, 0x3FC3263D1584CF12],
        (2**64 - 1, range(60, 64)): [
            [0x3FC1C1D5EEA605FE, 0x3FD5724A18063ABF, 0x3FECDF3C3D920910, 0x3FE09550F33A045A],
            [0x3FDF9DF9FFA7889F, 0x3FE2F92EE608855A, 0x3FDC297166149443, 0x3FE4608CCCCC2C7E],
        ],
    }

    @pytest.mark.parametrize("seed, slot", list(PINNED_UNIFORM_BITS))
    def test_uniform_bits_are_pinned(self, seed, slot):
        idx = np.array([0, 2**57 - 3], dtype=np.uint64)
        bits = uniform_draws(seed, idx, slot).view(np.uint64)
        assert bits.tolist() == self.PINNED_UNIFORM_BITS[seed, slot]

    def test_normal_bits_are_pinned(self):
        block = normal_draws(7, np.arange(3, dtype=np.uint64), range(2, 4), 0.5)
        assert block.view(np.uint64).tolist() == [
            [0xBFE5B29C17A5AAC0, 0x3FD6E4C6895F8CE3],
            [0xBFB211494179C088, 0x3FADA15BFEE9A3BF],
            [0x3FA37A08F02C021D, 0xBFD1CF13E0E1F2B2],
        ]
        column = normal_draws(2**64 - 1, np.array([0, 2**57 - 3], dtype=np.uint64), 3, 0.2)
        assert [float(x).hex() for x in column] == [
            "-0x1.7c292c9d6f36fp-5", "-0x1.b72ba32c8b7c3p-5",
        ]

    def test_normal_draws_return_a_fresh_array(self):
        idx = np.arange(4, dtype=np.uint64)
        first = normal_draws(3, idx, range(2), 0.5)
        assert first.flags.owndata and first.flags.writeable
        expected = first.copy()
        first[:] = 0.0
        assert normal_draws(3, idx, range(2), 0.5).tobytes() == expected.tobytes()

    def test_largest_code_fits_the_slots_of_one_shot(self):
        # biased mode draws slots 0 .. 4n-2 of each shot
        ShotConfig(15, NoiseParams(0.5, 0.2), shots=10, mode=Mode.BIASED_FULL)
        assert 4 * 15 - 1 <= 2**_SLOT_BITS

    def test_code_beyond_the_slots_of_one_shot_rejected(self):
        with pytest.raises(ValueError, match="3 to 15"):
            ShotConfig(17, NoiseParams(0.5, 0.2), shots=10, mode=Mode.BIASED_FULL)


def decoder_table(n: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Explicit syndrome -> flip-pattern lookup.

    Built by running every correctable pattern through the syndrome map
    (syndrome i fires iff exactly one of qubit 1, qubit i+2 flipped); the
    2^(n-1) syndromes are in bijection with the correctable patterns.
    """
    size = CodeSize(n)
    table: dict[tuple[int, ...], tuple[int, ...]] = {}
    qubits = range(size.n)
    for w in range(size.correctable_weight + 1):
        for flipped in itertools.combinations(qubits, w):
            pattern = tuple(1 if q in flipped else 0 for q in qubits)
            syndrome = tuple(pattern[0] ^ pattern[i + 1] for i in range(size.n - 1))
            assert syndrome not in table, "syndrome collision"
            table[syndrome] = pattern
    return table


class TestDecoder:
    @pytest.mark.parametrize("n", range(3, 16, 2))
    def test_rule_matches_generated_table(self, n):
        table = decoder_table(n)
        assert len(table) == 2 ** (n - 1)
        syndromes = np.array(list(table.keys()), dtype=bool)
        want = np.array(list(table.values()), dtype=bool)
        got = decode_syndrome_bits(syndromes)
        assert np.array_equal(got, want)
        by_columns = decode_syndrome_bits(np.asfortranarray(syndromes))
        assert by_columns.flags.f_contiguous and np.array_equal(by_columns, want)

    def test_all_pz_means_first_qubit(self):
        got = decode_syndrome_bits(np.ones((1, 4), dtype=bool))[0]
        assert got.tolist() == [True, False, False, False, False]

    def test_noiseless_syndromes_decode_correctably(self):
        # offsets below sqrt(pi)/4 keep every pair sum inside its window
        rng = np.random.default_rng(42)
        for n in (3, 5, 7):
            for _ in range(50):
                weight = rng.integers(0, (n - 1) // 2 + 1)
                flipped = rng.choice(n, size=weight, replace=False)
                offsets = rng.uniform(-0.245 * SQRT_PI, 0.245 * SQRT_PI, n)
                centers = np.zeros(n)
                centers[flipped] = SQRT_PI * rng.choice([-1.0, 1.0], size=weight)
                resid = centers + offsets
                cfg = ShotConfig(n, NoiseParams(0.5, 0.2), shots=1, seed=0)
                rec = run_shot(
                    cfg,
                    overrides=ShotOverrides(
                        residuals=resid, alphas=np.zeros(n - 1)
                    ),
                )
                true = [1 if i in flipped else 0 for i in range(n)]
                assert rec["true_pattern"] == true
                assert rec["inferred_pattern"] == true
                assert not rec["position_failed"]


class TestSampleResidual:
    def test_first_shot_continues_the_shot_range(self):
        whole = sample_residual(0.5, 0.2, seed=3, shots=8)
        assert np.array_equal(sample_residual(0.5, 0.2, seed=3, shots=5, first_shot=3), whole[3:])
        assert np.array_equal(sample_residual(0.5, 0.2, seed=3, shots=5.0, first_shot=3.0),
                              whole[3:])
        last = sample_residual(0.5, 0.2, seed=3, shots=2, first_shot=2**58 - 2)
        assert last.shape == (2,) and not np.array_equal(last, whole[:2])

    @pytest.mark.parametrize("first_shot, shots", [
        (2**58, 2),  # hashed to shot 0's counters
        (2**58 - 1, 2),
        (2.5, 2),  # ran from shot 2
        (-1, 2),  # numpy's OverflowError
        (True, 2),
        (0, -1),
        (0, 1.5),
    ])
    def test_shot_range_outside_the_counters_rejected(self, first_shot, shots):
        with pytest.raises(ValueError, match=r"in \[0, 2\*\*58\), got first_shot="):
            sample_residual(0.5, 0.2, seed=3, shots=shots, first_shot=first_shot)

    def test_ideal_ancilla_gives_lattice_multiples(self):
        r = sample_residual(0.5, 0.0, seed=1, shots=100_000)
        k = np.round(r / SQRT_PI)
        assert np.max(np.abs(r - k * SQRT_PI)) < 1e-12

    def test_zone_rate_matches_analytic(self):
        ana = pauli_rate_physical(NoiseParams(0.5, 0.3))
        draws = sample_residual(0.5, 0.3, seed=2, shots=1_000_000)
        emp = is_pauli_zone(draws).mean()
        se = math.sqrt(ana * (1.0 - ana) / 1e6)
        assert abs(emp - ana) <= 4.0 * se

    def test_histogram_chi_squared(self):
        # 200 bins on [-2 sqrt(pi), 2 sqrt(pi)] against the analytic density
        delta, dt, shots = 0.5, 0.2, 1_000_000
        draws = sample_residual(delta, dt, seed=77, shots=shots)
        edges = np.linspace(-2 * SQRT_PI, 2 * SQRT_PI, 201)
        observed, _ = np.histogram(draws, bins=edges)
        dist = ResidualDistribution(delta, dt)
        expected = np.empty(200)
        for i in range(200):
            x, w = panel_nodes(edges[i], edges[i + 1], 2, 12)
            expected[i] = np.dot(w, dist.density(x)) * shots
        # pool low-expectation bins to keep the chi^2 statistic valid
        obs_pool, exp_pool = [], []
        acc_o = acc_e = 0.0
        for o, e in zip(observed, expected):
            acc_o += o
            acc_e += e
            if acc_e >= 5.0:
                obs_pool.append(acc_o)
                exp_pool.append(acc_e)
                acc_o = acc_e = 0.0
        exp_pool[-1] += acc_e
        obs_pool[-1] += acc_o
        obs_arr, exp_arr = np.array(obs_pool), np.array(exp_pool)
        chi2 = float(np.sum((obs_arr - exp_arr) ** 2 / exp_arr))
        dof = len(obs_arr) - 1
        assert chi2 < stats.chi2.ppf(0.99, dof)


class TestRunShot:
    def test_zero_noise_shot_succeeds(self):
        cfg = ShotConfig(3, NoiseParams(0.5, 0.2), shots=1, seed=0)
        rec = run_shot(
            cfg,
            overrides=ShotOverrides(
                raw_data=np.zeros(3), raw_ancilla=np.zeros(3), alphas=np.zeros(2)
            ),
        )
        assert rec["syndromes"] == ["NPZ", "NPZ"]
        assert rec["true_pattern"] == [0, 0, 0]
        assert rec["inferred_pattern"] == [0, 0, 0]
        assert not rec["position_failed"]

    def test_misidentified_single_flip(self):
        # u1' = sqrt(pi) flips qubit 1, but matching ancilla displacements
        # push both syndromes back into NPZ: the decoder sees no error
        cfg = ShotConfig(3, NoiseParams(0.5, 0.2), shots=1, seed=0)
        rec = run_shot(
            cfg,
            overrides=ShotOverrides(
                residuals=np.array([SQRT_PI, SQRT_PI / 3, SQRT_PI / 3]),
                alphas=np.array([SQRT_PI / 3, SQRT_PI / 3]),
            ),
        )
        assert rec["syndromes"] == ["NPZ", "NPZ"]
        assert rec["true_pattern"] == [1, 0, 0]
        assert rec["inferred_pattern"] == [0, 0, 0]
        assert rec["position_failed"]

    def test_antithetic_symmetry(self):
        # negating every displacement flips no zone classification
        cfg = ShotConfig(5, NoiseParams(0.5, 0.25), shots=1, seed=3)
        rng = np.random.default_rng(8)
        for _ in range(200):
            resid = rng.normal(0.0, 1.2, 5)
            alphas = rng.normal(0.0, 0.3, 4)
            a = run_shot(cfg, overrides=ShotOverrides(residuals=resid, alphas=alphas))
            b = run_shot(cfg, overrides=ShotOverrides(residuals=-resid, alphas=-alphas))
            assert a["syndromes"] == b["syndromes"]
            assert a["true_pattern"] == b["true_pattern"]
            assert a["inferred_pattern"] == b["inferred_pattern"]
            assert a["position_failed"] == b["position_failed"]

    @pytest.mark.parametrize("field", ["raw_data", "raw_ancilla", "residuals", "alphas"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_overrides_reject_non_finite_values(self, field, bad):
        with pytest.raises(ValueError, match=field):
            ShotOverrides(**{field: [0.1, bad, -0.0]})

    @pytest.mark.parametrize("field, value", [
        ("residuals", [1e300, 0.0, 0.0]),
        ("residuals", [1e17, 0.0, 0.0]),
        ("alphas", [1e300, 0.0]),
    ])
    def test_overrides_beyond_the_exact_cell_range_are_rejected(self, field, value):
        # a syndrome sums up to three override values; beyond a quarter of
        # the exact cell range such a sum could lose its zone
        cfg = ShotConfig(3, NoiseParams(0.5, 0.2), shots=1)
        with pytest.raises(ValueError, match=field):
            run_shot(cfg, 0, ShotOverrides(**{field: value}))

    def test_large_overrides_within_the_range_run(self):
        cfg = ShotConfig(3, NoiseParams(0.5, 0.2), shots=1)
        record = run_shot(cfg, 0, ShotOverrides(residuals=[1e6, 0.0, 0.0]))
        assert len(record["true_pattern"]) == 3

    @pytest.mark.parametrize("value", ["abc", [0.1, "x"], object()])
    def test_overrides_reject_non_numeric_values(self, value):
        with pytest.raises(ValueError, match="residuals"):
            ShotOverrides(residuals=value)

    @pytest.mark.parametrize("field, value, count", [
        ("residuals", [0.1, 0.2], 3),
        ("residuals", [0.1], 3),
        ("alphas", [[0.1, 0.2], [0.3, 0.4]], 2),
        ("raw_data", 0.1, 3),
    ], ids=["residuals-short", "residuals-one", "alphas-rows", "raw-data-scalar"])
    def test_overrides_must_match_code_size(self, field, value, count):
        cfg = ShotConfig(3, NoiseParams(0.5, 0.2), shots=1)
        with pytest.raises(ValueError, match=f"{field} must hold {count} values per shot at n = 3"):
            run_shot(cfg, overrides=ShotOverrides(**{field: value}))

    @pytest.mark.parametrize("index", [5 + 2**58, 2**58, 2**64, -1, 3.7, math.nan, True, "3"])
    def test_shot_index_must_own_its_counters(self, index):
        # each shot owns 64 counter slots, so index k + 2**58 hashes to shot
        # k's draws; 3.7 used to run shot 3, and -1 or 2**64 overflowed
        cfg = ShotConfig(3, NoiseParams(0.5, 0.2), shots=1, seed=4)
        with pytest.raises(ValueError, match=r"shot_index must be an integer in \[0, 2\*\*58\)"):
            run_shot(cfg, index)

    def test_integral_shot_indices_run_that_shot(self):
        cfg = ShotConfig(3, NoiseParams(0.5, 0.2), shots=1, seed=4)
        want = run_shot(cfg, 3)
        assert run_shot(cfg, 3.0) == run_shot(cfg, np.int64(3)) == want
        assert want["shot"] == 3
        assert run_shot(cfg, 2**58 - 1)["shot"] == 2**58 - 1

    def test_reproducible(self):
        cfg = ShotConfig(3, NoiseParams(0.5, 0.2), shots=10, seed=4)
        a = run_shot(cfg, shot_index=7)
        b = run_shot(cfg, shot_index=7)
        assert a["u"] == b["u"]
        assert a["u_resid"] == b["u_resid"]
        assert a["alpha"] == b["alpha"]
        assert a["syndromes"] == b["syndromes"]
        assert a["inferred_pattern"] == b["inferred_pattern"]
        assert a["position_failed"] == b["position_failed"]


class TestRunTally:
    def test_single_shot_rate_is_binary(self):
        for seed in range(5):
            tally = run_tally(ShotConfig(3, NoiseParams(0.5, 0.3), shots=1, seed=seed))
            assert tally.rate in (0.0, 1.0)

    def test_shots_validation(self):
        with pytest.raises(ValueError):
            ShotConfig(3, NoiseParams(0.5, 0.2), shots=0)

    def test_shots_beyond_the_counter_range_rejected(self):
        # a shot past index 2**58 - 1 would repeat an earlier shot's draws
        assert ShotConfig(3, NoiseParams(0.5, 0.2), shots=2**58).shots == 2**58
        with pytest.raises(ValueError, match=r"shots must be at most 2\*\*58"):
            ShotConfig(3, NoiseParams(0.5, 0.2), shots=2**58 + 1)

    def test_huge_spreads_tally_or_are_rejected(self):
        # every cell is about equally likely at delta = 1e6, so each qubit
        # flips with probability 1/2 and so does the majority vote; at
        # 1e15-1e19 the int64 cell index gave 0.504, 0.173 and 0.0019
        tally = run_tally(ShotConfig(3, NoiseParams(1e6, 0.2), shots=20_000, seed=1))
        assert abs(tally.rate - 0.5) < 4.0 * tally.std_err
        for params in (NoiseParams(1e17, 0.2), NoiseParams(0.5, 1e17)):
            with pytest.raises(ValueError, match="can no longer tell their zones"):
                ShotConfig(3, params, shots=10)
        with pytest.raises(ValueError, match="can no longer tell their zones"):
            ShotConfig(3, NoiseParams(0.5, 0.2, r=1e-20), shots=10, mode="biased")

    @pytest.mark.parametrize("partitions", [0, -5, 2.5, True])
    def test_partitions_must_be_an_integer_of_at_least_one(self, partitions):
        cfg = ShotConfig(3, NoiseParams(0.5, 0.2), shots=100)
        with pytest.raises(ValueError, match="partitions must be an integer >= 1"):
            run_tally(cfg, partitions=partitions)

    def test_position_mode_takes_no_bias(self):
        with pytest.raises(ValueError, match="r applies only in biased mode"):
            ShotConfig(3, NoiseParams(0.5, 0.2, r=1.5), shots=10)
        with pytest.raises(ValueError, match="r applies only in biased mode"):
            ShotConfig(3, NoiseParams(0.5, 0.2, r=0.999), shots=10, mode="position")
        assert not hasattr(ShotConfig(3, NoiseParams(0.5, 0.2), shots=10), "position_spread")

    @pytest.mark.parametrize("mode, r", [("position", 1.0), ("biased", 1.5), ("biased", 0.7)])
    def test_data_draws_have_the_params_position_spread(self, mode, r):
        params = NoiseParams(0.5, 0.2, r=r)
        cfg = ShotConfig(3, params, shots=4, seed=5, mode=mode)
        shots = np.arange(4, dtype=np.uint64)
        want = normal_draws(5, shots, range(3), params.position_spread)
        assert np.array_equal(montecarlo._simulate(cfg, shots)["u"], want)

    @pytest.mark.parametrize("mode, gkp_ec, overrides", [
        ("position", True, None),
        ("position", False, None),
        ("biased", True, None),
        ("position", True, ShotOverrides(raw_data=np.ones(5), raw_ancilla=np.zeros(5))),
        ("position", True, ShotOverrides(residuals=np.zeros((40, 5)), alphas=np.ones(4))),
    ])
    def test_chunk_arrays_are_column_major(self, mode, gkp_ec, overrides):
        r = 1.5 if mode == "biased" else 1.0
        cfg = ShotConfig(5, NoiseParams(0.5, 0.3, r=r), shots=40, seed=2, mode=mode,
                         gkp_ec=gkp_ec)
        out = montecarlo._simulate(cfg, np.arange(40, dtype=np.uint64), overrides)
        shapes = {"u": (40, 5), "u_resid": (40, 5), "alpha": (40, 4), "syndromes": (40, 4),
                  "true_pattern": (40, 5), "inferred_pattern": (40, 5)}
        for name, shape in shapes.items():
            assert out[name].shape == shape and out[name].flags.f_contiguous, name

    def test_mode_value_selects_the_mode(self):
        params = NoiseParams(0.6, 0.3, r=1.5)
        by_value = ShotConfig(3, params, shots=3_000, seed=3, mode="biased")
        assert by_value.mode is Mode.BIASED_FULL
        assert run_tally(by_value) == run_tally(
            ShotConfig(3, params, shots=3_000, seed=3, mode=Mode.BIASED_FULL)
        )
        with pytest.raises(ValueError, match="'bogus' is not a valid Mode"):
            ShotConfig(3, params, shots=10, mode="bogus")

    def test_partition_invariance(self, monkeypatch):
        cfg = ShotConfig(5, NoiseParams(0.5, 0.3), shots=100_001, seed=7)
        results = [run_tally(cfg, partitions=p) for p in (1, 2, 8)]
        assert results[0] == results[1] == results[2]
        for chunk_size in (1000, 1 << 12, 1 << 13, 1 << 16):
            monkeypatch.setattr(montecarlo, "_CHUNK_SHOTS", chunk_size)
            assert run_tally(cfg) == results[0]

    def test_working_set_does_not_grow_with_shots(self):
        # the chunk, not the shot count, bounds what a tally holds: at the
        # old 65,536-shot chunks these peaks were 33.8 and 80.5 MB
        peaks = []
        for shots in (40_000, 160_000):
            cfg = ShotConfig(15, NoiseParams(0.5, 0.2, r=1.5), shots=shots, seed=3,
                             mode=Mode.BIASED_FULL)
            tracemalloc.start()
            try:
                run_tally(cfg, partitions=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] == pytest.approx(peaks[0], rel=0.1)
        assert max(peaks) < 16e6

    def test_traced_parts_hold_one_chunk(self, monkeypatch):
        # each process of a traced 2-part tally holds one chunk's arrays and
        # text, whatever the shot count: the caller its own chunk and one of
        # the child's blocks, the child (part 1, run here) a whole formatted
        # chunk; smaller chunks keep the traced formatting quick
        monkeypatch.setattr(montecarlo, "_CHUNK_SHOTS", 1_024)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        peaks = {"caller": [], "child": []}
        for shots in (1_024, 2_048, 8_192):  # the first run fills the caches
            cfg = ShotConfig(3, NoiseParams(0.5, 0.2), shots=shots, seed=3)
            runs = {
                "caller": lambda: run_tally(cfg, 2, trace=collections.deque(maxlen=0).extend),
                "child": lambda: collections.deque(montecarlo._tally_part(cfg, True, 1, 2), 0),
            }
            for side, run in runs.items():
                tracemalloc.start()
                try:
                    run()
                    peaks[side].append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        for side, (_, small, large) in peaks.items():
            assert large == pytest.approx(small, rel=0.1), side
            assert large < 2e6, side

    def test_unread_trace_blocks_keep_the_stream_in_step(self, forked, monkeypatch):
        monkeypatch.setattr(montecarlo, "_CHUNK_SHOTS", 1_000)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cfg = ShotConfig(3, NoiseParams(0.5, 0.3), shots=5_500, seed=4)
        half_read = []
        assert run_tally(cfg, 2, trace=lambda blocks: None) == run_tally(cfg)
        assert run_tally(cfg, 2, trace=lambda blocks: half_read.append(next(blocks))) == (
            run_tally(cfg)
        )
        assert len(half_read) == 6 and half_read[1].startswith('{"alpha"')
        assert len(forked) == (2 if hasattr(os, "fork") else 0)

    def test_a_failed_trace_ends_the_tally_and_its_child(self, forked, monkeypatch):
        monkeypatch.setattr(montecarlo, "_CHUNK_SHOTS", 1_000)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cfg = ShotConfig(3, NoiseParams(0.5, 0.3), shots=20_000, seed=4)
        calls = []

        def trace(blocks):
            calls.append(blocks)
            if len(calls) == 2:
                raise OSError(28, "No space left on device")

        with pytest.raises(OSError, match="No space left"):
            run_tally(cfg, 2, trace=trace)
        assert len(calls) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_count_and_trace_do_not_change_the_tally(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_CHUNK_SHOTS", 500)
        cfg = ShotConfig(3, NoiseParams(0.5, 0.3), shots=3_001, seed=11)
        untraced = [run_tally(cfg, partitions=p) for p in (1, 2, 8)]
        for p in (1, 2, 8):
            blocks = []
            traced = run_tally(cfg, partitions=p, trace=blocks.extend)
            records = [json.loads(line) for line in "".join(blocks).splitlines()]
            assert traced == untraced[0]
            assert [r["shot"] for r in records] == list(range(cfg.shots))
            assert sum(r["position_failed"] for r in records) == traced.failures
        assert untraced[0] == untraced[1] == untraced[2]

    # sha256 of the trace text, recorded from the per-shot json.dumps writer
    # that the block formatter replaced
    @pytest.mark.parametrize("n, mode, delta_tilde, gkp_ec, shots, digest", [
        (3, "position", 0.3, True, 1_025,
         "a30d32f160562cea6b61b8f1aa29eeda0986a67f5acd56ce8c17d102ef17f7f7"),
        (3, "biased", 0.3, True, 2_049,
         "99aa8cb30011f5340bffd5c75a05bc5035c07fc06ab015f7153377acc29a7226"),
        (9, "position", 0.3, True, 1_100,
         "5c13b996643a509ec6f059d61ab53e70066575dbdf6e5320161ca1321aa92c25"),
        (9, "biased", 0.3, True, 1_100,
         "6dee1ff180f49466a0d7e94bf25210ff290af783338356dca3561d71f0652f13"),
        (15, "position", 0.3, True, 1_030,
         "03fc9a40aaac64e4e059d92197dad908f58243fa514538d0940bed9a62536af5"),
        (15, "biased", 0.3, True, 1_030,
         "12e796201385311a1532a49a026062cc0329cf55f17838b6ad4ef0bc023be6c7"),
        (5, "position", 0.3, False, 1_100,
         "9fe8121fca5258a635c8083eac78bfddba73f0c16a06b192ffad8ac2bc7a60b2"),
        (5, "biased", 0.0, True, 1_100,
         "2109a0ffccc7ca6abf01977de1d9e668f2505c77165a2527fe9f7b2415683771"),
    ])
    def test_trace_bytes_are_pinned(self, n, mode, delta_tilde, gkp_ec, shots, digest):
        # position mode takes no bias; its digests were recorded at r = 1.5,
        # which the position draws never read
        r = 1.5 if mode == "biased" else 1.0
        cfg = ShotConfig(
            n, NoiseParams(0.5, delta_tilde, r=r), shots=shots, seed=2023,
            mode=Mode(mode), gkp_ec=gkp_ec,
        )
        blocks = []
        run_tally(cfg, trace=blocks.extend)
        assert len(blocks) > 1  # the shot count crosses a text-block edge
        assert hashlib.sha256("".join(blocks).encode()).hexdigest() == digest

    # sha256 of json.dumps(asdict(tally), sort_keys=True) of a 2-part tally,
    # recorded from the row-major draw blocks that the column-major ones
    # replaced; delta is 0.8 at delta_tilde = 0, 0.6 otherwise
    @pytest.mark.parametrize("n, mode, gkp_ec, delta_tilde, digest", [
        (3, "position", True, 0.3,
         "35fbed25a725787d5c6d5d6de4ed4076dc2838a5b17b6bdb5b77c8109ef25af8"),
        (3, "biased", True, 0.3,
         "0abaec7ed0786180fd91ee384bb8af165aaaf0471d03d6fe2a74f526fedc7f4f"),
        (3, "position", False, 0.0,
         "c58579371f0158fa70814dbafeb18393696df2b26cae809204881cd21e44d941"),
        (9, "position", True, 0.3,
         "5b7b43d686808197fe9438cfb8cc4b6cf2d44bb10576e24e5edb708b51168b15"),
        (9, "biased", True, 0.3,
         "959134b32ab5d6d2a7df0c35c26431107b1c64f684aa35f1a52556b060551acb"),
        (9, "position", False, 0.0,
         "cffc343aefd0160edb215ee6ece028a098a97b071d35e6f019bf82c5036a443e"),
        (9, "biased", False, 0.3,
         "e362458eeb8183d2a9c4f0770661ab50543d7d616c5c8c64be14288a339bc400"),
        (15, "position", True, 0.3,
         "9b3f818fe09c5efe560cdfab6d2c76522ea79a17919c333a61f3acfdfe419241"),
        (15, "biased", True, 0.0,
         "aab739fab22ddf94893901ff67397a9ccf5cc3fcf5b7db21e0d177428ccb83bd"),
        (15, "position", False, 0.3,
         "7d9c27690b1805074a267cfb0740e03c365b40ea187fbbefb3e0bf7537c30e1b"),
    ])
    def test_tally_bytes_are_pinned(self, n, mode, gkp_ec, delta_tilde, digest):
        r = 1.5 if mode == "biased" else 1.0
        params = NoiseParams(0.6 if delta_tilde else 0.8, delta_tilde, r=r)
        cfg = ShotConfig(n, params, shots=20_003, seed=35, mode=Mode(mode), gkp_ec=gkp_ec)
        assert cfg.shots > 2 * montecarlo._CHUNK_SHOTS  # at least three chunks
        tally = run_tally(cfg, 2)
        assert tally.failures > 0
        text = json.dumps(dataclasses.asdict(tally), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_trace_does_not_depend_on_chunk_size(self, monkeypatch):
        cfg = ShotConfig(5, NoiseParams(0.5, 0.3, r=1.5), shots=2_500, seed=9,
                         mode=Mode.BIASED_FULL)
        texts = []
        for chunk_size in (1, 7, 1000, 1 << 12, 1 << 13, 1 << 16):
            monkeypatch.setattr(montecarlo, "_CHUNK_SHOTS", chunk_size)
            blocks = []
            run_tally(cfg, trace=blocks.extend)
            texts.append("".join(blocks))
        assert len(texts[0].splitlines()) == cfg.shots
        assert texts[1:] == texts[:1] * 5

    def test_workers_capped_at_available_cores(self, forked, monkeypatch):
        monkeypatch.setattr(montecarlo, "_CHUNK_SHOTS", 500)
        cfg = ShotConfig(3, NoiseParams(0.5, 0.3), shots=2_000, seed=5)
        serial = run_tally(cfg)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert run_tally(cfg, partitions=64) == serial
        assert len(forked) == 0
        if hasattr(os, "fork"):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
            assert run_tally(cfg, partitions=64) == serial
            assert len(forked) == 1

    def test_no_part_without_a_chunk(self, forked, monkeypatch):
        # one chunk is one part's work, whatever the cores
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cfg = ShotConfig(3, NoiseParams(0.5, 0.3), shots=montecarlo._CHUNK_SHOTS, seed=5)
        assert run_tally(cfg, partitions=2) == run_tally(cfg)
        assert forked == []

    def test_std_err_definition(self):
        tally = run_tally(ShotConfig(3, NoiseParams(0.5, 0.3), shots=10_000, seed=1))
        want = math.sqrt(tally.rate * (1 - tally.rate) / tally.shots)
        assert tally.std_err == want

    def test_ci95_brackets_the_rate(self):
        tally = run_tally(ShotConfig(3, NoiseParams(0.5, 0.3), shots=10_000, seed=1))
        assert tally.ci95 == montecarlo._wilson_interval(tally.failures, tally.shots)
        assert tally.ci95[0] < tally.rate < tally.ci95[1]

    @pytest.mark.parametrize("failures, shots", [
        (0, 100), (1, 100), (9, 3000), (50, 100), (100, 100), (7, 10**6), (0, 2**58),
    ])
    def test_ci95_is_the_wilson_interval(self, failures, shots):
        lo, hi = montecarlo._wilson_interval(failures, shots)
        z, p = stats.norm.ppf(0.975), failures / shots
        centre = (p + z * z / (2 * shots)) / (1 + z * z / shots)
        half = z / (1 + z * z / shots) * math.sqrt(p * (1 - p) / shots + (z / shots) ** 2 / 4)
        # the closed form cancels at the lower bound when no shot fails
        assert (lo, hi) == pytest.approx(
            (centre - half, centre + half), rel=1e-12, abs=1e-15 / shots)
        # each bound solves the score equation (rate - p)^2 = z^2 p (1 - p) / shots
        for bound in (lo, hi):
            assert (p - bound) ** 2 == pytest.approx(
                z * z * bound * (1 - bound) / shots, rel=1e-9, abs=0.0)
        if failures == 0:
            assert lo == 0.0 and hi > 0.0

    def test_matches_failure_rate(self):
        params = NoiseParams(0.5, 0.25)
        ana = failure_rate(3, params).total
        tally = run_tally(ShotConfig(3, params, shots=400_000, seed=21))
        se = max(tally.std_err, math.sqrt(ana * (1 - ana) / tally.shots))
        assert abs(tally.rate - ana) <= 4.0 * se

    def test_matches_failure_rate_no_ec(self):
        params = NoiseParams(0.5, 0.2)
        for n in (3, 5):
            ana = failure_rate_no_gkp_ec(n, params).total
            tally = run_tally(
                ShotConfig(n, params, shots=400_000, seed=22, gkp_ec=False)
            )
            se = max(tally.std_err, math.sqrt(ana * (1 - ana) / tally.shots))
            assert abs(tally.rate - ana) <= 4.0 * se

    def test_biased_mode_matches_overall_failure(self):
        params = NoiseParams(0.5, 0.2, r=1.5)
        ana = overall_failure_biased(3, params)
        tally = run_tally(
            ShotConfig(3, params, shots=400_000, seed=23, mode=Mode.BIASED_FULL)
        )
        se = max(tally.std_err, math.sqrt(ana * (1 - ana) / tally.shots))
        assert abs(tally.rate - ana) <= 4.0 * se

    def test_breakdown_counts(self):
        tally = run_tally(ShotConfig(3, NoiseParams(0.5, 0.3), shots=50_000, seed=2))
        assert (
            tally.breakdown["overweight"] + tally.breakdown["misidentified"]
            == tally.failures
        )
        assert tally.breakdown["momentum"] == 0  # position mode
