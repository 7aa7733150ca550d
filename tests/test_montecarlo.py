import math

import numpy as np
import pytest
from scipy import stats

from gkprep.distributions import NoiseParams, pauli_rate_physical, ResidualDistribution
from gkprep.lattice import SQRT_PI, is_pauli_zone
from gkprep.montecarlo import (
    _SLOT_BITS,
    Mode,
    ShotConfig,
    ShotOverrides,
    decode_syndrome_bits,
    decoder_table,
    normal_draws,
    run_shot,
    run_tally,
    sample_residual,
    uniform_draws,
)
from gkprep.quadrature import panel_nodes
from gkprep.repetition import (
    failure_rate,
    failure_rate_no_gkp_ec,
    overall_failure_biased,
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

    def test_largest_code_fits_the_slots_of_one_shot(self):
        # biased mode draws slots 0 .. 4n-2 of each shot
        ShotConfig(15, NoiseParams(0.5, 0.2), shots=10, mode=Mode.BIASED_FULL)
        assert 4 * 15 - 1 <= 2**_SLOT_BITS

    def test_code_beyond_the_slots_of_one_shot_rejected(self):
        with pytest.raises(ValueError, match="3 to 15"):
            ShotConfig(17, NoiseParams(0.5, 0.2), shots=10, mode=Mode.BIASED_FULL)


class TestDecoder:
    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_rule_matches_generated_table(self, n):
        table = decoder_table(n)
        assert len(table) == 2 ** (n - 1)
        syndromes = np.array(list(table.keys()), dtype=bool)
        want = np.array(list(table.values()), dtype=bool)
        got = decode_syndrome_bits(syndromes)
        assert np.array_equal(got, want)

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

    def test_chunk_size_validation(self):
        cfg = ShotConfig(3, NoiseParams(0.5, 0.2), shots=10)
        with pytest.raises(ValueError):
            run_tally(cfg, chunk_size=0)

    def test_partition_invariance(self):
        cfg = ShotConfig(5, NoiseParams(0.5, 0.3), shots=100_001, seed=7)
        results = [run_tally(cfg, partitions=p) for p in (1, 2, 8)]
        assert results[0] == results[1] == results[2]
        chunked = run_tally(cfg, chunk_size=1000)
        assert chunked == results[0]

    def test_std_err_definition(self):
        tally = run_tally(ShotConfig(3, NoiseParams(0.5, 0.3), shots=10_000, seed=1))
        want = math.sqrt(tally.rate * (1 - tally.rate) / tally.shots)
        assert tally.std_err == want

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
