import itertools
import math
import time
from collections import Counter

import numpy as np
import pytest

from gkprep import repetition
from gkprep.distributions import NoiseParams, pauli_rate_ideal, pauli_rate_physical
from gkprep.repetition import (
    CodeSize,
    QuadratureConfig,
    QuadratureError,
    classical_failure,
    failure_rate,
    failure_rate_no_gkp_ec,
    overall_failure_biased,
    shared_engines,
)


class TestCodeSize:
    def test_validation(self):
        with pytest.raises(ValueError):
            CodeSize(2)
        with pytest.raises(ValueError):
            CodeSize(1)

    def test_properties(self):
        size = CodeSize(7)
        assert size.correctable_weight == 3
        assert size.syndrome_count == 64

    @pytest.mark.parametrize(
        "n", [3, 3.0, np.int64(3), np.float64(3.0)],
        ids=["int", "float", "numpy-int", "numpy-float"],
    )
    def test_integral_values_accepted(self, n):
        size = CodeSize(n)
        assert size.n == 3 and type(size.n) is int

    @pytest.mark.parametrize(
        "n", [3.9, 5.5, np.float64(4.5), "3", math.inf, math.nan],
        ids=["3.9", "5.5", "numpy-4.5", "str", "inf", "nan"],
    )
    def test_non_integral_values_rejected(self, n):
        with pytest.raises(ValueError, match="odd integer"):
            CodeSize(n)
        with pytest.raises(ValueError, match="odd integer"):
            classical_failure(n, 0.1)


class TestQuadratureConfig:
    def test_integral_fields_stored_as_int(self):
        cfg = QuadratureConfig(nodes_per_dim=64.0, window_neighbors=np.int64(1))
        assert cfg == QuadratureConfig(nodes_per_dim=64, window_neighbors=1)
        assert type(cfg.nodes_per_dim) is int and type(cfg.window_neighbors) is int

    @pytest.mark.parametrize(
        "field, value",
        [("nodes_per_dim", 64.5), ("nodes_per_dim", True), ("nodes_per_dim", "64"),
         ("window_neighbors", 0.5), ("refine", "no"), ("refine", 1)],
    )
    def test_wrongly_typed_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            QuadratureConfig(**{field: value})


class TestClassicalFailure:
    def test_zero_error_rate(self):
        assert classical_failure(3, 0.0) == 0.0

    def test_three_qubit_closed_form(self):
        p = 0.1
        assert classical_failure(3, p) == pytest.approx(
            3 * p**2 * (1 - p) + p**3, rel=1e-14
        )
        assert classical_failure(3, 0.1) == pytest.approx(0.028, rel=1e-12)

    def test_against_exhaustive_enumeration(self):
        # oracle: enumerate all flip patterns, decode by majority
        n, p = 5, 0.1
        total = 0.0
        for pattern in itertools.product([0, 1], repeat=n):
            weight = sum(pattern)
            prob = p**weight * (1 - p) ** (n - weight)
            if weight > (n - 1) // 2:
                total += prob
        assert classical_failure(n, p) == pytest.approx(total, rel=1e-13)

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            classical_failure(3, 1.2)


class TestFailureRate:
    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_classical_limit(self, n):
        p = pauli_rate_ideal(0.5)
        got = failure_rate(n, NoiseParams(0.5, 1e-6)).total
        assert abs(got - classical_failure(n, p)) < 1e-3

    def test_ideal_branch_is_exact(self):
        p = pauli_rate_ideal(0.5)
        assert failure_rate(3, NoiseParams(0.5, 0.0)).total == classical_failure(3, p)

    def test_crossing_with_single_qubit_curve(self):
        # the 3-qubit curve crosses P_F close to dt = 0.3 at delta = 0.5
        lo = failure_rate(3, NoiseParams(0.5, 0.28)).total
        hi = failure_rate(3, NoiseParams(0.5, 0.32)).total
        assert lo < pauli_rate_physical(NoiseParams(0.5, 0.28))
        assert hi > pauli_rate_physical(NoiseParams(0.5, 0.32))

    @pytest.mark.parametrize("delta", [0.4, 0.5, 0.6])
    @pytest.mark.parametrize("dt", [0.1, 0.2, 0.3])
    def test_factorized_matches_tensor_n3(self, delta, dt):
        self._compare_methods(3, delta, dt)

    @pytest.mark.parametrize("delta", [0.4, 0.5])
    @pytest.mark.parametrize("dt", [0.1, 0.3])
    def test_factorized_matches_tensor_n5(self, delta, dt):
        self._compare_methods(5, delta, dt)

    @staticmethod
    def _compare_methods(n, delta, dt, nodes=32):
        params = NoiseParams(delta, dt)
        fact = failure_rate(n, params, QuadratureConfig(nodes_per_dim=nodes, refine=False))
        tens = failure_rate(n, params, QuadratureConfig(nodes_per_dim=nodes, method="tensor"))
        assert fact.total == pytest.approx(tens.total, abs=1e-6)
        for (la, va), (lb, vb) in zip(fact.per_case, tens.per_case):
            assert la == lb
            assert va == pytest.approx(vb, abs=1e-8)

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("dt", [0.045, 0.06])
    def test_deep_tail_cases_match_tensor_in_relative_terms(self, n, dt):
        # at delta = 0.3 the flip-count blocks sit between 1e-62 and 1e-33,
        # far below the 1e-16 rounding floor of a mass product minus a
        # success product that are both close to 1
        params = NoiseParams(0.3, dt)
        fact = failure_rate(n, params, QuadratureConfig(nodes_per_dim=32, refine=False))
        tens = failure_rate(n, params, QuadratureConfig(nodes_per_dim=32, method="tensor"))
        for (la, va), (lb, vb) in zip(fact.per_case, tens.per_case):
            assert la == lb
            assert va > 0.0, la
            assert abs(va - vb) <= 1e-9 * vb, (la, va, vb)

    @pytest.mark.parametrize("n", [7, 9])
    def test_deep_tail_no_flip_case_below_rounding_floor(self, n):
        # the s1 failure needs three spread-0.045 displacements summing past
        # sqrt(pi)/2, probability ~exp(-pi/(12*0.045**2)) ~ 1e-56
        s1 = dict(failure_rate(n, NoiseParams(0.3, 0.045)).per_case)["s1"]
        assert 0.0 < s1 < 1e-50

    def test_breakdown_sums_to_total(self):
        fb = failure_rate(5, NoiseParams(0.5, 0.25))
        assert fb.total == math.fsum(v for _, v in fb.per_case)
        assert all(0.0 <= v <= 1.0 for _, v in fb.per_case)

    def test_probabilities_on_grid(self):
        for n in (3, 5, 7):
            for delta in (0.3, 0.6):
                for dt in (0.05, 0.25, 0.45):
                    total = failure_rate(n, NoiseParams(delta, dt)).total
                    assert 0.0 <= total <= 1.0

    def test_ordering_flip(self):
        high = [failure_rate(n, NoiseParams(0.5, 0.45)).total for n in (3, 5, 7, 9)]
        low = [failure_rate(n, NoiseParams(0.5, 0.08)).total for n in (3, 5, 7, 9)]
        assert all(a < b for a, b in zip(high, high[1:]))
        assert all(a > b for a, b in zip(low, low[1:]))

    def test_tensor_cost_guards(self):
        with pytest.raises(ValueError):
            failure_rate(7, NoiseParams(0.5, 0.2), QuadratureConfig(method="tensor"))
        with pytest.raises(ValueError):
            failure_rate(
                5, NoiseParams(0.5, 0.2),
                QuadratureConfig(method="tensor", nodes_per_dim=64),
            )

    def test_tensor_cost_guard_counts_built_nodes(self):
        # the no-EC engine builds 48 nodes per cell at nodes_per_dim = 32
        start = time.perf_counter()
        with pytest.raises(ValueError, match="nodes per cell"):
            failure_rate_no_gkp_ec(
                5, NoiseParams(0.4, 0.1),
                QuadratureConfig(method="tensor", nodes_per_dim=32),
            )
        assert time.perf_counter() - start < 1.0

    def test_code_size_cap(self):
        with pytest.raises(ValueError):
            failure_rate(17, NoiseParams(0.5, 0.2))

    def test_unattainable_tolerance_fails_loudly(self):
        # 16 nodes per cell genuinely cannot certify 1e-8 at dt = 0.3
        cfg = QuadratureConfig(nodes_per_dim=16)
        with pytest.raises(QuadratureError, match="abs_tol"):
            failure_rate(3, NoiseParams(0.5, 0.3), cfg)

    def test_neighbor_windows_negligible_at_default_params(self):
        base = failure_rate(3, NoiseParams(0.5, 0.2)).total
        extra = failure_rate(
            3, NoiseParams(0.5, 0.2), QuadratureConfig(window_neighbors=1)
        ).total
        assert abs(extra - base) < 1e-8

    def test_factorized_n9_under_one_second(self):
        start = time.perf_counter()
        failure_rate(9, NoiseParams(0.5, 0.2))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("rate", [failure_rate, failure_rate_no_gkp_ec])
    @pytest.mark.parametrize("method", ["factorized", "tensor"])
    def test_per_case_values_are_floats(self, rate, method):
        cfg = QuadratureConfig(nodes_per_dim=16, method=method, refine=False)
        breakdown = rate(3, NoiseParams(0.5, 0.2), cfg)
        assert all(type(value) is float for _, value in breakdown.per_case)


class TestFailureRateNoGkpEc:
    def test_worse_than_with_ec(self):
        p = NoiseParams(0.5, 0.2)
        assert failure_rate_no_gkp_ec(3, p).total > failure_rate(3, p).total

    @pytest.mark.parametrize("dt", [0.1, 0.2, 0.3])
    def test_increases_with_code_size(self, dt):
        vals = [
            failure_rate_no_gkp_ec(n, NoiseParams(0.5, dt)).total for n in (3, 5, 7, 9)
        ]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_small_ancilla_noise_stays_above_classical_limit(self):
        # unlike the with-EC variant, the dt -> 0 limit keeps wide data noise
        got = failure_rate_no_gkp_ec(3, NoiseParams(0.5, 1e-6)).total
        classical = classical_failure(3, pauli_rate_ideal(0.5))
        assert got > classical
        with_ec = failure_rate(3, NoiseParams(0.5, 1e-6)).total
        assert got > with_ec

    def test_sharp_window_limit_is_finite_and_continuous(self):
        sharp = failure_rate_no_gkp_ec(3, NoiseParams(0.5, 0.0)).total
        near = failure_rate_no_gkp_ec(3, NoiseParams(0.5, 1e-5)).total
        assert sharp == pytest.approx(near, abs=1e-6)
        assert 0.0 < sharp < 1.0

    @pytest.mark.parametrize("dt", [0.0, 1e-3, 1e-2])
    def test_tensor_rejects_sharp_windows(self, dt):
        # fixed nodes cannot integrate windows that move with u1' and are
        # narrower than the node spacing; at delta = 0.3 the tensor sum gave
        # s1 = 8.2e-3 / 7.53e-3 / 6.55e-3 against the factorized 6.0e-3
        with pytest.raises(ValueError, match="delta_tilde"):
            failure_rate_no_gkp_ec(
                3, NoiseParams(0.3, dt),
                QuadratureConfig(nodes_per_dim=32, method="tensor"),
            )

    def test_factorized_matches_tensor(self):
        params = NoiseParams(0.5, 0.25)
        fact = failure_rate_no_gkp_ec(
            3, params, QuadratureConfig(nodes_per_dim=48, refine=False)
        )
        tens = failure_rate_no_gkp_ec(
            3, params, QuadratureConfig(nodes_per_dim=48, method="tensor")
        )
        assert fact.total == pytest.approx(tens.total, abs=2e-6)


class TestSharedEngines:
    @staticmethod
    def _count_engines(monkeypatch, engine_cls=repetition._ResidualCellEngine):
        """Record each built engine's node count and count its miss calls."""
        built, misses = [], Counter()
        init, miss = engine_cls.__init__, engine_cls.miss

        def counting_init(self, params, n_nodes, neighbors):
            built.append(n_nodes)
            init(self, params, n_nodes, neighbors)

        def counting_miss(self, *args):
            misses[id(self)] += 1
            return miss(self, *args)

        monkeypatch.setattr(engine_cls, "__init__", counting_init)
        monkeypatch.setattr(engine_cls, "miss", counting_miss)
        return built, misses

    @pytest.mark.parametrize("rate", [failure_rate, failure_rate_no_gkp_ec])
    def test_per_case_values_identical_inside_and_outside_a_scope(self, rate):
        calls = [
            (n, NoiseParams(delta, dt), repetition.DEFAULT_QUADRATURE)
            for delta in (0.3, 0.5) for dt in (0.08, 0.3) for n in (3, 5, 7, 9)
        ]
        # the tensor oracle, then a 32-node call whose fine engine is the
        # coarse engine of the 64-node call after it
        calls += [
            (3, NoiseParams(0.5, 0.3), QuadratureConfig(method="tensor")),
            (3, NoiseParams(0.5, 0.3), QuadratureConfig(nodes_per_dim=32)),
            (3, NoiseParams(0.5, 0.3), QuadratureConfig(nodes_per_dim=64)),
        ]
        fresh = [rate(*call).per_case for call in calls]
        with shared_engines():
            shared = [rate(*call).per_case for call in calls]
        assert shared == fresh

    def test_one_engine_pair_per_noise_point(self, monkeypatch):
        built, misses = self._count_engines(monkeypatch)
        tails = []
        tail = repetition.pauli_rate_physical
        monkeypatch.setattr(
            repetition, "pauli_rate_physical", lambda params: tails.append(params) or tail(params)
        )
        with shared_engines():
            for n in (3, 5, 7, 9):
                failure_rate(n, NoiseParams(0.5, 0.2))
        assert sorted(built) == [64, 128]
        assert len(misses) == 2 and max(misses.values()) <= 6
        assert len(tails) == 1

    def test_nested_scope_joins_the_outer_one(self, monkeypatch):
        built, _ = self._count_engines(monkeypatch, repetition._IntrinsicCellEngine)
        with shared_engines():
            failure_rate_no_gkp_ec(3, NoiseParams(0.5, 0.2))
            with shared_engines():
                failure_rate_no_gkp_ec(5, NoiseParams(0.5, 0.2))
            failure_rate_no_gkp_ec(7, NoiseParams(0.5, 0.2))
        assert sorted(built) == [64, 128]

    def test_fresh_engines_outside_a_scope(self, monkeypatch):
        built, _ = self._count_engines(monkeypatch)
        for n in (3, 5):
            failure_rate(n, NoiseParams(0.5, 0.2))
        assert sorted(built) == [64, 64, 128, 128]

    def test_oldest_entries_dropped_at_the_cap(self, monkeypatch):
        built, _ = self._count_engines(monkeypatch)
        monkeypatch.setattr(repetition, "_SHARED_MAX", 3)
        with shared_engines():
            # each point holds a coarse engine, a fine engine and a tail
            for dt in (0.2, 0.3, 0.3, 0.2):
                failure_rate(3, NoiseParams(0.5, dt))
        assert built == [64, 128, 64, 128, 64, 128]

    def test_certificate_checked_on_a_memo_hit(self, monkeypatch):
        # 16 nodes per cell cannot certify 1e-8 at dt = 0.3
        built, _ = self._count_engines(monkeypatch)
        cfg = QuadratureConfig(nodes_per_dim=16)
        with shared_engines():
            for n in (3, 3, 5):
                with pytest.raises(QuadratureError, match="abs_tol"):
                    failure_rate(n, NoiseParams(0.5, 0.3), cfg)
        assert sorted(built) == [16, 32]


class TestOverallFailureBiased:
    def test_large_bias_dominated_by_position(self):
        # momentum factors die off; the classical position block remains
        n, delta, r = 3, 0.5, 6.0
        got = overall_failure_biased(n, NoiseParams(delta, 0.0, r=r))
        want = classical_failure(n, pauli_rate_ideal(r * delta))
        assert got == pytest.approx(want, abs=1e-9)

    def test_interior_minimum_beats_unbiased(self):
        params_flat = NoiseParams(0.5, 0.0, r=1.0)
        base = overall_failure_biased(3, params_flat)
        best = min(
            overall_failure_biased(3, NoiseParams(0.5, 0.0, r=r))
            for r in np.linspace(1.0, 3.0, 21)
        )
        assert best < base

    def test_noisy_ancilla_momentum_propagation(self):
        # dt > 0 inflates the momentum spreads, so P_fail grows with dt
        lo = overall_failure_biased(3, NoiseParams(0.5, 0.05, r=1.5))
        hi = overall_failure_biased(3, NoiseParams(0.5, 0.25, r=1.5))
        assert hi > lo

    def test_composition_identity(self):
        n, delta, dt, r = 3, 0.5, 0.2, 1.5
        got = overall_failure_biased(n, NoiseParams(delta, dt, r=r))
        mom_first = math.sqrt((delta / r) ** 2 + n * dt**2)
        mom_rest = math.sqrt((delta / r) ** 2 + 2 * dt**2)
        p_rep = failure_rate(n, NoiseParams(r * delta, dt)).total
        want = 1.0 - (
            (1.0 - pauli_rate_ideal(mom_rest)) ** (n - 1)
            * (1.0 - pauli_rate_ideal(mom_first))
            * (1.0 - p_rep)
        )
        assert got == pytest.approx(want, rel=1e-12)
