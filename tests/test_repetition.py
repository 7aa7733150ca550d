import concurrent.futures
import contextlib
import dataclasses
import functools
import itertools
import math
import os
import time
import tracemalloc

import numpy as np
import pytest

from gkprep import lattice, repetition
from gkprep.analysis import SweepSpec, run_sweep
from gkprep.distributions import NoiseParams, pauli_rate_ideal
from gkprep.lattice import (
    HALF_CELL,
    SQRT_PI,
    TruncationError,
    is_pauli_zone,
    nearest_multiple_offset_array,
)
from gkprep.repetition import (
    CodeSize,
    QuadratureConfig,
    QuadratureError,
    classical_failure,
    failure_rate,
    failure_rate_no_gkp_ec,
    overall_failure_biased,
    pauli_rate_physical,
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
        for nodes in (64.0, np.int64(64)):
            cfg = QuadratureConfig(nodes_per_dim=nodes)
            assert cfg == QuadratureConfig(nodes_per_dim=64)
            assert type(cfg.nodes_per_dim) is int

    @pytest.mark.parametrize(
        "field, value",
        [("nodes_per_dim", 64.5), ("nodes_per_dim", True), ("nodes_per_dim", "64")],
    )
    def test_wrongly_typed_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            QuadratureConfig(**{field: value})

    def test_fields_are_the_node_budget_and_the_method(self):
        assert [f.name for f in dataclasses.fields(QuadratureConfig)] == [
            "nodes_per_dim", "method"]
        with pytest.raises(TypeError, match="window_neighbors"):
            QuadratureConfig(window_neighbors=1)

    def test_nodes_per_dim_range(self):
        # checked when the config is built, before any engine: 100,000 nodes
        # would lay 2 panels of order 50,000 at delta_tilde >= 0.443
        assert QuadratureConfig(nodes_per_dim=16).nodes_per_dim == repetition.MIN_NODES
        assert QuadratureConfig(nodes_per_dim=1024).nodes_per_dim == repetition.MAX_NODES
        for nodes in (8, 15, 1025, 100000):
            with pytest.raises(ValueError, match="nodes_per_dim must be from 16 to 1024"):
                QuadratureConfig(nodes_per_dim=nodes)


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

    @pytest.mark.parametrize("dt", [0.0, 0.2])
    def test_bias_rejected(self, dt):
        # the rate takes the spreads at face value, so r = 2 would be dropped
        with pytest.raises(ValueError, match=r"^r applies only to overall_failure_biased; .*got 2\.0$"):
            failure_rate(3, NoiseParams(0.5, dt, r=2.0))

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
        fact, tens = _both_routes(True, n, NoiseParams(delta, dt), nodes)
        assert math.fsum(fact) == pytest.approx(math.fsum(tens), abs=1e-6)
        for va, vb in zip(fact, tens):
            assert va == pytest.approx(vb, abs=1e-8)

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("dt", [0.045, 0.06])
    def test_deep_tail_cases_match_tensor_in_relative_terms(self, n, dt):
        # at delta = 0.3 the flip-count blocks sit between 1e-62 and 1e-33,
        # far below the 1e-16 rounding floor of a mass product minus a
        # success product that are both close to 1
        fact, tens = _both_routes(True, n, NoiseParams(0.3, dt), 32)
        for m, (va, vb) in enumerate(zip(fact, tens)):
            assert va > 0.0, m
            assert abs(va - vb) <= 1e-9 * vb, (m, va, vb)

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

    @pytest.mark.parametrize("rate, builder", [
        (failure_rate, "_residual_engine"), (failure_rate_no_gkp_ec, "_intrinsic_engine"),
    ])
    def test_tensor_refuses_n7_before_building_an_engine(self, rate, builder, monkeypatch):
        built = []
        monkeypatch.setattr(repetition, builder, lambda *args: built.append(args))
        cfg = QuadratureConfig(method="tensor", nodes_per_dim=1024)
        with pytest.raises(ValueError, match="n <= 5"):
            rate(7, NoiseParams(0.5, 0.3), cfg)
        assert built == []

    def test_tensor_cost_guard_counts_built_nodes(self):
        # the no-EC engine builds 48 nodes per cell at nodes_per_dim = 48
        start = time.perf_counter()
        with pytest.raises(ValueError, match="nodes per cell"):
            failure_rate_no_gkp_ec(
                5, NoiseParams(0.4, 0.1),
                QuadratureConfig(method="tensor", nodes_per_dim=48),
            )
        assert time.perf_counter() - start < 1.0

    def test_tensor_runs_at_n5(self):
        # nodes_per_dim = 41 is above the n = 5 cap of 40, but the cells
        # built hold 40 nodes, and the cap counts those
        params = NoiseParams(0.5, 0.3)
        cfg = QuadratureConfig(nodes_per_dim=41, method="tensor")
        tensor = [value for _, value in failure_rate(5, params, cfg).per_case[:-1]]
        engine = repetition._make_engine(True, params, 41)
        assert {len(cell.x) for cell in engine.cells.values()} == {40}
        fact = repetition._factorized_cases(engine, CodeSize(5))
        assert fact == pytest.approx(tensor, rel=1e-12, abs=0.0)

    def test_code_size_cap(self):
        with pytest.raises(ValueError):
            failure_rate(17, NoiseParams(0.5, 0.2))

    def test_unattainable_tolerance_fails_loudly(self):
        # 16 nodes per cell genuinely cannot certify 1e-8 at dt = 0.3
        cfg = QuadratureConfig(nodes_per_dim=16)
        with pytest.raises(QuadratureError, match="abs_tol"):
            failure_rate(3, NoiseParams(0.5, 0.3), cfg)

    def test_neighbor_windows_negligible_at_default_params(self, monkeypatch):
        base = failure_rate(3, NoiseParams(0.5, 0.2)).total
        _set_translates(monkeypatch, 1)
        extra = failure_rate(3, NoiseParams(0.5, 0.2)).total
        assert abs(extra - base) < 1e-8

    def test_factorized_n9_under_one_second(self):
        start = time.perf_counter()
        failure_rate(9, NoiseParams(0.5, 0.2))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("rate", [failure_rate, failure_rate_no_gkp_ec])
    @pytest.mark.parametrize("method", ["factorized", "tensor"])
    def test_per_case_values_are_floats(self, rate, method):
        cfg = QuadratureConfig(nodes_per_dim=64 if method == "factorized" else 48, method=method)
        breakdown = rate(3, NoiseParams(0.5, 0.2), cfg)
        assert all(type(value) is float for _, value in breakdown.per_case)


class TestFailureRateNoGkpEc:
    def test_worse_than_with_ec(self):
        p = NoiseParams(0.5, 0.2)
        assert failure_rate_no_gkp_ec(3, p).total > failure_rate(3, p).total

    @pytest.mark.parametrize("dt", [0.0, 0.2])
    def test_bias_rejected(self, dt):
        with pytest.raises(ValueError, match=r"^r applies only to overall_failure_biased; .*got 3\.0$"):
            failure_rate_no_gkp_ec(3, NoiseParams(0.5, dt, r=3.0))

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

    @pytest.mark.parametrize("dt", [1e-12, 1e-9])
    def test_ancilla_spread_below_float_resolution_is_the_sharp_limit(self, dt):
        # next to delta = 0.5 these spreads round the window correlation to 1
        sharp = failure_rate_no_gkp_ec(3, NoiseParams(0.5, 0.0)).per_case
        tiny = failure_rate_no_gkp_ec(3, NoiseParams(0.5, dt)).per_case
        assert [name for name, _ in tiny] == [name for name, _ in sharp]
        for (_, got), (_, want) in zip(tiny, sharp):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("dt", [0.0, 1e-3, 1e-2])
    def test_tensor_rejects_sharp_windows(self, dt):
        # fixed nodes cannot integrate windows that move with u1' and are
        # narrower than the node spacing; at delta = 0.3 the tensor sum gave
        # s1 = 8.2e-3 / 7.53e-3 / 6.55e-3 against the factorized 6.0e-3
        with pytest.raises(ValueError, match="delta_tilde"):
            failure_rate_no_gkp_ec(
                3, NoiseParams(0.3, dt),
                QuadratureConfig(nodes_per_dim=48, method="tensor"),
            )

    def test_factorized_matches_tensor(self):
        fact, tens = _both_routes(False, 3, NoiseParams(0.5, 0.25), 48)
        assert math.fsum(fact) == pytest.approx(math.fsum(tens), abs=2e-6)


def _cores_here(part, parts):
    yield part, parts, repetition.available_cores()


def _first_items(fn, parts):
    with repetition.map_parts(fn, parts) as streams:
        return [next(stream) for stream in streams]


def _counting(part, parts):
    for i in range(3):
        yield part * 10 + i
    if part == 1:
        raise ValueError("part 1 failed")


class TestMapParts:
    def test_parts_come_back_in_order_and_run_serially(self, forked, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert repetition.available_cores() == 3
        assert _first_items(_cores_here, 3) == [(0, 3, 1), (1, 3, 1), (2, 3, 1)]
        assert len(forked) == (2 if hasattr(os, "fork") else 0)
        assert repetition.available_cores() == 3
        assert _first_items(_cores_here, 1) == [(0, 1, 3)]
        assert len(forked) == (2 if hasattr(os, "fork") else 0)

    def test_items_stream_in_the_order_read(self, forked):
        with repetition.map_parts(_counting, 3) as streams:
            assert [next(streams[k % 3]) for k in range(6)] == [0, 10, 20, 1, 11, 21]
            assert list(streams[2]) == [22]
            assert next(streams[1]) == 12
            with pytest.raises(ValueError, match="part 1 failed"):
                next(streams[1])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("failing", [0, 1])
    def test_a_failed_part_raises_its_type_here(self, failing, forked):
        def part_fails(part, parts):
            if part == failing:
                raise ValueError(f"bad part {part}")
            yield from range(1000)  # a child ahead of the caller fills its pipe

        with pytest.raises(ValueError, match=f"bad part {failing}"):
            _first_items(part_fails, 2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_an_exception_here_ends_every_child(self, forked):
        def endless(part, parts):
            yield from itertools.count()

        with pytest.raises(KeyboardInterrupt):
            with repetition.map_parts(endless, 3) as streams:
                assert [next(stream) for stream in streams] == [0, 0, 0]
                raise KeyboardInterrupt
        assert len(forked) == (2 if hasattr(os, "fork") else 0)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="parts run in this process")
    def test_a_child_that_dies_is_an_error(self, forked):
        def dies(part, parts):
            yield part
            if part:
                os._exit(1)

        with repetition.map_parts(dies, 2) as streams:
            assert next(streams[1]) == 1
            with pytest.raises(ChildProcessError, match="ended before it sent all its items"):
                next(streams[1])

    def test_stretches_cover_the_range_in_order(self):
        for total, parts in itertools.product(range(8), range(1, 5)):
            spans = [repetition.stretch(total, part, parts) for part in range(parts)]
            assert [i for span in spans for i in span] == list(range(total))
            assert max(map(len, spans)) - min(map(len, spans)) <= 1


class TestSharedEngines:
    @staticmethod
    def _count_engines(monkeypatch, builder="_residual_engine"):
        """Record each built engine's node count."""
        built = []
        build = getattr(repetition, builder)

        def counting_build(points, full=True):
            built.extend(n_nodes for _, n_nodes in points)
            return build(points, full)

        monkeypatch.setattr(repetition, builder, counting_build)
        return built

    @pytest.mark.parametrize("rate", [failure_rate, failure_rate_no_gkp_ec])
    def test_per_case_values_identical_inside_and_outside_a_scope(self, rate):
        calls = [
            (n, NoiseParams(delta, dt), repetition.DEFAULT_QUADRATURE)
            for delta in (0.3, 0.5) for dt in (0.08, 0.3) for n in (3, 5, 7, 9)
        ]
        # the tensor oracle, then a 64-node call whose fine engine is the
        # coarse engine of the 96-node call after it
        calls += [
            (3, NoiseParams(0.5, 0.3), QuadratureConfig(method="tensor")),
            (3, NoiseParams(0.5, 0.3), QuadratureConfig(nodes_per_dim=64)),
            (3, NoiseParams(0.5, 0.3), QuadratureConfig(nodes_per_dim=96)),
        ]
        fresh = [rate(*call).per_case for call in calls]
        with shared_engines():
            shared = [rate(*call).per_case for call in calls]
        assert shared == fresh

    def test_one_engine_pair_per_noise_point(self, monkeypatch):
        # P_F and every code size's rate and overweight tail share the pair
        # (P_F asked first builds P_F-only engines; see TestPauliRateOnly)
        built = self._count_engines(monkeypatch)
        with shared_engines():
            for n in (3, 5, 7, 9):
                failure_rate(n, NoiseParams(0.5, 0.2))
            pauli_rate_physical(NoiseParams(0.5, 0.2))
        assert sorted(built) == [64, 96]

    def test_nested_scope_joins_the_outer_one(self, monkeypatch):
        built = self._count_engines(monkeypatch, "_intrinsic_engine")
        with shared_engines():
            failure_rate_no_gkp_ec(3, NoiseParams(0.5, 0.2))
            with shared_engines():
                failure_rate_no_gkp_ec(5, NoiseParams(0.5, 0.2))
            failure_rate_no_gkp_ec(7, NoiseParams(0.5, 0.2))
        assert sorted(built) == [64, 96]

    def test_fresh_engines_outside_a_scope(self, monkeypatch):
        built = self._count_engines(monkeypatch)
        for n in (3, 5):
            failure_rate(n, NoiseParams(0.5, 0.2))
        assert sorted(built) == [64, 64, 96, 96]

    def test_oldest_entries_dropped_at_the_cap(self, monkeypatch):
        built = self._count_engines(monkeypatch)
        monkeypatch.setattr(repetition, "_SHARED_MAX", 3)
        with shared_engines():
            # each point holds a coarse and a fine engine
            for dt in (0.2, 0.3, 0.3, 0.2):
                failure_rate(3, NoiseParams(0.5, dt))
        assert built == [64, 96, 64, 96, 64, 96]

    def test_certificate_checked_on_a_memo_hit(self, monkeypatch):
        # 16 nodes per cell cannot certify 1e-8 at dt = 0.3
        built = self._count_engines(monkeypatch)
        cfg = QuadratureConfig(nodes_per_dim=16)
        with shared_engines():
            for n in (3, 3, 5):
                with pytest.raises(QuadratureError, match="abs_tol"):
                    failure_rate(n, NoiseParams(0.5, 0.3), cfg)
        assert sorted(built) == [16, 24]


def _set_translates(monkeypatch, neighbors):
    """Count ``neighbors`` 2*sqrt(pi) translates on each side of every window.

    They are taken in the order t = -neighbors .. neighbors, t != 0.  The
    engine memo does not key on them, so no caller may hold a
    ``shared_engines`` block open across this call.
    """
    shifts = tuple(2.0 * t * SQRT_PI for t in range(-neighbors, neighbors + 1) if t)
    monkeypatch.setattr(repetition, "_TRANSLATES", shifts)


def _both_routes(gkp_ec, n, params, nodes):
    """Factorized and tensor per-flip-count values on the same engine's nodes."""
    engine = repetition._make_engine(gkp_ec, params, nodes)
    size = CodeSize(n)
    return repetition._factorized_cases(engine, size), repetition._tensor_cases(engine, size)


def _class_sum_cases(engine, n):
    """Per-case values summed over the sign-split ``_case_blocks`` classes.

    The contraction the factorized route used before the PZ signs were
    merged: one factor group per (count, cell, window, reflect), each with
    its own miss ratio M/a from ``engine.miss``, clipped to [0, 1] (0 where
    the cell has no mass).
    """
    cases = []
    for m in range((n + 1) // 2):
        total = 0.0
        for block in repetition._case_blocks(m, n):
            groups = []
            for count, cell, window, reflect in block.factors:
                mass = engine.cells[cell].mass
                full = mass ** count
                miss = engine.miss[block.outer_cell, cell, window, reflect]
                ratio = np.clip(miss / mass, 0.0, 1.0) if mass > 0.0 else 0.0 * miss
                with np.errstate(divide="ignore"):
                    log_b = count * np.log1p(-ratio)
                groups.append((full, -full * np.expm1(log_b), full * np.exp(log_b)))
            full, value, _ = groups[-1]
            for a, drop, keep in reversed(groups[:-1]):
                value = drop * full + keep * value
                full *= a
            outer = engine.cells[block.outer_cell]
            total += block.multiplicity * float(np.dot(outer.w * outer.f, value))
        cases.append(total)
    return cases


class TestEngineRecord:
    @pytest.mark.parametrize("gkp_ec", [True, False], ids=["ec", "noec"])
    def test_every_array_is_read_only(self, gkp_ec, monkeypatch):
        # shared_engines hands one engine to every rate call of a block
        _set_translates(monkeypatch, 1)
        engine = repetition._make_engine(gkp_ec, NoiseParams(0.5, 0.2), 64)
        arrays = [a for c in engine.cells.values() for a in (c.x, c.w, c.f)]
        arrays += [*engine.miss.values(), *engine.log_keep.values()]
        assert len(arrays) == 6 + len(repetition._MISS_KEYS) + len(repetition._SIDES)
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            engine.dt = 0.3

    def test_no_engine_carries_a_translate_count(self):
        fields = [f.name for f in dataclasses.fields(repetition._Engine)]
        assert fields == ["cells", "miss", "log_keep", "pauli_rate", "dt", "cases"]
        with shared_engines():
            failure_rate(3, NoiseParams(0.5, 0.2))
            assert list(repetition._SHARED.get()) == [
                (True, 0.5, 0.2, 64), (True, 0.5, 0.2, 96)]


def _engine_bytes(engine):
    """Every array, mass and rate of an engine, as bytes and hex floats."""
    def arrays(table):
        return None if table is None else {key: a.tobytes() for key, a in table.items()}

    cells = {key: (c.x.tobytes(), c.w.tobytes(), c.f.tobytes(), c.mass.hex())
             for key, c in engine.cells.items()}
    return cells, arrays(engine.miss), arrays(engine.log_keep), engine.pauli_rate.hex(), engine.dt


def _switch_spreads(nodes):
    """Ancilla spreads just below and above every with-EC layout and comb-term-count switch.

    A switch is a change of the panel count or order, of the reach reaching
    the cell edge, or of the comb's term count K, on a fine grid of dt.
    """
    def marks(dt):
        reach, n_panels, order = repetition.peaked_cell_layout(HALF_CELL, dt, nodes)
        return reach == HALF_CELL, n_panels, order, lattice._comb_term_count(SQRT_PI, dt**2)

    grid = np.geomspace(0.01, 0.6, 240).tolist()
    return sorted({dt for a, b in zip(grid, grid[1:]) if marks(a) != marks(b) for dt in (a, b)})


class TestStackedBuilds:
    """A batch build equals the one-at-a-time builds of its points, bit for bit."""

    NODES = (16, 48, 64, 96, 144)

    def test_spreads_cross_every_switch(self):
        for nodes in self.NODES:
            spreads = _switch_spreads(nodes)
            every = {repetition.peaked_cell_layout(HALF_CELL, dt, nodes)[1:]
                     for dt in np.geomspace(0.01, 0.6, 240).tolist()}
            layouts = {repetition.peaked_cell_layout(HALF_CELL, dt, nodes)[1:] for dt in spreads}
            terms = {lattice._comb_term_count(SQRT_PI, dt**2) for dt in spreads}
            assert layouts == every and terms == {1, 2, 3}, nodes

    @pytest.mark.parametrize("gkp_ec", [True, False], ids=["ec", "noec"])
    def test_mixed_batches_equal_batches_of_one(self, gkp_ec):
        build = repetition._residual_engine if gkp_ec else repetition._intrinsic_engine
        points = [(NoiseParams(delta, dt), nodes)
                  for nodes in self.NODES for dt in _switch_spreads(nodes)
                  for delta in (0.1, 0.3, 0.5, 0.8)]
        order = np.random.default_rng(34).permutation(len(points))
        for chunk in np.array_split(order, 8):
            batch = [points[i] for i in chunk]
            for point, engine in zip(batch, build(batch)):
                assert _engine_bytes(engine) == _engine_bytes(build([point])[0]), point

    def test_batch_of_one_is_the_memo_entry(self):
        with shared_engines():
            for gkp_ec in (True, False):
                batch = [(NoiseParams(0.5, 0.2), 64), (NoiseParams(0.3, 0.045), 96)]
                for (params, nodes), engine in zip(batch, repetition._make_engines(gkp_ec, batch)):
                    assert repetition._make_engine(gkp_ec, params, nodes) is engine

    def test_a_raising_point_raises_for_itself(self):
        good = [(NoiseParams(0.5, 0.2), 64), (NoiseParams(0.3, 0.1), 96)]
        batch = [good[0], (NoiseParams(100.0, 0.2), 64), good[1]]
        first, failed, last = repetition._make_engines(True, batch)
        assert isinstance(failed, TruncationError)
        for (params, nodes), engine in zip(good, (first, last)):
            want = repetition._make_engine(True, params, nodes)
            assert _engine_bytes(engine) == _engine_bytes(want)
        spec = SweepSpec("pfrep", (("delta", (0.5, 100.0, 0.3)),), {"delta_tilde": 0.2, "n": 3})
        with shared_engines():
            statuses = [row[-1] for row in run_sweep(spec).rows]
        assert statuses == ["ok", "error:TruncationError", "ok"]

    @pytest.mark.parametrize("gkp_ec", [True, False], ids=["ec", "noec"])
    def test_stacked_cases_equal_one_engine_passes(self, gkp_ec):
        points = [(NoiseParams(delta, dt), nodes) for delta, dt, nodes in itertools.product(
            (0.1, 0.3, 0.5, 0.8), (0.045, 0.2, 0.45), (48, 64, 96))]
        engines = repetition._make_engines(gkp_ec, points)
        for n in (3, 9, 15):
            stacked = repetition._stacked_cases(engines, CodeSize(n))
            for engine, cases in zip(engines, stacked):
                fresh = dataclasses.replace(engine)
                assert not fresh.cases
                assert cases == repetition._factorized_cases(fresh, CodeSize(n))
                assert engine.cases[n] == cases

    def test_pauli_rate_only_engines_keep_the_cells_and_pauli_rate(self):
        points = [(NoiseParams(delta, dt), nodes) for delta, dt, nodes in itertools.product(
            (0.1, 0.5), (0.02, 0.2, 0.6), (64, 96))]
        for partial, full in zip(repetition._residual_engine(points, full=False),
                                 repetition._residual_engine(points)):
            assert partial.miss is None and partial.log_keep is None
            assert _engine_bytes(partial)[0::3] == _engine_bytes(full)[0::3]

    def test_a_rate_after_pf_gets_the_full_engine(self, monkeypatch):
        calls = []
        build = repetition._residual_engine

        def recording_build(points, full=True):
            calls.extend((nodes, full) for _, nodes in points)
            return build(points, full)

        monkeypatch.setattr(repetition, "_residual_engine", recording_build)
        params = NoiseParams(0.5, 0.2)
        with shared_engines():
            first_pf = pauli_rate_physical(params)
            rate = failure_rate(3, params)
            second_pf = pauli_rate_physical(params)
            assert all(engine.miss is not None for engine in repetition._SHARED.get().values())
        assert calls == [(64, False), (96, False), (64, True), (96, True)]
        calls.clear()
        assert first_pf == second_pf == pauli_rate_physical(params)
        assert rate == failure_rate(3, params)

    def test_pf_sweep_builds_pauli_rate_only_engines(self, monkeypatch):
        calls = []
        build = repetition._residual_engine

        def recording_build(points, full=True):
            calls.append((len(points), full))
            return build(points, full)

        monkeypatch.setattr(repetition, "_residual_engine", recording_build)
        spec = SweepSpec("pf", (("delta_tilde", tuple(np.linspace(0.02, 0.6, 40))),),
                         {"delta": 0.5})
        fresh = run_sweep(spec)
        calls.clear()
        with shared_engines():
            assert run_sweep(spec) == fresh
        assert calls == [(80, False)]
        # a 256-cell stretch takes even batches of at most about _BATCH_SQUARES
        calls.clear()
        spec = SweepSpec("pf", (("delta_tilde", tuple(np.linspace(0.02, 0.6, 300))),),
                         {"delta": 0.5})
        with shared_engines():
            run_sweep(spec)
        assert calls == [(128, False)] * 4 + [(88, False)]


class TestBinomialContraction:
    @pytest.mark.parametrize("gkp_ec", [True, False], ids=["ec", "noec"])
    @pytest.mark.parametrize("neighbors", [0, 1])
    @pytest.mark.parametrize("delta, dt", [(0.3, 0.045), (0.5, 0.2), (0.12, 0.08), (0.6, 0.45)])
    def test_matches_the_sign_split_classes(self, gkp_ec, neighbors, delta, dt, monkeypatch):
        _set_translates(monkeypatch, neighbors)
        engine = repetition._make_engine(gkp_ec, NoiseParams(delta, dt), 64)
        for n in (3, 7, 9, 15):
            got = repetition._factorized_cases(engine, CodeSize(n))
            want = _class_sum_cases(engine, n)
            assert all(abs(g - w) <= 1e-15 * abs(w) for g, w in zip(got, want))

    @pytest.mark.parametrize("builder", ["_residual_engine", "_intrinsic_engine"], ids=["ec", "noec"])
    def test_six_miss_integrals_per_engine(self, builder, monkeypatch):
        built = TestSharedEngines._count_engines(monkeypatch, builder)
        rate = failure_rate if builder == "_residual_engine" else failure_rate_no_gkp_ec
        with shared_engines():
            for n in (3, 5, 7, 9, 15):
                rate(n, NoiseParams(0.5, 0.2))
        assert sorted(built) == [64, 96]

    @pytest.mark.parametrize("builder", ["_residual_engine", "_intrinsic_engine"], ids=["ec", "noec"])
    def test_miss_integrals_built_only_when_used(self, builder, monkeypatch):
        # the tensor oracle builds its own engine and no refine engine
        built = TestSharedEngines._count_engines(monkeypatch, builder)
        rate = failure_rate if builder == "_residual_engine" else failure_rate_no_gkp_ec
        rate(3, NoiseParams(0.5, 0.3))
        assert built == [64, 96]
        built.clear()
        rate(3, NoiseParams(0.5, 0.3), QuadratureConfig(nodes_per_dim=48, method="tensor"))
        assert built == [48]


def _full_grid_cases(engine, n):
    """Per-case values of the tensor oracle summed over every ordered grid point.

    The n - 1 inner axes are expanded one by one, so a group of c
    exchangeable coordinates costs nodes**c points per outer node.
    """
    cases = []
    for m in range((n + 1) // 2):
        total = 0.0
        for block in repetition._case_blocks(m, n):
            outer = engine.cells[block.outer_cell]
            axes = [
                (engine.cells[bounds], window, reflect)
                for count, bounds, window, reflect in block.factors
                for _ in range(count)
            ]
            weight_grid = functools.reduce(np.multiply.outer, [c.w * c.f for c, _, _ in axes])
            block_total = 0.0
            for i, u1 in enumerate(outer.x):
                with np.errstate(divide="ignore"):
                    log_keep = functools.reduce(np.add.outer, [
                        np.log1p(-0.5 * repetition._window_complement(
                            u1 - cell.x if reflect else u1 + cell.x, window, engine.dt,
                        ))
                        for cell, window, reflect in axes
                    ])
                block_total -= outer.w[i] * outer.f[i] * float(
                    np.sum(weight_grid * np.expm1(log_keep))
                )
            total += block.multiplicity * block_total
        cases.append(total)
    return cases


# (gkp_ec, n, delta, dt, nodes, neighbors) of the tensor oracle's checks
TENSOR_GRID = [
    (True, 3, 0.5, 0.3, 32, 0),
    (True, 5, 0.5, 0.3, 16, 0),
    (True, 5, 0.5, 0.3, 24, 0),
    (True, 5, 0.3, 0.045, 24, 0),  # cases 1e-57 to 1e-62
    (False, 3, 0.5, 0.3, 32, 0),
    (True, 5, 0.5, 0.3, 16, 1),
    (False, 3, 0.5, 0.3, 32, 1),
]

# float.hex of every _tensor_cases value at the TENSOR_GRID points and at
# the benchmark's two tensor points (n = 3 at 64 nodes and n = 5 at 24
# nodes, the latter also a TENSOR_GRID point), recorded with group sums
# that gathered each multiset row and reduced it: any faster group sum
# must keep these bits
TENSOR_HEX = {
    (True, 3, 0.5, 0.3, 32, 0): ["0x1.9b80cf5788b2dp-6", "0x1.61349109644d6p-8"],
    (True, 5, 0.5, 0.3, 16, 0): [
        "0x1.6fd356cee7611p-5", "0x1.942d8131bef00p-7", "0x1.3248774799464p-10"],
    (True, 5, 0.5, 0.3, 24, 0): [
        "0x1.6fd2cb46d0eb7p-5", "0x1.942da87ac717ap-7", "0x1.324919c5a380cp-10"],
    (True, 5, 0.3, 0.045, 24, 0): [
        "0x1.17a3c65ec3e09p-189", "0x1.a85723a5890ebp-197", "0x1.3871642622ecbp-206"],
    (False, 3, 0.5, 0.3, 32, 0): ["0x1.44d4c9057e415p-3", "0x1.271e0a5a4db1ap-6"],
    (True, 5, 0.5, 0.3, 16, 1): [
        "0x1.6fd356cee65ffp-5", "0x1.942d8131b9799p-7", "0x1.3248774788e3dp-10"],
    (False, 3, 0.5, 0.3, 32, 1): ["0x1.44d4c8fb179a3p-3", "0x1.271e09ffb590ep-6"],
    (True, 3, 0.5, 0.3, 64, 0): ["0x1.9b80cf5788b17p-6", "0x1.61349109644ddp-8"],
}


class TestTensorMultisets:
    """The tensor oracle sums each exchangeable group over sorted index multisets."""

    @pytest.mark.parametrize("gkp_ec, n, delta, dt, nodes, neighbors", TENSOR_GRID)
    def test_matches_the_full_grid(self, gkp_ec, n, delta, dt, nodes, neighbors, monkeypatch):
        _set_translates(monkeypatch, neighbors)
        engine = repetition._make_engine(gkp_ec, NoiseParams(delta, dt), nodes)
        got = repetition._tensor_cases(engine, CodeSize(n))
        want = _full_grid_cases(engine, n)
        assert len(got) == len(want)
        for m, (g, w) in enumerate(zip(got, want)):
            assert w > 0.0 and abs(g - w) <= 1e-13 * w, (m, g, w)

    @pytest.mark.parametrize("gkp_ec, n, delta, dt, nodes, neighbors", TENSOR_GRID)
    def test_threads_keep_every_bit(self, gkp_ec, n, delta, dt, nodes, neighbors, monkeypatch):
        _set_translates(monkeypatch, neighbors)
        engine = repetition._make_engine(gkp_ec, NoiseParams(delta, dt), nodes)
        monkeypatch.setattr(repetition, "_IN_PART", True)
        serial = repetition._tensor_cases(engine, CodeSize(n))
        monkeypatch.setattr(repetition, "_IN_PART", False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        threaded = [repetition._tensor_cases(engine, CodeSize(n))]
        # every block on three threads, whatever its grid size
        monkeypatch.setattr(repetition, "_THREAD_MIN_POINTS", 1)
        threaded.append(repetition._tensor_cases(engine, CodeSize(n)))
        bits = [np.array(values).view(np.uint64).tolist() for values in (serial, *threaded)]
        assert bits[1:] == bits[:1] * 2

    @pytest.mark.parametrize("gkp_ec, n, delta, dt, nodes, neighbors", list(TENSOR_HEX))
    def test_values_are_pinned(self, gkp_ec, n, delta, dt, nodes, neighbors, monkeypatch):
        _set_translates(monkeypatch, neighbors)
        engine = repetition._make_engine(gkp_ec, NoiseParams(delta, dt), nodes)
        got = repetition._tensor_cases(engine, CodeSize(n))
        want = TENSOR_HEX[gkp_ec, n, delta, dt, nodes, neighbors]
        assert [value.hex() for value in got] == want

    def test_only_large_grids_spread_over_threads(self, monkeypatch):
        # n = 3 at 64 nodes: every block grid is below the threshold; n = 5
        # at 24 nodes: some are above it
        threads = []
        real_pool = concurrent.futures.ThreadPoolExecutor

        def pool(max_workers, **kwargs):
            threads.append(max_workers)
            return real_pool(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", pool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        repetition._tensor_cases(
            repetition._make_engine(True, NoiseParams(0.5, 0.3), 64), CodeSize(3)
        )
        assert threads == []
        repetition._tensor_cases(
            repetition._make_engine(True, NoiseParams(0.5, 0.3), 24), CodeSize(5)
        )
        assert threads and set(threads) == {1}

    @pytest.mark.parametrize("n_nodes", [5, 24])
    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    def test_multiset_table(self, n_nodes, count):
        idx, multiplicity = repetition._multisets(n_nodes, count)
        assert idx.shape == (math.comb(n_nodes + count - 1, count), count)
        assert np.all(np.diff(idx, axis=1) >= 0)
        assert len(np.unique(idx, axis=0)) == len(idx)
        assert multiplicity.sum() == n_nodes**count
        x, w = repetition._leggauss(n_nodes)
        wf = w * np.exp(-x * x)
        got = float(np.dot(multiplicity, wf[idx].prod(axis=1)))
        assert got == pytest.approx(wf.sum() ** count, rel=1e-14, abs=0.0)
        # the column folds keep the bits of reducing the row-major gather
        assert idx.flags.f_contiguous
        log_keep = np.log1p(-0.5 * np.random.default_rng(count).random(n_nodes))
        for ufunc, values in ((np.add, log_keep), (np.multiply, wf)):
            folded = repetition._fold(ufunc, values, idx)
            gathered = ufunc.reduce(np.ascontiguousarray(values[idx]), axis=1)
            assert np.array_equal(folded.view(np.uint64), gathered.view(np.uint64))

    def test_n5_call_does_not_materialize_the_gather(self):
        # the per-outer-node column folds peak at about 4.3 MB; the full grid
        # took 8.2 MB and an (outer x multisets x count) gather 20.5 MB
        engine = repetition._make_engine(True, NoiseParams(0.5, 0.3), 24)
        repetition._tensor_cases(engine, CodeSize(5))
        tracemalloc.start()
        try:
            repetition._tensor_cases(engine, CodeSize(5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6


class TestCaseBlocks:
    @pytest.mark.parametrize("n", range(3, 16, 2))
    def test_every_signed_flip_pattern_counted_once(self, n):
        # C(n, m) flip sets, each flipped qubit in either mirror PZ cell;
        # every class places all n - 1 inner qubits
        for m in range((n + 1) // 2):
            blocks = repetition._case_blocks(m, n)
            assert sum(block.multiplicity for block in blocks) == 2**m * math.comb(n, m)
            for block in blocks:
                counts = [count for count, *_ in block.factors]
                assert sum(counts) == n - 1 and min(counts) >= 1


def _centre(bounds):
    return 0.5 * (bounds[0] + bounds[1])


class TestMissTable:
    """The residual engine's miss integrals come from one window-complement table."""

    # dt = 0.01-0.08 cut the cells at 8.5 dt, dt = 0.12-0.6 at the cell edge
    @pytest.mark.parametrize("dt", [0.01, 0.03, 0.08, 0.12, 0.35, 0.6])
    def test_matches_the_direct_outer_by_inner_evaluation(self, dt, monkeypatch):
        for delta, nodes, neighbors in itertools.product(
            (0.3, 0.5, 0.8), (8, 16, 24, 64, 96, 128), (0, 1, 2)
        ):
            _set_translates(monkeypatch, neighbors)
            engine = repetition._make_engine(True, NoiseParams(delta, dt), nodes)
            for (outer_cell, cell), sides in repetition._SIDES.items():
                outer_x, inner = engine.cells[outer_cell].x, engine.cells[cell]
                for window, reflect in sides:
                    arg = outer_x[:, None] + (-1.0 if reflect else 1.0) * inner.x[None, :]
                    q = repetition._window_complement(arg, window, dt)
                    want = 0.5 * (q @ (inner.w * inner.f))
                    got = engine.miss[outer_cell, cell, window, reflect]
                    assert np.array_equal(got == 0.0, want == 0.0)
                    big = want > 1e-290
                    assert np.all(np.abs(got[big] - want[big]) <= 1e-11 * want[big])

    def test_windows_are_centred_on_the_nominal_pair_sum(self):
        windows = {
            (outer_cell, cell, window, reflect)
            for (outer_cell, cell), sides in repetition._SIDES.items()
            for window, reflect in sides
        }
        windows |= {
            (block.outer_cell, cell, window, reflect)
            for n in (3, 5) for m in range((n + 1) // 2)
            for block in repetition._case_blocks(m, n)
            for _, cell, window, reflect in block.factors
        }
        assert len(windows) == 6
        for outer_cell, cell, window, reflect in windows:
            sign = -1.0 if reflect else 1.0
            assert _centre(window) == pytest.approx(_centre(outer_cell) + sign * _centre(cell))
            assert window[1] - window[0] == pytest.approx(2.0 * repetition.HALF_CELL)

    @pytest.mark.parametrize("dt", [0.01, 0.08, 0.35])
    @pytest.mark.parametrize("nodes", [8, 64, 96])
    def test_both_cells_share_one_panel_layout(self, dt, nodes):
        engine = repetition._make_engine(True, NoiseParams(0.5, dt), nodes)
        reach, n_panels, order = repetition.peaked_cell_layout(repetition.HALF_CELL, dt, nodes)
        hw = reach / n_panels
        t, _ = np.polynomial.legendre.leggauss(order)
        rel = hw * (2 * np.arange(n_panels) + 1 - n_panels)[:, None] + hw * t[None, :]
        for bounds, cell in engine.cells.items():
            assert cell.x.shape == (n_panels * order,)
            assert np.allclose(cell.x - _centre(bounds), rel.ravel(), rtol=0.0, atol=1e-14)

    def test_gauss_legendre_nodes_are_exactly_odd(self):
        # the engine's table reuses the upper edge's erfc, reversed, for the
        # lower edge; that is exact only while t_{k-1-j} == -t_j bit for bit
        orders = {
            repetition.peaked_cell_layout(repetition.HALF_CELL, float(dt), nodes)[2]
            for nodes in range(8, 193)
            for dt in np.geomspace(1e-4, 2.0, 60)
        }
        assert len(orders) > 50
        for order in orders:
            t = repetition._leggauss(order)[0]
            assert np.array_equal(t, -t[::-1]), order

    @pytest.mark.parametrize("neighbors", [0, 1, 2])
    @pytest.mark.parametrize("delta, dt, nodes", [
        (0.5, 0.01, 64), (0.3, 0.045, 96), (0.5, 0.08, 32), (0.8, 0.35, 128), (0.5, 0.6, 16),
    ])
    def test_miss_arrays_equal_the_full_table_contraction(self, delta, dt, nodes, neighbors,
                                                          monkeypatch):
        # the window complement evaluated on every offset, both edges and all
        # translates, then contracted as the engine does: equal bit for bit
        _set_translates(monkeypatch, neighbors)
        engine = repetition._make_engine(True, NoiseParams(delta, dt), nodes)
        reach, n_panels, order = repetition.peaked_cell_layout(repetition.HALF_CELL, dt, nodes)
        hw = reach / n_panels
        t = repetition._leggauss(order)[0]
        d = np.arange(1 - n_panels, n_panels)
        offsets = 2.0 * hw * d[:, None, None] + hw * (t[:, None] + t[None, :])
        table = repetition._window_complement(
            offsets, (-repetition.HALF_CELL, repetition.HALF_CELL), dt
        )
        panels = np.arange(n_panels)
        rows = panels[:, None] + panels[None, :]
        for outer_cell, bounds, window, reflect in repetition._MISS_KEYS:
            cell = engine.cells[bounds]
            g = cell.w * cell.f
            by_panel = table @ (g[::-1] if reflect else g).reshape(n_panels, order).T
            want = 0.5 * by_panel[rows, :, panels].sum(axis=1).ravel()
            got = engine.miss[outer_cell, bounds, window, reflect]
            assert got.tobytes() == want.tobytes(), (outer_cell, bounds, window, reflect)


class TestTranslates:
    """One module-level name holds the window translates; by default there are none."""

    def test_central_window_only_by_default(self):
        assert repetition._TRANSLATES == ()

    @pytest.mark.parametrize("window", [
        repetition.WIN_NPZ0, repetition.WIN_PZ1, repetition.WIN_PZ1_NEG, repetition.WIN_NPZ1,
    ], ids=["npz0", "pz1", "pz1-neg", "npz1"])
    def test_window_and_its_translates_score_the_decoder(self, window, monkeypatch):
        # 30 ancilla spreads from every window edge erf and erfc saturate
        # exactly, so the window and its translates at +-2 and +-4 sqrt(pi)
        # miss a pair sum exactly where the decoder reads the other zone,
        # out to 5 sqrt(pi) from the window centre
        dt = 1e-3
        _set_translates(monkeypatch, 2)
        centre = _centre(window)
        y = np.linspace(centre - 5.0 * SQRT_PI, centre + 5.0 * SQRT_PI, 20001)
        y = y[HALF_CELL - np.abs(nearest_multiple_offset_array(y)) >= 30.0 * dt]
        got = 0.5 * repetition._window_complement(y, window, dt)
        want = (is_pauli_zone(y) != is_pauli_zone(centre)).astype(np.float64)
        assert np.array_equal(got, want)
        assert set(got.tolist()) == {0.0, 1.0}


def _per_side_miss(engine, delta, neighbors, outer_cell, bounds, window, reflect):
    """A no-EC miss integral from one rectangle call per side and per translate.

    The two out-of-window rectangles of the central window, less the
    overlaps with the ``neighbors`` translates on each side, kept >= 0.
    """
    lo, hi = window
    outer_x = engine.cells[outer_cell].x

    def limits(shift):
        if reflect:
            return outer_x - (hi + shift), outer_x - (lo + shift)
        return lo + shift - outer_x, hi + shift - outer_x

    out = repetition.gaussian_window_overlap(
        bounds, *limits(0.0), delta, engine.dt, outside=True
    )
    for t in range(-neighbors, neighbors + 1):
        if t:
            out = out - repetition.gaussian_window_overlap(
                bounds, *limits(2.0 * t * repetition.SQRT_PI), delta, engine.dt
            )
    return np.maximum(out, 0.0)


class TestStackedRectangles:
    """The no-EC engine takes every side's rectangles in at most two calls."""

    # dt = 1e-9 takes gaussian_window_overlap's interval branch; at
    # delta = 0.8, dt = 0.6 the translates reach far enough into the cells
    # that subtracting their sum instead of each in turn changes bits
    @pytest.mark.parametrize("delta, dt", [
        *itertools.product((0.3, 0.5), (1e-9, 0.045, 0.3)), (0.8, 0.6),
    ])
    def test_matches_one_call_per_side_bit_for_bit(self, delta, dt, monkeypatch):
        for nodes, neighbors in itertools.product((32, 64, 96), (0, 1, 2)):
            _set_translates(monkeypatch, neighbors)
            engine = repetition._make_engine(False, NoiseParams(delta, dt), nodes)
            for key in repetition._MISS_KEYS:
                got = engine.miss[key]
                want = _per_side_miss(engine, delta, neighbors, *key)
                assert got.shape == engine.cells[key[0]].x.shape
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("neighbors", [0, 1, 2])
    def test_at_most_two_rectangle_calls_per_engine(self, neighbors, monkeypatch):
        calls = []
        overlap = repetition.gaussian_window_overlap
        monkeypatch.setattr(
            repetition, "gaussian_window_overlap",
            lambda *args, **kwargs: calls.append(args) or overlap(*args, **kwargs),
        )
        _set_translates(monkeypatch, neighbors)
        repetition._make_engine(False, NoiseParams(0.5, 0.2), 64)
        assert len(calls) == (2 if neighbors else 1)


class TestRefineRung:
    @pytest.mark.parametrize("rate, builder, nodes", [
        *((failure_rate_no_gkp_ec, "_intrinsic_engine", n) for n in (48, 49, 64)),
        *((failure_rate, "_residual_engine", n) for n in (16, 33, 64)),
    ], ids=["noec-48", "noec-49", "noec-64", "ec-16", "ec-33", "ec-64"])
    def test_one_refine_engine(self, rate, builder, nodes, monkeypatch):
        # certified or not, a call builds the coarse engine and the 1.5x one
        built = TestSharedEngines._count_engines(monkeypatch, builder)
        with contextlib.suppress(QuadratureError):
            rate(3, NoiseParams(0.5, 0.3), QuadratureConfig(nodes_per_dim=nodes))
        assert built == [nodes, 3 * nodes // 2]

    @pytest.mark.parametrize("method", ["factorized", "tensor"])
    @pytest.mark.parametrize("nodes", [16, 47])
    def test_noec_below_48_nodes_refused(self, nodes, method, monkeypatch):
        # at the former panel floors these counts built the 48-node cells of
        # nodes_per_dim = 48; no engine is built before the refusal
        built = TestSharedEngines._count_engines(monkeypatch, "_intrinsic_engine")
        cfg = QuadratureConfig(nodes_per_dim=nodes, method=method)
        with pytest.raises(ValueError, match=f"at least 48, got {nodes}$"):
            failure_rate_no_gkp_ec(3, NoiseParams(0.5, 0.3), cfg)
        assert built == []

    def test_every_cell_grows_at_the_refine_step(self):
        # cell sizes from both engines' node builders only; no rate, no engine
        def sizes(params, nodes):
            # both with-EC cells take one layout (see TestMissTable)
            _, n_panels, order = repetition.peaked_cell_layout(
                HALF_CELL, params.delta_tilde, nodes)
            no_ec = [len(repetition._intrinsic_cell_nodes(cell, params, nodes)[0])
                     for cell in (repetition.NPZ_CELL, repetition.PZ_CELL)]
            return np.array([n_panels * order, *no_ec])

        grid = [NoiseParams(delta, dt) for delta, dt in itertools.product(
            (0.3, 0.5, 0.8), (0.01, 0.045, 0.1, 0.3, 0.5, 0.6))]
        for nodes in [*range(repetition.MIN_NODES, 193), repetition.MAX_NODES]:
            for params in grid:
                coarse, fine = sizes(params, nodes), sizes(params, 3 * nodes // 2)
                assert (fine > coarse).all(), (nodes, params, coarse, fine)

    @pytest.mark.parametrize("rate", [failure_rate, failure_rate_no_gkp_ec])
    def test_default_refine_returns_the_96_node_values(self, rate):
        params = NoiseParams(0.3, 0.045)
        got = rate(7, params).per_case
        engine = repetition._make_engine(rate is failure_rate, params, 96)
        assert [value for _, value in got[:-1]] == repetition._factorized_cases(
            engine, CodeSize(7)
        )


class TestOnePolicyOwner:
    def test_pauli_rate_sum_takes_its_limits_from_lattice(self, monkeypatch):
        params = NoiseParams(0.5, 0.2)
        monkeypatch.setattr(repetition, "MAX_TERMS", 1)
        with pytest.raises(TruncationError, match="within 1 cells"):
            repetition._make_engine(True, params, 64)
        # a bound every cell meets stops the sum after the innermost cell pair
        monkeypatch.setattr(repetition, "ABS_TAIL_BOUND", 1.0)
        engine = repetition._make_engine(True, params, 64)
        assert engine.pauli_rate == 2.0 * engine.cells[repetition.PZ_CELL].mass

    def test_every_route_leaves_through_one_breakdown(self, monkeypatch):
        calls = []
        breakdown = repetition._breakdown
        monkeypatch.setattr(
            repetition, "_breakdown", lambda *args: calls.append(args) or breakdown(*args)
        )
        params = NoiseParams(0.5, 0.3)
        for cfg in (QuadratureConfig(), QuadratureConfig(64, method="tensor")):
            failure_rate(3, params, cfg)
        failure_rate(3, NoiseParams(0.5, 0.0))  # ideal ancilla
        assert [len(cases) for cases, _, _ in calls] == [2, 2, 2]
        assert calls[2][1] == classical_failure(3, pauli_rate_ideal(0.5))

    def test_noec_cells_follow_nodes_per_dim(self):
        # 3 segments per cell share nodes_per_dim, each 2 panels of
        # nodes_per_dim // 6 nodes below 72 nodes
        params = NoiseParams(0.5, 0.1)
        counts = {}
        for nodes in (16, 24, 47, 48, 53, 54, 64, 96):
            engine = repetition._make_engine(False, params, nodes)
            for bounds, cell in engine.cells.items():
                x, w = repetition._intrinsic_cell_nodes(bounds, params, nodes)
                assert x.tobytes() == cell.x.tobytes() and w.tobytes() == cell.w.tobytes()
            counts[nodes] = {len(c.x) for c in engine.cells.values()}
        assert counts == {16: {12}, 24: {24}, 47: {42}, 48: {48}, 53: {48}, 54: {54},
                          64: {60}, 96: {96}}


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

    @pytest.mark.parametrize("delta", [0.2, 0.15])
    def test_never_below_the_position_part(self, delta):
        mpmath = pytest.importorskip("mpmath")
        n, params = 3, NoiseParams(delta, 0.0, r=2.0)
        got = overall_failure_biased(n, params)
        p_rep = failure_rate(n, NoiseParams(params.position_spread, 0.0)).total
        assert got >= p_rep
        mom_first, mom_rest = params.biased_momentum_spreads(n)
        with mpmath.workdps(40):
            keep = (
                (1 - mpmath.mpf(pauli_rate_ideal(mom_rest))) ** (n - 1)
                * (1 - mpmath.mpf(pauli_rate_ideal(mom_first)))
                * (1 - mpmath.mpf(p_rep))
            )
            want = float(1 - keep)
        assert got == pytest.approx(want, rel=1e-12)
