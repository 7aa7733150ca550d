import dataclasses
import math
import re

import numpy as np
import pytest

import gkprep.analysis as analysis
from gkprep.analysis import (
    AmbiguousCrossingError,
    CrossingQuery,
    CurveTable,
    SweepSpec,
    critical_ancilla_spread,
    optimal_bias,
    run_sweep,
)
from gkprep.distributions import NoiseParams
from gkprep.repetition import (
    CodeSize,
    failure_rate,
    overall_failure_biased,
    pauli_rate_physical,
)


class TestCriticalAncillaSpread:
    def test_single_vs_three_qubit_crossing(self):
        q = CrossingQuery(delta=0.5, left_size="single", right_size=3, bracket=(0.15, 0.45))
        result = critical_ancilla_spread(q)
        assert result.status == "found"
        assert 0.27 <= result.value <= 0.33

    def test_plugback_residual_small(self):
        q = CrossingQuery(delta=0.5, left_size="single", right_size=3, bracket=(0.15, 0.45))
        dt = critical_ancilla_spread(q).value
        left = pauli_rate_physical(NoiseParams(0.5, dt))
        right = failure_rate(3, NoiseParams(0.5, dt)).total
        # local slope estimate over the tolerance interval
        h = q.tol
        slope = abs(
            failure_rate(3, NoiseParams(0.5, dt + h)).total
            - failure_rate(3, NoiseParams(0.5, dt - h)).total
        ) / (2 * h)
        assert abs(left - right) < 10.0 * q.tol * max(slope, 1e-6)

    def test_single_curve_builds_one_engine_pair_per_sample(self, monkeypatch):
        # the "single" curve's P_F and the code's rate share the engines of
        # each sampled ancilla spread
        import gkprep.repetition as repetition

        sampled, built = [], {}
        build = repetition._residual_engine

        def counted_rate(n, params, cfg):
            sampled.append(params.delta_tilde)
            return failure_rate(n, params, cfg)

        def counted_build(params, n_nodes):
            built.setdefault(params.delta_tilde, []).append(n_nodes)
            return build(params, n_nodes)

        monkeypatch.setattr(analysis, "failure_rate", counted_rate)
        monkeypatch.setattr(repetition, "_residual_engine", counted_build)
        q = CrossingQuery(delta=0.5, left_size="single", right_size=3, bracket=(0.15, 0.45))
        assert critical_ancilla_spread(q).status == "found"
        assert len(sampled) > 10
        assert sorted(built) == sorted(set(sampled))
        assert all(sorted(nodes) == [64, 96] for nodes in built.values())

    def test_no_crossing_reported_not_raised(self):
        q = CrossingQuery(delta=0.5, left_size="single", right_size=3, bracket=(0.02, 0.1))
        result = critical_ancilla_spread(q)
        assert result.status == "no_crossing"
        assert result.value is None
        assert len(result.samples) == 10

    def test_ambiguous_crossing_raises(self, monkeypatch):
        def fake_curve(size, delta, cfg):
            if size == "single":
                return lambda dt: math.sin(20.0 * dt)
            return lambda dt: 0.0

        monkeypatch.setattr(analysis, "_rate_curve", fake_curve)
        q = CrossingQuery(delta=0.5, left_size="single", right_size=3, bracket=(0.05, 0.6))
        with pytest.raises(AmbiguousCrossingError):
            critical_ancilla_spread(q)

    @pytest.mark.parametrize("tol", [1e-12, 1e-300])
    def test_bisection_reaches_tol(self, monkeypatch, tol):
        # 30 halvings of the (0.05, 0.6) sample bracket leave about 5e-11;
        # below the float spacing the bisection stops at adjacent floats
        root = 0.3141592653589793
        calls = []

        def linear_curve(size, delta, cfg):
            if size == "single":
                return lambda dt: calls.append(dt) or dt - root
            return lambda dt: 0.0

        monkeypatch.setattr(analysis, "_rate_curve", linear_curve)
        q = CrossingQuery(
            delta=0.5, left_size="single", right_size=3, bracket=(0.05, 0.6), tol=tol
        )
        result = critical_ancilla_spread(q)
        assert result.status == "found"
        assert abs(result.value - root) <= max(tol / 2.0, math.ulp(root))
        assert len(calls) < 10 + 64

    # the scan interval of the (0.05, 0.6) bracket that holds each test root
    SCAN_WIDTH = 0.55 / 9

    @staticmethod
    def _rate_curves(monkeypatch, left_rate, right_rate):
        """Replace the two curves; return the list of spreads the left one is called at."""
        calls = []

        def curves(size, delta, cfg):
            if size == "single":
                return lambda dt: calls.append(dt) or left_rate(dt)
            return right_rate

        monkeypatch.setattr(analysis, "_rate_curve", curves)
        return calls

    def _assert_within_tol_and_budget(self, monkeypatch, left_rate, right_rate, root, tol):
        calls = self._rate_curves(monkeypatch, left_rate, right_rate)
        q = CrossingQuery(0.5, "single", 3, (0.05, 0.6), tol)
        result = critical_ancilla_spread(q)
        assert result.status == "found"
        assert abs(result.value - root) <= tol / 2.0
        # ITP's worst case: bisection's ceil(log2(w / tol)) steps and one more
        after_scan = len(calls) - 10
        assert after_scan <= math.ceil(math.log2(self.SCAN_WIDTH) - math.log2(tol)) + 1
        return after_scan

    @pytest.mark.parametrize("tol", [1e-4, 1e-8, 1e-12])
    def test_itp_smooth_curve_beats_bisection(self, monkeypatch, tol):
        root = 0.3141592653589793
        after_scan = self._assert_within_tol_and_budget(
            monkeypatch, lambda dt: 1e-9 * math.exp(30.0 * (dt * dt - root * root)),
            lambda dt: 1e-9, root, tol,
        )
        assert after_scan < math.log2(self.SCAN_WIDTH / tol)

    @pytest.mark.parametrize("tol", [1e-4, 1e-8, 1e-12])
    def test_itp_jump_in_the_log_ratio_stays_within_budget(self, monkeypatch, tol):
        # like the (9,7) log ratio at delta = 0.5, which jumps from -3.0 to
        # +0.2 between two scan points: regula falsi alone would creep
        root = 0.3141592653589793

        def log_ratio(dt):
            return (-3.0 if dt < root else 0.2) + 2.0 * (dt - root)

        self._assert_within_tol_and_budget(
            monkeypatch, lambda dt: 1e-9 * math.exp(log_ratio(dt)), lambda dt: 1e-9, root, tol
        )

    @pytest.mark.parametrize("tol", [1e-4, 1e-8])
    def test_itp_zero_rate_interpolates_the_difference(self, monkeypatch, tol):
        # the left rate underflows to 0.0 at the low end of the scan interval
        root = 0.27
        seen = []
        interpolant = analysis._interpolant
        monkeypatch.setattr(
            analysis, "_interpolant", lambda l, r: seen.append((l, r)) or interpolant(l, r)
        )
        self._assert_within_tol_and_budget(
            monkeypatch, lambda dt: 0.0 if dt < 0.25 else 1e-9 * math.exp(40.0 * (dt - root)),
            lambda dt: 1e-9, root, tol,
        )
        assert (0.0, 1e-9) in seen

    @pytest.mark.parametrize("left, right, want", [
        (2.0, 1.0, math.log(2.0)),
        (1e-300, 1e-200, math.log(1e-300) - math.log(1e-200)),
        (0.0, 1e-9, -1e-9),
        (math.inf, 1.0, math.inf),
        (-0.5, 0.25, -0.75),
    ])
    def test_interpolant_is_the_log_ratio_of_positive_rates(self, left, right, want):
        assert analysis._interpolant(left, right) == want
        assert analysis._interpolant(right, left) == -want

    def test_tiniest_tol_is_found(self, monkeypatch):
        # the budget 2**n and log2(w / tol) overflow a float at tol = 5e-324;
        # below the float spacing the steps stop at adjacent floats
        tol = 5e-324
        root = 0.3141592653589793
        calls = self._rate_curves(monkeypatch, lambda dt: dt - root, lambda dt: 0.0)
        result = critical_ancilla_spread(CrossingQuery(0.5, "single", 3, (0.05, 0.6), tol))
        assert result.status == "found"
        assert abs(result.value - root) <= math.ulp(root)
        assert len(calls) - 10 <= math.ceil(math.log2(self.SCAN_WIDTH / math.ulp(root))) + 1
        monkeypatch.undo()
        q = CrossingQuery(0.5, "single", 3, (0.15, 0.45))
        fine = critical_ancilla_spread(dataclasses.replace(q, tol=tol))
        assert fine.status == "found"
        assert abs(fine.value - critical_ancilla_spread(q).value) <= q.tol / 2.0

    def test_bracket_validation(self):
        with pytest.raises(ValueError):
            CrossingQuery(delta=0.5, left_size="single", right_size=3, bracket=(0.3, 0.1))

    @pytest.mark.parametrize("left, right, message", [
        (4, 3, "code size must be an odd integer from 3 to 15, got 4"),
        ("single", 17, "got 17"),
        (3.9, 5, "got 3.9"),
        (True, 3, "got True"),
        ("Single", 3, "got 'Single'"),
        (3, None, "got None"),
        (3, 3, "left_size and right_size must differ, both are 3"),
        (3, 3.0, "left_size and right_size must differ, both are 3"),
        ("single", "single", "left_size and right_size must differ, both are 'single'"),
    ])
    def test_curves_checked_when_built(self, left, right, message):
        # an equal pair used to make 20 certified rate calls, then report no_crossing
        with pytest.raises(ValueError, match=re.escape(message)):
            CrossingQuery(0.5, left, right)

    def test_code_sizes_stored_as_int_on_either_side(self):
        q = CrossingQuery(0.5, 5.0, "single", (0.15, 0.45))
        assert (q.left_size, q.right_size) == (5, "single") and type(q.left_size) is int
        assert CrossingQuery(0.5, np.int64(3), CodeSize(5)).right_size == 5
        # "single" on the right is the same curve pair with the sign flipped
        swapped = critical_ancilla_spread(CrossingQuery(0.5, 3, "single", (0.15, 0.45)))
        plain = critical_ancilla_spread(CrossingQuery(0.5, "single", 3, (0.15, 0.45)))
        assert (swapped.status, swapped.value) == (plain.status, plain.value)

    @pytest.mark.parametrize("delta", [0.3, 0.5])
    def test_crossing_law_out_to_fifteen(self, delta):
        # fig. 9: the n and n - 2 curves cross at an ancilla spread that falls
        # like 1/sqrt(n - 1), with no positive limit; the heuristic ratio is
        # sqrt(2/3) = 0.816.  Measured: 0.8643 -> 0.8192 at delta = 0.3 and
        # 0.8453 -> 0.8370 at delta = 0.5.  A ratio outside [0.80, 0.87] is
        # a finding, not a reason to widen the band.
        crossings = []
        for n in range(5, 16, 2):
            result = critical_ancilla_spread(CrossingQuery(
                delta, n, n - 2, bracket=(0.1 * delta, 0.65 * delta), tol=1e-4))
            assert result.status == "found", n
            crossings.append(result.value)
            assert 0.80 <= result.value * math.sqrt(n - 1) / delta <= 0.87, n
        assert all(a > b for a, b in zip(crossings, crossings[1:]))


class TestOptimalBias:
    def test_interior_minimum_for_three_qubit(self):
        opt = optimal_bias(3, 0.5, 0.0, (1.0, 4.0))
        assert opt.interior
        assert opt.unimodal
        base = overall_failure_biased(3, NoiseParams(0.5, 0.0, r=1.0))
        assert opt.p_min < base

    def test_local_minimum_certificate(self):
        opt = optimal_bias(3, 0.5, 0.0, (1.0, 4.0))
        for r in (opt.r_opt * 0.95, opt.r_opt * 1.05):
            assert (
                overall_failure_biased(3, NoiseParams(0.5, 0.0, r=r)) >= opt.p_min
            )

    def test_bracket_validation(self):
        with pytest.raises(ValueError):
            optimal_bias(3, 0.5, 0.0, (2.0, 1.0))

    def test_two_dip_profile_runs_the_golden_section_on_the_best_scan_bracket(
        self, monkeypatch
    ):
        # a shallow dip at r = 2 and the deeper one at r = 4.5; near r = 4.5,
        # where the golden section runs, the two profiles are the same function
        def one_dip(n, params, cfg):
            return (params.r - 4.5) ** 2

        def two_dips(n, params, cfg):
            return min((params.r - 2.0) ** 2 + 0.1, one_dip(n, params, cfg))

        monkeypatch.setattr(analysis, "overall_failure_biased", one_dip)
        single = optimal_bias(3, 0.5, 0.0, (1.0, 6.0))
        monkeypatch.setattr(analysis, "overall_failure_biased", two_dips)
        opt = optimal_bias(3, 0.5, 0.0, (1.0, 6.0))
        assert single.unimodal and opt.unimodal is False
        assert opt == dataclasses.replace(single, unimodal=False)
        rs = [1.0 + 5.0 * i / 19 for i in range(20)]
        k = min(range(20), key=lambda i: two_dips(3, NoiseParams(0.5, r=rs[i]), None))
        assert rs[k - 1] <= opt.r_opt <= rs[k + 1]
        assert opt.p_min == two_dips(3, NoiseParams(0.5, r=opt.r_opt), None)

    @pytest.mark.parametrize("bracket", [(1.0, "6"), ("1", 6.0), (1.0, True)])
    def test_non_real_bracket_end_is_value_error(self, bracket):
        with pytest.raises(ValueError, match="r_bracket_(low|high) must be a real number"):
            optimal_bias(3, 0.5, 0.0, bracket)


def _csv_text(table: CurveTable, path) -> str:
    table.to_csv(str(path))
    return path.read_bytes().decode()


class TestRunSweep:
    def test_degenerate_single_point(self):
        spec = SweepSpec("px", (("delta", (0.5,)),))
        table = run_sweep(spec)
        assert len(table.rows) == 1
        assert table.columns == ("delta", "value", "std_err", "status")
        assert table.rows[0][-1] == "ok"

    def test_monotone_px_column(self):
        spec = SweepSpec("px", (("delta", tuple(np.linspace(0.2, 0.9, 50)),),))
        table = run_sweep(spec)
        values = [row[1] for row in table.rows]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_cartesian_order_and_row_count(self):
        spec = SweepSpec(
            "pfrep",
            (("n", (3, 5)), ("delta_tilde", (0.1, 0.2, 0.3))),
            {"delta": 0.5},
        )
        table = run_sweep(spec)
        assert len(table.rows) == 6
        assert [row[0] for row in table.rows] == [3, 3, 3, 5, 5, 5]

    def test_deterministic_output(self, tmp_path):
        spec = SweepSpec(
            "pf", (("delta_tilde", (0.1, 0.3)),), {"delta": 0.5}
        )
        a = _csv_text(run_sweep(spec), tmp_path / "a.csv")
        b = _csv_text(run_sweep(spec), tmp_path / "b.csv")
        assert a == b

    @pytest.mark.parametrize("axes, fixed", [
        ((("delta_tilde", (0.1, 0.3)),), {"delta": 0.5, "delta_tilde": 0.2}),
        ((("delta_tilde", (0.1,)), ("delta", (0.5,)), ("delta_tilde", (0.3,))), {}),
    ])
    def test_parameter_named_twice_rejected(self, axes, fixed):
        with pytest.raises(ValueError, match=r"named twice.*\['delta_tilde'\]"):
            SweepSpec("pf", axes, fixed)

    def test_non_integral_code_size_is_a_value_error_cell(self):
        spec = SweepSpec(
            "pfrep", (("n", (3, 3.9, 5.5)),), {"delta": 0.5, "delta_tilde": 0.2}
        )
        table = run_sweep(spec)
        assert table.rows[0] == (
            3, 0.5, 0.2, failure_rate(3, NoiseParams(0.5, 0.2)).total, "", "ok"
        )
        assert [row[-1] for row in table.rows[1:]] == ["error:ValueError"] * 2

    def test_errors_recorded_in_row(self):
        spec = SweepSpec(
            "delta_nm",
            (("delta", (0.5,)),),
            {"n": 5, "m": 3, "bracket_lo": 0.01, "bracket_hi": 0.02},
        )
        table = run_sweep(spec)
        assert len(table.rows) == 1
        assert table.rows[0][-1].startswith("error:")

    def test_csv_seventeen_digit_round_trip(self, tmp_path):
        spec = SweepSpec("px", (("delta", (1.0 / 3.0,)),))
        text = _csv_text(run_sweep(spec), tmp_path / "px.csv")
        line = text.splitlines()[1]
        delta_str, value_str = line.split(",")[:2]
        assert float(delta_str) == 1.0 / 3.0
        from gkprep.distributions import pauli_rate_ideal

        assert float(value_str) == pauli_rate_ideal(1.0 / 3.0)

    def test_unknown_quantity_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec("bogus", (("delta", (0.5,)),))

    @pytest.mark.parametrize("quantity, fixed, message", [
        ("pfail", {"delta": 0.5, "n": 3, "R": 2.0}, r"unknown pfail parameters: \['R'\]"),
        ("delta_nm", {"n": 5, "m": 3, "bracket": [0.1, 0.5]},
         r"unknown delta_nm parameters: \['bracket'\]"),
        ("pfrep", {"delta_tilde": 0.2}, r"missing pfrep parameters: \['n'\]"),
    ], ids=["pfail-R", "delta-nm-bracket", "pfrep-no-n"])
    def test_parameter_names_rejected_by_spec(self, quantity, fixed, message):
        # the spec itself raises, so a wrong or missing name never reaches a cell
        axis = ("r", (1.0,)) if quantity == "pfail" else ("delta", (0.5,))
        with pytest.raises(ValueError, match=message):
            SweepSpec(quantity, (axis,), fixed)

    def test_optional_parameters_take_their_defaults(self):
        plain = run_sweep(SweepSpec("pfail", (("delta", (0.5,)),), {"n": 3}))
        full = run_sweep(
            SweepSpec("pfail", (("delta", (0.5,)),), {"n": 3, "delta_tilde": 0.0, "r": 1.0})
        )
        assert plain.rows[0][-3:] == full.rows[0][-3:]
        assert plain.rows[0][-1] == "ok"

    def test_wigner_grid_boolean_spread_is_a_value_error_cell(self):
        spec = SweepSpec(
            "wigner_grid", (("q", (0.0,)),), {"delta": True, "kappa": 0.3, "p": 0.0}
        )
        assert run_sweep(spec).rows[0][-3:] == ("", "", "error:ValueError")

    @pytest.mark.parametrize("quantity, axis, fixed", [
        ("wigner_grid", ("q", (True,)), {"delta": 0.3, "kappa": 0.3, "p": 0.0}),
        ("wigner_grid", ("q", (math.inf,)), {"delta": 0.3, "kappa": 0.3, "p": 0.0}),
        ("wigner_grid", ("p", (math.nan,)), {"delta": 0.3, "kappa": 0.3, "q": 0.0}),
        ("delta_nm", ("delta", (0.5,)), {"n": 5, "m": 3, "tol": math.inf}),
    ], ids=["q-true", "q-inf", "p-nan", "tol-inf"])
    def test_non_finite_or_boolean_value_is_a_value_error_cell(self, quantity, axis, fixed):
        table = run_sweep(SweepSpec(quantity, (axis,), fixed))
        assert table.rows[0][-3:] == ("", "", "error:ValueError")

    def test_wigner_grid_quantity(self):
        spec = SweepSpec(
            "wigner_grid",
            (("q", (0.0,)), ("p", (0.0,))),
            {"delta": 0.25, "kappa": 0.25},
        )
        table = run_sweep(spec)
        assert table.rows[0][-3] == pytest.approx(1.0, abs=1e-4)
