import dataclasses
import math

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
from gkprep.repetition import failure_rate, overall_failure_biased, pauli_rate_physical


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

        def counted_build(params, n_nodes, neighbors):
            built.setdefault(params.delta_tilde, []).append(n_nodes)
            return build(params, n_nodes, neighbors)

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

    def test_bracket_validation(self):
        with pytest.raises(ValueError):
            CrossingQuery(delta=0.5, left_size="single", right_size=3, bracket=(0.3, 0.1))


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
