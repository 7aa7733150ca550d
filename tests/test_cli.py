import csv
import gc
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from gkprep import cli, repetition

CLI = [sys.executable, "-m", "gkprep.cli"]


def run_cli(*args, check=True):
    proc = subprocess.run(
        CLI + list(args), capture_output=True, text=True
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"cli failed ({proc.returncode}): {proc.stderr}\n{proc.stdout}"
        )
    return proc


def write_run_file(tmp_path, spec) -> str:
    path = tmp_path / "run.json"
    path.write_text(json.dumps(spec))
    return str(path)


class TestExitCodes:
    def test_success_is_zero(self):
        assert run_cli("rate", "--quantity", "px", "--delta", "0.5").returncode == 0

    def test_usage_error_is_two(self):
        proc = run_cli("rate", "--quantity", "nope", "--delta", "0.5", check=False)
        assert proc.returncode == 2

    def test_validation_error_is_two(self):
        proc = run_cli("rate", "--quantity", "pfrep", "--delta", "0.5", check=False)
        assert proc.returncode == 2
        proc = run_cli(
            "rate", "--quantity", "px", "--delta", "-0.5", check=False
        )
        assert proc.returncode == 2

    def test_numerical_failure_is_three(self):
        proc = run_cli(
            "rate", "--quantity", "pfrep", "--n", "3", "--delta", "0.5",
            "--delta-tilde", "0.3", "--nodes", "16", check=False,
        )
        assert proc.returncode == 3
        assert "numerical" in proc.stderr


class TestEngineLifetime:
    @pytest.mark.parametrize("nodes, code", [("64", 0), ("16", 3)])
    def test_no_engine_outlives_main(self, nodes, code, monkeypatch, capsys):
        engines = []
        init = repetition._ResidualCellEngine.__init__

        def recording_init(self, *args):
            engines.append(weakref.ref(self))
            init(self, *args)

        monkeypatch.setattr(repetition._ResidualCellEngine, "__init__", recording_init)
        argv = [
            "rate", "--quantity", "pfrep", "--n", "3", "--delta", "0.5",
            "--delta-tilde", "0.3", "--nodes", nodes,
        ]
        # the second call builds its own coarse and fine engines
        for calls in (1, 2):
            assert cli.main(argv) == code
            gc.collect()
            assert len(engines) == 2 * calls
            assert all(ref() is None for ref in engines)


class TestRate:
    def test_px_json(self):
        proc = run_cli("rate", "--quantity", "px", "--delta", "1e-4")
        payload = json.loads(proc.stdout)
        assert payload["value"] <= 1e-12

    def test_pfrep_classical_limit(self):
        proc = run_cli(
            "rate", "--quantity", "pfrep", "--n", "3", "--delta", "0.5",
            "--delta-tilde", "1e-6",
        )
        payload = json.loads(proc.stdout)
        px = json.loads(
            run_cli("rate", "--quantity", "px", "--delta", "0.5").stdout
        )["value"]
        classical = 3 * px**2 * (1 - px) + px**3
        assert payload["value"] == pytest.approx(classical, abs=1e-3)
        assert "breakdown" in payload

    def test_pf_reports_two_cell_difference(self):
        proc = run_cli(
            "rate", "--quantity", "pf", "--delta", "0.5", "--delta-tilde", "0.3"
        )
        payload = json.loads(proc.stdout)
        assert payload["value"] == pytest.approx(
            payload["two_cell"] + payload["two_cell_difference"], rel=1e-12
        )

    def test_pfail_compositional_consistency(self):
        n, delta, dt, r = 3, 0.5, 0.0, 1.5
        pfail = json.loads(
            run_cli(
                "rate", "--quantity", "pfail", "--n", str(n), "--delta", str(delta),
                "--delta-tilde", str(dt), "--r", str(r),
            ).stdout
        )["value"]
        mom = delta / r
        pz = json.loads(
            run_cli("rate", "--quantity", "px", "--delta", str(mom)).stdout
        )["value"]
        prep = json.loads(
            run_cli(
                "rate", "--quantity", "pfrep", "--n", str(n), "--delta",
                str(r * delta), "--delta-tilde", "0",
            ).stdout
        )["value"]
        want = 1.0 - (1.0 - pz) ** n * (1.0 - prep)
        assert pfail == pytest.approx(want, rel=1e-10)

    def test_out_writes_csv(self, tmp_path):
        out = str(tmp_path / "row.csv")
        run_cli(
            "rate", "--quantity", "pfrep", "--n", "3", "--delta", "0.5",
            "--delta-tilde", "0.2", "--out", out,
        )
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "delta,delta_tilde,n,value,std_err,status"
        assert lines[1].endswith(",ok")


class TestMc:
    def test_byte_identical_reruns(self):
        args = (
            "mc", "--n", "3", "--delta", "0.5", "--delta-tilde", "0.2",
            "--shots", "5000", "--seed", "7",
        )
        a = run_cli(*args).stdout
        b = run_cli(*args).stdout
        assert a == b

    def test_worker_count_does_not_change_output(self):
        base = (
            "mc", "--n", "3", "--delta", "0.5", "--delta-tilde", "0.2",
            "--shots", "20000", "--seed", "3",
        )
        a = run_cli(*base, "--workers", "1").stdout
        b = run_cli(*base, "--workers", "8").stdout
        assert a == b

    def test_env_var_caps_workers(self):
        env = dict(os.environ, GKPREP_MAX_WORKERS="2")
        proc = subprocess.run(
            CLI + [
                "mc", "--n", "3", "--delta", "0.5", "--delta-tilde", "0.2",
                "--shots", "20000", "--seed", "3", "--workers", "64",
            ],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        plain = run_cli(
            "mc", "--n", "3", "--delta", "0.5", "--delta-tilde", "0.2",
            "--shots", "20000", "--seed", "3",
        ).stdout
        assert proc.stdout == plain

    def test_code_size_beyond_slot_layout_is_usage_error(self):
        proc = run_cli(
            "mc", "--n", "17", "--delta", "0.5", "--delta-tilde", "0.2",
            "--shots", "10", "--mode", "biased", check=False,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert proc.stdout == ""

    def test_single_shot_rate_is_binary(self):
        payload = json.loads(
            run_cli(
                "mc", "--n", "3", "--delta", "0.5", "--delta-tilde", "0.2",
                "--shots", "1", "--seed", "7",
            ).stdout
        )
        assert payload["rate"] in (0.0, 1.0)

    def test_agrees_with_rate(self):
        mc = json.loads(
            run_cli(
                "mc", "--n", "3", "--delta", "0.5", "--delta-tilde", "0.2",
                "--shots", "200000", "--seed", "42",
            ).stdout
        )
        ana = json.loads(
            run_cli(
                "rate", "--quantity", "pfrep", "--n", "3", "--delta", "0.5",
                "--delta-tilde", "0.2",
            ).stdout
        )["value"]
        se = max(mc["std_err"], math.sqrt(ana * (1 - ana) / mc["shots"]))
        assert abs(mc["rate"] - ana) <= 4 * se

    def test_no_gkp_ec_rate_is_larger(self):
        base = (
            "--n", "3", "--delta", "0.5", "--delta-tilde", "0.2",
            "--shots", "100000", "--seed", "5",
        )
        with_ec = json.loads(run_cli("mc", *base).stdout)
        without = json.loads(run_cli("mc", *base, "--no-gkp-ec").stdout)
        gap = without["rate"] - with_ec["rate"]
        se = math.hypot(with_ec["std_err"], without["std_err"])
        assert gap > 4 * se

    def test_trace_schema(self, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        run_cli(
            "mc", "--n", "3", "--delta", "0.5", "--delta-tilde", "0.2",
            "--shots", "50", "--seed", "1", "--trace", trace,
        )
        lines = Path(trace).read_text().splitlines()
        assert len(lines) == 50
        rec = json.loads(lines[0])
        assert set(rec) == {
            "shot", "u", "u_resid", "alpha", "syndromes", "true_pattern",
            "inferred_pattern", "position_failed", "momentum_failed",
        }
        assert len(rec["u"]) == 3 and len(rec["alpha"]) == 2

    @pytest.mark.parametrize("mode", ["position", "biased"])
    def test_trace_lines_are_run_shot_records(self, mode, tmp_path):
        from gkprep.distributions import NoiseParams
        from gkprep.montecarlo import Mode, ShotConfig, run_shot

        trace = tmp_path / "trace.jsonl"
        payload = json.loads(run_cli(
            "mc", "--n", "3", "--delta", "0.6", "--delta-tilde", "0.3", "--r", "1.5",
            "--shots", "300", "--seed", "3", "--mode", mode, "--trace", str(trace),
        ).stdout)
        cfg = ShotConfig(3, NoiseParams(0.6, 0.3, r=1.5), shots=300, seed=3, mode=Mode(mode))
        lines = trace.read_text().splitlines()
        assert lines == [json.dumps(run_shot(cfg, k), sort_keys=True) for k in range(300)]
        records = [json.loads(line) for line in lines]
        failed = sum(r["position_failed"] or r["momentum_failed"] for r in records)
        assert failed == payload["failures"] > 0


FIGURE_EXPECTATIONS = {
    "fig1": {"fig1_r1.csv": 1 + 129 * 129, "fig1_rsqrt2.csv": 1 + 129 * 129},
    "fig4": {"fig4_px.csv": 51},
    "fig5": {f"fig5_delta{d}.csv": 41 for d in (0.3, 0.4, 0.5, 0.6)},
    "fig6": {"fig6_pf.csv": 61, "fig6_p3rep.csv": 61},
    "fig8": {f"fig8_n{n}.csv": 61 for n in (3, 5, 7, 9)},
    "fig9": {f"fig9_{n}{m}.csv": 5 for n, m in ((5, 3), (7, 5), (9, 7))},
    "fig10": {
        **{f"fig10_ec_n{n}.csv": 31 for n in (3, 5, 7, 9)},
        **{f"fig10_noec_n{n}.csv": 31 for n in (3, 5, 7, 9)},
    },
    "fig11": {f"fig11_n{n}.csv": 41 for n in (3, 5, 7, 9)},
}


class TestFigures:
    @pytest.mark.parametrize("fig_id", sorted(FIGURE_EXPECTATIONS))
    def test_headers_and_row_counts(self, fig_id, tmp_path):
        outdir = str(tmp_path / fig_id)
        run_cli("figure", "--id", fig_id, "--outdir", outdir)
        for name, n_lines in FIGURE_EXPECTATIONS[fig_id].items():
            path = os.path.join(outdir, name)
            lines = Path(path).read_text().splitlines()
            assert len(lines) == n_lines, name
            if fig_id == "fig1":
                assert lines[0] == "q,p,value"
            else:
                header = lines[0].split(",")
                assert header[-3:] == ["value", "std_err", "status"]
                assert all(line.endswith(",ok") for line in lines[1:]), name
        if fig_id == "fig1":
            from gkprep.wigner import read_binary_grid

            for tag in ("r1", "rsqrt2"):
                grid = read_binary_grid(os.path.join(outdir, f"fig1_{tag}.bin"))
                assert grid.spec.n_q == grid.spec.n_p == 129

    def test_unknown_id_is_usage_error(self):
        proc = run_cli("figure", "--id", "fig2", "--outdir", "/tmp/x", check=False)
        assert proc.returncode == 2


class TestRunFiles:
    def test_sweep_runfile(self, tmp_path):
        out = str(tmp_path / "out.csv")
        spec = {
            "schema_version": 1,
            "sweep": {
                "quantity": "px",
                "axes": [["delta", [0.3, 0.5]]],
                "fixed": {},
                "output": out,
            },
        }
        path = write_run_file(tmp_path, spec)
        run_cli("sweep", "--spec", path)
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "delta,value,std_err,status"
        assert len(lines) == 3

    def test_unknown_field_rejected(self, tmp_path):
        spec = {"schema_version": 1, "sweep": {"quantity": "px", "axes": []}, "bogus": 1}
        path = write_run_file(tmp_path, spec)
        assert run_cli("sweep", "--spec", path, check=False).returncode == 2

    def test_wrong_schema_version_rejected(self, tmp_path):
        spec = {"schema_version": 2, "sweep": {"quantity": "px", "axes": [["delta", [0.5]]]}}
        path = write_run_file(tmp_path, spec)
        assert run_cli("sweep", "--spec", path, check=False).returncode == 2

    def test_mc_runfile(self, tmp_path):
        spec = {
            "schema_version": 1,
            "mc": {"n": 3, "delta": 0.5, "delta_tilde": 0.2, "shots": 1000, "seed": 9},
        }
        path = write_run_file(tmp_path, spec)
        proc = run_cli("sweep", "--spec", path)
        payload = json.loads(proc.stdout)
        assert payload["shots"] == 1000

    def test_crossing_runfile(self, tmp_path):
        spec = {
            "schema_version": 1,
            "crossing": {
                "delta": 0.5, "left_size": "single", "right_size": 3,
                "bracket": [0.15, 0.45],
            },
        }
        path = write_run_file(tmp_path, spec)
        payload = json.loads(run_cli("sweep", "--spec", path).stdout)
        assert payload["status"] == "found"
        assert 0.27 <= payload["value"] <= 0.33

    def test_bad_mc_mode_rejected(self, tmp_path):
        spec = {
            "schema_version": 1,
            "mc": {"n": 3, "delta": 0.5, "shots": 10, "mode": "bogus"},
        }
        path = write_run_file(tmp_path, spec)
        proc = run_cli("sweep", "--spec", path, check=False)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert proc.stdout == ""

    def test_unknown_engine_field_rejected(self, tmp_path):
        spec = {
            "schema_version": 1,
            "sweep": {"quantity": "px", "axes": [["delta", [0.5]]]},
            "engine": {"nodes": 64},
        }
        path = write_run_file(tmp_path, spec)
        proc = run_cli("sweep", "--spec", path, "--out", str(tmp_path / "out.csv"), check=False)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "kind, block, engine",
        [
            ("sweep", {"quantity": "px", "axes": [["delta", [0.5]]], "fixed": None}, {}),
            ("sweep", {"quantity": "px", "axes": 5}, {}),
            ("sweep", {"quantity": "px", "axes": [["delta", 0.5]]}, {}),
            ("mc", {"n": 3, "delta": 0.5, "shots": "100"}, {}),
            ("crossing", {"delta": 0.5, "left_size": "single", "right_size": 3, "bracket": 5}, {}),
            ("optimal_bias", {"n": 3, "delta": 0.5, "r_bracket": 3}, {}),
            ("mc", [1], {}),
            ("sweep", {"quantity": "px", "axes": [["delta", [0.5]]], "output": 5}, {}),
            ("mc", {"n": 3, "delta": 0.5, "shots": 10, "output": True}, {}),
            ("mc", {"n": 3.9, "delta": 0.5, "shots": 10}, {}),
            ("crossing", {"delta": 0.5, "left_size": "single", "right_size": 3.9}, {}),
            ("mc", {"n": 3, "delta": 0.5, "shots": 10, "seed": 3.9}, {}),
            ("mc", {"n": 3, "delta": 0.5, "shots": 10.5}, {}),
            ("mc", {"n": 3, "delta": 0.5, "shots": True}, {}),
            ("mc", {"n": 3, "delta": 0.5, "shots": 10, "seed": True}, {}),
            ("mc", {"n": 3, "delta": 0.5, "shots": 10, "gkp_ec": "no"}, {}),
            ("mc", {"n": 3, "delta": 0.5, "shots": 10, "gkp_ec": 1}, {}),
            ("crossing", {"delta": 0.5, "left_size": "single", "right_size": 3},
             {"nodes_per_dim": 64.5}),
            ("crossing", {"delta": 0.5, "left_size": "single", "right_size": 3},
             {"nodes_per_dim": True}),
            ("sweep", {"quantity": "pfrep", "axes": [["delta", [0.5]]],
                       "fixed": {"delta_tilde": 0.2, "n": 3}}, {"nodes_per_dim": "64"}),
            ("optimal_bias", {"n": 3, "delta": 0.5}, {"window_neighbors": 0.5}),
            ("sweep", {"quantity": "px", "axes": [["delta", [0.5]]]}, {"refine": "no"}),
        ],
        ids=["fixed-null", "axes-int", "axis-scalar", "shots-str", "bracket-int",
             "r-bracket-int", "mc-list", "output-int", "output-bool", "n-fraction",
             "right-size-fraction", "seed-fraction", "shots-fraction", "shots-bool",
             "seed-bool", "gkp-ec-str", "gkp-ec-int", "nodes-fraction", "nodes-bool",
             "nodes-str", "neighbors-fraction", "refine-str"],
    )
    def test_wrongly_typed_field_is_usage_error(self, kind, block, engine, tmp_path):
        spec = {"schema_version": 1, kind: block, "engine": engine}
        path = write_run_file(tmp_path, spec)
        proc = run_cli("sweep", "--spec", path, "--out", str(tmp_path / "out.csv"), check=False)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert proc.stdout == ""

    @pytest.mark.parametrize("kind", ["sweep", "optimal_bias"])
    def test_integral_engine_fields_run_as_integers(self, kind, tmp_path):
        block = {
            "sweep": {"quantity": "pfrep", "axes": [["delta_tilde", [0.2]]],
                      "fixed": {"delta": 0.5, "n": 3}},
            "optimal_bias": {"n": 3, "delta": 0.5, "delta_tilde": 0.1, "r_bracket": [1.0, 2.0]},
        }[kind]
        outputs = []
        for nodes, neighbors in ((64, 1), (64.0, 1.0)):
            out = tmp_path / f"out_{nodes!r}.txt"
            spec = {
                "schema_version": 1,
                kind: {**block, "output": str(out)},
                "engine": {"nodes_per_dim": nodes, "window_neighbors": neighbors},
            }
            path = write_run_file(tmp_path, spec)
            run_cli("sweep", "--spec", path)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert b"error:" not in outputs[0]


# rate flags for one point of each rate quantity; the sweep run file binds
# the same values under the registry spelling
RATE_POINTS = {
    "px": {"delta": 0.45},
    "pf": {"delta": 0.5, "delta_tilde": 0.3},
    "pfrep": {"delta": 0.5, "delta_tilde": 0.2, "n": 3},
    "pfrep-noec": {"delta": 0.5, "delta_tilde": 0.2, "n": 3},
    "pfail": {"delta": 0.5, "delta_tilde": 0.1, "n": 3, "r": 1.5},
}


class TestQuantityRegistry:
    @pytest.mark.parametrize("quantity", sorted(RATE_POINTS))
    def test_rate_matches_one_cell_sweep(self, quantity, tmp_path):
        from gkprep.analysis import QUANTITIES

        key = quantity.replace("-", "_")
        point = RATE_POINTS[quantity]
        flags = []
        for name, value in point.items():
            flags += ["--" + name.replace("_", "-"), str(value)]
        rate_csv = tmp_path / "rate.csv"
        payload = json.loads(
            run_cli("rate", "--quantity", quantity, *flags, "--out", str(rate_csv)).stdout
        )
        assert payload["quantity"] == quantity
        header = rate_csv.read_text().splitlines()[0]
        assert header == ",".join(QUANTITIES[key].params + ("value", "std_err", "status"))
        assert tuple(point) == QUANTITIES[key].params

        sweep_csv = tmp_path / "sweep.csv"
        fixed = dict(point)
        spec = {
            "schema_version": 1,
            "sweep": {
                "quantity": key,
                "axes": [["delta", [fixed.pop("delta")]]],
                "fixed": fixed,
                "output": str(sweep_csv),
            },
        }
        run_cli("sweep", "--spec", write_run_file(tmp_path, spec))
        with open(sweep_csv) as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["status"] == "ok"
        assert float(row["value"]) == payload["value"]
