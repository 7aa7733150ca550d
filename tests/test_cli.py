import concurrent.futures
import contextlib
import csv
import dataclasses
import gc
import hashlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from gkprep import cli, repetition
from gkprep.analysis import QUANTITIES
from gkprep.distributions import NoiseParams, pauli_rate_ideal
from gkprep.repetition import QuadratureConfig

CLI = [sys.executable, "-m", "gkprep.cli"]

PF_TENSOR_ERROR = (
    "error: pf has no tensor method; P_F is computed by the factorized method only\n"
)


def run_cli(*args, check=True):
    """``gkprep *args`` through ``cli.main`` in this process; argparse's exit is the code.

    A test that needs the process's own stderr runs ``CLI`` in a subprocess instead.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    proc = subprocess.CompletedProcess(CLI + list(args), code, out.getvalue(), err.getvalue())
    if check and proc.returncode != 0:
        raise AssertionError(
            f"cli failed ({proc.returncode}): {proc.stderr}\n{proc.stdout}"
        )
    return proc


def write_run_file(tmp_path, spec) -> str:
    """Write ``spec`` as the run file; a ``str`` is written as the file's text."""
    path = tmp_path / "run.json"
    path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
    return str(path)


class TestExitCodes:
    def test_success_is_zero(self):
        assert run_cli("rate", "--quantity", "px", "--delta", "0.5").returncode == 0

    def test_usage_error_is_two(self):
        proc = run_cli("rate", "--quantity", "nope", "--delta", "0.5", check=False)
        assert proc.returncode == 2

    def test_neighbors_flag_is_usage_error(self):
        # the window translates are not an option of the rate
        proc = run_cli("rate", "--quantity", "pfrep", "--n", "3", "--delta", "0.5",
                       "--delta-tilde", "0.3", "--neighbors", "1", check=False)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "unrecognized arguments: --neighbors 1" in proc.stderr

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

    @pytest.mark.parametrize("nodes", [15, 1025])
    def test_nodes_outside_the_range_is_usage_error(self, nodes, tmp_path):
        want = f"error: nodes_per_dim must be from 16 to 1024, got {nodes}\n"
        proc = run_cli(
            "rate", "--quantity", "pfrep", "--n", "3", "--delta", "0.5",
            "--delta-tilde", "0.5", "--nodes", str(nodes), check=False,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", want)
        run_file = write_run_file(tmp_path, {
            "schema_version": 1, "engine": {"nodes_per_dim": nodes},
            "sweep": {"quantity": "pfrep", "axes": [["delta", [0.5]]],
                      "fixed": {"delta_tilde": 0.5, "n": 3}},
        })
        proc = run_cli("sweep", "--spec", run_file, check=False)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", want)

    def test_noec_below_48_nodes_is_usage_error(self):
        args = ("rate", "--quantity", "pfrep-noec", "--n", "3", "--delta", "0.5",
                "--delta-tilde", "0.3")
        proc = run_cli(*args, "--nodes", "47", check=False)
        want = "error: the no-EC rate needs nodes_per_dim of at least 48, got 47\n"
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", want)
        assert run_cli(*args, "--nodes", "48").returncode == 0

    @pytest.mark.parametrize("args, where", [
        ("rate --quantity pfail --n 3 --delta 0.5 --delta-tilde 0.2 --r 1e-300",
         "biased_momentum_spreads"),
        ("rate --quantity pfrep --n 3 --delta 0.5 --delta-tilde 1e300", "density"),
        ("rate --quantity pf --delta 0.5 --delta-tilde 1e200", "density"),
        ("rate --quantity pfrep-noec --n 3 --delta 0.5 --delta-tilde 1e300",
         "gaussian_window_overlap"),
        ("mc --n 3 --delta 0.5 --r 1e-300 --mode biased --shots 10",
         "biased_momentum_spreads"),
    ])
    def test_float_overflow_is_three(self, args, where):
        # valid but extreme spreads overflow a float inside the computation;
        # the message names the innermost gkprep function it passed through
        proc = run_cli(*args.split(), check=False)
        assert proc.returncode == 3
        assert proc.stderr.startswith(f"numerical failure: float overflow in {where}: ")

    def test_certificate_covers_the_pauli_rate(self, monkeypatch):
        # a coarse P_F off by 1e-7 must fail the refine check, both in the
        # overweight tail of a rate and in pf itself
        build = repetition._residual_engine

        def raised_coarse_pauli_rate(points, full=True):
            return [
                dataclasses.replace(engine, pauli_rate=engine.pauli_rate + 1e-7)
                if n_nodes == 64 else engine
                for engine, (_, n_nodes) in zip(build(points, full), points)
            ]

        monkeypatch.setattr(repetition, "_residual_engine", raised_coarse_pauli_rate)
        with pytest.raises(repetition.QuadratureError, match="abs_tol"):
            repetition.failure_rate(3, NoiseParams(0.5, 0.2))
        proc = run_cli(
            "rate", "--quantity", "pf", "--delta", "0.5", "--delta-tilde", "0.2", check=False
        )
        assert proc.returncode == 3

    @pytest.mark.parametrize("spread", ["--delta", "--delta-tilde"])
    def test_mc_spread_beyond_the_exact_cell_range_is_two(self, spread):
        args = ["mc", "--n", "3", "--delta", "0.5", "--shots", "10", spread, "1e17"]
        proc = run_cli(*args, check=False)
        assert proc.returncode == 2
        assert "can no longer tell their zones" in proc.stderr


class TestEngineLifetime:
    @pytest.mark.parametrize("nodes, code", [("64", 0), ("16", 3)])
    def test_no_engine_outlives_main(self, nodes, code, monkeypatch, capsys):
        engines = []
        build = repetition._residual_engine

        def recording_build(points, full=True):
            built = build(points, full)
            engines.extend(weakref.ref(engine) for engine in built)
            return built

        monkeypatch.setattr(repetition, "_residual_engine", recording_build)
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

    def test_pf_follows_nodes(self):
        args = ("rate", "--quantity", "pf", "--delta", "0.5", "--delta-tilde", "0.2")
        default = json.loads(run_cli(*args).stdout)["value"]
        coarse = json.loads(run_cli(*args, "--nodes", "32").stdout)["value"]
        assert coarse == pytest.approx(default, rel=1e-12)

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


# `gkprep mc` stdout at seed 7, 3,000 shots, n = 3, delta = 0.5, delta_tilde = 0.2,
# recorded while position mode still accepted (and ignored) any r; the ci95
# interval was added later, every other byte kept
MC_POSITION_PIN = (
    '{"breakdown": {"misidentified": 5, "momentum": 0, "overweight": 4}, '
    '"ci95": [0.0015791325142942541, 0.005692043118679753], "failures": 9, '
    '"rate": 0.003, "seed": 7, "shots": 3000, "std_err": 0.0009984988733093294}\n'
)
MC_BIASED_PIN = (
    '{"breakdown": {"misidentified": 5, "momentum": 56, "overweight": 80}, '
    '"ci95": [0.039988763608220575, 0.05516987333692474], "failures": 141, '
    '"rate": 0.047, "seed": 7, "shots": 3000, "std_err": 0.0038639789509433576}\n'
)


class TestMc:
    PINNED = ("mc", "--n", "3", "--delta", "0.5", "--delta-tilde", "0.2",
              "--shots", "3000", "--seed", "7")

    @pytest.mark.parametrize("r", [1.5, 3.0])
    def test_position_mode_rejects_a_bias(self, r, tmp_path):
        # position mode draws no momentum, so a bias would only be dropped
        for mode in ((), ("--mode", "position")):
            proc = run_cli(*self.PINNED, *mode, "--r", str(r), check=False)
            assert proc.returncode == 2
            assert proc.stderr == (
                f"error: r applies only in biased mode; position mode takes r = 1, got {r}\n"
            )
        fields = {"n": 3, "delta": 0.5, "delta_tilde": 0.2, "shots": 3000, "seed": 7, "r": r}
        for extra in ({}, {"mode": "position"}):
            run_file = write_run_file(tmp_path, {"schema_version": 1, "mc": {**fields, **extra}})
            proc = run_cli("sweep", "--spec", run_file, check=False)
            assert (proc.returncode, proc.stdout) == (2, "")
            assert "r applies only in biased mode" in proc.stderr

    def test_unit_bias_keeps_the_position_bytes(self):
        assert run_cli(*self.PINNED).stdout == MC_POSITION_PIN
        assert run_cli(*self.PINNED, "--r", "1.0").stdout == MC_POSITION_PIN
        assert run_cli(*self.PINNED, "--r", "1.5", "--mode", "biased").stdout == MC_BIASED_PIN

    def test_no_failures_still_bound_the_rate(self):
        # std_err reads 0 here, which claims certainty; ci95 does not
        args = ("mc", "--n", "9", "--delta", "0.3", "--delta-tilde", "0.1",
                "--shots", "100000", "--seed", "1")
        one, two = (json.loads(run_cli(*args, "--workers", w).stdout) for w in ("1", "2"))
        assert (one["failures"], one["std_err"]) == (0, 0.0)
        assert one["ci95"][0] == 0.0 and 3.8e-5 < one["ci95"][1] < 3.9e-5
        assert one == two

    def test_byte_identical_reruns(self):
        args = (
            "mc", "--n", "3", "--delta", "0.5", "--delta-tilde", "0.2",
            "--shots", "5000", "--seed", "7",
        )
        a = run_cli(*args).stdout
        b = run_cli(*args).stdout
        assert a == b

    def test_workers_default_to_the_available_cores(self, forked, monkeypatch, tmp_path):
        # three 4,096-shot chunks: the default and an mc run file take both
        # cores, --workers 1 runs serially
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        fields = {"n": 3, "delta": 0.5, "delta_tilde": 0.2, "shots": 8_193, "seed": 3}
        serial = run_cli("mc", *cli_flags(fields), "--workers", "1").stdout
        assert forked == []
        assert run_cli("mc", *cli_flags(fields)).stdout == serial
        run_file = write_run_file(tmp_path, {"schema_version": 1, "mc": fields})
        assert run_cli("sweep", "--spec", run_file).stdout == serial
        assert len(forked) == (2 if hasattr(os, "fork") else 0)

    def test_worker_count_does_not_change_output(self):
        base = (
            "mc", "--n", "3", "--delta", "0.5", "--delta-tilde", "0.2",
            "--shots", "20000", "--seed", "3",
        )
        a = run_cli(*base, "--workers", "1").stdout
        b = run_cli(*base, "--workers", "8").stdout
        assert a == b

    @pytest.mark.parametrize("fields", [
        {"n": 3, "delta": 0.5, "shots": 2000},
        {"n": 5, "delta": 0.5, "delta_tilde": 0.2, "r": 1.5, "shots": 2000, "seed": 4,
         "mode": "biased", "gkp_ec": False},
    ], ids=["defaults", "every-field"])
    def test_flags_match_the_run_file(self, fields, tmp_path):
        # both build through the one mc builder, whose defaults fill omitted fields
        flags = cli_flags({name: v for name, v in fields.items() if name != "gkp_ec"})
        if fields.get("gkp_ec") is False:
            flags.append("--no-gkp-ec")
        run_file = write_run_file(tmp_path, {"schema_version": 1, "mc": fields})
        assert run_cli("mc", *flags).stdout == run_cli("sweep", "--spec", run_file).stdout

    def test_code_size_beyond_slot_layout_is_usage_error(self):
        proc = run_cli(
            "mc", "--n", "17", "--delta", "0.5", "--delta-tilde", "0.2",
            "--shots", "10", "--mode", "biased", check=False,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert proc.stdout == ""

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_worker_count_below_one_is_usage_error(self, workers):
        proc = run_cli(
            "mc", "--n", "3", "--delta", "0.5", "--shots", "10", "--workers", workers,
            check=False,
        )
        assert proc.returncode == 2
        assert proc.stderr == f"error: --workers must be at least 1, got {workers}\n"
        assert proc.stdout == ""

    def test_shots_beyond_the_counter_range_is_usage_error(self):
        proc = run_cli(
            "mc", "--n", "3", "--delta", "0.5", "--shots", str(2**58 + 1), check=False
        )
        assert proc.returncode == 2
        assert proc.stderr == f"error: shots must be at most 2**58, got {2**58 + 1}\n"
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
        r = 1.5 if mode == "biased" else 1.0  # position mode takes no bias
        payload = json.loads(run_cli(
            "mc", "--n", "3", "--delta", "0.6", "--delta-tilde", "0.3", "--r", str(r),
            "--shots", "300", "--seed", "3", "--mode", mode, "--trace", str(trace),
        ).stdout)
        cfg = ShotConfig(3, NoiseParams(0.6, 0.3, r=r), shots=300, seed=3, mode=Mode(mode))
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

# sha256 of every file each recipe writes; a change that moves a figure byte
# updates the digest here and says why
FIGURE_SHA256 = {
    "fig10_ec_n3.csv": "13381288221cf9f9e237460e9a98fb86065f99fa62ef29710a66fc8b5842bc60",
    "fig10_ec_n5.csv": "74ead14e8649a717d1c9d928ca7e29603c6b158e82a43d8b0b3eac9f9d90f94d",
    "fig10_ec_n7.csv": "4de15231219441deeeb57b0c7429e47623cd1104deb60ecc74de49e94c8867c1",
    "fig10_ec_n9.csv": "7ee8c2960882d11eb7b2a10982ab3677d5addb63fec140ab291881f67bab2952",
    "fig10_noec_n3.csv": "18daaf2cc46b2d42abb2b1d399105d4eeaf838d0029466d1263d37bf79a397ae",
    "fig10_noec_n5.csv": "7b7819f4ab4f6096484ce7d81a1e570a57521c6b394a7ca21631d01d9e4a9218",
    "fig10_noec_n7.csv": "1486db2d85a6a89c15d7cb97c6e76dc46ec1e39f2e6c864af09dc44f5b62c362",
    "fig10_noec_n9.csv": "05bef370e481ce59b0ed87f161061dd7cb20a91e18e2024114888dff35ff6fb7",
    "fig11_n3.csv": "c6d27ab65be3946ab8d363185df0774a41162f19a2eec1d9bdb2376ca60353da",
    "fig11_n5.csv": "789cefd166e4488433490b1bf4fd3a767ed42071231b2bd61e7d1f0a0b3fadb5",
    "fig11_n7.csv": "a3a80956415d9273344022d78ea1d653a7a15fd6ffd3460e889839ae22cdfd27",
    "fig11_n9.csv": "c485ae92744e74d71c65a4ce74bb77874e6c1db6cec0223e6d1651685ab516f3",
    "fig1_r1.bin": "153fc3fb46368b8b143b29717d29e7f8ff81d619c30d73de05dd320edcb11dc9",
    "fig1_r1.csv": "0fb60506034c65fbdd04b310c01805f1c1468c83ca7e6e160b3ede1ba0375017",
    "fig1_rsqrt2.bin": "b50b4f8ef21a629742a713e2a9bb132a1f42d7eec7878924bcd3f0548a3f785b",
    "fig1_rsqrt2.csv": "5fe8da15b02cbb36e70cf782144dbe97a573a994afade2634b09002467b2172a",
    "fig4_px.csv": "a581ae7f4735a6cf5995bdd61c7e7b59f01ad53dbbba3225f40b7cc77e38a667",
    "fig5_delta0.3.csv": "b6eeaac91a225c3ad2f790739c90e3100288c20a5c076b3fdb7e43984b9f6125",
    "fig5_delta0.4.csv": "c8922066cc5ff7e07e609f4e43ec46e501d190867fab10f9ccbe6fd5f71f3866",
    "fig5_delta0.5.csv": "f163f54d7faf5c9a8388e01d27fd6344cbe4e70ea30e21a45e8c8d2a133a7ce1",
    "fig5_delta0.6.csv": "d883f11ee5878fd4ea7a51e5d8c9eb01a12c05441611578b9085b95b2c1b4b26",
    "fig6_p3rep.csv": "6adac2440c1bf82f48ec19795ce304032c42375b7f48b46502b7486e0b74a611",
    "fig6_pf.csv": "0cb16d4548251792f3b7aa9ae41b4e623c0dbd58e2f00122f8e3bbb2c611b8e1",
    "fig8_n3.csv": "6adac2440c1bf82f48ec19795ce304032c42375b7f48b46502b7486e0b74a611",
    "fig8_n5.csv": "2162097c51fd2f60a3efc0d39c145ecb2c5530567467bdf52fde4689ae35046f",
    "fig8_n7.csv": "757fa8e837774ac8fa734e5ae476b7022bd14957d73059120e4603f7d08c9071",
    "fig8_n9.csv": "a47351b793cabee03f85dcc75483f0bd5cacc8118ce23e2a37ea9ff6676ca898",
    "fig9_53.csv": "e2896046a1291db4076764dc222d48ad37a8b4b7f457e876243df63bdb1d0776",
    "fig9_75.csv": "52c40f8beb925cc484e4b5063216224dcb4661a51071e259ba89c14827657682",
    "fig9_97.csv": "1b9c89ed339547e900f1f4cf755d96f399d6edca498568140e63211fd435f2fd",
}


class TestFigures:
    @pytest.mark.parametrize("fig_id", sorted(FIGURE_EXPECTATIONS))
    def test_headers_and_row_counts(self, fig_id, tmp_path):
        outdir = str(tmp_path / fig_id)
        run_cli("figure", "--id", fig_id, "--outdir", outdir)
        written = sorted(os.listdir(outdir))
        assert written == sorted(n for n in FIGURE_SHA256 if n.startswith(f"{fig_id}_"))
        for name in written:
            digest = hashlib.sha256(Path(outdir, name).read_bytes()).hexdigest()
            assert digest == FIGURE_SHA256[name], name
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

    @pytest.mark.parametrize("cores", [{0}, {0, 1}], ids=["1core", "2cores"])
    @pytest.mark.parametrize("fig_id", sorted(FIGURE_EXPECTATIONS))
    def test_bytes_do_not_depend_on_the_cores(
        self, fig_id, cores, forked, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores, raising=False)
        run_cli("figure", "--id", fig_id, "--outdir", str(tmp_path))
        for name in os.listdir(tmp_path):
            digest = hashlib.sha256(Path(tmp_path, name).read_bytes()).hexdigest()
            assert digest == FIGURE_SHA256[name], name
        forks = len(cores) > 1 and fig_id != "fig1" and hasattr(os, "fork")
        assert len(forked) == (1 if forks else 0)

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

    @pytest.mark.parametrize("cores", [{0}, {0, 1}], ids=["1core", "2cores"])
    def test_failed_cell_stays_in_its_row(self, cores, monkeypatch, tmp_path):
        # with two parts the second, forked, computes cells 1 and 2
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores, raising=False)
        out = tmp_path / "out.csv"
        spec = {"schema_version": 1, "sweep": {
            "quantity": "px", "axes": [["delta", [0.3, -0.5, 0.5]]], "output": str(out)}}
        run_cli("sweep", "--spec", write_run_file(tmp_path, spec))
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [row["status"] for row in rows] == ["ok", "error:ValueError", "ok"]
        assert [float(row["delta"]) for row in rows] == [0.3, -0.5, 0.5]
        assert float(rows[2]["value"]) == pauli_rate_ideal(0.5)

    def test_tensor_sweep_runs_serially_inside_its_parts(self, monkeypatch, tmp_path):
        # the n = 5 oracle at 24 nodes spreads over threads when it has the
        # cores to itself; in a part of a forked sweep the other part keeps
        # the second core busy, so no thread pool may start there
        def no_thread_pool(*args, **kwargs):
            raise AssertionError("a thread pool started inside a sweep part")

        parts = []
        map_parts = cli.map_parts
        monkeypatch.setattr(cli, "map_parts", lambda fn, n: parts.append(n) or map_parts(fn, n))
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_thread_pool)
        outputs = []
        for cores in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores, raising=False)
            out = tmp_path / f"out{len(cores)}.csv"
            spec = {"schema_version": 1, "engine": {"method": "tensor", "nodes_per_dim": 24},
                    "sweep": {"quantity": "pfrep",
                              "axes": [["delta_tilde", [0.26, 0.28, 0.30, 0.32]]],
                              "fixed": {"delta": 0.5, "n": 5}, "output": str(out)}}
            run_cli("sweep", "--spec", write_run_file(tmp_path, spec))
            outputs.append(out.read_bytes())
        assert parts == [1, 2]
        assert outputs[1] == outputs[0]
        rows = list(csv.DictReader(outputs[0].decode().splitlines()))
        assert [row["status"] for row in rows] == ["ok"] * 4

    def test_empty_axis_writes_the_header_alone(self, tmp_path):
        out = tmp_path / "out.csv"
        spec = {"schema_version": 1, "sweep": {
            "quantity": "px", "axes": [["delta", []]], "output": str(out)}}
        run_cli("sweep", "--spec", write_run_file(tmp_path, spec))
        assert out.read_bytes() == b"delta,value,std_err,status\r\n"

    def test_unknown_field_rejected(self, tmp_path):
        spec = {"schema_version": 1, "sweep": {"quantity": "px", "axes": []}, "bogus": 1}
        path = write_run_file(tmp_path, spec)
        assert run_cli("sweep", "--spec", path, check=False).returncode == 2

    def test_far_wigner_point_reads_zero_without_a_warning(self, tmp_path):
        # a subprocess, so that a numpy warning would reach stderr
        out = tmp_path / "far.csv"
        spec = {"schema_version": 1, "sweep": {
            "quantity": "wigner_grid", "axes": [["q", [1e300]]],
            "fixed": {"delta": 0.3, "kappa": 0.3, "p": 0.0}, "output": str(out)}}
        proc = subprocess.run(
            CLI + ["sweep", "--spec", write_run_file(tmp_path, spec)],
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
        [row] = csv.DictReader(out.read_text().splitlines())
        assert (row["value"], row["status"]) == ("0", "ok")

    def test_refine_engine_field_is_unknown(self, tmp_path):
        # every factorized rate is certified, against a fixed bound; there is
        # no switch to skip it and no field to loosen it, and the window
        # translates are not an engine field either
        for field, value in (("refine", False), ("abs_tol", 1e-6), ("window_neighbors", 1)):
            spec = {"schema_version": 1,
                    "sweep": {"quantity": "px", "axes": [["delta", [0.5]]]},
                    "engine": {field: value}}
            path = write_run_file(tmp_path, spec)
            out = tmp_path / "out.csv"
            proc = run_cli("sweep", "--spec", path, "--out", str(out), check=False)
            assert proc.returncode == 2
            assert proc.stderr == f"error: unknown engine fields: ['{field}']\n"
            assert not out.exists()

    def test_wrong_schema_version_rejected(self, tmp_path):
        spec = {"schema_version": 2, "sweep": {"quantity": "px", "axes": [["delta", [0.5]]]}}
        path = write_run_file(tmp_path, spec)
        assert run_cli("sweep", "--spec", path, check=False).returncode == 2

    @pytest.mark.parametrize("version, code", [(True, 2), ("1", 2), (1.0, 0)])
    def test_schema_version_follows_the_integer_field_rule(self, version, code, tmp_path):
        out = tmp_path / "out.csv"
        spec = {"schema_version": version,
                "sweep": {"quantity": "px", "axes": [["delta", [0.5]]], "output": str(out)}}
        proc = run_cli("sweep", "--spec", write_run_file(tmp_path, spec), check=False)
        assert proc.returncode == code
        if code:
            assert proc.stderr == "error: run file must declare schema_version = 1\n"
        assert out.exists() == (code == 0)

    def test_mc_runfile(self, tmp_path):
        spec = {
            "schema_version": 1,
            "mc": {"n": 3, "delta": 0.5, "delta_tilde": 0.2, "shots": 1000, "seed": 9},
        }
        path = write_run_file(tmp_path, spec)
        proc = run_cli("sweep", "--spec", path)
        payload = json.loads(proc.stdout)
        assert payload["shots"] == 1000

    @pytest.mark.parametrize("engine", [
        {"nodes_per_dim": 96, "method": "tensor", "window_neighbors": 3},
        {"nodes_per_dim": 64},
    ], ids=["three-fields", "default-nodes"])
    def test_mc_refuses_engine_fields(self, engine, tmp_path):
        # the Monte Carlo reads no engine field, so it takes none, not even
        # a default
        spec = {"schema_version": 1, "engine": engine,
                "mc": {"n": 3, "delta": 0.5, "delta_tilde": 0.2, "shots": 1000, "seed": 1}}
        proc = run_cli("sweep", "--spec", write_run_file(tmp_path, spec), check=False)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            f"error: run-file mc reads no engine block, got engine fields {sorted(engine)}\n"
        )

    def test_mc_takes_an_empty_engine_block(self, tmp_path):
        mc = {"n": 3, "delta": 0.5, "delta_tilde": 0.2, "shots": 1000, "seed": 1}
        bare = write_run_file(tmp_path, {"schema_version": 1, "mc": mc})
        bare_out = run_cli("sweep", "--spec", bare).stdout
        empty = write_run_file(tmp_path, {"schema_version": 1, "mc": mc, "engine": {}})
        assert run_cli("sweep", "--spec", empty).stdout == bare_out

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

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_json_number_token_is_usage_error(self, token, tmp_path):
        path = write_run_file(
            tmp_path,
            '{"schema_version": 1, "sweep": {"quantity": "px", "axes": [["delta", [0.5, %s]]]}}'
            % token,
        )
        out = tmp_path / "out.csv"
        proc = run_cli("sweep", "--spec", path, "--out", str(out), check=False)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: run file is not strict JSON: {token} is not a number\n"
        assert not out.exists()

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
            ("sweep", {"quantity": "px", "axes": [["delta", [0.5]]]}, {"refine": "no"}),
            ("crossing", {"delta": 0.5, "left_size": "single", "right_size": 3, "tol": True}, {}),
            ("mc", {"n": 3, "delta": True, "shots": 10}, {}),
            ("crossing", {"delta": 0.5, "left_size": "single", "right_size": 3},
             {"abs_tol": True}),
            ("crossing", {"delta": 0.5, "left_size": "single", "right_size": 3,
                          "bracket": [0.1, True]}, {}),
            ("crossing", {"delta": True, "left_size": "single", "right_size": 3}, {}),
            ("optimal_bias", {"n": 3, "delta": 0.5, "r_bracket": [1.0, "6"]}, {}),
            # run-file text, since json.dumps writes inf as the non-JSON Infinity
            ("crossing", {"delta": 0.5, "left_size": "single", "right_size": 3},
             '{"nodes_per_dim": 16, "abs_tol": 1e999}'),
            ("crossing", '{"delta": 0.5, "left_size": "single", "right_size": 3, "tol": 1e999}',
             {}),
        ],
        ids=["fixed-null", "axes-int", "axis-scalar", "shots-str", "bracket-int",
             "r-bracket-int", "mc-list", "output-int", "output-bool", "n-fraction",
             "right-size-fraction", "seed-fraction", "shots-fraction", "shots-bool",
             "seed-bool", "gkp-ec-str", "gkp-ec-int", "nodes-fraction", "nodes-bool",
             "nodes-str", "refine-str", "tol-bool", "mc-delta-bool",
             "abs-tol-bool", "bracket-end-bool", "crossing-delta-bool", "r-bracket-end-str",
             "abs-tol-1e999", "tol-1e999"],
    )
    def test_wrongly_typed_field_is_usage_error(self, kind, block, engine, tmp_path):
        block, engine = (v if isinstance(v, str) else json.dumps(v) for v in (block, engine))
        path = write_run_file(
            tmp_path, f'{{"schema_version": 1, "{kind}": {block}, "engine": {engine}}}'
        )
        proc = run_cli("sweep", "--spec", path, "--out", str(tmp_path / "out.csv"), check=False)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert proc.stdout == ""

    @pytest.mark.parametrize("left, right, message", [
        (3, 3, "left_size and right_size must differ, both are 3"),
        ("single", "single", "left_size and right_size must differ, both are 'single'"),
        (4, "single", "code size must be an odd integer from 3 to 15, got 4"),
        ("single", "3", "code size must be an odd integer from 3 to 15, got '3'"),
    ])
    def test_crossing_curves_checked_before_any_rate(self, left, right, message, tmp_path,
                                                     monkeypatch):
        calls = []
        monkeypatch.setattr(repetition, "_make_engines", lambda *a: calls.append(a))
        run_file = write_run_file(tmp_path, {
            "schema_version": 1,
            "crossing": {"delta": 0.5, "left_size": left, "right_size": right},
        })
        proc = run_cli("sweep", "--spec", run_file, check=False)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")
        assert calls == []

    @pytest.mark.parametrize("quantity, axis, fixed, message", [
        ("pfail", "r", {"delta": 0.5, "n": 3, "R": 2.0}, "unknown pfail parameters: ['R']"),
        ("delta_nm", "delta", {"n": 5, "m": 3, "bracket": [0.1, 0.5]},
         "unknown delta_nm parameters: ['bracket']"),
        ("pfrep", "delta_tilde", {"delta": 0.5}, "missing pfrep parameters: ['n']"),
    ], ids=["pfail-R", "delta-nm-bracket", "pfrep-no-n"])
    def test_sweep_parameter_names_are_usage_errors(self, quantity, axis, fixed, message,
                                                    tmp_path):
        spec = {
            "schema_version": 1,
            "sweep": {"quantity": quantity, "axes": [[axis, [0.5]]], "fixed": fixed},
        }
        path = write_run_file(tmp_path, spec)
        proc = run_cli("sweep", "--spec", path, "--out", str(tmp_path / "out.csv"), check=False)
        assert (proc.returncode, proc.stderr, proc.stdout) == (2, f"error: {message}\n", "")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("kind", ["sweep", "optimal_bias"])
    def test_integral_engine_fields_run_as_integers(self, kind, tmp_path):
        block = {
            "sweep": {"quantity": "pfrep", "axes": [["delta_tilde", [0.2]]],
                      "fixed": {"delta": 0.5, "n": 3}},
            "optimal_bias": {"n": 3, "delta": 0.5, "delta_tilde": 0.1, "r_bracket": [1.0, 2.0]},
        }[kind]
        outputs = []
        for nodes in (64, 64.0):
            out = tmp_path / f"out_{nodes!r}.txt"
            spec = {
                "schema_version": 1,
                kind: {**block, "output": str(out)},
                "engine": {"nodes_per_dim": nodes},
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


def cli_flags(point: dict) -> list[str]:
    """``gkprep`` flags binding the fields of ``point``."""
    return [arg for name, value in point.items()
            for arg in ("--" + name.replace("_", "-"), str(value))]


def one_cell_sweep(tmp_path, key: str, point: dict, output: str) -> str:
    """Path of a run file sweeping ``key`` over ``point``'s delta alone."""
    fixed = dict(point)
    spec = {
        "schema_version": 1,
        "sweep": {
            "quantity": key,
            "axes": [["delta", [fixed.pop("delta")]]],
            "fixed": fixed,
            "output": output,
        },
    }
    return write_run_file(tmp_path, spec)


class TestQuantityRegistry:
    @pytest.mark.parametrize("quantity", sorted(RATE_POINTS))
    def test_rate_matches_one_cell_sweep(self, quantity, tmp_path):
        key = quantity.replace("-", "_")
        point = RATE_POINTS[quantity]
        rate_csv = tmp_path / "rate.csv"
        payload = json.loads(run_cli(
            "rate", "--quantity", quantity, *cli_flags(point), "--out", str(rate_csv)
        ).stdout)
        assert payload["quantity"] == quantity
        params = tuple(inspect.getfullargspec(QUANTITIES[key]).kwonlyargs)
        header = rate_csv.read_text().splitlines()[0]
        assert header == ",".join(params + ("value", "std_err", "status"))
        assert tuple(point) == params

        sweep_csv = tmp_path / "sweep.csv"
        run_cli("sweep", "--spec", one_cell_sweep(tmp_path, key, point, str(sweep_csv)))
        with open(sweep_csv) as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["status"] == "ok"
        assert float(row["value"]) == payload["value"]

    @pytest.mark.parametrize("quantity, point, message", [
        ("pfrep", {"delta": 0.5, "delta_tilde": 0.2}, "missing pfrep parameters: ['n']"),
        ("pf", {"delta": 0.5}, "missing pf parameters: ['delta_tilde']"),
        ("px", {"delta": 0.5, "n": 3}, "unknown px parameters: ['n']"),
        ("pfrep", {"delta": 0.5, "delta_tilde": 0.2, "n": 3, "r": 1.5},
         "unknown pfrep parameters: ['r']"),
    ], ids=["pfrep-no-n", "pf-no-delta-tilde", "px-n", "pfrep-r"])
    def test_rate_and_sweep_reject_parameters_alike(self, quantity, point, message, tmp_path):
        out = tmp_path / "out.csv"
        rate = run_cli("rate", "--quantity", quantity, *cli_flags(point), "--out", str(out),
                       check=False)
        sweep = run_cli("sweep", "--spec", one_cell_sweep(tmp_path, quantity, point, str(out)),
                        check=False)
        for proc in (rate, sweep):
            assert (proc.returncode, proc.stderr, proc.stdout) == (2, f"error: {message}\n", "")
        assert not out.exists()

    def test_pf_refuses_the_tensor_method(self, tmp_path):
        proc = run_cli("rate", "--quantity", "pf", "--delta", "0.5", "--delta-tilde", "0.3",
                       "--method", "tensor", check=False)
        assert (proc.returncode, proc.stderr, proc.stdout) == (2, PF_TENSOR_ERROR, "")
        out = tmp_path / "out.csv"
        spec = {"schema_version": 1, "engine": {"method": "tensor"}, "sweep": {
            "quantity": "pf", "axes": [["delta_tilde", [0.2, 0.3]]], "fixed": {"delta": 0.5},
            "output": str(out)}}
        proc = run_cli("sweep", "--spec", write_run_file(tmp_path, spec), check=False)
        assert (proc.returncode, proc.stderr, proc.stdout) == (2, PF_TENSOR_ERROR, "")
        assert not out.exists()

    @pytest.mark.parametrize("left, right", [("single", 3), (3, "single")])
    def test_single_crossing_curve_refuses_the_tensor_method(self, left, right, tmp_path,
                                                             monkeypatch):
        # the "single" curve is P_F, which has no tensor route; the refusal
        # comes before any engine is built
        calls = []
        monkeypatch.setattr(repetition, "_make_engines", lambda *a: calls.append(a))
        spec = {"schema_version": 1, "engine": {"method": "tensor", "nodes_per_dim": 48},
                "crossing": {"delta": 0.5, "left_size": left, "right_size": right,
                             "bracket": [0.15, 0.45]}}
        proc = run_cli("sweep", "--spec", write_run_file(tmp_path, spec), check=False)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", PF_TENSOR_ERROR)
        assert calls == []

    def test_omitted_optional_parameters_take_the_signature_defaults(self, tmp_path):
        base = ("rate", "--quantity", "pfail", "--n", "3", "--delta", "0.5")
        short, full = tmp_path / "short.csv", tmp_path / "full.csv"
        a = run_cli(*base, "--out", str(short)).stdout
        b = run_cli(*base, "--delta-tilde", "0.0", "--r", "1.0", "--out", str(full)).stdout
        assert a == b
        assert short.read_bytes() == full.read_bytes()

    @pytest.mark.parametrize("delta_tilde", ["1e-12", "1e-9"])
    def test_tiny_ancilla_spread_runs(self, delta_tilde):
        # the window correlation rounds to 1 next to delta = 0.5; this once
        # raised a ValueError and exited 2 as if it were a usage error
        proc = run_cli("rate", "--quantity", "pfrep-noec", "--n", "3", "--delta", "0.5",
                       "--delta-tilde", delta_tilde)
        assert json.loads(proc.stdout)["value"] > 0.0


# dests that name no builder field
NON_FIELD_DESTS = {"command", "func", "quantity", "out", "workers", "trace"}


@pytest.mark.parametrize("argv", [
    ["rate", "--quantity", "px", "--delta", "0.5"],
    ["mc", "--n", "3", "--delta", "0.5", "--shots", "10"],
], ids=["rate", "mc"])
def test_no_flag_declares_a_builder_default(argv):
    # a builder's signature is the one place its defaults live; a flag
    # default would be a second declaration that can drift from it
    fields = {f.name for f in dataclasses.fields(QuadratureConfig)}
    fields |= set(inspect.signature(cli._shot_config).parameters)
    for key in RATE_POINTS:
        fields |= set(inspect.getfullargspec(QUANTITIES[key.replace("-", "_")]).kwonlyargs)
    args = vars(cli.build_parser().parse_args(argv))
    assert set(args) - fields <= NON_FIELD_DESTS
    given = {arg[2:] for arg in argv if arg.startswith("--")}
    omitted = {name: value for name, value in args.items() if name in fields - given}
    assert omitted
    assert omitted == dict.fromkeys(omitted)
