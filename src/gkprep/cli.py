"""Command-line front end: rate/mc/figure/sweep subcommands.

Scalars go to stdout as JSON (sorted keys, full-precision floats); sweeps
and figure recipes write CSV files with the schema
``param...,value,std_err,status`` at 17 significant digits.  Exit codes:
0 success, 2 usage or validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import math
import os
import sys

import numpy as np

from .analysis import (
    QUANTITIES,
    AmbiguousCrossingError,
    CrossingQuery,
    CurveTable,
    SweepSpec,
    critical_ancilla_spread,
    optimal_bias,
    run_sweep,
)
from .distributions import NoiseParams
from .lattice import TruncationError
from .montecarlo import Mode, ShotConfig, run_tally
from .repetition import QuadratureConfig, QuadratureError
from .wigner import GkpEnvelope, GridSpec, grid_to_binary, grid_to_csv, wigner_physical_zero

# Not called here; bound so that perfbench/tracing.py can wrap this lookup site.
from .distributions import pauli_rate_ideal, pauli_rate_physical_report  # noqa: F401
from .repetition import failure_rate, failure_rate_no_gkp_ec, overall_failure_biased  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

NUMERICAL_ERRORS = (QuadratureError, TruncationError, AmbiguousCrossingError)


def _emit_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def cmd_rate(args) -> int:
    cfg = QuadratureConfig(
        nodes_per_dim=args.nodes, method=args.method, window_neighbors=args.neighbors
    )
    quantity = QUANTITIES[args.quantity.replace("-", "_")]
    point = {name: getattr(args, name) for name in quantity.params}
    for name, value in point.items():
        if value is None:
            raise ValueError(f"--{name} is required for {args.quantity}")
    value, detail = quantity.evaluate(point, cfg)
    if args.out:
        columns = (*point, "value", "std_err", "status")
        CurveTable(columns, ((*point.values(), value, "", "ok"),)).to_csv(args.out)
    _emit_json({"quantity": args.quantity, **point, **detail, "value": value}, None)
    return EXIT_OK


def _shot_config(
    n: int, delta: float, shots: int, delta_tilde: float = 0.0, r: float = 1.0,
    seed: int = 0, mode: str = "position", gkp_ec: bool = True,
) -> ShotConfig:
    params = NoiseParams(delta, delta_tilde, r=r)
    return ShotConfig(
        n=n, params=params, shots=shots, seed=seed, mode=Mode(mode), gkp_ec=gkp_ec
    )


def _mc_payload(cfg: ShotConfig, trace=None, workers: int = 1) -> dict:
    tally = run_tally(cfg, partitions=workers, trace=trace)
    return {
        "rate": tally.rate,
        "std_err": tally.std_err,
        "failures": tally.failures,
        "shots": tally.shots,
        "seed": cfg.seed,
        "breakdown": tally.breakdown,
    }


def cmd_mc(args) -> int:
    workers = args.workers
    cap = os.environ.get("GKPREP_MAX_WORKERS")
    if cap is not None:
        workers = min(workers, max(int(cap), 1))
    cfg = _shot_config(
        n=args.n, delta=args.delta, shots=args.shots, delta_tilde=args.delta_tilde,
        r=args.r, seed=args.seed, mode=args.mode, gkp_ec=not args.no_gkp_ec,
    )
    trace_fh = open(args.trace, "w") if args.trace else None

    def trace(first_shot: int, out: dict) -> None:
        n_rows = len(out["failed"])
        for i in range(n_rows):
            record = {
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
            trace_fh.write(json.dumps(record, sort_keys=True) + "\n")

    try:
        payload = _mc_payload(cfg, trace if trace_fh else None, workers)
    finally:
        if trace_fh:
            trace_fh.close()
    _emit_json(payload, args.out)
    return EXIT_OK


def _wigner_figure(outdir: str) -> None:
    delta = 0.25
    for tag, r in (("r1", 1.0), ("rsqrt2", math.sqrt(2.0))):
        env = GkpEnvelope(delta=r * delta, kappa=delta / r)
        span = 2.0 * math.sqrt(math.pi)
        spec = GridSpec((-span, span), (-span, span), 129, 129)
        grid = wigner_physical_zero(env, spec)
        grid_to_csv(grid, os.path.join(outdir, f"fig1_{tag}.csv"))
        grid_to_binary(grid, os.path.join(outdir, f"fig1_{tag}.bin"))


def _curve(quantity: str, axis: str, values, **fixed) -> SweepSpec:
    return SweepSpec(quantity, ((axis, values),), fixed)


_DT60 = np.linspace(0.02, 0.5, 60)
_DT30 = np.linspace(0.02, 0.5, 30)

# figure id -> (CSV name, sweep) pairs; fig1 is the Wigner grid export above
FIGURES: dict[str, tuple[tuple[str, SweepSpec], ...]] = {
    "fig4": (("fig4_px.csv", _curve("px", "delta", np.linspace(0.1, 1.0, 50))),),
    "fig5": tuple(
        (f"fig5_delta{delta}.csv",
         _curve("pf", "delta_tilde", np.linspace(0.02, 0.6, 40), delta=delta))
        for delta in (0.3, 0.4, 0.5, 0.6)
    ),
    "fig6": (
        ("fig6_pf.csv", _curve("pf", "delta_tilde", _DT60, delta=0.5)),
        ("fig6_p3rep.csv", _curve("pfrep", "delta_tilde", _DT60, delta=0.5, n=3)),
    ),
    "fig8": tuple(
        (f"fig8_n{n}.csv", _curve("pfrep", "delta_tilde", _DT60, delta=0.5, n=n))
        for n in (3, 5, 7, 9)
    ),
    "fig9": tuple(
        (f"fig9_{n}{m}.csv", _curve("delta_nm", "delta", (0.3, 0.4, 0.5, 0.6), n=n, m=m))
        for n, m in ((5, 3), (7, 5), (9, 7))
    ),
    "fig10": tuple(
        (f"fig10_{kind}_n{n}.csv", _curve(quantity, "delta_tilde", _DT30, delta=0.5, n=n))
        for n in (3, 5, 7, 9)
        for kind, quantity in (("ec", "pfrep"), ("noec", "pfrep_noec"))
    ),
    "fig11": tuple(
        (f"fig11_n{n}.csv",
         _curve("pfail", "r", np.linspace(1.0, 5.0, 40), delta=0.5, delta_tilde=0.0, n=n))
        for n in (3, 5, 7, 9)
    ),
}


def cmd_figure(args) -> int:
    os.makedirs(args.outdir, exist_ok=True)
    if args.id == "fig1":
        _wigner_figure(args.outdir)
    for name, spec in FIGURES.get(args.id, ()):
        run_sweep(spec).to_csv(os.path.join(args.outdir, name))
    return EXIT_OK


def _bias_args(
    n: int, delta: float, delta_tilde: float = 0.0,
    r_bracket: tuple[float, float] = (1.0, 6.0),
) -> tuple:
    return n, delta, delta_tilde, tuple(r_bracket)


def _sweep_to_csv(spec: SweepSpec, cfg: QuadratureConfig, output: str | None) -> None:
    if output is None:
        raise ValueError("sweep requires an output path")
    run_sweep(spec, cfg).to_csv(output)


def _crossing_to_json(query: CrossingQuery, cfg: QuadratureConfig, output: str | None) -> None:
    result = critical_ancilla_spread(query, cfg)
    _emit_json({"status": result.status, "value": result.value}, output)


def _mc_to_json(shot_cfg: ShotConfig, cfg: QuadratureConfig, output: str | None) -> None:
    _emit_json(_mc_payload(shot_cfg), output)


def _bias_to_json(bias_args: tuple, cfg: QuadratureConfig, output: str | None) -> None:
    _emit_json(dataclasses.asdict(optimal_bias(*bias_args, cfg)), output)


# run-file kind -> (builder whose parameters are the kind's fields and
# defaults, runner that computes and writes the result)
RUN_KINDS = {
    "sweep": (SweepSpec, _sweep_to_csv),
    "mc": (_shot_config, _mc_to_json),
    "crossing": (CrossingQuery, _crossing_to_json),
    "optimal_bias": (_bias_args, _bias_to_json),
}


def _from_fields(builder, fields: dict, what: str):
    """``builder(**fields)``, with unknown or missing fields as usage errors."""
    params = inspect.signature(builder).parameters
    unknown = set(fields) - set(params)
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")
    missing = [name for name, p in params.items() if p.default is p.empty and name not in fields]
    if missing:
        raise ValueError(f"missing {what} fields: {missing}")
    return builder(**fields)


def cmd_sweep(args) -> int:
    with open(args.spec) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("run file must be a JSON object")
    unknown = set(doc) - {"schema_version", "engine", *RUN_KINDS}
    if unknown:
        raise ValueError(f"unknown run-file fields: {sorted(unknown)}")
    if doc.get("schema_version") != 1:
        raise ValueError("run file must declare schema_version = 1")
    kinds = [kind for kind in RUN_KINDS if kind in doc]
    if len(kinds) != 1:
        raise ValueError(f"run file must contain exactly one of {'/'.join(RUN_KINDS)}")
    kind = kinds[0]
    cfg = _from_fields(QuadratureConfig, doc.get("engine", {}), "engine")
    build, run = RUN_KINDS[kind]
    fields = dict(doc[kind])
    output = fields.pop("output", None) or args.out
    run(_from_fields(build, fields, kind), cfg, output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkprep",
        description="Logical error rates of GKP repetition codes under biased noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rate = sub.add_parser("rate", help="analytic rates by quadrature")
    rate.add_argument(
        "--quantity",
        required=True,
        choices=["px", "pf", "pfrep", "pfrep-noec", "pfail"],
    )
    rate.add_argument("--n", type=int)
    rate.add_argument("--delta", type=float, required=True)
    rate.add_argument("--delta-tilde", type=float, default=0.0, dest="delta_tilde")
    rate.add_argument("--r", type=float, default=1.0)
    rate.add_argument("--method", choices=["factorized", "tensor"], default="factorized")
    rate.add_argument("--nodes", type=int, default=64)
    rate.add_argument("--neighbors", type=int, default=0)
    rate.add_argument("--out")
    rate.set_defaults(func=cmd_rate)

    mc = sub.add_parser("mc", help="Monte Carlo of the EC circuit")
    mc.add_argument("--n", type=int, required=True)
    mc.add_argument("--delta", type=float, required=True)
    mc.add_argument("--delta-tilde", type=float, default=0.0, dest="delta_tilde")
    mc.add_argument("--r", type=float, default=1.0)
    mc.add_argument("--shots", type=int, required=True)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--mode", choices=["position", "biased"], default="position")
    mc.add_argument("--no-gkp-ec", action="store_true")
    mc.add_argument("--workers", type=int, default=1)
    mc.add_argument("--out")
    mc.add_argument("--trace")
    mc.set_defaults(func=cmd_mc)

    figure = sub.add_parser("figure", help="canned sweep recipes")
    figure.add_argument("--id", required=True, choices=["fig1", *FIGURES])
    figure.add_argument("--outdir", required=True)
    figure.set_defaults(func=cmd_figure)

    sweep = sub.add_parser("sweep", help="run a declarative run file")
    sweep.add_argument("--spec", required=True)
    sweep.add_argument("--out")
    sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
