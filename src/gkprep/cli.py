"""Command-line front end: rate/mc/figure/sweep subcommands.

Scalars go to stdout as JSON (sorted keys, full-precision floats); sweeps
and figure recipes write CSV files with the schema
``param...,value,std_err,status`` at 17 significant digits.  Exit codes:
0 success, 2 usage or validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import json
import math
import os
import sys
from collections.abc import Iterator

import numpy as np

from .analysis import (
    QUANTITIES,
    AmbiguousCrossingError,
    CrossingQuery,
    CurveTable,
    SweepSpec,
    check_fields,
    critical_ancilla_spread,
    optimal_bias,
    run_sweep,
)
from .distributions import NoiseParams, _integral
from .lattice import TruncationError
from .montecarlo import ShotConfig, run_tally
from .repetition import (
    QuadratureConfig,
    QuadratureError,
    available_cores,
    map_parts,
    shared_engines,
)
from .wigner import GkpEnvelope, GridSpec, grid_to_binary, grid_to_csv, wigner_physical_zero

# Not called here; bound so that perfbench/tracing.py can wrap this lookup site.
from .distributions import pauli_rate_ideal  # noqa: F401
from .repetition import failure_rate, failure_rate_no_gkp_ec, overall_failure_biased  # noqa: F401
from .repetition import pauli_rate_physical_report  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# OverflowError: a valid but extreme spread overflowing a float, such as
# --delta-tilde 1e300 in a density or --r 1e-300 in a momentum spread
NUMERICAL_ERRORS = (QuadratureError, TruncationError, AmbiguousCrossingError, OverflowError)


def _emit_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


# dests of the flags that steer a command rather than set a builder field
_COMMAND_DESTS = frozenset({"command", "func", "quantity", "out", "workers", "trace"})


def _given(args) -> dict:
    """The builder fields set on the command line; an omitted one keeps the builder's default."""
    return {k: v for k, v in vars(args).items() if v is not None and k not in _COMMAND_DESTS}


def cmd_rate(args) -> int:
    given = _given(args)
    engine = {f.name: given.pop(f.name) for f in dataclasses.fields(QuadratureConfig)
              if f.name in given}
    cfg = _from_fields(QuadratureConfig, engine, "engine")
    name = args.quantity.replace("-", "_")
    quantity = QUANTITIES[name]
    check_fields(quantity, given, f"{name} parameters")
    params = inspect.signature(quantity).parameters.values()
    point = {p.name: given.get(p.name, p.default) for p in params if p.kind == p.KEYWORD_ONLY}
    value, detail = quantity(cfg, **point)
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
    return ShotConfig(n=n, params=params, shots=shots, seed=seed, mode=mode, gkp_ec=gkp_ec)


def _mc_payload(cfg: ShotConfig, trace=None, workers: int | None = None) -> dict:
    # every available core by default; run_tally caps any count at the cores and the chunks
    workers = available_cores() if workers is None else workers
    return dataclasses.asdict(run_tally(cfg, partitions=workers, trace=trace))


def cmd_mc(args) -> int:
    if args.workers is not None and args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    cfg = _from_fields(_shot_config, _given(args), "mc")
    trace_fh = open(args.trace, "w") if args.trace else None
    try:
        payload = _mc_payload(cfg, trace_fh.writelines if trace_fh else None, args.workers)
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


def _sweep_part(
    specs: tuple[SweepSpec, ...], cfg: QuadratureConfig, part: int, parts: int
) -> Iterator[list[CurveTable]]:
    """As one item, stretch ``part`` of ``parts`` of every spec's cells, sharing engines."""
    with shared_engines():
        tables = [run_sweep(spec, cfg, part, parts) for spec in specs]
    yield tables


def _run_sweeps(specs: tuple[SweepSpec, ...], cfg: QuadratureConfig) -> list[CurveTable]:
    """Each spec's table, its cells computed on every available core.

    One part per core, at most one per cell of the largest spec: part j
    computes the same stretch of every spec (:func:`~gkprep.repetition.map_parts`
    forks once for all of them), so the specs of a figure still share each
    point's engines.  The rows are joined in part order, so the tables are
    the same for any number of parts.
    """
    parts = min(available_cores(), max(1, *(spec.size for spec in specs)))
    with map_parts(functools.partial(_sweep_part, specs, cfg), parts) as streams:
        per_part = [next(stream) for stream in streams]
    return [
        CurveTable(tables[0].columns, tuple(row for table in tables for row in table.rows))
        for tables in zip(*per_part)
    ]


def cmd_figure(args) -> int:
    os.makedirs(args.outdir, exist_ok=True)
    if args.id == "fig1":
        _wigner_figure(args.outdir)
        return EXIT_OK
    names, specs = zip(*FIGURES[args.id])
    for name, table in zip(names, _run_sweeps(specs, QuadratureConfig())):
        table.to_csv(os.path.join(args.outdir, name))
    return EXIT_OK


def _bias_args(
    n: int, delta: float, delta_tilde: float = 0.0,
    r_bracket: tuple[float, float] = (1.0, 6.0),
) -> tuple:
    return n, delta, delta_tilde, tuple(r_bracket)


def _sweep_to_csv(spec: SweepSpec, cfg: QuadratureConfig, output: str | None) -> None:
    if output is None:
        raise ValueError("sweep requires an output path")
    _run_sweeps((spec,), cfg)[0].to_csv(output)


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
    """``builder(**fields)``, with unknown, missing or wrongly typed fields as usage errors."""
    check_fields(builder, fields, f"{what} fields")
    try:
        return builder(**fields)
    except TypeError as exc:
        raise ValueError(f"wrongly typed {what} field: {exc}") from exc


def _reject_constant(token: str):
    raise ValueError(f"run file is not strict JSON: {token} is not a number")


def cmd_sweep(args) -> int:
    with open(args.spec) as fh:
        doc = json.load(fh, parse_constant=_reject_constant)
    if not isinstance(doc, dict):
        raise ValueError("run file must be a JSON object")
    unknown = set(doc) - {"schema_version", "engine", *RUN_KINDS}
    if unknown:
        raise ValueError(f"unknown run-file fields: {sorted(unknown)}")
    if _integral(doc.get("schema_version")) != 1:
        raise ValueError("run file must declare schema_version = 1")
    kinds = [kind for kind in RUN_KINDS if kind in doc]
    if len(kinds) != 1:
        raise ValueError(f"run file must contain exactly one of {'/'.join(RUN_KINDS)}")
    kind = kinds[0]
    engine = doc.get("engine", {})
    for name, block in ((kind, doc[kind]), ("engine", engine)):
        if not isinstance(block, dict):
            raise ValueError(f"run-file {name} must be a JSON object")
    if kind == "mc" and engine:
        raise ValueError(f"run-file mc reads no engine block, got engine fields {sorted(engine)}")
    cfg = _from_fields(QuadratureConfig, engine, "engine")
    build, run = RUN_KINDS[kind]
    fields = dict(doc[kind])
    output = fields.pop("output", None) or args.out
    if not isinstance(output, (str, type(None))):
        raise ValueError(f"run-file output must be a path string, got {output!r}")
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
    rate.add_argument("--delta-tilde", type=float, dest="delta_tilde")
    rate.add_argument("--r", type=float)
    rate.add_argument("--method", choices=["factorized", "tensor"])
    rate.add_argument("--nodes", type=int, dest="nodes_per_dim", metavar="NODES")
    rate.add_argument("--out")
    rate.set_defaults(func=cmd_rate)

    mc = sub.add_parser("mc", help="Monte Carlo of the EC circuit")
    mc.add_argument("--n", type=int, required=True)
    mc.add_argument("--delta", type=float, required=True)
    mc.add_argument("--delta-tilde", type=float, dest="delta_tilde")
    mc.add_argument("--r", type=float)
    mc.add_argument("--shots", type=int, required=True)
    mc.add_argument("--seed", type=int)
    mc.add_argument("--mode", choices=["position", "biased"])
    mc.add_argument("--no-gkp-ec", action="store_const", const=False, dest="gkp_ec")
    mc.add_argument(
        "--workers", type=int,
        help="worker processes (default: the available cores); min(this, available "
             "cores, 8,192-shot chunks) are used",
    )
    mc.add_argument("--out")
    mc.add_argument(
        "--trace",
        help="write one JSON line per shot to this path, in shot order, whatever "
             "--workers says",
    )
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


def _innermost_function(exc: BaseException) -> str:
    """Name of the innermost function of this package that ``exc`` passed through."""
    name, tb = "?", exc.__traceback__
    while tb is not None:
        if tb.tb_frame.f_globals.get("__package__") == __package__:
            name = tb.tb_frame.f_code.co_name
        tb = tb.tb_next
    return name


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with shared_engines():
            return args.func(args)
    except NUMERICAL_ERRORS as exc:
        if isinstance(exc, OverflowError):
            exc = f"float overflow in {_innermost_function(exc)}: {exc}"
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
