"""Command-line interface: bounds, estimate, sweep, capacity, simulate.

Exit codes: 0 success, 1 validation/usage error, 2 runtime error. Each
subcommand returns its text and :func:`main` writes it once, to the file
named by ``--out`` (``--csv`` for ``sweep``, ``--trace`` for ``simulate``) or
else to stdout; errors go to stderr. ``simulate`` also returns its side
outputs, which :func:`main` writes only after the text: the ``--vcd`` file,
then the JSON summary line on stderr. All outputs are deterministic: repeated
invocations are byte identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import noise
from .config import ConfigError, DacArchitecture, Scenario, escape_controls, load_scenario
from .report import (
    SWEEP_PARAMS,
    assemble,
    csv_table,
    dac_sweep,
    dac_sweep_csv,
    qubit_capacity,
    sweep,
    sweep_csv,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="cryoctrl", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command")

    def add_scenario(sp):
        sp.add_argument("--scenario", required=True, help="scenario JSON file")

    def add_format(sp, choices=("json", "csv", "text")):
        sp.add_argument("--format", choices=choices, default=choices[0])

    sp = sub.add_parser("bounds", help="thermal-noise sizing bounds for a scenario")
    sp.set_defaults(handler=_cmd_bounds)
    add_scenario(sp)
    add_format(sp, ("text", "csv", "json"))

    sp = sub.add_parser("estimate", help="per-unit area/power report")
    sp.set_defaults(handler=_cmd_estimate)
    add_scenario(sp)
    sp.add_argument("--include-data-input", action="store_true",
                    help="count data-input-control power (memory-load regime)")
    sp.add_argument("--out", help="write the report to this file instead of stdout")
    add_format(sp)

    sp = sub.add_parser("sweep", help="parameter sweep emitting CSV rows")
    sp.set_defaults(handler=_cmd_sweep)
    add_scenario(sp)
    sp.add_argument("--param", choices=SWEEP_PARAMS)
    sp.add_argument("--points", help="comma-separated values, e.g. 1,0.5,0.1,0.01")
    sp.add_argument("--unit", choices=("dac",),
                    help="sweep a single unit instead of the whole system")
    sp.add_argument("--conditions", choices=("bias", "rf"), default="bias",
                    help="operating conditions for --unit dac")
    sp.add_argument("--csv", dest="out", metavar="CSV",
                    help="write CSV to this file instead of stdout")

    sp = sub.add_parser("capacity", help="qubits controllable within a cooling budget")
    sp.set_defaults(handler=_cmd_capacity)
    add_scenario(sp)
    sp.add_argument("--budget", required=True, type=float, help="cooling budget [W]")
    sp.add_argument("--exact", action="store_true",
                    help="divide by the exact total instead of the 2-significant-figure value")
    add_format(sp, ("text", "json"))

    sp = sub.add_parser("simulate", help="run the behavioral simulator")
    sp.set_defaults(handler=_cmd_simulate)
    add_scenario(sp)
    sp.add_argument("--stimulus", required=True, help="stimulus file")
    sp.add_argument("--until", required=True, help="simulated time, e.g. 200us")
    sp.add_argument("--trace", dest="out", metavar="TRACE",
                    help="write the trace CSV to this file")
    sp.add_argument("--vcd", help="write a value-change dump text file")
    return p


def _scenario(args) -> Scenario:
    path = Path(args.scenario)
    if not path.is_file():
        raise ConfigError(f"scenario file not found: {escape_controls(path)}")
    return load_scenario(path)


def _json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _cmd_bounds(args) -> str:
    sc = _scenario(args)
    s, op = sc.spec, sc.op
    rows = [
        ("bias_dac_min_unit_cap", noise.min_unit_cap(s.n_bias, s.dv_bias, op.t_el)),
        ("bias_dac_max_unit_res_ladder",
         noise.max_unit_res(DacArchitecture.LADDER, s.n_bias, s.dv_bias, op.t_el, op.b_bias)),
        ("bias_dac_max_unit_res_kelvin",
         noise.max_unit_res(DacArchitecture.KELVIN, s.n_bias, s.dv_bias, op.t_el, op.b_bias)),
        ("sh_min_hold_cap", noise.min_hold_cap(s.n_bias_signals, s.dv_bias, op.t_el)),
        ("rf_dac_min_unit_cap", noise.min_unit_cap(s.n_rf, s.dv_rf, op.t_el)),
        ("rf_dac_max_unit_res_ladder",
         noise.max_unit_res(DacArchitecture.LADDER, s.n_rf, s.dv_rf, op.t_el, op.b_rf)),
        ("rf_dac_max_unit_res_kelvin",
         noise.max_unit_res(DacArchitecture.KELVIN, s.n_rf, s.dv_rf, op.t_el, op.b_rf)),
    ]
    if args.format == "json":
        return _json({name: {"kind": b.kind.value, "value": b.value, "binding": b.binding_spec}
                      for name, b in rows})
    if args.format == "csv":
        return csv_table("bound,kind,value,binding",
                         ((name, b.kind.value, b.value, b.binding_spec) for name, b in rows))
    width = max(len(name) for name, _ in rows)
    lines = [f"{name:<{width}}  {b.kind.value:<16} {b.value:.6g}  ({b.binding_spec})"
             for name, b in rows]
    return "\n".join(lines) + "\n"


def _report_text(rep) -> str:
    lines = [f"{'unit':<10} {'area/um^2':>12} {'power/W':>12}"]
    lines += [f"{unit:<10} {area:>12.4g} {power:>12.4g}" for unit, area, power in rep.rows()]
    return "\n".join(lines) + "\n"


def _cmd_estimate(args) -> str:
    rep = assemble(_scenario(args), include_data_input=args.include_data_input)
    if args.format == "csv":
        return csv_table("unit,area_um2,power_w", rep.rows())
    return _json(rep.to_dict()) if args.format == "json" else _report_text(rep)


def _cmd_sweep(args) -> str:
    sc = _scenario(args)
    if args.unit == "dac":
        return dac_sweep_csv(dac_sweep(sc, condition=args.conditions))
    if not args.param or not args.points:
        raise UsageError("sweep requires --param and --points (or --unit dac)")
    try:
        values = [float(v) for v in args.points.split(",") if v.strip()]
    except ValueError:
        raise UsageError("--points must be a comma-separated list of numbers")
    if not values:
        raise UsageError("--points is empty")
    return sweep_csv(sweep(sc, args.param, values))


def _cmd_capacity(args) -> str:
    if not 0 < args.budget < math.inf:
        raise UsageError(f"--budget must be a positive, finite power in W, got '{args.budget}'")
    rep = assemble(_scenario(args))
    result = qubit_capacity(rep, args.budget, sig_figs=None if args.exact else 2)
    return _json(result._asdict()) if args.format == "json" else f"{result.n_qubits}\n"


def _cmd_simulate(args) -> tuple[str, list]:
    # deferred: only this subcommand runs the simulator
    from .sim import parse_duration_ns, run_simulation

    sc = _scenario(args)
    stim_path = Path(args.stimulus)
    if not stim_path.is_file():
        raise ConfigError(f"stimulus file not found: {escape_controls(stim_path)}")
    try:
        t_end = parse_duration_ns(args.until)
        valid = 0 < t_end < math.inf
    except ValueError:
        valid = False
    if not valid:
        raise UsageError(f"--until must be a positive, finite duration, got {args.until!r}")
    trace = run_simulation(sc, stim_path, t_end)
    # each side output as (write, text), written after the trace
    side = [(Path(args.vcd).write_text, trace.to_vcd_text())] if args.vcd else []
    summary = {
        "events": len(trace),
        "max_refresh_deviation_v": max(trace.stats["max_refresh_deviation_v"]),
        "rf_samples_emitted": trace.stats["rf_samples_emitted"],
        "backpressure_count": trace.stats["backpressure_count"],
    }
    side.append((sys.stderr.write, json.dumps(summary, sort_keys=True) + "\n"))
    return trace.to_csv() if args.out or not args.vcd else "", side


def _check_output_dirs(args) -> None:
    """Refuse, before any work, an output file that is a directory or whose
    directory does not exist."""
    for option in ("out", "vcd"):
        path = getattr(args, option, None)
        if path and Path(path).is_dir():
            raise OSError(f"cannot write {path!r}: it is a directory")
        if path and not Path(path).parent.is_dir():
            raise OSError(f"cannot write {path!r}: {str(Path(path).parent)!r} "
                          "is not a directory")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_usage(sys.stderr)
            return 1
        _check_output_dirs(args)
        text = args.handler(args)
        text, side = text if isinstance(text, tuple) else (text, [])
        out = getattr(args, "out", None)
        if out:
            Path(out).write_text(text)
        else:
            sys.stdout.write(text)
        for write, side_text in side:
            write(side_text)
        return 0
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        parser.print_usage(sys.stderr)
        return 1
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"runtime error: {exc}\n")
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
