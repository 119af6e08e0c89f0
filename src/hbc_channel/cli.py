"""Command-line interface.

Subcommands:

* ``hbc eval <config>`` - single-point transfer report (``--json`` for
  machine output, alone; ``--db`` to lead with losses, ``--dump-network`` for
  the solver's branch list).
* ``hbc sweep <config> --out <csv>`` - run the config's [sweep] section
  (``--oracle`` adds a nodal solve per row).
* ``hbc resonance <config> [--out <csv>]`` - synthetic resonance extraction
  from the config's [resonance] section.
* ``hbc calibrate-k --cc <F> --d <m> --area <m2>`` - back-solve the coupling
  constant from a reference point.

Exit codes: 0 success, 1 config error (or an input too large to allocate),
2 numerical/singularity error.  A failing sweep row exits with the code of
the row's own error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .columns import POSITIVE
from .config import (
    ConfigError,
    ParsedConfig,
    SweepSpec,
    blame,
    body_capacitance,
    build_scenario,
    load_config_file,
)
from .geometry import calibrate_coupling_constant
from .network import SingularNetworkError, build_channel_network
from .resonance import (
    BoundaryPeakError,
    FlatSweepError,
    ResonanceCircuit,
    UnresolvedPeakError,
    default_frequency_grid,
    extract_body_capacitance,
)
from .sweep import SweepStepError, emit_csv, run_sweep
from .transfer import CAPACITANCE_NAMES, DegenerateScenarioError, compare_closed_forms

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2

_NUMERICAL_ERRORS = (
    SingularNetworkError,
    DegenerateScenarioError,
    BoundaryPeakError,
    FlatSweepError,
    UnresolvedPeakError,
)

_RATIO_LABELS = {
    "distant": "distant product",
    "simplified": "simplified coupled",
    "full": "full",
    "geometric_full": "geometric full",
    "geometric_distant": "geometric distant",
    "oracle": "nodal oracle",
}


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors map to the config exit code."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _positive_float(text: str) -> float:
    """argparse type: a float in the range ``columns.POSITIVE`` (argparse names the flag)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not POSITIVE[1](value):
        raise argparse.ArgumentTypeError(f"must be {POSITIVE[0]}, got {text}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="hbc",
        description="Capacitive body-channel model: transfer evaluation, sweeps, "
        "resonance extraction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one scenario and print a transfer report")
    p_eval.add_argument("config", help="scenario config file")
    p_eval.add_argument("--json", action="store_true", help="machine-readable output")
    p_eval.add_argument("--db", action="store_true", help="lead with losses in dB")
    p_eval.add_argument(
        "--dump-network", action="store_true",
        help="print the solver network branch list before the report",
    )
    p_eval.set_defaults(parser=p_eval)  # for the usage error of --json with the others

    p_sweep = sub.add_parser("sweep", help="run the config's [sweep] section to CSV")
    p_sweep.add_argument("config", help="config file with a [sweep] section")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument(
        "--oracle", action="store_true", help="include a nodal solve per row"
    )

    p_res = sub.add_parser("resonance", help="synthetic body-capacitance extraction")
    p_res.add_argument("config", help="config file with a [resonance] section")
    p_res.add_argument("--out", help="write the frequency sweep as CSV")

    p_cal = sub.add_parser("calibrate-k", help="coupling constant from a reference point")
    positive = {"type": _positive_float, "required": True}
    p_cal.add_argument("--cc", **positive, help="reference coupling capacitance, F")
    p_cal.add_argument("--d", **positive, help="reference separation, m")
    p_cal.add_argument("--area", **positive, help="device plate area, m^2")

    return parser


_PARSER = _build_parser()


def _cmd_eval(args) -> int:
    if args.json and (args.db or args.dump_network):  # the JSON payload is the whole of stdout
        args.parser.error("argument --json: not allowed with --db or --dump-network")
    parsed = load_config_file(args.config)
    scenario = build_scenario(parsed.scenario)
    report = compare_closed_forms(scenario, parsed.scenario.frequency_hz)

    capacitances = {f"{name}_f": getattr(scenario, name) for name in CAPACITANCE_NAMES}
    if args.dump_network:
        net = build_channel_network(scenario)
        print("network:")
        for line in net.dump().splitlines():
            print(f"  {line}")

    if args.json:
        payload = {
            "config": str(parsed.path),
            "frequency_hz": report.frequency_hz,
            "capacitances": capacitances,
            "ratios": report.ratios,
            "loss_db": {name: report.loss_db(name) for name in report.ratios},
            "relative_errors": report.relative_errors,
            "flags": list(report.flags),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return EXIT_OK

    print(f"scenario ({parsed.path})")
    for name, value in capacitances.items():
        print(f"  {name:<10} = {value:.6g} F")
    print(f"transfer (V_out/V_in at {report.frequency_hz:.6g} Hz):")
    for name in _RATIO_LABELS:
        if name not in report.ratios:
            continue
        ratio = report.ratios[name]
        loss = report.loss_db(name)
        if args.db:
            print(f"  {_RATIO_LABELS[name]:<19} loss {loss:8.2f} dB   (ratio {ratio:.6g})")
        else:
            print(f"  {_RATIO_LABELS[name]:<19} {ratio:.6g}   ({-loss:.2f} dB)")
    print("relative errors:")
    for pair in sorted(report.relative_errors):
        print(f"  {pair:<28} {report.relative_errors[pair]:.3e}")
    print(f"flags: {', '.join(report.flags) if report.flags else '(none)'}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    parsed = load_config_file(args.config)
    if parsed.sweep is None:
        raise ConfigError(f"{parsed.path}: no [sweep] section")
    spec = SweepSpec(**parsed.sweep, base=parsed.scenario, include_oracle=args.oracle)
    result = run_sweep(spec)
    emit_csv(result, args.out)
    print(f"{len(result.swept)} rows ({result.swept_name} "
          f"{spec.start:.6g}..{spec.stop:.6g}) -> {args.out}")
    return EXIT_OK


def _resonance_capacitance(parsed: ParsedConfig) -> float:
    """``[resonance] capacitance_f``, else C_B by the rule scenarios use."""
    if parsed.resonance.capacitance_f is not None:
        return parsed.resonance.capacitance_f
    scenario = parsed.scenario
    if scenario.c_b_f is None and scenario.dielectric_thickness_m is None:
        raise ConfigError(
            "missing required parameter: [resonance] capacitance_f, [body] c_b_f, "
            "or [body] dielectric_thickness_m plus dielectric_table"
        )
    return body_capacitance(scenario)


def _cmd_resonance(args) -> int:
    parsed = load_config_file(args.config)
    if parsed.resonance is None:
        raise ConfigError(f"{parsed.path}: no [resonance] section")
    section = parsed.resonance
    c_b = _resonance_capacitance(parsed)
    # Past the checks of the section and of C_B, the circuit has one error left:
    # a resistance with no finite positive square.
    circuit = blame("[resonance] series_resistance_ohm", ResonanceCircuit,
                    section.inductance_h, c_b, section.series_resistance_ohm)
    grid = default_frequency_grid(section.f_min_hz, section.f_max_hz, section.points)
    try:
        recovered, f_r, sweep = extract_body_capacitance(circuit, grid)
    except _NUMERICAL_ERRORS:
        raise
    except ValueError as exc:  # an overflow, or a peak above the frequency limit
        raise ConfigError(
            "[resonance] inductance_h, series_resistance_ohm and the capacitance, "
            f"on the grid [resonance] f_min_hz, f_max_hz and points: {exc}"
        ) from exc
    error = abs(recovered - circuit.capacitance_true) / circuit.capacitance_true

    if args.out:
        rows = zip(sweep.frequencies.tolist(), sweep.magnitudes.tolist())
        text = "frequency_hz,magnitude\n" + "".join("%.12g,%.12g\n" % row for row in rows)
        try:
            with open(args.out, "w", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise OSError(f"cannot write resonance CSV to {args.out!r}: {exc}") from exc

    print(f"resonant_frequency_hz = {f_r:.12g}")
    print(f"recovered_capacitance_f = {recovered:.12g}")
    print(f"true_capacitance_f = {circuit.capacitance_true:.12g}")
    print(f"relative_error = {error:.3e}")
    if args.out:
        print(f"sweep -> {args.out}")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    # The ranges are argparse's: the quotient k can still overflow or underflow.
    k = blame("--cc, --d and --area", calibrate_coupling_constant, args.cc, args.d, args.area)
    print(f"k_f_per_m = {k:.12g}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    handlers = {
        "eval": _cmd_eval,
        "sweep": _cmd_sweep,
        "resonance": _cmd_resonance,
        "calibrate-k": _cmd_calibrate,
    }
    try:
        return handlers[args.command](args)
    except (SweepStepError, *_NUMERICAL_ERRORS, ConfigError, OSError, ValueError) as exc:
        cause = exc.__cause__ if isinstance(exc, SweepStepError) else exc
        if isinstance(cause, _NUMERICAL_ERRORS):
            print(f"hbc: numerical error: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        if isinstance(cause, (ConfigError, OSError, ValueError)):
            print(f"hbc: config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        raise
    except MemoryError as exc:
        print(f"hbc: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
