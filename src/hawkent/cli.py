"""Command-line front end.

Four subcommands: ``measure`` (one parameter point), ``sweep`` (grid
over one parameter, CSV or JSON), ``figure`` (canned temperature-sweep
tables of one measure family), ``limits`` (both temperature extremes).

argparse checks only syntax and passes raw floats and integers on.
Each value is range-checked by the library alone: ``check_params``
(through ``evaluate_point``, ``SweepSpec`` and ``asymptotic_limits``)
for alpha, omega and the temperature, ``hawking_temperature`` for the
mass, ``SweepSpec`` for the grid, and ``RunConfig`` for a sweep's
emission settings, whose mass it ties to the sweep's temperature.
Every invalid value exits with code 2, usage text and the library's
message, before any output is written.  Each subcommand's handler
returns its text, and ``main`` writes it once, to ``--out`` or to
stdout.

Exit codes: 0 success, 2 bad usage or invalid parameters, 3 closed-form
vs spectral verification failure, 4 output write failure.
"""

from __future__ import annotations

import argparse
import io
import math
import operator
import sys
from dataclasses import astuple

from .model import asymptotic_limits, hawking_temperature
from .sweep import (
    CSV_COLUMNS,
    RunConfig,
    SweepSpec,
    VerificationError,
    _csv_text,
    _verify_limits,
    emit_csv,
    emit_json,
    evaluate_point,
    format_number,
    run_sweep,
)

__all__ = ["build_parser", "figure_command", "limits_command", "main"]

EXIT_OK = 0
EXIT_VERIFY = 3
EXIT_WRITE = 4

_DEFAULT_FIGURE_ALPHA = 1.0 / math.sqrt(2.0)
_FIGURE_T_MIN = 0.01

_FIGURE_COLUMNS = {
    1: ("C_A_I", "C_A_II", "C_I_II"),
    2: ("EoF_A_I", "EoF_A_II", "EoF_I_II"),
    3: ("MI_A_I", "MI_A_II", "MI_I_II"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hawkent",
        description="Pairwise entanglement and mutual information of three "
        "Dirac modes straddling a Schwarzschild horizon.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    measure = sub.add_parser("measure", help="all twelve measures at one parameter point")
    measure.add_argument("--alpha", type=float, required=True)
    measure.add_argument("--omega", type=float, required=True)
    measure.add_argument("--temperature", type=float)
    measure.add_argument("--mass", type=float, help="black-hole mass; sets T = 1/(8 pi M)")
    measure.add_argument("--verify", choices=("on", "off"), default="on",
                         help="cross-check closed forms against the spectral route")
    measure.set_defaults(handler=_cmd_measure)

    swp = sub.add_parser("sweep", help="vary one parameter over a grid")
    swp.add_argument("--vary", choices=("alpha", "omega", "temperature"), required=True)
    swp.add_argument("--min", type=float, required=True)
    swp.add_argument("--max", type=float, required=True)
    swp.add_argument("--steps", type=int, required=True)
    swp.add_argument("--scale", choices=("linear", "log"), default="linear")
    swp.add_argument("--alpha", type=float)
    swp.add_argument("--omega", type=float)
    swp.add_argument("--temperature", type=float)
    swp.add_argument("--mass", type=float, help="black-hole mass; sets T = 1/(8 pi M)")
    swp.add_argument("--format", choices=("csv", "json"), default="csv")
    swp.add_argument("--out", help="output path (default: stdout)")
    swp.add_argument("--verify", choices=("on", "off"), default="on",
                     help="cross-check closed forms against the spectral route")
    swp.set_defaults(handler=_cmd_sweep)

    fig = sub.add_parser(
        "figure",
        help="temperature-sweep table of one measure family "
        "(1: concurrence, 2: EoF, 3: mutual information)",
    )
    fig.add_argument("which", type=int, choices=(1, 2, 3))
    fig.add_argument("--alpha", type=float, default=_DEFAULT_FIGURE_ALPHA,
                     help="superposition weight (default: 1/sqrt(2))")
    fig.add_argument("--omega", type=float, default=1.0)
    fig.add_argument("--max", type=float, default=10.0, dest="t_max",
                     help="top of the temperature grid (default: 10)")
    fig.add_argument("--steps", type=int, default=200)
    fig.add_argument("--out", help="output path (default: stdout)")
    fig.set_defaults(handler=lambda a: figure_command(a.which, a.alpha, a.omega, a.t_max, a.steps))

    lim = sub.add_parser("limits", help="closed-form values at T = 0 and T -> infinity")
    lim.add_argument("--alpha", type=float, required=True)
    lim.set_defaults(handler=lambda a: limits_command(a.alpha))

    return parser


def _fixed_temperature(temperature, mass, required: bool):
    if temperature is not None and mass is not None:
        raise ValueError("give either --temperature or --mass, not both")
    if mass is not None:
        return hawking_temperature(mass)
    if temperature is None and required:
        raise ValueError("one of --temperature or --mass is required")
    return temperature


def _write_text(text: str, out: str | None) -> None:
    """Write a command's output to the file ``out``, or to stdout and flush it."""
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError:
        # swap in a sink: Python flushes stdout at exit, and a second failure would exit 120
        sys.stdout = io.StringIO()
        raise


def _cmd_measure(args) -> str:
    temperature = _fixed_temperature(args.temperature, args.mass, required=True)
    row = evaluate_point(args.alpha, args.omega, temperature, verify=args.verify == "on")
    lines = [
        f"{name} = {format_number(value)}"
        for name, value in zip(CSV_COLUMNS, row.as_tuple())
    ]
    return "\n".join(lines) + "\n"


def _cmd_sweep(args) -> str:
    temperature = _fixed_temperature(
        args.temperature, args.mass, required=args.vary != "temperature"
    )
    spec = SweepSpec(
        vary=args.vary,
        min=args.min,
        max=args.max,
        steps=args.steps,
        scale=args.scale,
        alpha=args.alpha,
        omega=args.omega,
        temperature=temperature,
    )
    config = RunConfig(
        sweep=spec,
        output_format=args.format,
        out=args.out,
        verify=args.verify == "on",
        mass=args.mass,
    )
    rows = run_sweep(config)
    text = io.StringIO()
    if config.output_format == "json":
        emit_json(rows, text, config)
    else:
        emit_csv(rows, text)
    return text.getvalue()


def figure_command(
    which: int,
    alpha: float = _DEFAULT_FIGURE_ALPHA,
    omega: float = 1.0,
    t_max: float = 10.0,
    steps: int = 200,
) -> str:
    """CSV table of one measure family over T in [0.01, t_max], log grid."""
    if which not in _FIGURE_COLUMNS:
        raise ValueError(f"figure number must be 1, 2 or 3, got {which!r}")
    try:
        spec = SweepSpec(
            vary="temperature",
            min=_FIGURE_T_MIN,
            max=t_max,
            steps=steps,
            scale="log",
            alpha=alpha,
            omega=omega,
        )
    except ValueError as exc:
        # the sweep's min is the fixed grid start; say so, since figure has no --min
        raise ValueError(f"figure {which} runs T from {_FIGURE_T_MIN:g} to --max: {exc}") from None
    rows = run_sweep(RunConfig(sweep=spec))
    names = ("temperature", *_FIGURE_COLUMNS[which])
    cells = operator.itemgetter(*[CSV_COLUMNS.index(name) for name in names])
    return _csv_text(names, map(cells, rows))


def limits_command(alpha: float) -> str:
    """Two-column report of the T = 0 and T -> infinity values.

    Both columns are checked against the spectral route first, and a gap
    above ``VERIFY_ATOL`` raises :class:`~hawkent.sweep.VerificationError`.
    """
    report = asymptotic_limits(alpha)
    _verify_limits(report)
    names = ("C_A_I", "C_A_II", "C_I_II", "MI_A_I", "MI_A_II", "MI_I_II")
    lines = [
        f"alpha = {format_number(report.alpha)}",
        f"{'measure':<10}{'T = 0':<17} T -> infinity",
    ]
    values = zip(names, astuple(report.zero_temperature), astuple(report.infinite_temperature))
    for name, cold, warm in values:
        lines.append(f"{name:<10}{format_number(cold):<17} {format_number(warm)}")
    lines.append(
        "accessible MI ratio: MI_A_I(T->inf) / MI_A_I(T=0) = "
        + format_number(report.accessible_mi_ratio)
    )
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _write_text(args.handler(args), getattr(args, "out", None))
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except OSError as exc:
        print(f"write failed: {exc}", file=sys.stderr)
        return EXIT_WRITE
    except ValueError as exc:
        parser.error(str(exc))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
