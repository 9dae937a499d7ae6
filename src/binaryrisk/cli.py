"""Command line front end: compute, solve, simulate, sweep, plot.

Output contract: every successful run prints exactly one JSON envelope to
stdout; diagnostics go to stderr only. Exit codes are stable: 0 success,
2 invalid input or unreachable target, 3 a failure of the environment:
a file or stdout that cannot be written, a process started with stdout
closed, or numpy missing for ``simulate``, ``sweep`` and ``plot``. A run
that exits 2 or 3 prints nothing to stdout and one ``error:`` line to
stderr.

All probability flags take proportions in [0, 1]; percent-style values
above 1 are rejected, never rescaled. Payload files are written through
``--out`` (JSON by default, ``--format csv`` for the tabular form); the
stdout envelope is JSON regardless, so ``--format csv`` without ``--out``
is an error rather than a silent change of the stdout contract.

``compute`` and ``solve`` run on the pure-Python closed forms; ``simulate``,
``sweep`` and ``plot`` import the numpy-backed ``cohort`` and ``sweep`` on
first use, so the first two never load numpy. The names taken from those
two modules are the package's ``_LAZY`` table, the one list of them.
``solve --target-c`` reports as ``verification.c_index`` the measure
kernel's c-index at the returned rr (``measures._c_at``): the bits, and
the errors, of ``derive_measures`` at that rr, without a second
``PopulationParams``.

``main(argv)`` may be called repeatedly in one process: it builds its
parser on the first call and reuses it for every later one, so an
embedding caller pays the argparse set-up once. Importing this module
builds no parser; ``build_parser()`` returns a new parser on each call.
A plain ``COMMAND --flag value ...`` argv is parsed from a table of the
command's own argparse actions, built with the parser, into the namespace
argparse would give; every other argv (help, errors, ``=`` forms,
abbreviations) goes through ``parse_args``. The envelope and the JSON
records are encoded by ``_json_text``, which gives the bytes of
``json.dumps(indent=2)`` in one recursive pass instead of through the
encoder's generators: a float or str of exact built-in type is written
in its container's loop, and a subclass takes ``json``'s ``isinstance``
tests. ``_write_text`` writes every ``--out`` payload to a binary file
as UTF-8, 2**16 characters at a time, so a sweep of several MB is never
encoded into one more whole copy.
"""

from __future__ import annotations

import argparse
import errno
import functools
import sys
from importlib import import_module
from json.encoder import encode_basestring_ascii
from math import isfinite, isnan

from . import _LAZY
from .errors import BinaryRiskError, DegenerateScenarioError, InvalidParamsError
from .measures import (
    PopulationParams,
    _c_at,
    _require_finite,
    derive_measures,
    par,
    rr_for_target_c,
    rr_from_par,
)

__all__ = ["build_parser", "main"]

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IO = 3

# the leaf writers of json.encoder, looked up once
_float_text = float.__repr__
_int_text = int.__repr__

_WRITE_SLICE = 2**16


def _bind(module: str) -> None:
    """Import ``binaryrisk.<module>`` and bind the names taken from it here.

    A name already bound, by an earlier call or by a caller that patched
    it, keeps its value; handlers then look the names up as globals.
    """
    source = import_module(f"{__package__}.{module}")
    for name, home in _LAZY.items():
        if home == module:
            globals().setdefault(name, getattr(source, name))


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_LAZY[name])
    return globals()[name]


def _command_flags(args) -> dict:
    """The parsed flags of the command itself, without the shared --format/--out."""
    return {
        key: value
        for key, value in vars(args).items()
        if key not in ("command", "handler", "format", "out")
    }


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, allow_nan=False)``, byte for byte.

    Takes dicts with str keys, lists, tuples, str, int, float, bool and
    None, and raises as ``json.dumps`` does: ``ValueError`` for NaN and
    infinities, ``TypeError`` for any other type. One recursive pass makes
    the ``isinstance`` tests ``json`` makes and writes each leaf with the
    function ``json`` uses for it, so a subclass (``np.float64``, an
    ``IntEnum``, an ``OrderedDict``) gives the same bytes. The dict and
    list loops write a finite float or a str of exact built-in type
    themselves, the commonest leaves, and pass every other item back here.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return _int_text(value)
    if isinstance(value, float):
        if isfinite(value):
            return _float_text(value)
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            kind = type(item)
            if kind is float and isfinite(item):
                text = _float_text(item)
            elif kind is str:
                text = encode_basestring_ascii(item)
            else:
                text = _json_text(item, inner)
            items.append(f"{encode_basestring_ascii(key)}: {text}")
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = []
        for item in value:
            kind = type(item)
            if kind is float and isfinite(item):
                text = _float_text(item)
            elif kind is str:
                text = encode_basestring_ascii(item)
            else:
                text = _json_text(item, inner)
            items.append(text)
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(args, results: dict, warnings: list) -> None:
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        # the shared flags close every command's inputs
        "inputs": {**_command_flags(args), "format": args.format, "out": args.out},
        "results": results,
        "warnings": warnings,
    }
    # encode in full before writing, so a failure leaves stdout empty
    text = _json_text(envelope) + "\n"
    if sys.stdout is None:
        # a process started with fd 1 closed has no sys.stdout
        raise OSError(errno.EBADF, "stdout is closed; the envelope cannot be written")
    sys.stdout.write(text)


def _flatten(record: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in record.items():
        name = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            flat.update(_flatten(value, name))
        else:
            flat[name] = value
    return flat


def _record_csv(record: dict) -> str:
    # every key is a dotted name and every value a number: no field needs quoting
    flat = _flatten(record)
    values = ("" if value is None else str(value) for value in flat.values())
    return ",".join(flat) + "\n" + ",".join(values) + "\n"


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, ``_WRITE_SLICE`` characters at a time.

    A text-mode ``write`` encodes the whole payload into one more copy,
    several MB for a sweep; slices of code points never split a character.
    """
    with open(path, "wb") as handle:
        for start in range(0, len(text), _WRITE_SLICE):
            handle.write(text[start : start + _WRITE_SLICE].encode("utf-8"))


def _write_record_payload(args, record: dict) -> dict:
    """Write the flat payload of compute/solve/simulate when --out is given.

    Returns the results record, with the written file listed under
    ``files`` when there is one.
    """
    if args.out is None:
        if args.format == "csv":
            raise InvalidParamsError(
                "--format csv requires --out PATH; stdout always carries the JSON envelope"
            )
        return record
    if args.format == "csv":
        text = _record_csv(record)
    else:
        text = _json_text(record) + "\n"
    _write_text(args.out, text)
    return {**record, "files": [args.out]}


def _cmd_compute(args) -> tuple[dict, list]:
    measures = derive_measures(PopulationParams(f=args.f, p0=args.p0, rr=args.rr))
    # the record is flat and read only: vars() gives its fields in field order
    return _write_record_payload(args, vars(measures)), []


def _cmd_solve(args) -> tuple[dict, list]:
    has_par = args.target_par is not None
    has_c = args.target_c is not None
    if has_par == has_c:
        raise InvalidParamsError("exactly one of --target-par or --target-c is required")
    warnings = []
    if has_par:
        # unused here, but still echoed in the envelope, which admits no NaN/inf
        for name, value in (("p0", args.p0), ("tolerance", args.tolerance)):
            if value is not None:
                _require_finite(value, name)
        if args.p0 is not None:
            warnings.append("p0 is not used when solving for a target PAR")
        if args.tolerance is not None:
            warnings.append("tolerance is not used by the algebraic PAR inversion")
        rr = rr_from_par(args.f, args.target_par)
        verification = {"par": par(args.f, rr)}
    else:
        if args.p0 is None:
            raise InvalidParamsError("--target-c requires --p0")
        tolerance = {} if args.tolerance is None else {"tolerance": args.tolerance}
        rr = rr_for_target_c(args.f, args.p0, args.target_c, **tolerance)
        # the solver accepted f and p0 and keeps rr * p0 <= 1: the kernel's
        # c at rr, with the bits and errors of derive_measures there
        verification = {"c_index": _c_at(args.f, args.p0, rr)}
    return _write_record_payload(args, {"rr": rr, "verification": verification}), warnings


def _cmd_simulate(args) -> tuple[dict, list]:
    _bind("cohort")
    params = PopulationParams(f=args.f, p0=args.p0, rr=args.rr)
    spec = SimulationSpec(params=params, n_subjects=args.n, seed=args.seed)
    counts = simulate_cohort(spec)
    try:
        empirical = empirical_measures(counts)
    except DegenerateScenarioError as exc:
        raise DegenerateScenarioError(
            f"{exc}; increase --n until every margin of the table is populated"
        ) from exc
    f_hat, p0_hat, p1_hat = plugin_rates(counts)
    empirical_payload = {"f": f_hat, "p0": p0_hat, "rr": p1_hat / p0_hat, **vars(empirical)}
    closed_payload = vars(derive_measures(params))
    results = {
        "counts": vars(counts),
        "empirical": empirical_payload,
        "closed_form": closed_payload,
        "difference": {
            key: empirical_payload[key] - closed_payload[key] for key in closed_payload
        },
    }
    return _write_record_payload(args, results), []


def _grid_command(args, default_out: str, render) -> dict:
    """Evaluate the panels of sweep/plot, write ``render(grids, spec)``, return the summaries."""
    spec = GridSpec(**{
        "contour_levels" if key == "levels" else key: value
        for key, value in _command_flags(args).items()
        if value is not None
    })
    grids = [evaluate_grid(spec, prevalence) for prevalence in spec.prevalences]
    out = default_out if args.out is None else args.out
    _write_text(out, render(grids, spec))
    import numpy as np  # loaded by sweep already

    def bound(reduce, values):
        # masked cells hold NaN and the rest are finite: NaN means all masked
        value = float(reduce(values, axis=None))
        return None if isnan(value) else value

    panels = [
        {
            "prevalence": grid.prevalence,
            "c_min": bound(np.fmin.reduce, grid.c_values),
            "c_max": bound(np.fmax.reduce, grid.c_values),
            "masked_cells": int(np.count_nonzero(grid.mask)),
        }
        for grid in grids
    ]
    return {"files": [out], "panels": panels}


def _cmd_sweep(args) -> tuple[dict, list]:
    _bind("sweep")
    if args.format == "csv":
        return _grid_command(args, "grids.csv", lambda grids, spec: grids_to_csv(grids)), []
    return _grid_command(args, "grids.json", grids_to_json), []


def _cmd_plot(args) -> tuple[dict, list]:
    _bind("sweep")
    warnings = []
    if args.format == "csv":
        warnings.append("the plot payload is SVG; --format is ignored")
    return _grid_command(args, "figure.svg", render_svg), warnings


def _float_tuple(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(token) for token in text.split(",") if token.strip())
    except ValueError:
        values = ()
    if not values:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of numbers, got {text!r}"
        )
    return values


def _flag_table(command: argparse.ArgumentParser):
    """``(flags, actions, handler)`` of a command whose every flag stores one value.

    ``flags`` maps each option string to its action, ``actions`` lists the
    non-help actions in declaration order, which is the order of their keys
    in the namespace. Any other command gets None.
    """
    actions = [a for a in command._actions if not isinstance(a, argparse._HelpAction)]
    if any(type(a) is not argparse._StoreAction or a.nargs is not None for a in actions):
        return None
    flags = {option: action for action in actions for option in action.option_strings}
    return flags, actions, command.get_default("handler")


def _build() -> tuple[argparse.ArgumentParser, dict[str, tuple | None]]:
    """The top-level parser and the flag table of each command, by name."""
    parser = argparse.ArgumentParser(
        prog="binaryrisk",
        description=(
            "Epidemiologic measures for a binary risk factor: attributable risk, "
            "concordance index, inverse solvers, cohort simulation, and contour figures."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="payload format for --out files (stdout always carries the JSON envelope)",
    )
    common.add_argument(
        "--out", default=None, metavar="PATH", help="write the command payload to PATH"
    )

    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    prevalence = argparse.ArgumentParser(add_help=False)
    prevalence.add_argument(
        "--f", type=float, required=True, help="risk factor prevalence, proportion in (0,1)"
    )
    scenario = argparse.ArgumentParser(add_help=False, parents=[prevalence])
    scenario.add_argument(
        "--p0",
        type=float,
        required=True,
        help="incidence among the unexposed, proportion in (0,1)",
    )
    scenario.add_argument(
        "--rr", type=float, required=True, help="relative risk; rr*p0 must not exceed 1"
    )

    compute = sub.add_parser(
        "compute", parents=[common, scenario], help="derive all measures for one scenario"
    )
    compute.set_defaults(handler=_cmd_compute)

    solve = sub.add_parser(
        "solve", parents=[common, prevalence], help="invert PAR or the c-index for the relative risk"
    )
    solve.add_argument(
        "--p0", type=float, default=None, help="incidence among the unexposed; required with --target-c"
    )
    solve.add_argument(
        "--target-par", type=float, default=None, dest="target_par",
        help="attributable risk to invert algebraically",
    )
    solve.add_argument(
        "--target-c", type=float, default=None, dest="target_c",
        help="c-index to invert by bisection over rr",
    )
    solve.add_argument(
        "--tolerance", type=float, default=None,
        help="absolute solver tolerance (default 1e-10)",
    )
    solve.set_defaults(handler=_cmd_solve)

    simulate = sub.add_parser(
        "simulate",
        parents=[common, scenario],
        help="simulate a seeded cohort and compare it with the closed form",
    )
    simulate.add_argument(
        "--n", type=int, required=True, help="number of subjects to draw, at most 2**40"
    )
    simulate.add_argument(
        "--seed",
        type=int,
        required=True,
        help="64-bit RNG seed; mandatory so every run is reproducible",
    )
    simulate.set_defaults(handler=_cmd_simulate)

    grid_flags = argparse.ArgumentParser(add_help=False)
    grid_flags.add_argument(
        "--prevalences", type=_float_tuple, default=None, metavar="LIST",
        help="comma-separated prevalence panels (default 0.5,0.2,0.1)",
    )
    grid_flags.add_argument("--p0-min", type=float, default=None, dest="p0_min")
    grid_flags.add_argument("--p0-max", type=float, default=None, dest="p0_max")
    grid_flags.add_argument("--rr-min", type=float, default=None, dest="rr_min")
    grid_flags.add_argument("--rr-max", type=float, default=None, dest="rr_max")
    grid_flags.add_argument(
        "--resolution", type=int, default=None, help="samples per axis (default 201)"
    )
    grid_flags.add_argument(
        "--levels", type=_float_tuple, default=None, metavar="LIST",
        help="comma-separated contour levels (default 0.51..0.60)",
    )

    sweep = sub.add_parser(
        "sweep",
        parents=[common, grid_flags],
        help="evaluate the c-index grids and export them as CSV or JSON",
    )
    sweep.set_defaults(handler=_cmd_sweep)

    plot = sub.add_parser(
        "plot", parents=[common, grid_flags], help="render the contour figure as SVG"
    )
    plot.set_defaults(handler=_cmd_plot)

    return parser, {name: _flag_table(command) for name, command in sub.choices.items()}


def build_parser() -> argparse.ArgumentParser:
    return _build()[0]


# Built on the first call of main and kept: argparse reads sys.stdout,
# sys.stderr and the terminal width when it prints, not when it is built.
_parser = functools.cache(_build)


def _plain_args(argv: list, table) -> argparse.Namespace | None:
    """The namespace ``parse_args`` gives a plain argv, or None for any other.

    Plain is ``COMMAND`` followed by pairs of an exact option string of
    that command and a value that does not start with ``-``, which the
    option's type converts and its choices admit, with every required
    option present. For such an argv argparse sets each action's value
    (the last one given) or default in declaration order, then the handler.
    """
    flags, actions, handler = table
    # an even length leaves the last flag without a value
    if not len(argv) % 2:
        return None
    values = {}
    for flag, text in zip(argv[1::2], argv[2::2]):
        action = flags.get(flag)
        if action is None or type(text) is not str or text.startswith("-"):
            return None
        try:
            value = text if action.type is None else action.type(text)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action] = value
    args = argparse.Namespace(command=argv[0])
    for action in actions:
        if action in values:
            setattr(args, action.dest, values[action])
        elif action.required:
            return None
        else:
            setattr(args, action.dest, action.default)
    args.handler = handler
    return args


def _parse_args(argv) -> argparse.Namespace:
    """``parse_args`` of the top-level parser, without argparse for a plain argv.

    A plain argv (see ``_plain_args``) is parsed from the command's flag
    table without argparse; any other, such as
    ``--help``, an error, an ``=`` form or an abbreviation, goes to the
    whole parser, which prints and exits as it always has.
    """
    parser, tables = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    table = tables.get(argv[0]) if argv else None
    args = None if table is None else _plain_args(argv, table)
    return parser.parse_args(argv) if args is None else args


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        # argparse has already written its diagnostic; fold its exit code
        # into the 0/2 contract
        code = exc.code
        return code if isinstance(code, int) else EXIT_INPUT
    try:
        _emit(args, *args.handler(args))
    except BinaryRiskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        # numpy raises a MemoryError subclass for an array larger than memory
        detail = f": {exc}" if str(exc) else ""
        print(
            f"error: out of memory{detail}; lower --resolution or the number of --prevalences",
            file=sys.stderr,
        )
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ImportError as exc:
        # simulate, sweep and plot import numpy on first use; any other
        # failed import is a fault of the program, not of the environment
        if (exc.name or "").partition(".")[0] != "numpy":
            raise
        print(f"error: {args.command} needs numpy, which failed to import: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
