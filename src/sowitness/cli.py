"""Command line: catalog inspection, witness curves, T_E tables, figure data,
and ``verify``, which prints the checks of :func:`sowitness.checks.verify_catalog`.

Exit codes: 0 success, 1 verification failure, 2 usage/parse error,
3 unusable ion, 4 I/O failure.  All output is machine-readable; numbers are
formatted with 6 significant digits so identical invocations produce
byte-identical files.

``main`` runs the steps every command shares, in this order: it parses the
arguments, a plainly spelled argv in one pass over tables of the parser's
own actions (``_plain_args``) and any other with argparse; exits 4 at once
if there is no ``--output`` and stdout was closed at start-up; loads the
catalog; runs the command, which makes its own argument checks, only then
imports the modules it computes with (``thermal``; ``checks`` and
``dense`` for ``verify``) and returns its exit code and its output; writes
that output with ``_emit``; and maps a ``_CliError`` or ``UnknownIonError``
to its exit code.  So importing this module, building the parser, ``ions``,
a help page and every usage error but a curve's grid, which ``thermal``
checks, load no NumPy.
``figure1`` also writes its set of files itself, before it returns their
paths as its output.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import itertools
import math
import os
import re
import sys
from typing import Iterable, Iterator, Sequence

from .angular import Convention, HalfInt, SpinOrbitSystem
from .ions import (
    CATALOG,
    CatalogError,
    IonRecord,
    UnknownIonError,
    _to_json,
    ion_record,
    load_catalog,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_ION = 3
EXIT_IO = 4

#: ``custom`` rejects a shell with more levels, min(2s, 2l) + 1, than this.
MAX_LEVELS = 10**6
#: ``custom`` rejects a larger 2s or 2l; beyond it s and l are not exact floats.
MAX_TWICE = 2**53

# argparse's negative-number pattern, each branch with an optional exponent
_NEGATIVE_NUMBER = re.compile(r"^-\d+([eE][-+]?\d+)?$|^-\d*\.\d+([eE][-+]?\d+)?$")

CURVE_HEADER = "T_K,mean_energy_K,witness_K"
#: What a command returns to ``main``: its exit code and the output to write.
_Result = tuple[int, Iterable[str]]


class _CliError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _fmt(value: float) -> str:
    return format(value, ".6g")


def _fmt_optional(value: float | None) -> str:
    return "" if value is None else _fmt(value)


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that takes ``-1e-3``, ``-2.5E+2`` or ``-.5e1`` as a
    negative number, not as an unknown option; argparse's own pattern knows
    only ``-123`` and ``-1.5``.  Help goes through ``_emit``, so a stdout that
    cannot take it exits 4.  Its subparsers are of this class too."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def _print_message(self, message: str, file=None) -> None:
        if file is sys.stdout:  # the help page; None if stdout is closed
            _emit(None, [message])
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sowitness",
        description="Spin-orbit thermal entanglement witnesses for rare-earth ions.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def catalog_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--catalog", metavar="PATH",
                       help="JSON ion catalog replacing the embedded one")

    def output_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", metavar="PATH",
                       help="write to this file instead of standard output")

    def convention_flag(p: argparse.ArgumentParser, default: str) -> None:
        p.add_argument("--convention", choices=sorted(c.value for c in Convention),
                       default=default,
                       help=f"thermal weighting convention (default: {default})")

    def range_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tmin", type=float, default=1.0, help="grid start in K (default 1)")
        p.add_argument("--tmax", type=float, default=6000.0, help="grid end in K (default 6000)")
        p.add_argument("--steps", type=int, default=600, help="grid points (default 600)")

    def tolerance_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tolerance", type=float, default=1e-3,
                       help="largest distance of T_E from the zero of the witness, in K")

    ions = commands.add_parser("ions", help="list the active catalog")
    ions.add_argument("--format", choices=("csv", "json"), default="csv")
    catalog_flag(ions)
    output_flag(ions)

    witness = commands.add_parser("witness", help="witness curve for one ion")
    witness.add_argument("--ion", required=True, metavar="SYMBOL")
    convention_flag(witness, "level")
    range_flags(witness)
    catalog_flag(witness)
    output_flag(witness)

    te = commands.add_parser("te", help="entanglement temperatures")
    te.add_argument("--ion", default="all", metavar="SYMBOL",
                    help='one symbol, or "all" for the whole catalog')
    convention_flag(te, "level")
    tolerance_flag(te)
    catalog_flag(te)
    output_flag(te)

    figure1 = commands.add_parser(
        "figure1", help="witness curves for all light ions plus a plotting script"
    )
    figure1.add_argument("--outdir", default=".", metavar="DIR")
    convention_flag(figure1, "level")
    range_flags(figure1)
    catalog_flag(figure1)

    verify = commands.add_parser("verify", help="run the dense-route cross-checks")
    verify.add_argument("--seed", type=int, default=1)
    verify.add_argument("--samples", type=int, default=1000,
                        help="product states sampled per ion (default 1000)")
    catalog_flag(verify)

    custom = commands.add_parser("custom", help="ad-hoc system from quantum numbers")
    custom.add_argument("--two-s", type=int, required=True, metavar="INT",
                        help="doubled spin quantum number 2s")
    custom.add_argument("--two-l", type=int, required=True, metavar="INT",
                        help="doubled orbital quantum number 2l")
    custom.add_argument("--zeta", type=float, required=True, metavar="KELVIN")
    actions = custom.add_subparsers(dest="action", required=True)
    custom_witness = actions.add_parser("witness", help="witness curve")
    convention_flag(custom_witness, "multiplet")
    range_flags(custom_witness)
    output_flag(custom_witness)
    custom_te = actions.add_parser("te", help="entanglement temperature")
    convention_flag(custom_te, "multiplet")
    tolerance_flag(custom_te)
    output_flag(custom_te)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser that ``main`` uses, built on the first call in a process.

    Parsing leaves no state on the parser: each call fills a new namespace
    from the defaults, so one instance serves every call.  ``main`` reads a
    plainly spelled argv with ``_plain_args`` from tables of this parser's
    own actions, and hands every other argv to its ``parse_args``.
    """
    return build_parser()


@functools.cache
def _thermal():
    """The closed-form route, imported on the first ``te`` or curve of a
    process.  A cached call, not an ``import`` per command: with one, the
    benchmark's ``scan`` lost 9 and 7 of 10 pairs in two series
    (``ops_per_kref`` -3.9 % and -2.7 %), on a ``te`` of about 0.1 ms."""
    from . import thermal

    return thermal


def __getattr__(name: str):
    # The benchmark's tracer test reads ``cli.entanglement_temperature``; it
    # resolves to the closed-form route's function, imported on first use.
    if name == "entanglement_temperature":
        return _thermal().entanglement_temperature
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@functools.cache
def _levels(
    parser: argparse.ArgumentParser,
) -> tuple[dict[str, argparse.Action], argparse.Action | None, dict, frozenset]:
    """One parser level as ``_plain_args`` reads it, from the parser's own
    actions: each option string of an action that stores one value, its
    subcommand action if it has one, the defaults, and the required actions."""
    actions = parser._actions
    options = {string: action for action in actions
               if type(action) is argparse._StoreAction and action.nargs is None
               for string in action.option_strings}
    commands = next((a for a in actions if isinstance(a, argparse._SubParsersAction)), None)
    defaults = {a.dest: a.default for a in actions if a.default is not argparse.SUPPRESS}
    return options, commands, defaults, frozenset(a for a in actions if a.required)


def _plain_args(argv: Sequence[str]) -> argparse.Namespace | None:
    """The namespace ``_parser().parse_args(argv)`` returns, read in one pass,
    or None where argv is not plainly spelled.

    Plainly spelled is ``COMMAND (--option VALUE)* [ACTION (--option VALUE)*]``
    with each option given in full at its own level.  A VALUE is a token
    argparse reads as one: it does not start with ``-``, or it is a negative
    number.  Each value goes through the action's type and choices, a
    repeated option keeps its last value, and every required option and
    subcommand must be given.  Help, abbreviations, ``--option=value``,
    ``--``, stray tokens and every error return None, so that argparse
    handles them.
    """
    tokens = iter(argv)
    values: dict[str, object] = {}
    parser: argparse.ArgumentParser | None = _parser()
    while parser is not None:
        options, commands, defaults, required = _levels(parser)
        values.update(defaults)
        missing = set(required)
        parser = None
        for token in tokens:
            action = options.get(token)
            if action is None:  # only a subcommand may follow the options
                if commands is None or token not in commands.choices:
                    return None
                values[commands.dest] = token
                missing.discard(commands)
                parser = commands.choices[token]
                break
            value = next(tokens, None)
            if value is None or (value[:1] == "-" and not _NEGATIVE_NUMBER.match(value)):
                return None
            try:
                value = value if action.type is None else action.type(value)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
            values[action.dest] = value
            missing.discard(action)
        if missing:
            return None
    return argparse.Namespace(**values)


def _active_catalog(args: argparse.Namespace) -> tuple[IonRecord, ...]:
    path = getattr(args, "catalog", None)
    if path is None:
        return CATALOG
    try:
        with open(path, "rb") as handle:
            loaded = load_catalog(handle)
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot read catalog: {exc}") from exc
    except CatalogError as exc:
        raise _CliError(EXIT_USAGE, f"invalid catalog: {exc}") from exc
    if not loaded:
        print(f"note: catalog {path} lists no ions; using the embedded catalog",
              file=sys.stderr)
        return CATALOG
    return loaded


def _write_all(files: Sequence[tuple[str, Iterable[str]]]) -> None:
    """Write a set of files whole, or leave the files already there as they are.

    Every file is first staged under a hidden temporary name beside it, and
    only then are all of them moved into place with ``os.replace``.  A target
    that is a directory fails while staging, since its move would fail only
    after others had moved.  On a failure every staged file still under its
    temporary name is removed before the error is raised; the error names the
    file asked for.  A move can still fail after another has succeeded only
    if the directory changes while the set is staged.
    """
    staged = []
    try:
        for path, pieces in files:
            temporary = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.tmp")
            staged.append((temporary, path))
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            with open(temporary, "w", encoding="utf-8", newline="") as handle:
                handle.writelines(pieces)
        for temporary, path in staged:
            os.replace(temporary, path)
    except BaseException as exc:
        for temporary, _ in staged:
            with contextlib.suppress(OSError):
                os.remove(temporary)
        if isinstance(exc, OSError):  # path is the file being staged or moved
            named = OSError(exc.errno, exc.strerror, path)
            raise _CliError(EXIT_IO, f"cannot write {path}: {named}") from exc
        raise


def _emit(path: str | None, pieces: Iterable[str]) -> None:
    """Write the output to stdout, or in place to ``path`` if it is given, so
    a device or symlink named there stays what it is."""
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.writelines(pieces)
        except OSError as exc:
            raise _CliError(EXIT_IO, f"cannot write {path}: {exc}") from exc
        return
    if sys.stdout is None:  # descriptor 1 was closed at start-up
        raise _CliError(EXIT_IO, "cannot write standard output: it is closed")
    try:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
    except OSError as exc:
        # The reader has gone or the device is full.  Point the descriptor
        # at devnull, so the flush at exit does not fail a second time; an
        # in-process stdout without a descriptor (a StringIO) is left as is.
        with contextlib.suppress(OSError, ValueError):
            descriptor = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, descriptor)
            os.close(devnull)
        raise _CliError(EXIT_IO, f"cannot write standard output: {exc}") from exc


def _curve_csv(system: SpinOrbitSystem, args: argparse.Namespace) -> Iterator[str]:
    """The curve CSV: its header line, then one string per kernel chunk.

    The grid is checked here, so a bad one exits 2 before anything is
    written; the rows are computed one kernel chunk at a time and formatted
    only as they are written.
    """
    # A module that computes is imported when a command first computes with
    # it, after the command's argument checks, so that starting the CLI
    # neither compiles nor loads it (nor NumPy).
    try:
        chunks = _thermal()._curve_chunks(system, args.tmin, args.tmax, args.steps)
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc)) from exc
    from ._curve_csv import curve_text

    return itertools.chain((CURVE_HEADER + "\n",), itertools.starmap(curve_text, chunks))


def _ion_system(record: IonRecord, convention: Convention) -> SpinOrbitSystem:
    """System of a catalog ion; rejects a coupled shell without a coupling."""
    if record.zeta is None and record.l.twice != 0:
        raise _CliError(EXIT_ION, f"{record.symbol}: no coupling constant in the catalog")
    return record.system(convention)


def _run_ions(args: argparse.Namespace, catalog: tuple[IonRecord, ...]) -> _Result:
    if args.format == "json":
        return EXIT_OK, [_to_json(catalog)]
    lines = ["symbol,n4f,s,l,j0,deltaE_K,zeta_K,dim"]
    for record in catalog:
        dim = (record.s.twice + 1) * (record.l.twice + 1)
        lines.append(",".join((
            record.symbol,
            str(record.n4f),
            _fmt(record.s.value),
            _fmt(record.l.value),
            _fmt(record.j0.value),
            _fmt_optional(record.delta_e),
            _fmt_optional(record.zeta),
            str(dim),
        )))
    return EXIT_OK, ["\n".join(lines) + "\n"]


def _run_witness(args: argparse.Namespace, catalog: tuple[IonRecord, ...]) -> _Result:
    record = ion_record(args.ion, catalog)
    if record.l.twice == 0:  # the witness cannot probe this ion
        raise _CliError(EXIT_ION, f"{record.symbol}: witness degenerate (l = 0)")
    return EXIT_OK, _curve_csv(_ion_system(record, Convention(args.convention)), args)


def _tolerance(args: argparse.Namespace) -> float:
    if not args.tolerance > 0:
        raise _CliError(EXIT_USAGE, "tolerance must be positive")
    if not math.isfinite(args.tolerance):
        raise _CliError(EXIT_USAGE, "tolerance must be finite")
    return args.tolerance


def _te_rows(records: Sequence[tuple[str, SpinOrbitSystem]], convention_name: str,
             tolerance: float) -> _Result:
    thermal = _thermal()
    code = EXIT_OK
    lines = ["symbol,convention,te_K,reason"]
    for name, system in records:
        result = thermal.entanglement_temperature(system, tolerance)
        te_text = "none" if result.temperature is None else _fmt(result.temperature)
        lines.append(f"{name},{convention_name},{te_text},{result.status.value}")
        if result.status is thermal.WitnessStatus.ABOVE_CAP:
            code = EXIT_VERIFY
    return code, ["\n".join(lines) + "\n"]


def _run_te(args: argparse.Namespace, catalog: tuple[IonRecord, ...]) -> _Result:
    tolerance = _tolerance(args)
    convention = Convention(args.convention)
    records = catalog if args.ion.strip().lower() == "all" else [ion_record(args.ion, catalog)]
    pairs = [(record.symbol, _ion_system(record, convention)) for record in records]
    return _te_rows(pairs, args.convention, tolerance)


_PLOT_SCRIPT = '''#!/usr/bin/env python3
"""Render the witness curves emitted alongside this script."""
import csv
import os.path

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

HERE = os.path.dirname(os.path.abspath(__file__))
CURVES = %r

fig, ax = plt.subplots(figsize=(7.5, 5.0))
for symbol, filename in CURVES:
    temperatures, values = [], []
    with open(os.path.join(HERE, filename), newline="") as handle:
        for row in csv.DictReader(handle):
            temperatures.append(float(row["T_K"]))
            values.append(float(row["witness_K"]))
    ax.plot(temperatures, values, label=symbol)
ax.axhline(0.0, color="black", linewidth=0.8, linestyle="--")
ax.set_xlabel("T (K)")
ax.set_ylabel("witness (K)")
ax.set_title("Thermal spin-orbit entanglement witness")
ax.legend(loc="lower right")
fig.tight_layout()
target = os.path.join(HERE, "figure1.png")
fig.savefig(target, dpi=200)
print(target)
'''


def _run_figure1(args: argparse.Namespace, catalog: tuple[IonRecord, ...]) -> _Result:
    convention = Convention(args.convention)
    light = [r for r in catalog if r.light and r.zeta is not None]
    curves = [(record.symbol, f"figure1_{record.symbol}.csv") for record in light]
    # each _curve_csv checks the grid, so a bad one exits 2 before the directory is made
    files = [(os.path.join(args.outdir, filename), _curve_csv(record.system(convention), args))
             for record, (_, filename) in zip(light, curves)]
    files.append((os.path.join(args.outdir, "plot_figure1.py"), [_PLOT_SCRIPT % (curves,)]))
    try:
        os.makedirs(args.outdir, exist_ok=True)
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot create output directory: {exc}") from exc
    _write_all(files)
    return EXIT_OK, [path + "\n" for path, _ in files]


def _run_custom(args: argparse.Namespace, catalog: tuple[IonRecord, ...]) -> _Result:
    if args.two_s < 0 or args.two_l < 0:
        raise _CliError(EXIT_USAGE, "doubled quantum numbers must be non-negative")
    if max(args.two_s, args.two_l) > MAX_TWICE:
        raise _CliError(EXIT_USAGE, "doubled quantum numbers must not exceed 2**53")
    if min(args.two_s, args.two_l) + 1 > MAX_LEVELS:
        raise _CliError(EXIT_USAGE, f"the shell has more than {MAX_LEVELS} levels")
    if not math.isfinite(args.zeta):
        raise _CliError(EXIT_USAGE, "coupling must be finite")
    try:
        system = SpinOrbitSystem(
            HalfInt(args.two_s), HalfInt(args.two_l), args.zeta,
            Convention(args.convention),
        )
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc)) from exc
    if args.action == "witness":
        return EXIT_OK, _curve_csv(system, args)
    return _te_rows([("custom", system)], args.convention, _tolerance(args))


def _run_verify(args: argparse.Namespace, catalog: tuple[IonRecord, ...]) -> _Result:
    if args.samples < 1:
        raise _CliError(EXIT_USAGE, "samples must be at least 1")
    if args.seed < 0:
        raise _CliError(EXIT_USAGE, "seed must be non-negative")
    from . import dense
    from .checks import verify_catalog

    try:
        checks = verify_catalog(catalog, args.seed, args.samples)
    except dense.ConvergenceError as exc:
        # an eigensolver that does not converge fails verify, without a traceback
        raise _CliError(EXIT_VERIFY, str(exc)) from exc
    all_ok = all(check.passed for check in checks)
    lines = [f"{name}: {'pass' if ok else 'fail'} {key}={_fmt(value)}"
             for name, ok, key, value in checks]
    lines.append(f"verify: {'pass' if all_ok else 'fail'}")
    return (EXIT_OK if all_ok else EXIT_VERIFY), ["\n".join(lines) + "\n"]


_RUNNERS = {
    "ions": _run_ions,
    "witness": _run_witness,
    "te": _run_te,
    "figure1": _run_figure1,
    "verify": _run_verify,
    "custom": _run_custom,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        if argv is None:
            argv = sys.argv[1:]
        args = _plain_args(argv)
        if args is None:
            args = _parser().parse_args(argv)
        output = getattr(args, "output", None)
        if output is None:
            _emit(None, ())  # exits 4 at once if stdout was closed at start-up
        code, pieces = _RUNNERS[args.command](args, _active_catalog(args))
        _emit(output, pieces)
        return code
    except _CliError as error:
        print(f"error: {error}", file=sys.stderr)
        return error.code
    except UnknownIonError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ION


def run() -> None:
    sys.exit(main())
