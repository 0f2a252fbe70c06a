"""Run a fixed battery of command lines against one checkout of the package
and print one JSON line per run, or compare the CLI of two checkouts:

    python3 tests/cli_battery.py CHECKOUT > lines.jsonl
    python3 tests/cli_battery.py OLD_CHECKOUT NEW_CHECKOUT

Given two checkouts, it runs each case on both and prints only the lines that
differ, the old line above the new one; it exits 1 if any line differs and 0
if none does.

Each case runs ``python -m sowitness`` with ``PYTHONPATH=<checkout>/src`` in
a fresh working directory, three times: with stdout on a pipe, on
``/dev/full`` and closed.  A line holds the argv, the stdout mode, the exit
code, the sha256 of stdout, the stderr text and the sha256 of each file the
run left in its working directory.  In argv, ``{out}`` is that directory and
``{catalog:NAME}`` one of the catalogs below, written from the checkout's own
``ions --format json``.  In stdout and stderr those paths and the checkout
read as ``<out>``, ``<catalogs>`` and ``<checkout>``.  In stderr a source
line number reads as ``<line>``, and the source line that a warning quotes is
dropped, so an edit that only moves or rewords a line does not show as a
change.

Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterator

CASES = [
    [],
    ["--help"],
    ["te", "--help"],
    ["custom", "--help"],
    ["bogus"],
    ["ions"],
    ["ions", "--format", "json"],
    ["ions", "--output", "{out}/ions.csv"],
    ["ions", "--catalog", "{catalog:malformed}"],
    ["ions", "--catalog", "{catalog:empty}"],
    ["ions", "--catalog", "{out}/missing.json"],
    ["witness", "--ion", "Ce"],
    ["witness", "--ion", "Eu", "--convention", "multiplet", "--steps", "3000"],
    ["witness", "--ion", "Tb", "--steps", "50"],
    # W(0) = 0 for a heavy ion: the witness is its excitation mean, not a rounded 0
    ["witness", "--ion", "Tb", "--convention", "multiplet", "--tmin", "5", "--tmax", "20",
     "--steps", "4"],
    ["witness", "--ion", "Gd"],
    ["witness", "--ion", "Xx"],
    ["witness", "--ion", "Ce", "--tmin", "0"],
    ["witness", "--ion", "Ce", "--steps", "1"],
    ["witness", "--ion", "Ce", "--tmin", "1", "--tmax", "1.000000000001", "--steps", "100000"],
    ["witness", "--ion", "Ce", "--output", "{out}/ce.csv"],
    ["witness", "--ion", "Ce", "--output", "{out}/missing/ce.csv"],
    ["te"],
    ["te", "--convention", "multiplet"],
    ["te", "--ion", "Ce", "--tolerance", "1e-20"],
    ["te", "--ion", "Xx"],
    ["te", "--tolerance", "0"],
    ["te", "--tolerance", "inf"],
    ["te", "--output", "{out}/te.csv"],
    ["figure1", "--outdir", "{out}/fig"],
    ["figure1", "--outdir", "{out}/fig", "--convention", "multiplet", "--steps", "50"],
    ["figure1", "--outdir", "{catalog:empty}"],
    ["verify", "--samples", "100"],
    # one and two states: a batch of one evaluates as a row of any batch
    ["verify", "--samples", "1"],
    ["verify", "--seed", "9", "--samples", "2"],
    ["verify", "--seed", "3", "--samples", "100"],
    ["verify", "--samples", "1024"],
    ["verify", "--samples", "1025"],
    ["verify", "--seed", "5", "--samples", "2049"],
    ["verify", "--seed", "-1"],
    ["verify", "--samples", "50", "--catalog", "{catalog:corrupted}"],
    ["custom", "--two-s", "1", "--two-l", "1", "--zeta", "1", "te"],
    ["custom", "--two-s", "1", "--two-l", "1", "--zeta", "1", "te", "--convention", "level"],
    ["custom", "--two-s", "1", "--two-l", "1", "--zeta", "1", "te", "--tolerance", "1e-300"],
    ["custom", "--two-s", "0", "--two-l", "6", "--zeta", "100", "te"],
    ["custom", "--two-s", "6", "--two-l", "6", "--zeta", "500", "te", "--convention", "level"],
    ["custom", "--two-s", "5", "--two-l", "12", "--zeta", "900", "te"],
    ["custom", "--two-s", "5", "--two-l", "12", "--zeta", "-900", "te"],
    ["custom", "--two-s", "5", "--two-l", "12", "--zeta", "1e308", "te"],
    ["custom", "--two-s", "5", "--two-l", "12", "--zeta", "-1e308", "te"],
    ["custom", "--two-s", "5", "--two-l", "12", "--zeta", "-1e200", "te"],
    ["custom", "--two-s", "5", "--two-l", "12", "--zeta", "1e-300", "te"],
    ["custom", "--two-s", "1", "--two-l", "2", "--zeta", "1e12", "te"],
    ["custom", "--two-s", "1", "--two-l", "2", "--zeta", "1e308", "te"],
    ["custom", "--two-s", "1", "--two-l", "2", "--zeta", "1e-200", "te", "--tolerance", "1e-300"],
    ["custom", "--two-s", "400", "--two-l", "500", "--zeta", "100", "te", "--convention", "level"],
    ["custom", "--two-s", str(2**53), "--two-l", "1", "--zeta", "1", "te"],
    ["custom", "--two-s", "9007199254740990", "--two-l", "19", "--zeta", "3.7", "te"],
    ["custom", "--two-s", str(2**53 + 1), "--two-l", "1", "--zeta", "1", "te"],
    ["custom", "--two-s", "-1", "--two-l", "1", "--zeta", "1", "te"],
    ["custom", "--two-s", "1", "--two-l", "1", "--zeta", "inf", "te"],
    ["custom", "--two-s", "1", "--two-l", "1", "--zeta", "0", "te"],
    ["custom", "--two-s", "1", "--two-l", "6", "--zeta", "900", "witness", "--steps", "100"],
    # s l = 0: the witness is +0, never a printed -0
    ["custom", "--two-s", "0", "--two-l", "2", "--zeta", "5", "witness", "--steps", "2"],
    ["custom", "--two-s", "1", "--two-l", "2", "--zeta", "1e308", "witness", "--steps", "5"],
    ["custom", "--two-s", "1", "--two-l", "2", "--zeta", "-1e308", "witness", "--steps", "5"],
    ["te", "--catalog", "{catalog:yb_huge}"],
    ["te", "--catalog", "{catalog:ce_huge}"],
    ["te", "--catalog", "{catalog:ce_above_cap}"],
    ["witness", "--ion", "Ce", "--steps", "5", "--catalog", "{catalog:ce_huge}"],
    ["verify", "--samples", "50", "--catalog", "{catalog:ce_huge}"],
    ["verify", "--samples", "50", "--catalog", "{catalog:yb_huge}"],
    ["verify", "--samples", "50", "--catalog", "{catalog:ce_above_cap}"],
    ["verify", "--samples", "50", "--catalog", "{catalog:ce_uncoupled}"],
    # no coupled ion: the five route checks fail, having nothing to compare
    ["verify", "--samples", "50", "--catalog", "{catalog:gd_only}"],
    ["te", "--ion", "Ce", "--catalog", "{catalog:ce_uncoupled}"],
    ["figure1", "--outdir", "{out}/fig", "--steps", "20", "--catalog", "{catalog:ce_uncoupled}"],
    ["te", "--catalog", "{catalog:ce_int_beyond_float}"],
    ["te", "--catalog", "{catalog:ce_int_of_5000_digits}"],
    ["te", "--catalog", "{catalog:nested_1e5_deep}"],
    ["custom", "--two-s", "1", "--two-l", "6", "--zeta", "1e150", "witness",
     "--tmin", "1e140", "--tmax", "1e160", "--steps", "7"],
    ["custom", "--two-s", "1", "--two-l", "6", "--zeta", "1e-150", "witness",
     "--tmin", "1e-160", "--tmax", "1e-140", "--steps", "7"],
    ["witness", "--ion", "Ce", "--tmin", "1e-05", "--tmax", "0.0001", "--steps", "5"],
    ["witness", "--ion", "Ce", "--tmin", "999999", "--tmax", "1000001", "--steps", "5"],
    ["custom", "--two-s", "2000000", "--two-l", "2000000", "--zeta", "1", "te"],
    ["verify", "--samples", "0"],
    ["custom", "--two-s", "3000", "--two-l", "3000", "--zeta", "100", "te"],
    ["custom", "--two-s", "3000", "--two-l", "3000", "--zeta", "100", "te",
     "--convention", "level", "--tolerance", "1e-9"],
    ["custom", "--two-s", "40", "--two-l", "60", "--zeta", "100", "witness", "--steps", "5000"],
    # 40 001 levels: every kernel chunk of the curve is a single row
    ["custom", "--two-s", "40000", "--two-l", "40000", "--zeta", "1", "witness", "--steps", "3"],
    # 8 levels: the 31-row bracket grid holds more temperatures than levels
    ["custom", "--two-s", "7", "--two-l", "7", "--zeta", "0.25", "te", "--convention", "level",
     "--tolerance", "1e-9"],
    ["custom", "--two-s", "20", "--two-l", "30", "--zeta", "500", "witness", "--steps", "200"],
    # every x/T of the 21-level chunk overflows to -inf while x^2 stays finite
    ["custom", "--two-s", "20", "--two-l", "30", "--zeta", "1e148", "witness",
     "--tmin", "1e-300", "--tmax", "1e-290", "--steps", "40"],
    ["witness", "--ion", "Eu", "--steps", "7021"],
    ["witness", "--ion", "Pm", "--convention", "multiplet", "--steps", "7021"],
    ["te", "--catalog", "{catalog:blank_over_1mib}"],
    # the curve formatter's branches: exponent form, fields of 1e+06 and
    # more, exponents below -17, and exact zeros
    ["custom", "--two-s", "1", "--two-l", "2", "--zeta", "1e-9", "witness",
     "--tmin", "1e-12", "--tmax", "1e-9", "--steps", "50"],
    ["custom", "--two-s", "1", "--two-l", "6", "--zeta", "1e7", "witness", "--steps", "50"],
    ["custom", "--two-s", "1", "--two-l", "6", "--zeta", "1e-20", "witness",
     "--tmin", "1e-22", "--tmax", "1e-19", "--steps", "50"],
    ["witness", "--ion", "Yb", "--tmin", "1", "--tmax", "10", "--steps", "50"],
    # the edge between the one-pass parse and argparse: abbreviations, the
    # = form, repeats, dash values, options at the wrong level, values that
    # fail their type or choices, a missing value and an empty one
    ["te", "--tol", "1e-3"],
    ["witness", "--ion", "Ce", "--steps=50"],
    ["witness", "--ion", "Ce", "--steps", "50", "--steps", "60"],
    ["custom", "--two-s", "1", "--two-l", "2", "--zeta", "-1e-3", "witness", "--steps", "5"],
    ["custom", "--two-s", "1", "--two-l", "2", "--zeta", "1", "witness", "--tmin", "-.5e1"],
    ["witness", "--ion", "-x"],
    ["custom", "--two-s", "1", "--two-l", "2", "te", "--zeta", "1"],
    ["te", "--convention", "Level"],
    ["verify", "--seed", "0x10"],
    ["te", "--ion", "Ce", "--catalog"],
    ["witness", "--ion", ""],
]

MODES = ("pipe", "full", "closed")


def catalogs(ions: list[dict]) -> dict[str, str]:
    """The catalog files of the battery, by name, as JSON text."""

    def replaced(symbol: str, **fields) -> str:
        return json.dumps({"ions": [dict(ion, **fields) if ion["symbol"] == symbol else ion
                                    for ion in ions]})

    return {
        "malformed": "{not json",
        "empty": "",
        "corrupted": json.dumps({"ions": [{"symbol": "Ce"}]}),
        "yb_huge": replaced("Yb", zeta_K=-1e308),
        "ce_huge": replaced("Ce", zeta_K=1e308, te_paper_K=None),
        "ce_above_cap": replaced("Ce", zeta_K=1e12),
        "ce_uncoupled": replaced("Ce", zeta_K=None),
        "gd_only": json.dumps({"ions": [ion for ion in ions if ion["symbol"] == "Gd"]}),
        "ce_int_beyond_float": replaced("Ce", zeta_K=10**400),
        # json.dumps cannot write an int of more than 4300 digits
        "ce_int_of_5000_digits": replaced("Ce", zeta_K=0).replace(
            '"zeta_K": 0,', '"zeta_K": ' + "9" * 5000 + ",", 1),
        "nested_1e5_deep": '{"ions": ' + "[" * 10**5 + "]" * 10**5 + "}",
        # one byte over the 1 MiB that --catalog reads; blank, so a reader
        # without the limit takes it for an empty catalog
        "blank_over_1mib": " " * (2**20 + 1),
    }


def run(checkout: Path, argv: list[str], mode: str, catalog_dir: Path) -> dict:
    with tempfile.TemporaryDirectory() as out:
        def expand(arg: str) -> str:
            arg = arg.replace("{out}", out)
            return re.sub(r"\{catalog:(\w+)\}",
                          lambda m: str(catalog_dir / f"{m.group(1)}.json"), arg)

        env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
        command = [sys.executable, "-m", "sowitness", *map(expand, argv)]
        options = dict(cwd=out, env=env, stderr=subprocess.PIPE, timeout=300)
        if mode == "pipe":
            result = subprocess.run(command, stdout=subprocess.PIPE, **options)
        elif mode == "full":
            with open("/dev/full", "wb") as full:
                result = subprocess.run(command, stdout=full, **options)
        else:
            result = subprocess.run(command, preexec_fn=functools.partial(os.close, 1),
                                    **options)
        stdout, stderr = result.stdout, result.stderr
        for path, name in ((out, "<out>"), (str(catalog_dir), "<catalogs>"),
                           (str(checkout), "<checkout>")):
            stdout = stdout and stdout.replace(path.encode(), name.encode())
            stderr = stderr.replace(path.encode(), name.encode())
        stderr = stderr.decode(errors="replace")
        stderr = re.sub(r"(\.py):\d+:( \w*Warning: .*\n)  .*\n", r"\1:<line>:\2", stderr)
        stderr = re.sub(r"(\.py\", line )\d+", r"\1<line>", stderr)
        files = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(Path(out).rglob("*")) if p.is_file()}
    return {
        "argv": argv,
        "mode": mode,
        "exit": result.returncode,
        "stdout_sha256": None if stdout is None else hashlib.sha256(stdout).hexdigest(),
        "stderr": stderr,
        "files": files,
    }


def battery(checkout: Path) -> Iterator[str]:
    """The JSON lines of one checkout, one per case and stdout mode."""
    listing = subprocess.run(
        [sys.executable, "-m", "sowitness", "ions", "--format", "json"],
        env=dict(os.environ, PYTHONPATH=str(checkout / "src")),
        stdout=subprocess.PIPE, check=True, timeout=300)
    ions = json.loads(listing.stdout)["ions"]
    with tempfile.TemporaryDirectory() as catalog_dir:
        for name, text in catalogs(ions).items():
            Path(catalog_dir, f"{name}.json").write_text(text)
        for case in CASES:
            for mode in MODES:
                yield json.dumps(run(checkout, case, mode, Path(catalog_dir)), sort_keys=True)


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print("usage: python3 tests/cli_battery.py CHECKOUT [NEW_CHECKOUT]", file=sys.stderr)
        return 2
    runs = [battery(Path(arg).resolve()) for arg in argv]
    if len(runs) == 1:
        for line in runs[0]:
            print(line, flush=True)
        return 0
    differ = False
    for old, new in zip(*runs):
        if old != new:
            print(old, new, sep="\n", flush=True)
            differ = True
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
