"""The cross-check of the two routes as a library: the records of
``verify_catalog``, the lines ``verify`` prints from them, and a fault aimed
at each route check that fails that check alone."""

import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sowitness import checks, dense
from sowitness.checks import Check, verify_catalog
from sowitness.cli import EXIT_VERIFY, _fmt, main
from sowitness.ions import CATALOG

NAMES = ["hund-rules", "spectrum-equivalence", "trace-equivalence",
         "product-energy-identity", "separable-bound", "reference-te"]
KEYS = ["mismatches", "max_rel_dev", "max_rel_dev", "max_rel_dev", "min_margin_K",
        "max_abs_dev_K"]


def test_check_fields():
    assert Check._fields == ("name", "passed", "key", "value")


def test_records_are_the_printed_lines(capsys):
    """Each record, its value formatted as the CLI formats it, is one line
    of ``verify``; a Generator seeded alike gives the same records."""
    records = verify_catalog(CATALOG, 3, 1000)
    assert [r.name for r in records] == NAMES
    assert [r.key for r in records] == KEYS
    assert main(["verify", "--seed", "3"]) == 0
    lines = [f"{r.name}: {'pass' if r.passed else 'fail'} {r.key}={_fmt(r.value)}"
             for r in records]
    assert capsys.readouterr().out == "\n".join(lines + ["verify: pass"]) + "\n"
    assert verify_catalog(CATALOG, np.random.default_rng(3), 1000) == records


def test_no_coupled_ion_fails_the_route_checks(capsys, tmp_path):
    """Only Gd, which has no coupling: hund-rules passes, and the five route
    checks, which compared nothing, fail with the values of no ion at all;
    ``verify`` prints them and exits 1."""
    gd = [r for r in CATALOG if r.symbol == "Gd"]
    assert gd[0].zeta is None
    records = tuple(map(Check, NAMES, [True] + [False] * 5, KEYS,
                        [0, 0.0, 0.0, 0.0, np.inf, 0.0]))
    assert verify_catalog(gd, 1, 10) == records
    assert main(["ions", "--format", "json"]) == 0
    ions = json.loads(capsys.readouterr().out)["ions"]
    path = tmp_path / "gd.json"
    path.write_text(json.dumps({"ions": [ion for ion in ions if ion["symbol"] == "Gd"]}))
    assert main(["verify", "--samples", "10", "--catalog", str(path)]) == EXIT_VERIFY
    lines = [f"{r.name}: {'pass' if r.passed else 'fail'} {r.key}={_fmt(r.value)}"
             for r in records]
    assert capsys.readouterr().out == "\n".join(lines + ["verify: fail"]) + "\n"


def test_no_sample_fails_the_sampled_checks():
    """With zero samples the two checks over product states, which saw no
    state, fail with the values of no state; the other four are as with
    samples."""
    empty = {"product-energy-identity": 0.0, "separable-bound": np.inf}
    for record, sampled in zip(verify_catalog(CATALOG, 1, 0), verify_catalog(CATALOG, 1, 10)):
        if record.name in empty:
            assert record == Check(record.name, False, record.key, empty[record.name])
        else:
            assert record == sampled


def shifted_level(monkeypatch):
    """The lowest-j multiplet moved by zeta / 8."""
    multiplets = checks.multiplets

    def wrong(system):
        first, *rest = multiplets(system)
        return (dataclasses.replace(first, energy=first.energy + system.zeta / 8), *rest)

    monkeypatch.setattr(checks, "multiplets", wrong)


def scaled_trace(monkeypatch):
    """The dense Gibbs mean energy scaled by 1 + 1e-9."""
    mean = dense.thermal_mean_energy
    monkeypatch.setattr(dense, "thermal_mean_energy",
                        lambda system, temperature: mean(system, temperature) * (1 + 1e-9))


def evaluated_as(spin_factor, orbital_factor, energy_factor):
    """Product states whose Bloch vectors and energies are scaled."""
    def fault(monkeypatch):
        evaluate = dense._evaluate

        def scaled(system, spin, orbital):
            batch = evaluate(system, spin, orbital)
            return dense.ProductStateBatch(spin_factor * batch.spin_vectors,
                                           orbital_factor * batch.orbital_vectors,
                                           energy_factor * batch.energies)

        monkeypatch.setattr(dense, "_evaluate", scaled)
    return fault


FAULTS = {
    "spectrum-equivalence": shifted_level,
    "trace-equivalence": scaled_trace,
    "product-energy-identity": evaluated_as(1.0, 1.0, 1 + 1e-8),
    # the identity stays exact, and the energies fall below the floor
    "separable-bound": evaluated_as(2.0, 2.0, 4.0),
}


def assert_verify_fails_only(name, capsys):
    assert main(["verify", "--samples", "100"]) == EXIT_VERIFY
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == NAMES + ["verify"]
    assert [line.split()[1] for line in lines] == [
        "fail" if check == name else "pass" for check in NAMES] + ["fail"]


@pytest.mark.parametrize("name", FAULTS)
def test_a_fault_fails_only_its_check(name, capsys, monkeypatch):
    FAULTS[name](monkeypatch)
    assert_verify_fails_only(name, capsys)


def test_an_energy_band_fault_fails_only_the_identity(capsys, monkeypatch):
    """The S.L band that the energy evaluator reads, scaled by 1 + 1e-6: the
    Bloch vectors read the ladders and do not see it, so the energies are no
    longer zeta <S>.<L>.  The shell solves are cached first, so the spectrum
    keeps the true band."""
    for record in CATALOG:
        if record.zeta is not None:
            dense._shell(record.s.twice, record.l.twice)
    bands = dense._bands

    def scaled(twice_s, twice_l):
        diagonal, band = bands(twice_s, twice_l)
        return diagonal, (1 + 1e-6) * band

    monkeypatch.setattr(dense, "_bands", scaled)
    assert_verify_fails_only("product-energy-identity", capsys)


def test_importing_checks_loads_no_cli():
    code = "import sys, sowitness.checks; print('sowitness.cli' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=120)
    assert (result.stdout, result.stderr) == ("False\n", "")


def fresh_modules(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    script = code + "\nimport sys; print(*sys.modules)"
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


@pytest.mark.parametrize("route, other", [("dense", "thermal"), ("thermal", "dense")])
def test_each_route_imports_without_the_other(route, other):
    """The routes stay independent down to their imports: neither loads the
    other, nor the module that compares them."""
    loaded = fresh_modules(f"import sowitness.{route}")
    assert f"sowitness.{route}" in loaded
    assert {f"sowitness.{other}", "sowitness.checks"} & loaded == set()


STARTS = ["import sowitness", "from sowitness import cli; cli.build_parser()"]
# each with the exit code of cli.main; none of them computes
QUICK_COMMANDS = [
    (["ions"], 0),
    (["ions", "--format", "json"], 0),
    (["--help"], 0),
    (["te", "--ion", "Xx"], 3),
    (["te", "--tolerance", "0"], 2),
    (["custom", "--two-s", "-1", "--two-l", "1", "--zeta", "1", "te"], 2),
    (["verify", "--samples", "0"], 2),
]


def cli_modules(argv: list[str]) -> tuple[int, set[str]]:
    """The exit code of ``cli.main(argv)`` in a fresh interpreter, and the
    modules it holds afterwards; what the command prints is discarded."""
    loaded = fresh_modules(
        "import contextlib, io\n"
        "from sowitness import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    try:\n"
        f"        code = cli.main({argv!r})\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "print(f'exit:{code}')")
    code, = (int(name[len("exit:"):]) for name in loaded if name.startswith("exit:"))
    return code, loaded


@pytest.mark.parametrize("code", STARTS)
def test_starting_loads_no_numpy(code):
    assert "numpy" not in fresh_modules(code)


@pytest.mark.parametrize("argv, code", QUICK_COMMANDS,
                         ids=[" ".join(argv) for argv, _ in QUICK_COMMANDS])
def test_commands_that_compute_nothing_load_no_numpy(argv, code):
    exit_code, loaded = cli_modules(argv)
    assert exit_code == code
    assert "numpy" not in loaded


CLOSED_FORM_COMMANDS = [
    ["te", "--ion", "Ce"],
    ["witness", "--ion", "Ce", "--steps", "2"],
    ["custom", "--two-s", "1", "--two-l", "6", "--zeta", "900", "te"],
    ["custom", "--two-s", "1", "--two-l", "6", "--zeta", "900", "witness", "--steps", "2"],
    ["figure1", "--steps", "2", "--outdir", "{tmp}"],
]


@pytest.mark.parametrize("argv", CLOSED_FORM_COMMANDS, ids=" ".join)
def test_closed_form_commands_load_only_their_route(tmp_path, argv):
    code, loaded = cli_modules([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    assert code == 0
    assert "sowitness.thermal" in loaded
    assert {"sowitness.dense", "sowitness.checks"} & loaded == set()
    # the curve commands format their rows with _curve_csv; te has no rows to format
    assert ("sowitness._curve_csv" in loaded) is ("te" not in argv)


def test_readme_example_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    code, = [block for block in re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
             if "verify_catalog" in block]
    exec(compile(code, "README.md", "exec"), {})
