import argparse
import functools
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import sowitness
from sowitness import cli, dense, ions, thermal
from sowitness.angular import Convention, HalfInt, multiplets
from sowitness.cli import CURVE_HEADER, main
from sowitness.ions import CATALOG, ion_record, load_catalog

from curve_csv import parse_witness_csv

TE_TABLE = {"Ce": 1758.0, "Pr": 1851.0, "Nd": 1904.0, "Pm": 2008.0,
            "Sm": 1975.0, "Eu": 3295.0}
LIGHT = ["Ce", "Pr", "Nd", "Pm", "Sm", "Eu"]
HEAVY = ["Tb", "Dy", "Ho", "Er", "Tm", "Yb"]


def run_cli(*args, cwd=None, env=None, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "sowitness", *args],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=timeout,
    )


def crossings(rows):
    """Interpolated zero crossings of parsed (T, mean, witness) rows."""
    found = []
    for (t0, _, w0), (t1, _, w1) in zip(rows, rows[1:]):
        if w0 < 0.0 <= w1 or w1 < 0.0 <= w0:
            found.append(t0 + (t1 - t0) * w0 / (w0 - w1))
    return found


class TestIons:
    def test_csv_table(self):
        result = run_cli("ions")
        assert result.returncode == 0
        lines = result.stdout.strip().splitlines()
        assert lines[0] == "symbol,n4f,s,l,j0,deltaE_K,zeta_K,dim"
        assert len(lines) == 14
        assert lines[1] == "Ce,1,0.5,3,2.5,3150,900,14"
        assert lines[7].startswith("Gd,7,3.5,0,3.5,43200,,")

    def test_json_round_trips_through_catalog_loader(self):
        result = run_cli("ions", "--format", "json")
        assert result.returncode == 0
        assert load_catalog(result.stdout) == CATALOG
        document = json.loads(result.stdout)
        assert len(document["ions"]) == 13

    def test_malformed_catalog_exits_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("definitely not json")
        result = run_cli("ions", "--catalog", str(bad))
        assert result.returncode == 2
        assert "JSON" in result.stderr

    def test_missing_catalog_exits_4(self):
        result = run_cli("ions", "--catalog", "/nonexistent/catalog.json")
        assert result.returncode == 4

    def test_empty_catalog_falls_back_to_embedded(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        result = run_cli("ions", "--catalog", str(empty))
        assert result.returncode == 0
        assert len(result.stdout.strip().splitlines()) == 14

    @pytest.mark.parametrize("content", ["", '{"ions": []}'])
    def test_empty_catalog_fallback_is_announced_on_stderr(self, tmp_path, content):
        empty = tmp_path / "empty.json"
        empty.write_text(content)
        embedded = run_cli("ions")
        result = run_cli("ions", "--catalog", str(empty))
        assert result.returncode == 0
        assert result.stdout == embedded.stdout
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        assert str(empty) in lines[0] and "embedded catalog" in lines[0]
        assert embedded.stderr == ""

    def test_custom_catalog_subset(self, tmp_path):
        doc = {"ions": [{"symbol": "Ce", "n4f": 1, "deltaE_K": 3150,
                         "zeta_K": 900, "te_paper_K": 1758}]}
        path = tmp_path / "one.json"
        path.write_text(json.dumps(doc))
        result = run_cli("ions", "--catalog", str(path))
        assert result.returncode == 0
        assert len(result.stdout.strip().splitlines()) == 2

    def test_output_file_matches_stdout(self, tmp_path):
        to_stdout = run_cli("ions")
        out = tmp_path / "ions.csv"
        to_file = run_cli("ions", "--output", str(out))
        assert to_file.returncode == 0
        assert out.read_text() == to_stdout.stdout

    def test_unwritable_output_exits_4(self, tmp_path):
        blocker = tmp_path / "blocker.txt"
        blocker.write_text("x")
        result = run_cli("ions", "--output", str(blocker / "out.csv"))
        assert result.returncode == 4


class TestWitness:
    def test_europium_curve_brackets_table_te(self):
        result = run_cli("witness", "--ion", "Eu", "--tmin", "1", "--tmax", "6000",
                         "--steps", "600", "--convention", "level")
        assert result.returncode == 0
        lines = result.stdout.strip().splitlines()
        assert lines[0] == CURVE_HEADER
        rows = parse_witness_csv(result.stdout)
        assert len(rows) == 600
        found = crossings(rows)
        assert len(found) == 1
        assert 3290.0 < found[0] < 3300.0

    def test_rows_satisfy_curve_invariants(self):
        result = run_cli("witness", "--ion", "Eu", "--steps", "40")
        rows = parse_witness_csv(result.stdout)
        temps = [t for t, _, _ in rows]
        assert all(b > a for a, b in zip(temps, temps[1:]))
        bound = 4500.0  # |zeta| s l for Eu
        for _, mean, witness in rows:
            slack = 5e-6 * (abs(mean) + bound + abs(witness))
            assert abs(witness - (mean + bound)) <= slack

    def test_gadolinium_rejected(self):
        result = run_cli("witness", "--ion", "Gd")
        assert result.returncode == 3
        assert "witness degenerate (l = 0)" in result.stderr

    def test_unknown_ion_rejected(self):
        result = run_cli("witness", "--ion", "La")
        assert result.returncode == 3
        assert "unknown ion" in result.stderr

    def test_terbium_never_negative(self):
        result = run_cli("witness", "--ion", "Tb", "--tmin", "1",
                         "--tmax", "10000", "--steps", "500")
        assert result.returncode == 0
        assert all(w >= 0.0 for _, _, w in parse_witness_csv(result.stdout))

    @pytest.mark.parametrize("flags", [
        ("witness", "--ion", "Ce", "--steps", "1"),
        ("witness", "--ion", "Ce", "--tmin", "-5"),
        ("witness", "--ion", "Ce", "--tmin", "100", "--tmax", "50"),
        ("witness", "--ion", "Ce", "--steps", "100000000000000000000"),
        ("witness", "--ion", "Ce", "--tmin", "1", "--tmax", "1.000000000001",
         "--steps", "100000"),
        # more than cli.MAX_LEVELS levels, rejected before any work
        ("custom", "--two-s", "20000000", "--two-l", "20000000", "--zeta", "1", "te"),
        ("custom", "--two-s", "1000000", "--two-l", "1000000", "--zeta", "1",
         "witness", "--steps", "2"),
        # 2s above cli.MAX_TWICE, where s is no longer an exact float
        ("custom", "--two-s", "1" + "0" * 400, "--two-l", "2", "--zeta", "1", "te"),
        ("custom", "--two-s", str(2**53 + 1), "--two-l", "2", "--zeta", "1", "te"),
        # tmax * (steps - 1) overflows in the grid arithmetic
        ("custom", "--two-s", "1", "--two-l", "2", "--zeta", "1",
         "witness", "--tmin", "1e-320", "--tmax", "1e308", "--steps", "3"),
    ])
    def test_bad_flags_exit_2(self, flags):
        result = run_cli(*flags)
        assert result.returncode == 2
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("error: ")

    def test_largest_level_count_runs(self):
        result = run_cli("custom", "--two-s", "999999", "--two-l", "999999", "--zeta", "1",
                         "witness", "--steps", "2")
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[1:] == ["1,-2.5e+11,-499999", "6000,-2.5e+11,-494000"]

    def test_tiny_tmin_warns_nothing(self, capsys):
        # T = 1e-320 makes the exponent -x/T overflow to -inf: a weight of
        # exactly 0, with no RuntimeWarning on stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["witness", "--ion", "Ce", "--tmin", "1e-320", "--tmax", "1",
                         "--steps", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines() == [
            CURVE_HEADER, "9.99989e-321,-1800,-450", "0.5,-1800,-450", "1,-1800,-450"]

    def test_overflowing_grid_exits_2(self, capsys):
        # the grid once overflowed to inf, with a RuntimeWarning, and its last
        # row read T = 5e+307 instead of 1e+308
        assert main(["custom", "--two-s", "1", "--two-l", "2", "--zeta", "1", "witness",
                     "--tmin", "1e-320", "--tmax", "1e308", "--steps", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 3 steps up to tmax=1e+308 overflow the float range\n"

    def test_byte_determinism(self):
        args = ("witness", "--ion", "Ce", "--steps", "50")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    @pytest.mark.parametrize("convention", ["level", "multiplet"])
    @pytest.mark.parametrize("ion", LIGHT)
    def test_chunk_size_leaves_output_unchanged(self, capsys, monkeypatch, ion, convention):
        """Kernel chunks of 5 or 7 rows and row blocks of 1 or 7 rows give
        the bytes of the default sizes."""
        argv = ["witness", "--ion", ion, "--convention", convention, "--steps", "3000"]
        assert main(argv) == 0
        default = capsys.readouterr().out
        system = ion_record(ion).system(Convention(convention))
        levels = len(multiplets(system))
        for module, name, value in ((cli, "_ROW_BLOCK", 1), (cli, "_ROW_BLOCK", 7),
                                    (thermal, "_KERNEL_ELEMENTS", 5 * levels),
                                    (thermal, "_KERNEL_ELEMENTS", 7 * levels)):
            with monkeypatch.context() as patch:
                patch.setattr(module, name, value)
                if module is thermal:
                    assert thermal._LevelTable(system).chunk_rows == value // levels
                assert main(argv) == 0
                assert capsys.readouterr().out == default, (name, value)

    def test_block_rows_are_the_fmt_of_each_field(self):
        values = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
                  1e308, 0.1, 999999.5, 9999995.0, 1.0, -1e-320]
        # every value in every column, with the other two columns shifted
        t = np.array(values)
        mean, w = np.roll(t, 1), np.roll(t, 2)
        lines = "".join(cli._curve_blocks([(t, None, mean, w)])).splitlines()
        assert lines == [",".join(map(cli._fmt, row)) for row in zip(t, mean, w)]
        assert lines[0] == "-0,-9.99989e-321,1"
        assert lines[3:5] == ["nan,-inf,inf", "4.94066e-324,nan,-inf"]
        assert lines[9] == "1e+07,1e+06,0.1"

    @pytest.mark.parametrize("steps,kernel_rows,chunks,pieces", [
        (2, None, 1, 2), (1023, None, 1, 2), (1024, None, 1, 2), (1025, None, 1, 3),
        (3000, None, 1, 4), (3000, 1500, 2, 5), (40000, None, 3, 41),
    ])
    def test_one_string_per_block_of_rows(self, monkeypatch, steps, kernel_rows, chunks,
                                          pieces):
        """The header, then ceil(rows / _ROW_BLOCK) strings per kernel chunk."""
        system = ion_record("Nd").system(Convention("level"))  # 4 levels
        if kernel_rows is not None:
            monkeypatch.setattr(thermal, "_KERNEL_ELEMENTS", kernel_rows * 4)
        sizes = [len(t) for t, *_ in thermal._curve_chunks(system, 1.0, 6000.0, steps)]
        assert len(sizes) == chunks
        args = argparse.Namespace(tmin=1.0, tmax=6000.0, steps=steps)
        emitted = list(cli._curve_csv(system, args))
        assert len(emitted) == pieces == 1 + sum(-(-n // cli._ROW_BLOCK) for n in sizes)
        assert emitted[0] == CURVE_HEADER + "\n"
        assert "".join(emitted).count("\n") == steps + 1

    def test_peak_memory_does_not_grow_with_steps(self, tmp_path):
        """The CSV is streamed: 2*10^6 rows peak within 12 MiB of 10^3 rows.

        The rise is the kernel's temporaries for one chunk of 2^16 weights
        plus one block of formatted rows; a curve held whole reads +780 MB.
        """
        script = ("import resource, sys\n"
                  "from sowitness.cli import main\n"
                  "code = main(['witness', '--ion', 'Ce', '--steps', sys.argv[1],"
                  " '--output', sys.argv[2]])\n"
                  "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
                  "sys.exit(code)\n")
        peaks = []
        for steps in ("1000", "2000000"):
            target = tmp_path / f"ce_{steps}.csv"
            result = subprocess.run([sys.executable, "-c", script, steps, str(target)],
                                    capture_output=True, text=True, timeout=120)
            assert result.returncode == 0, result.stdout + result.stderr
            peaks.append(int(result.stdout.splitlines()[-1]))  # KiB on Linux
            with open(target, "rb") as handle:
                assert sum(1 for _ in handle) == int(steps) + 1
        assert peaks[1] - peaks[0] <= 12 * 1024, peaks

    def test_bad_grid_creates_no_output_file(self, tmp_path):
        target = tmp_path / "f.csv"
        result = run_cli("witness", "--ion", "Ce", "--steps", "1", "--output", str(target))
        assert result.returncode == 2
        assert result.stderr == "error: a curve needs at least 2 steps, got 1\n"
        assert not target.exists()

    def test_closed_reader_exits_4(self, tmp_path):
        """A reader that leaves mid-stream (witness) or before the first
        line (verify, figure1) gives one error line and exit 4."""
        for argv in (["witness", "--ion", "Ce", "--steps", "200000"],
                     ["verify", "--samples", "20"],
                     ["figure1", "--steps", "50", "--outdir", str(tmp_path)]):
            read_end, write_end = os.pipe()
            streamed = argv[0] == "witness"
            if not streamed:
                os.close(read_end)
            process = subprocess.Popen([sys.executable, "-m", "sowitness", *argv],
                                       stdout=write_end, stderr=subprocess.PIPE, text=True)
            os.close(write_end)
            if streamed:
                with os.fdopen(read_end) as reader:
                    assert reader.readline() == CURVE_HEADER + "\n"
            stderr = process.stderr.read()
            process.stderr.close()
            assert process.wait(timeout=60) == 4, argv
            assert stderr == "error: cannot write standard output: [Errno 32] Broken pipe\n"

    def test_parse_rejects_foreign_header(self):
        with pytest.raises(ValueError):
            parse_witness_csv("a,b,c\n1,2,3\n")


class TestTe:
    def test_table_reproduction(self):
        result = run_cli("te", "--ion", "all", "--convention", "level")
        assert result.returncode == 0
        lines = result.stdout.strip().splitlines()
        assert lines[0] == "symbol,convention,te_K,reason"
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert len(rows) == 13
        for symbol, expected in TE_TABLE.items():
            _, convention, te_text, reason = rows[symbol]
            assert convention == "level" and reason == "crossed"
            assert abs(float(te_text) - expected) <= 1.0
        for symbol in HEAVY:
            assert rows[symbol][2] == "none"
            assert rows[symbol][3] == "no-crossing"
        assert rows["Gd"][2] == "none"
        assert rows["Gd"][3] == "witness-degenerate"

    def test_cerium_multiplet_closed_form(self):
        result = run_cli("te", "--ion", "Ce", "--convention", "multiplet")
        assert result.returncode == 0
        te_text = result.stdout.strip().splitlines()[1].split(",")[2]
        assert abs(float(te_text) - 3150.0 / math.log(8.0)) <= 0.01

    def test_unknown_ion_exits_3(self):
        assert run_cli("te", "--ion", "La").returncode == 3

    def test_byte_determinism(self):
        args = ("te", "--ion", "all")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    @pytest.mark.parametrize("args, expected", [
        (("te", "--ion", "Ce", "--tolerance", "1e-20"), "Ce,level,1758.05,crossed"),
        (("custom", "--two-s", "1", "--two-l", "1", "--zeta", "1", "te",
          "--tolerance", "1e-300"), "custom,multiplet,0.910239,crossed"),
    ])
    def test_sub_ulp_tolerance_returns(self, args, expected):
        # A tolerance below the float spacing at T_E once hung the search;
        # the timeout raises if it ever does again.
        result = run_cli(*args, timeout=20)
        assert result.returncode == 0
        assert result.stdout.splitlines()[1] == expected


class TestCustom:
    def test_singlet_triplet_te(self):
        result = run_cli("custom", "--two-s", "1", "--two-l", "1", "--zeta", "1",
                         "te", "--tolerance", "1e-6")
        assert result.returncode == 0
        te_text = result.stdout.strip().splitlines()[1].split(",")[2]
        assert abs(float(te_text) - 1.0 / math.log(3.0)) <= 1e-4

    def test_europium_alias(self):
        result = run_cli("custom", "--two-s", "6", "--two-l", "6", "--zeta", "500",
                         "te", "--convention", "level")
        te_text = result.stdout.strip().splitlines()[1].split(",")[2]
        assert abs(float(te_text) - 3295.0) <= 1.0

    def test_trivial_spin_is_degenerate(self):
        result = run_cli("custom", "--two-s", "0", "--two-l", "6", "--zeta", "100", "te")
        assert result.returncode == 0
        line = result.stdout.strip().splitlines()[1]
        assert line.split(",")[2] == "none"
        assert line.split(",")[3] == "witness-degenerate"

    def test_witness_action(self):
        result = run_cli("custom", "--two-s", "1", "--two-l", "6", "--zeta", "900",
                         "witness", "--tmin", "1", "--tmax", "4000", "--steps", "100")
        assert result.returncode == 0
        rows = parse_witness_csv(result.stdout)
        found = crossings(rows)
        assert len(found) == 1  # this is Ce in disguise

    @pytest.mark.parametrize("flags", [
        ("--two-s", "-1", "--two-l", "1", "--zeta", "1"),
        ("--two-s", "1", "--two-l", "1", "--zeta", "inf"),
        ("--two-s", "1", "--two-l", "1", "--zeta", "0"),
    ])
    def test_malformed_system_exits_2(self, flags):
        assert run_cli("custom", *flags, "te").returncode == 2

    def test_asymptotic_witness_exits_1(self):
        # Unit level weights for s = l = 1/2 push the crossing to infinity;
        # the exact sign of W(infinity) rejects it as a failure.
        result = run_cli("custom", "--two-s", "1", "--two-l", "1", "--zeta", "1",
                         "te", "--convention", "level")
        assert result.returncode == 1
        assert "no zero below" in result.stderr

    def test_zero_above_the_cap_exits_1(self, capsys):
        # W(infinity) > 0, so the zero exists, but near 1e12 K: above the cap.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["custom", "--two-s", "1", "--two-l", "2", "--zeta", "1e12", "te"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "error: witness is still negative at 1e+09 K, the top of the searched "
            "range (its T -> infinity limit is positive, so a zero exists above it)\n"
        )

    def test_huge_coupling_exits_1_above_the_cap(self):
        # W(0) = -zeta/2 < 0 and T_E is near 1e308 K; |zeta| s l once
        # overflowed to inf before its /4 and reported no-crossing.
        result = run_cli("custom", "--two-s", "1", "--two-l", "2", "--zeta", "1e308", "te")
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.splitlines()[-1] == (
            "error: witness is still negative at 1e+09 K, the top of the searched "
            "range (its T -> infinity limit is positive, so a zero exists above it)")

    def test_underflowing_slope_writes_no_stderr(self):
        result = run_cli("custom", "--two-s", "1", "--two-l", "2", "--zeta", "1e-200",
                         "te", "--tolerance", "1e-300", timeout=20)
        assert result.returncode == 0
        assert result.stderr == ""
        assert result.stdout.splitlines()[1] == "custom,multiplet,1.08202e-200,crossed"

    def test_zero_just_below_the_cap(self, capsys):
        # 1.5 zeta / ln 4 = 7.574e8 K, above the last power of two, 2**29 K
        assert main(["custom", "--two-s", "1", "--two-l", "2", "--zeta", "7e8", "te"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "custom,multiplet,7.57415e+08,crossed"

    @pytest.mark.parametrize("convention", ["level", "multiplet"])
    def test_401_level_te_is_fast(self, convention):
        start = time.perf_counter()
        result = run_cli("custom", "--two-s", "400", "--two-l", "500", "--zeta", "100",
                         "te", "--convention", convention, timeout=20)
        elapsed = time.perf_counter() - start
        assert result.returncode == 0
        assert result.stdout.splitlines()[1].endswith(",crossed")
        assert elapsed < 2.0


@pytest.fixture
def catalog_without_ce_coupling(tmp_path):
    """The embedded catalog as a JSON file, with Ce's coupling constant removed."""
    ions = [{"symbol": r.symbol, "n4f": r.n4f, "deltaE_K": r.delta_e,
             "zeta_K": None if r.symbol == "Ce" else r.zeta,
             "te_paper_K": r.te_reference} for r in CATALOG]
    path = tmp_path / "no_ce_zeta.json"
    path.write_text(json.dumps({"ions": ions}))
    return str(path)


class TestMissingCoupling:
    @pytest.mark.parametrize("args", [
        ("witness", "--ion", "Ce"),
        ("te", "--ion", "Ce"),
        ("te", "--ion", "all"),
    ])
    def test_commands_naming_the_ion_exit_3(self, catalog_without_ce_coupling, args):
        result = run_cli(*args, "--catalog", catalog_without_ce_coupling)
        assert result.returncode == 3
        assert result.stdout == ""
        assert result.stderr == "error: Ce: no coupling constant in the catalog\n"

    def test_figure1_skips_the_ion(self, catalog_without_ce_coupling, tmp_path):
        outdir = tmp_path / "out"
        result = run_cli("figure1", "--outdir", str(outdir),
                         "--catalog", catalog_without_ce_coupling)
        assert result.returncode == 0, result.stderr
        csvs = sorted(p.name for p in outdir.glob("figure1_*.csv"))
        assert csvs == sorted(f"figure1_{s}.csv" for s in LIGHT if s != "Ce")

    def test_verify_skips_the_ion(self, catalog_without_ce_coupling):
        result = run_cli("verify", "--samples", "50", "--catalog", catalog_without_ce_coupling)
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout.splitlines()[-1] == "verify: pass"

    def test_bad_tolerance_is_reported_before_ion_lookup(self):
        result = run_cli("te", "--ion", "La", "--tolerance", "0")
        assert result.returncode == 2
        assert result.stderr == "error: tolerance must be positive\n"

    @pytest.mark.parametrize("args", [
        ("te", "--ion", "Ce"),
        ("te", "--ion", "La"),
        ("custom", "--two-s", "1", "--two-l", "6", "--zeta", "900", "te"),
    ])
    @pytest.mark.parametrize("value, message", [
        ("inf", "tolerance must be finite"),
        ("-inf", "tolerance must be positive"),
        ("nan", "tolerance must be positive"),
    ])
    def test_non_finite_tolerance_exits_2(self, capsys, args, value, message):
        # W(2048 K) = +107 K for Ce, yet an infinite tolerance once printed
        # "2048 K crossed".
        assert main([*args, f"--tolerance={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


# One invocation of every command that writes to standard output
STDOUT_COMMANDS = [
    pytest.param(["ions"], id="ions-csv"),
    pytest.param(["ions", "--format", "json"], id="ions-json"),
    pytest.param(["witness", "--ion", "Ce", "--steps", "5"], id="witness-5"),
    pytest.param(["witness", "--ion", "Ce", "--steps", "200000"], id="witness-200000"),
    pytest.param(["te", "--ion", "all"], id="te"),
    pytest.param(["figure1", "--steps", "50", "--outdir", "{tmp}"], id="figure1"),
    pytest.param(["verify", "--samples", "20"], id="verify"),
    pytest.param(["custom", "--two-s", "1", "--two-l", "2", "--zeta", "100", "witness",
                  "--steps", "5"], id="custom-witness"),
    pytest.param(["custom", "--two-s", "1", "--two-l", "2", "--zeta", "100", "te"],
                 id="custom-te"),
]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
class TestFullStdout:
    """A stdout that fails to take the output gives exit 4 and one error line,
    whether it fails on the first write or mid-stream."""

    @pytest.mark.parametrize("argv", STDOUT_COMMANDS)
    def test_exits_4_with_one_line(self, tmp_path, argv):
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        with open("/dev/full", "w") as full:
            result = subprocess.run([sys.executable, "-m", "sowitness", *argv],
                                    stdout=full, stderr=subprocess.PIPE, text=True,
                                    timeout=120)
        assert result.returncode == 4, result.stderr
        assert "Traceback" not in result.stderr
        assert result.stderr.splitlines() == [
            "error: cannot write standard output: [Errno 28] No space left on device"
        ]

    def test_in_process_stdout_without_a_descriptor(self, capsys, monkeypatch):
        class FullBuffer(io.StringIO):
            def write(self, text):
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(sys, "stdout", FullBuffer())
        assert main(["te", "--ion", "Ce"]) == 4
        assert capsys.readouterr().err == (
            "error: cannot write standard output: [Errno 28] No space left on device\n"
        )


def run_with_stdout_closed(*args):
    """Run the CLI with descriptor 1 closed, so Python starts without a stdout."""
    return subprocess.run([sys.executable, "-m", "sowitness", *args],
                          preexec_fn=functools.partial(os.close, 1),
                          stderr=subprocess.PIPE, text=True, timeout=120)


class TestClosedStdout:
    """A stdout closed before start-up (``>&-``) gives exit 4 and one error
    line, not a traceback; ``--output`` does not need it."""

    @pytest.mark.parametrize("argv", STDOUT_COMMANDS)
    def test_exits_4_with_one_line(self, tmp_path, argv):
        result = run_with_stdout_closed(*[a.replace("{tmp}", str(tmp_path)) for a in argv])
        assert result.returncode == 4, result.stderr
        assert "Traceback" not in result.stderr
        assert result.stderr.splitlines() == [
            "error: cannot write standard output: it is closed"
        ]

    def test_in_process_stdout_is_none(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", None)
        assert main(["te", "--ion", "Ce"]) == 4
        assert capsys.readouterr().err == "error: cannot write standard output: it is closed\n"

    @pytest.mark.parametrize("argv", [
        pytest.param(["te", "--ion", "Ce"], id="te"),
        pytest.param(["witness", "--ion", "Ce", "--steps", "5"], id="witness"),
        pytest.param(["ions", "--format", "json"], id="ions-json"),
    ])
    def test_output_file_needs_no_stdout(self, tmp_path, argv):
        target = tmp_path / "out.txt"
        result = run_with_stdout_closed(*argv, "--output", str(target))
        assert (result.returncode, result.stderr) == (0, "")
        assert target.read_text() == run_cli(*argv).stdout


class TestWriteFailures:
    """Every file the CLI writes fails the same way: exit 4, one error line."""

    @staticmethod
    def assert_write_error(result, path):
        assert result.returncode == 4
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: cannot write {path}: ")

    @pytest.mark.parametrize("name", ["figure1_Ce.csv", "plot_figure1.py"])
    def test_figure1_target_is_a_directory(self, tmp_path, name):
        (tmp_path / name).mkdir()
        result = run_cli("figure1", "--outdir", str(tmp_path), "--steps", "20")
        self.assert_write_error(result, tmp_path / name)
        assert result.stdout == ""
        # nothing of the failed run is left: no curve, no temporary file
        assert [p.name for p in tmp_path.iterdir()] == [name]

    def test_witness_output_in_missing_directory(self, tmp_path):
        target = tmp_path / "missing" / "ce.csv"
        result = run_cli("witness", "--ion", "Ce", "--output", str(target))
        self.assert_write_error(result, target)
        assert not target.parent.exists()


class TestFigure1:
    def test_default_run_emits_files(self, tmp_path):
        result = run_cli("figure1", "--outdir", str(tmp_path))
        assert result.returncode == 0
        csvs = sorted(p.name for p in tmp_path.glob("figure1_*.csv"))
        assert csvs == sorted(f"figure1_{s}.csv" for s in LIGHT)
        assert (tmp_path / "plot_figure1.py").exists()
        for name in csvs:
            assert name in result.stdout
        assert "plot_figure1.py" in result.stdout

    def test_each_curve_crosses_once_near_table_value(self, tmp_path):
        run_cli("figure1", "--outdir", str(tmp_path))
        for symbol in LIGHT:
            text = (tmp_path / f"figure1_{symbol}.csv").read_text()
            found = crossings(parse_witness_csv(text))
            assert len(found) == 1, symbol
            assert abs(found[0] - TE_TABLE[symbol]) <= 6.0, symbol

    def test_multiplet_convention_crosses_earlier(self, tmp_path):
        level_dir = tmp_path / "level"
        multi_dir = tmp_path / "multi"
        run_cli("figure1", "--outdir", str(level_dir))
        run_cli("figure1", "--outdir", str(multi_dir), "--convention", "multiplet")
        for symbol in LIGHT:
            level_cross = crossings(parse_witness_csv(
                (level_dir / f"figure1_{symbol}.csv").read_text()))[0]
            multi_cross = crossings(parse_witness_csv(
                (multi_dir / f"figure1_{symbol}.csv").read_text()))[0]
            assert multi_cross < level_cross, symbol

    def test_plot_script_renders(self, tmp_path):
        pytest.importorskip("matplotlib")
        run_cli("figure1", "--outdir", str(tmp_path))
        env = dict(os.environ, MPLBACKEND="Agg")
        result = subprocess.run(
            [sys.executable, "plot_figure1.py"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "figure1.png").exists()

    def test_unwritable_outdir_exits_4(self, tmp_path):
        blocker = tmp_path / "blocker.txt"
        blocker.write_text("x")
        result = run_cli("figure1", "--outdir", str(blocker / "sub"))
        assert result.returncode == 4


class TestVerify:
    def test_default_run_passes(self):
        result = run_cli("verify", "--samples", "300")
        assert result.returncode == 0, result.stdout + result.stderr
        lines = result.stdout.strip().splitlines()
        assert lines[-1] == "verify: pass"
        names = [line.split(":")[0] for line in lines[:-1]]
        assert names == [
            "hund-rules", "spectrum-equivalence", "trace-equivalence",
            "product-energy-identity", "separable-bound", "reference-te",
        ]
        assert all(" pass " in line or line.endswith("pass") for line in lines[:-1])

    def test_seed_changes_minima_not_verdicts(self):
        first = run_cli("verify", "--samples", "300")
        second = run_cli("verify", "--seed", "7", "--samples", "300")
        assert first.returncode == 0 and second.returncode == 0
        bound_one = [l for l in first.stdout.splitlines() if l.startswith("separable")]
        bound_two = [l for l in second.stdout.splitlines() if l.startswith("separable")]
        assert bound_one != bound_two

    def test_chunk_size_leaves_output_unchanged(self, capsys, monkeypatch):
        assert main(["verify", "--seed", "3"]) == 0
        default = capsys.readouterr().out
        monkeypatch.setattr(dense, "_SAMPLE_CHUNK", 7)
        assert main(["verify", "--seed", "3"]) == 0
        assert capsys.readouterr().out == default

    def test_peak_memory_does_not_grow_with_samples(self):
        """Batched sampling keeps the peak RSS flat from 10^3 to 2*10^4 states per ion."""
        script = ("import resource, sys\n"
                  "from sowitness.cli import main\n"
                  "code = main(['verify', '--samples', sys.argv[1]])\n"
                  "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
                  "sys.exit(code)\n")
        peaks = []
        for samples in ("1000", "20000"):
            result = subprocess.run([sys.executable, "-c", script, samples],
                                    capture_output=True, text=True, timeout=120)
            assert result.returncode == 0, result.stdout + result.stderr
            peaks.append(int(result.stdout.splitlines()[-1]))  # KiB on Linux
        assert peaks[1] - peaks[0] <= 4096, peaks

    def test_one_diagonalisation_per_shell(self, capsys, monkeypatch):
        """A fresh verify diagonalises S.L once per shell: the 12 coupled ions
        make 6, since 4f^n and 4f^(14-n) share (s, l).  The ground-state
        analysis after it only diagonalises reduced density matrices."""
        sizes = []
        jacobi_eigh = dense.jacobi_eigh

        def counted(matrix, **kwargs):
            sizes.append(matrix.shape)
            return jacobi_eigh(matrix, **kwargs)

        monkeypatch.setattr(dense, "jacobi_eigh", counted)
        dense._shell.cache_clear()
        assert main(["verify", "--samples", "20"]) == 0
        capsys.readouterr()
        assert sizes == [(n, n) for n in (14, 33, 52, 65, 66, 49)]
        sizes.clear()
        coupled = [r for r in CATALOG if r.zeta is not None]
        assert len(coupled) == 12
        analyses = [dense.ground_state_analysis(r.system(Convention("multiplet")))
                    for r in coupled]
        unique = [r.symbol for r, a in zip(coupled, analyses) if a.degeneracy == 1]
        assert unique == ["Eu"]
        assert sizes == [(7, 7)]

    def test_one_spin_orbit_build_per_shell(self, capsys, monkeypatch):
        """A fresh verify builds S.L once per shell, for the diagonalisation
        alone, and never builds zeta S.L; that build and the sampling both
        read the two S.L diagonals from one band build per shell."""
        sizes = []
        spin_orbit = dense._spin_orbit

        def counted(twice_s, twice_l):
            matrix = spin_orbit(twice_s, twice_l)
            sizes.append(len(matrix))
            return matrix

        monkeypatch.setattr(dense, "_spin_orbit", counted)
        monkeypatch.setattr(dense, "build_hamiltonian", None)
        dense._shell.cache_clear()
        dense._bands.cache_clear()
        assert main(["verify", "--samples", "20"]) == 0
        capsys.readouterr()
        assert sizes == [14, 33, 52, 65, 66, 49]
        info = dense._bands.cache_info()
        assert (info.misses, info.hits) == (6, 12)

    def test_one_grid_call_per_route_and_system(self, capsys, monkeypatch):
        """The Gibbs cross-check evaluates each route once per coupled ion, on
        the whole 50-point temperature grid."""
        calls = {"closed": [], "dense": []}

        def counted(route, func):
            def wrapper(system, temperature):
                calls[route].append(np.shape(temperature))
                return func(system, temperature)
            return wrapper

        monkeypatch.setattr(cli, "mean_energy", counted("closed", cli.mean_energy))
        monkeypatch.setattr(dense, "thermal_mean_energy",
                            counted("dense", dense.thermal_mean_energy))
        assert main(["verify", "--samples", "20"]) == 0
        capsys.readouterr()
        coupled = [r for r in CATALOG if r.zeta is not None]
        assert calls == {"closed": [(50,)] * len(coupled), "dense": [(50,)] * len(coupled)}

    def test_nan_deviation_fails_the_check(self):
        """One nan among finite deviations makes the worst deviation inf, so
        a check cannot pass on a value it could not compare."""
        assert cli._worst(np.array([1e-15, 3e-15])) == 3e-15
        assert cli._worst(np.array([1e-15, math.nan, 2e-15])) == math.inf
        assert cli._worst(np.array([math.inf, math.nan])) == math.inf

    @staticmethod
    def huge_ce_catalog(tmp_path):
        """The catalog with Ce's coupling at 1e308 K and no Ce reference T_E."""
        ions = [{"symbol": r.symbol, "n4f": r.n4f, "deltaE_K": r.delta_e,
                 "zeta_K": 1e308 if r.symbol == "Ce" else r.zeta,
                 "te_paper_K": None if r.symbol == "Ce" else r.te_reference}
                for r in CATALOG]
        path = tmp_path / "huge_ce_zeta.json"
        path.write_text(json.dumps({"ions": ions}))
        return str(path)

    def test_overflowing_coupling_fails_verify(self, tmp_path):
        """A catalog coupling of 1e308 K overflows both routes to nan; the
        spectrum and trace checks then fail instead of skipping every value."""
        result = run_cli("verify", "--samples", "50", "--catalog",
                         self.huge_ce_catalog(tmp_path))
        assert result.returncode == cli.EXIT_VERIFY
        lines = result.stdout.splitlines()
        assert lines[1] == "spectrum-equivalence: fail max_rel_dev=inf"
        assert lines[2] == "trace-equivalence: fail max_rel_dev=inf"
        assert lines[-1] == "verify: fail"
        assert result.stderr == ""

    def test_overflowing_coupling_warns_nothing(self, tmp_path, capsys):
        """In-process, where a RuntimeWarning is an error: the overflow shows
        only as failing checks, with nothing on stderr."""
        path = self.huge_ce_catalog(tmp_path)
        assert main(["verify", "--samples", "50", "--catalog", path]) == cli.EXIT_VERIFY
        out, err = capsys.readouterr()
        assert out == ("hund-rules: pass mismatches=0\n"
                       "spectrum-equivalence: fail max_rel_dev=inf\n"
                       "trace-equivalence: fail max_rel_dev=inf\n"
                       "product-energy-identity: pass max_rel_dev=6.45582e-14\n"
                       "separable-bound: pass min_margin_K=2296.01\n"
                       "reference-te: pass max_abs_dev_K=0.427336\n"
                       "verify: fail\n")
        assert err == ""

    def test_te_above_the_cap_fails_only_its_check(self, tmp_path, capsys):
        """A Ce coupling of 1e12 K puts its T_E near 1e12 K, above the bracket
        cap; the root find raises, and verify still prints every check."""
        ions = [{"symbol": r.symbol, "n4f": r.n4f, "deltaE_K": r.delta_e,
                 "zeta_K": 1e12 if r.symbol == "Ce" else r.zeta,
                 "te_paper_K": r.te_reference}
                for r in CATALOG]
        path = tmp_path / "te_above_cap.json"
        path.write_text(json.dumps({"ions": ions}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["verify", "--samples", "50", "--catalog", str(path)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_VERIFY
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "hund-rules", "spectrum-equivalence", "trace-equivalence",
            "product-energy-identity", "separable-bound", "reference-te", "verify"]
        assert all(": pass " in line for line in lines[:5])
        assert lines[5:] == ["reference-te: fail max_abs_dev_K=inf", "verify: fail"]

    def test_wrong_hund_rule_fails_its_check(self, tmp_path, capsys, monkeypatch):
        """The records' (s, l, j0) are checked against an aufbau filling of
        the 4f spin-orbitals, not against the rule that derived them."""
        path = tmp_path / "catalog.json"
        path.write_text(ions._to_json(CATALOG))
        rule = ions.hund_rules

        def third_rule_inverted(n4f):
            s, l, _ = rule(n4f)
            return s, l, HalfInt(l.twice + s.twice if n4f < 7 else abs(l.twice - s.twice))

        # the rule is replaced wherever the package binds it
        for module in (sowitness, ions, cli):
            if hasattr(module, "hund_rules"):
                monkeypatch.setattr(module, "hund_rules", third_rule_inverted)
        code = main(["verify", "--samples", "20", "--catalog", str(path)])
        lines = capsys.readouterr().out.splitlines()
        assert code == cli.EXIT_VERIFY
        assert lines[0] == "hund-rules: fail mismatches=12"
        assert all(": pass " in line for line in lines[1:-1])
        assert lines[-1] == "verify: fail"

    def test_corrupted_catalog_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"ions": [{"symbol": "Ce"}]}')
        result = run_cli("verify", "--catalog", str(bad))
        assert result.returncode == 2
        assert "missing keys" in result.stderr

    def test_negative_seed_exits_2(self, capsys, monkeypatch):
        # NumPy's generator once raised from inside the run, with a traceback
        monkeypatch.setattr(dense, "_eigh_of", None)  # no work may start
        assert main(["verify", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be non-negative\n"


class TestParserReuse:
    """``main`` parses every call with one parser per process; no call may
    leave anything on it that the next call sees."""

    def test_one_build_for_many_calls(self, capsys, monkeypatch):
        builds = []
        build_parser = cli.build_parser

        def counted():
            builds.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        for argv in (["ions"], ["te", "--ion", "Ce"], ["verify", "--seed", "-1"],
                     ["custom", "--two-s", "1", "--two-l", "2", "--zeta", "5", "te"]) * 5:
            main(argv)
        capsys.readouterr()
        assert len(builds) == 1

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()
        assert cli._parser() is cli._parser()

    def test_golden_invocations_back_to_back(self, capsys, tmp_path):
        """Each golden invocation runs after a call that failed or that set
        other options, --output among them, and still prints its golden bytes."""
        from test_golden import FIGURE1, STDOUT, WITNESS, sha256

        out = str(tmp_path / "out.csv")
        others = [
            (["te", "--ion", "Ce", "--convention", "multiplet", "--tolerance", "0.5",
              "--output", out], 0),
            (["witness", "--ion", "Ce", "--steps", "1"], 2),
            (["ions", "--format", "json", "--output", out], 0),
            (["verify", "--seed", "-1", "--samples", "5"], 2),
            (["witness", "--ion", "Pr", "--convention", "multiplet", "--tmin", "5",
              "--tmax", "50", "--steps", "4", "--output", out], 0),
            (["custom", "--two-s", "1", "--two-l", "2", "--zeta", "5", "witness",
              "--tmax", "70", "--output", out], 0),
            (["te", "--no-such-flag"], 2),
        ]
        golden = [(list(argv), digest) for argv, digest in sorted(STDOUT.items())]
        golden += [(["witness", "--ion", ion, "--convention", convention,
                     "--steps", str(steps)], digest)
                   for (ion, convention, steps), digest in sorted(WITNESS.items())]
        golden += [(["figure1", "--outdir", str(tmp_path / convention),
                     "--convention", convention], None)
                   for convention in ("level", "multiplet")]
        for (argv, digest), (other, code) in zip(golden, itertools.cycle(others)):
            try:
                assert main(other) == code, other
            except SystemExit as exit_:  # argparse's own usage errors
                assert exit_.code == code, other
            assert capsys.readouterr().out == ""
            assert main(argv) == 0, argv
            stdout = capsys.readouterr().out
            if digest is not None:
                assert sha256(stdout.encode()) == digest, argv
        for (convention, name), digest in FIGURE1.items():
            assert sha256((tmp_path / convention / name).read_bytes()) == digest, name

    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0),
        (["custom", "--help"], 0),
        (["custom", "--two-s", "1", "--two-l", "2", "--zeta", "1", "witness", "--help"], 0),
        (["witness", "--steps", "x"], 2),
    ])
    def test_exits_like_a_fresh_parser(self, capsys, argv, code):
        """Help screens and argparse's usage errors are byte-equal to a fresh
        parser's, every time."""
        with pytest.raises(SystemExit) as fresh:
            cli.build_parser().parse_args(argv)
        expected = capsys.readouterr()
        for _ in range(2):
            with pytest.raises(SystemExit) as reused:
                main(argv)
            assert reused.value.code == fresh.value.code == code
            assert capsys.readouterr() == expected


class TestNegativeNumbers:
    """Every parser takes a negative number in exponent form as a value.
    argparse decides this with a private pattern, so the behaviour is pinned
    here rather than the pattern."""

    FLOAT_OPTIONS = [
        (["custom", "--two-s", "1", "--two-l", "2", "--zeta", "{}", "te"], "zeta"),
        (["custom", "--two-s", "1", "--two-l", "2", "--zeta", "1", "te", "--tolerance", "{}"],
         "tolerance"),
        (["custom", "--two-s", "1", "--two-l", "2", "--zeta", "1", "witness", "--tmin", "{}"],
         "tmin"),
        (["witness", "--ion", "Ce", "--tmax", "{}"], "tmax"),
        (["te", "--tolerance", "{}"], "tolerance"),
        (["figure1", "--tmin", "{}"], "tmin"),
    ]

    @pytest.mark.parametrize("value", ["-1e-3", "-2.5E+2", "-.5e1", "-7e+0", "-3"])
    @pytest.mark.parametrize("argv, name", FLOAT_OPTIONS)
    def test_exponent_form_is_a_value(self, argv, name, value):
        args = cli.build_parser().parse_args([a.format(value) for a in argv])
        assert getattr(args, name) == float(value)

    def test_int_option_reports_the_value(self, capsys):
        # the verify parser takes the token as --seed's value, which int() rejects
        with pytest.raises(SystemExit) as exit_:
            main(["verify", "--seed", "-1e-3"])
        assert exit_.value.code == 2
        assert "argument --seed: invalid int value: '-1e-3'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-x", "-e5", "-1e", "-1e-", "-inf", "--1"])
    def test_other_dash_tokens_stay_options(self, capsys, value):
        with pytest.raises(SystemExit) as exit_:
            main(["custom", "--two-s", "1", "--two-l", "2", "--zeta", value, "te"])
        assert exit_.value.code == 2
        assert "argument --zeta: expected one argument" in capsys.readouterr().err

    def test_exponent_form_runs_like_the_equals_form(self, capsys):
        assert main(["custom", "--two-s", "1", "--two-l", "2", "--zeta", "-1e-3", "te"]) == 0
        spaced = capsys.readouterr()
        assert main(["custom", "--two-s", "1", "--two-l", "2", "--zeta=-1e-3", "te"]) == 0
        assert capsys.readouterr() == spaced
        assert spaced.out.splitlines()[1] == "custom,multiplet,none,no-crossing"

    def test_scan_argv_parses_as_with_argparse_pattern(self):
        """Tokens argparse's own pattern takes, as the scan benchmark passes
        them, parse to the same namespace as with that pattern."""
        default = argparse.ArgumentParser()._negative_number_matcher
        plain = cli.build_parser()
        stack = [plain]
        while stack:
            parser = stack.pop()
            parser._negative_number_matcher = default
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    stack.extend(action.choices.values())
        for zeta in ("-137.5", "-483.0", "-4229.0", "-0.37", "512.25"):
            for tolerance in ("0.001", "1e-06", "1e-09"):
                argv = ["custom", "--two-s", "7", "--two-l", "12", "--zeta", zeta, "te",
                        "--convention", "level", "--tolerance", tolerance]
                assert cli.build_parser().parse_args(argv) == plain.parse_args(argv)
