import argparse
import contextlib
import functools
import io
import itertools
import json
import math
import os
import resource
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sowitness
from sowitness import checks, cli, dense, ions, thermal
from sowitness._curve_csv import curve_text
from sowitness.angular import Convention, HalfInt, SpinOrbitSystem, multiplets
from sowitness.cli import CURVE_HEADER, main
from sowitness.ions import CATALOG, ion_record, load_catalog

from curve_csv import parse_witness_csv

TE_TABLE = {"Ce": 1758.0, "Pr": 1851.0, "Nd": 1904.0, "Pm": 2008.0,
            "Sm": 1975.0, "Eu": 3295.0}
LIGHT = ["Ce", "Pr", "Nd", "Pm", "Sm", "Eu"]
FIGURE1_FILES = sorted([f"figure1_{s}.csv" for s in LIGHT] + ["plot_figure1.py"])
HEAVY = ["Tb", "Dy", "Ho", "Er", "Tm", "Yb"]


def run_cli(*args, cwd=None, env=None, timeout=300, flags=()):
    """``python -m sowitness ARGS``, with the interpreter ``flags`` before -m."""
    return subprocess.run(
        [sys.executable, *flags, "-m", "sowitness", *args],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=timeout,
    )


#: Any 64-bit pattern as a float64.
RAW_FLOATS = st.integers(0, 2**64 - 1).map(
    lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64)))


def near_tie(m, e, sign, to):
    """sign (m + 0.5) 10^(e-5), or its neighbour towards ``to``."""
    tie = float(f"{m}.5e{e - 5}")
    return sign * (tie if to is None else math.nextafter(tie, to))


#: Values half way between two 6-digit values, or an ulp either side, with
#: exponents from -20 to 8, across the edges of the fixed and exponent forms.
NEAR_TIES = st.builds(near_tie, st.integers(10**5, 10**6 - 1), st.integers(-20, 8),
                      st.sampled_from((1.0, -1.0)), st.sampled_from((-math.inf, None, math.inf)))


needs_proc_status = pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                                       reason="reads VmHWM from /proc/self/status")


def cli_peak_kib(*argv):
    """The peak resident set, in KiB, of a fresh interpreter that runs
    ``main(argv)``.  It is VmHWM, the peak of the interpreter's own address
    space; ``ru_maxrss`` would start at the peak of the process that
    started it, which under pytest is above both of a test's runs."""
    script = ("import sys\n"
              "from sowitness.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "with open('/proc/self/status') as status:\n"
              "    print(next(line.split()[1] for line in status if line.startswith('VmHWM:')))\n"
              "sys.exit(code)\n")
    result = subprocess.run([sys.executable, "-c", script, *argv],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    return int(result.stdout.splitlines()[-1])


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

    @pytest.mark.parametrize("text", [
        # an integer beyond the float range
        '{"ions": [{"symbol": "Ce", "n4f": 1, "deltaE_K": 3150, "zeta_K": %s,'
        ' "te_paper_K": null}]}' % ("9" * 400),
        # an integer of more digits than int() converts
        '{"ions": [{"symbol": "Ce", "n4f": 1, "deltaE_K": 3150, "zeta_K": %s,'
        ' "te_paper_K": null}]}' % ("9" * 5000),
        # arrays nested deeper than the recursion limit
        '{"ions": ' + "[" * 10**5 + "]" * 10**5 + "}",
    ], ids=["int-beyond-float", "int-of-5000-digits", "nested-1e5-deep"])
    def test_catalog_beyond_the_parser_exits_2(self, tmp_path, text):
        path = tmp_path / "catalog.json"
        path.write_text(text)
        result = run_cli("te", "--catalog", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("error: invalid catalog: ")
        assert "Traceback" not in result.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    def test_endless_catalog_exits_2(self):
        """An endless ``--catalog`` is read only up to its 1 MiB limit: under a
        600 MiB address-space limit it gives one error line, not a
        MemoryError traceback."""
        limit = functools.partial(resource.setrlimit, resource.RLIMIT_AS, (600 << 20,) * 2)
        result = subprocess.run([sys.executable, "-m", "sowitness", "te", "--catalog",
                                 "/dev/zero"], capture_output=True, text=True,
                                preexec_fn=limit, timeout=60)
        assert result.returncode == 2, result.stderr
        assert result.stdout == ""
        assert result.stderr == "error: invalid catalog: catalog is larger than 1048576 bytes\n"

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
        """Kernel chunks of 5 or 7 rows give the bytes of the default size."""
        argv = ["witness", "--ion", ion, "--convention", convention, "--steps", "3000"]
        assert main(argv) == 0
        default = capsys.readouterr().out
        system = ion_record(ion).system(Convention(convention))
        levels = len(multiplets(system))
        for rows in (5, 7):
            with monkeypatch.context() as patch:
                patch.setattr(thermal, "_KERNEL_ELEMENTS", rows * levels)
                assert thermal._LevelTable(system).chunk_rows == rows
                assert main(argv) == 0
                assert capsys.readouterr().out == default, rows

    def test_block_rows_are_the_fmt_of_each_field(self):
        # 999999.7 rounds up to 1e+06; 100000.5 and 1234565.0 are exact ties;
        # powers of ten and their neighbours cross every exponent edge;
        # 9.999996e-05 rounds across the edge of the fixed form
        powers = [float(f"1e{k}") for k in range(-18, 8)]
        neighbours = [math.nextafter(v, to) for v in powers for to in (0.0, math.inf)]
        values = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
                  1e308, 0.1, 999999.5, 9999995.0,
                  999999.7, -999999.6, 100000.5, 1234565.0, *powers, *neighbours,
                  9.999996e-05, 1e-17, 1e-18, 1.0, -1e-320]
        # every value in every column, with the other two columns shifted
        t = np.array(values)
        mean, w = np.roll(t, 1), np.roll(t, 2)
        lines = curve_text(t, mean, w).splitlines()
        assert lines == [",".join(format(v, ".6g") for v in row)
                         for row in zip(t, mean, w)]
        assert lines[0] == "-0,-9.99989e-321,1"
        assert lines[3:5] == ["nan,-inf,inf", "4.94066e-324,nan,-inf"]
        assert lines[9] == "1e+07,1e+06,0.1"

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(*[st.one_of(st.floats(), RAW_FLOATS, NEAR_TIES)] * 3),
                    min_size=1, max_size=20))
    def test_block_rows_format_any_floats(self, rows):
        """Every row is its three fields by ``format(v, ".6g")``, whatever the
        floats: nan, both infinities, both zeros and subnormals included, any
        bit pattern, and values within an ulp of a tie of the sixth digit."""
        t, mean, w = (np.array(column) for column in zip(*rows))
        text = curve_text(t, mean, w)
        assert text.splitlines() == [",".join(format(v, ".6g") for v in row)
                                     for row in zip(t, mean, w)]
        assert text.endswith("\n")

    @pytest.mark.parametrize("steps,kernel_rows,chunks", [
        (2, None, 1), (4096, None, 1), (4097, None, 2), (3000, 1500, 2), (40000, None, 10),
    ])
    def test_one_string_per_kernel_chunk(self, monkeypatch, steps, kernel_rows, chunks):
        """The header, then one string per kernel chunk, of that chunk's rows."""
        system = ion_record("Nd").system(Convention("level"))  # 4 levels, 4096 rows a chunk
        if kernel_rows is not None:
            monkeypatch.setattr(thermal, "_KERNEL_ELEMENTS", kernel_rows * 4)
        sizes = [len(t) for t, *_ in thermal._curve_chunks(system, 1.0, 6000.0, steps)]
        assert len(sizes) == chunks
        args = argparse.Namespace(tmin=1.0, tmax=6000.0, steps=steps)
        emitted = list(cli._curve_csv(system, args))
        assert emitted[0] == CURVE_HEADER + "\n"
        assert [piece.count("\n") for piece in emitted[1:]] == sizes
        assert all(piece.endswith("\n") for piece in emitted)

    @needs_proc_status
    def test_peak_memory_does_not_grow_with_steps(self, tmp_path):
        """The CSV is streamed: 2*10^6 rows peak within 4 MiB of 10^3 rows.

        The rise is one kernel chunk of 2^14 weights (8192 rows of Ce) as
        arrays and formatted text; a curve held whole reads +780 MB.
        """
        peaks = []
        for steps in ("1000", "2000000"):
            target = tmp_path / f"ce_{steps}.csv"
            peaks.append(cli_peak_kib("witness", "--ion", "Ce", "--steps", steps,
                                      "--output", str(target)))
            with open(target, "rb") as handle:
                assert sum(1 for _ in handle) == int(steps) + 1
        assert peaks[1] - peaks[0] <= 4 * 1024, peaks

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

    def test_ion_above_the_cap_keeps_the_table(self, tmp_path):
        """A Ce coupling of 1e12 K puts its T_E above the bracket cap: its row
        says so, every other row is printed as usual, and te exits 1."""
        ions = [{"symbol": r.symbol, "n4f": r.n4f, "deltaE_K": r.delta_e,
                 "zeta_K": 1e12 if r.symbol == "Ce" else r.zeta,
                 "te_paper_K": r.te_reference} for r in CATALOG]
        path = tmp_path / "te_above_cap.json"
        path.write_text(json.dumps({"ions": ions}))
        result = run_cli("te", "--ion", "all", "--catalog", str(path))
        assert (result.returncode, result.stderr) == (1, "")
        lines = result.stdout.splitlines()
        assert len(lines) == 14
        assert lines[1] == "Ce,level,none,above-cap"
        assert lines[2:] == run_cli("te", "--ion", "all").stdout.splitlines()[2:]

    def test_overflowing_heavy_ion_writes_no_stderr(self, tmp_path):
        """A Yb coupling of -1e308 K is no-crossing like any heavy ion's, with
        nothing on stderr: no level table is built for it."""
        ions = [{"symbol": r.symbol, "n4f": r.n4f, "deltaE_K": r.delta_e,
                 "zeta_K": -1e308 if r.symbol == "Yb" else r.zeta,
                 "te_paper_K": r.te_reference} for r in CATALOG]
        path = tmp_path / "huge_yb_zeta.json"
        path.write_text(json.dumps({"ions": ions}))
        result = run_cli("te", "--ion", "all", "--catalog", str(path))
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == run_cli("te", "--ion", "all").stdout
        assert result.stdout.splitlines()[-1] == "Yb,level,none,no-crossing"

    def test_huge_catalog_coupling_is_above_the_cap_without_warnings(self, tmp_path):
        """A Ce coupling of 1e308 K is above-cap by the entropy bound, before
        any level energy could overflow: nothing warns, even as an error."""
        result = run_cli("te", "--catalog", TestVerify.huge_ce_catalog(tmp_path),
                         flags=("-W", "error"))
        assert (result.returncode, result.stderr) == (1, "")
        lines = result.stdout.splitlines()
        assert lines[1] == "Ce,level,none,above-cap"
        assert lines[2:] == run_cli("te").stdout.splitlines()[2:]

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
    @pytest.mark.parametrize("convention", list(Convention))
    def test_csv_rows_are_the_library_curve(self, capsys, convention):
        """``custom … witness`` writes, row for row, ``"%g,%g,%g"`` of the
        (T, <H>, W) of ``witness_curve``, on 41 levels over several chunks."""
        system = SpinOrbitSystem(HalfInt(40), HalfInt(60), 100.0, convention)
        assert thermal._LevelTable(system).chunk_rows < 5000 // 2
        assert main(["custom", "--two-s", "40", "--two-l", "60", "--zeta", "100", "witness",
                     "--convention", convention.value, "--steps", "5000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        curve = thermal.witness_curve(system, 1.0, 6000.0, 5000)
        columns = (curve.temperatures, curve.mean_energy, curve.witness)
        assert lines == [CURVE_HEADER] + ["%g,%g,%g" % row for row in zip(*columns)]

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
        # Unit level weights for s = l = 1/2 push the crossing to infinity,
        # where W = 0; the shell alone reports it as above the cap.
        result = run_cli("custom", "--two-s", "1", "--two-l", "1", "--zeta", "1",
                         "te", "--convention", "level")
        assert result.returncode == 1
        assert result.stdout == "symbol,convention,te_K,reason\ncustom,level,none,above-cap\n"
        assert result.stderr == ""

    def test_zero_above_the_cap_exits_1(self, capsys):
        # W(infinity) > 0, so the zero exists, but near 1e12 K: above the cap.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["custom", "--two-s", "1", "--two-l", "2", "--zeta", "1e12", "te"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == (
            "symbol,convention,te_K,reason\ncustom,multiplet,none,above-cap\n")
        assert captured.err == ""

    @pytest.mark.parametrize("two_s, two_l", [("1", "2"), ("5", "12")])
    def test_huge_coupling_exits_1_above_the_cap(self, two_s, two_l):
        # W(0) = -zeta min(s, l) < 0 and T_E is near 1e308 K; |zeta| s l once
        # overflowed to inf before its /4 and reported no-crossing.  The
        # entropy bound now says above-cap before any level energy or
        # |zeta| s l could overflow, so nothing warns, even as an error.
        result = run_cli("custom", "--two-s", two_s, "--two-l", two_l, "--zeta", "1e308", "te",
                         flags=("-W", "error"))
        assert (result.returncode, result.stderr) == (1, "")
        assert result.stdout == (
            "symbol,convention,te_K,reason\ncustom,multiplet,none,above-cap\n")

    @pytest.mark.parametrize("zeta", ["-1e308", "-1e200"])
    def test_overflowing_heavy_coupling_is_no_crossing(self, zeta):
        # zeta < 0 never crosses; the status comes from the shell, before the
        # level energies could overflow and warn
        result = run_cli("custom", "--two-s", "5", "--two-l", "12", "--zeta", zeta, "te")
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == (
            "symbol,convention,te_K,reason\ncustom,multiplet,none,no-crossing\n")

    @pytest.mark.parametrize("zeta, expected", [("1e308", -5e307), ("-1e308", 0.0)])
    def test_huge_coupling_witness_rows_are_finite(self, zeta, expected):
        # W = W(0) + <x>, with W(0) = -zeta min(s, l) for zeta > 0 and 0
        # otherwise, and every excited weight 0 up to 6000 K.  As
        # <H> + |zeta| s l the rows were -inf, for either sign of zeta.
        result = run_cli("custom", "--two-s", "1", "--two-l", "2", "--zeta", zeta,
                         "witness", "--steps", "5")
        assert result.returncode == 0
        rows = [[float(v) for v in line.split(",")] for line in result.stdout.splitlines()[1:]]
        assert len(rows) == 5
        assert all(math.isfinite(v) for row in rows for v in row)
        assert [w for _, _, w in rows] == [expected] * 5

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

    @needs_proc_status
    def test_largest_shell_te_runs_its_grid_in_chunks(self):
        """te on the 10^6 levels of 2s = 2l = 999998 peaks within 40 MiB of
        a 6-level shell.

        The rise is five arrays over the levels, each 7.6 MiB: the doubled
        j, the brackets, the prefactors and the two columns of ``powers``,
        which the kernel's single row of weights at a time does not exceed.
        It read 37.9-38.5 MiB, rounded up to a whole 4 MiB; one more array
        over the levels would exceed it.  An energies column and its negated
        copy kept beside the excitations read 53.0-54.3 MiB.  Energy and
        excitation arrays kept beside ``powers`` together with a kernel that
        allocates a new array per step read +76.4 MiB, and the 31-point
        bracket grid run as one chunk +275 MiB.
        """
        big = cli_peak_kib("custom", "--two-s", "999998", "--two-l", "999998",
                           "--zeta", "900", "te")
        small = cli_peak_kib("custom", "--two-s", "5", "--two-l", "12", "--zeta", "900", "te")
        assert big - small <= 40 * 1024, (big, small)


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
    pytest.param(["--help"], id="help"),
    pytest.param(["figure1", "-h"], id="figure1-help"),
    pytest.param(["custom", "--two-s", "1", "--two-l", "2", "--zeta", "100", "te", "--help"],
                 id="custom-te-help"),
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
        # figure1 moves its whole set into place before it prints the paths
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == (FIGURE1_FILES if "--outdir" in argv else [])

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
    line, not a traceback, before any work; ``--output`` does not need it."""

    @pytest.mark.parametrize("argv", STDOUT_COMMANDS)
    def test_exits_4_with_one_line(self, tmp_path, argv):
        result = run_with_stdout_closed(*[a.replace("{tmp}", str(tmp_path)) for a in argv])
        assert result.returncode == 4, result.stderr
        assert "Traceback" not in result.stderr
        assert result.stderr.splitlines() == [
            "error: cannot write standard output: it is closed"
        ]
        # figure1 writes none of its curves or its script
        assert [p.name for p in tmp_path.iterdir() if p.suffix in (".csv", ".py")] == []

    @pytest.mark.parametrize("argv", STDOUT_COMMANDS)
    def test_stops_before_any_work(self, capsys, monkeypatch, tmp_path, argv):
        def unreachable(args):
            raise AssertionError("the catalog was read")

        monkeypatch.setattr(sys, "stdout", None)
        monkeypatch.setattr(cli, "_active_catalog", unreachable)
        assert main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 4
        assert capsys.readouterr().err == "error: cannot write standard output: it is closed\n"
        assert list(tmp_path.iterdir()) == []

    def test_closed_stdout_is_reported_before_an_unknown_ion(self):
        result = run_with_stdout_closed("te", "--ion", "Xx")
        assert (result.returncode, result.stderr) == (
            4, "error: cannot write standard output: it is closed\n"
        )

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

    @staticmethod
    def figure1_steps(outdir):
        """The step count of the one complete figure1 set in ``outdir``."""
        assert sorted(p.name for p in outdir.iterdir() if p.suffix != ".tmp") == FIGURE1_FILES
        steps = {len((outdir / f"figure1_{s}.csv").read_text().splitlines()) - 1 for s in LIGHT}
        assert len(steps) == 1, steps
        return steps.pop()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_figure1_full_stdout_leaves_the_new_set(self, tmp_path):
        assert run_cli("figure1", "--steps", "10", "--outdir", str(tmp_path)).returncode == 0
        with open("/dev/full", "w") as full:
            result = subprocess.run(
                [sys.executable, "-m", "sowitness", "figure1", "--steps", "20",
                 "--outdir", str(tmp_path)],
                stdout=full, stderr=subprocess.PIPE, text=True, timeout=120)
        assert result.returncode == 4
        assert result.stderr.startswith("error: cannot write standard output: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == FIGURE1_FILES
        assert self.figure1_steps(tmp_path) == 20

    def test_figure1_blocked_staging_leaves_the_old_set(self, tmp_path):
        assert run_cli("figure1", "--steps", "10", "--outdir", str(tmp_path)).returncode == 0
        blocker = tmp_path / ".figure1_Sm.csv.tmp"  # the fifth of the seven files
        blocker.mkdir()
        result = run_cli("figure1", "--steps", "20", "--outdir", str(tmp_path))
        self.assert_write_error(result, tmp_path / "figure1_Sm.csv")
        assert result.stdout == ""
        assert self.figure1_steps(tmp_path) == 10
        # the four curves staged before it are removed again
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*FIGURE1_FILES, blocker.name])

    def test_witness_output_in_missing_directory(self, tmp_path):
        target = tmp_path / "missing" / "ce.csv"
        result = run_cli("witness", "--ion", "Ce", "--output", str(target))
        self.assert_write_error(result, target)
        assert not target.parent.exists()


def test_output_is_written_in_place(tmp_path):
    """``--output`` writes through a symlink rather than replacing it, as it
    must for a device such as /dev/null."""
    link, real = tmp_path / "link", tmp_path / "real.csv"
    link.symlink_to(real)
    argv = ["witness", "--ion", "Ce", "--steps", "20"]
    result = run_cli(*argv, "--output", "link", cwd=tmp_path)
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
    assert link.is_symlink()
    assert real.read_text() == run_cli(*argv).stdout


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

    @pytest.mark.parametrize("chunk", [512, 7, 1])
    def test_chunk_size_leaves_output_unchanged(self, capsys, monkeypatch, chunk):
        """The default batch, the old one of 512 states, and batches of 7 and
        of one state print the same bytes."""
        assert main(["verify", "--seed", "3"]) == 0
        default = capsys.readouterr().out
        monkeypatch.setattr(dense, "_SAMPLE_CHUNK", chunk)
        assert main(["verify", "--seed", "3"]) == 0
        assert capsys.readouterr().out == default

    def test_one_batch_per_ion(self, capsys, monkeypatch):
        """A default verify draws each coupled ion's 1000 states in one batch."""
        counts = []
        haar_rows = dense._haar_rows

        def counted(rng, count, spin_dim, orbital_dim):
            counts.append(count)
            return haar_rows(rng, count, spin_dim, orbital_dim)

        monkeypatch.setattr(dense, "_haar_rows", counted)
        assert main(["verify"]) == 0
        capsys.readouterr()
        assert len([r for r in CATALOG if r.zeta is not None]) == 12
        assert counts == [1000] * 12

    @needs_proc_status
    def test_peak_memory_does_not_grow_with_samples(self):
        """Batched sampling keeps the peak RSS flat from 10^3 to 2*10^4 states per ion."""
        peaks = [cli_peak_kib("verify", "--samples", samples) for samples in ("1000", "20000")]
        assert peaks[1] - peaks[0] <= 4096, peaks

    def test_one_solve_per_m_block(self, capsys, monkeypatch):
        """A fresh verify solves S.L once per M block of each shell: the 12
        coupled ions make 6 shells, since 4f^n and 4f^(14-n) share (s, l),
        and those make 83 blocks of at most min(2s, 2l) + 1 rows.  The
        ground-state analysis after it solves nothing."""
        sizes = []
        jacobi_eigh = dense.jacobi_eigh

        def counted(matrix, **kwargs):
            sizes.append(matrix.shape)
            return jacobi_eigh(matrix, **kwargs)

        monkeypatch.setattr(dense, "jacobi_eigh", counted)
        dense._shell.cache_clear()
        assert main(["verify", "--samples", "20"]) == 0
        capsys.readouterr()
        shells = [(14, 1, 6), (33, 2, 10), (52, 3, 12), (65, 4, 12), (66, 5, 10), (49, 6, 6)]
        assert all((twice_s + 1) * (twice_l + 1) == n for n, twice_s, twice_l in shells)
        blocks = [min(twice_s, k) - max(0, k - twice_l) + 1
                  for _, twice_s, twice_l in shells for k in range(twice_s + twice_l + 1)]
        assert sizes == [(b, b) for b in blocks]
        assert len(blocks) == 83 and max(blocks) == 7
        sizes.clear()
        coupled = [r for r in CATALOG if r.zeta is not None]
        assert len(coupled) == 12
        analyses = [dense.ground_state_analysis(r.system(Convention("multiplet")))
                    for r in coupled]
        unique = [r.symbol for r, a in zip(coupled, analyses) if a.degeneracy == 1]
        assert unique == ["Eu"]
        assert sizes == []

    def test_no_hamiltonian_and_one_band_build_per_shell(self, capsys, monkeypatch):
        """A fresh verify never calls build_hamiltonian: the block solves and
        the sampling both read the two S.L diagonals from one band build per
        shell."""
        def forbidden(system):
            raise AssertionError("build_hamiltonian called")

        monkeypatch.setattr(dense, "build_hamiltonian", forbidden)
        dense._shell.cache_clear()
        dense._bands.cache_clear()
        assert main(["verify", "--samples", "20"]) == 0
        capsys.readouterr()
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

        monkeypatch.setattr(checks, "mean_energy", counted("closed", checks.mean_energy))
        monkeypatch.setattr(dense, "thermal_mean_energy",
                            counted("dense", dense.thermal_mean_energy))
        assert main(["verify", "--samples", "20"]) == 0
        capsys.readouterr()
        coupled = [r for r in CATALOG if r.zeta is not None]
        assert calls == {"closed": [(50,)] * len(coupled), "dense": [(50,)] * len(coupled)}

    def test_convergence_failure_is_one_error_line(self, capsys, monkeypatch):
        """An eigensolver that does not converge fails verify with one error
        line; any other RuntimeError is a fault of the program and escapes."""
        def no_convergence(matrix, **kwargs):
            raise dense.ConvergenceError("no convergence after 3 sweeps", residual=1.0)

        monkeypatch.setattr(dense, "jacobi_eigh", no_convergence)
        dense._shell.cache_clear()
        assert main(["verify", "--samples", "20"]) == cli.EXIT_VERIFY
        assert capsys.readouterr() == ("", "error: no convergence after 3 sweeps\n")

        def fault(matrix, **kwargs):
            raise RuntimeError("not a convergence failure")

        monkeypatch.setattr(dense, "jacobi_eigh", fault)
        with pytest.raises(RuntimeError, match="not a convergence failure"):
            main(["verify", "--samples", "20"])

    def test_nan_deviation_fails_the_check(self):
        """One nan among finite deviations makes the worst deviation inf, so
        a check cannot pass on a value it could not compare."""
        assert checks._worst(np.array([1e-15, 3e-15])) == 3e-15
        assert checks._worst(np.array([1e-15, math.nan, 2e-15])) == math.inf
        assert checks._worst(np.array([math.inf, math.nan])) == math.inf

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
                       "product-energy-identity: pass max_rel_dev=3.49434e-14\n"
                       "separable-bound: pass min_margin_K=2296.01\n"
                       "reference-te: pass max_abs_dev_K=0.427336\n"
                       "verify: fail\n")
        assert err == ""

    def test_te_above_the_cap_fails_only_its_check(self, tmp_path, capsys):
        """A Ce coupling of 1e12 K puts its T_E near 1e12 K, above the bracket
        cap; only the reference-te check fails, and verify prints every check."""
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
        for module in (sowitness, ions, checks):
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
        monkeypatch.setattr(dense, "_spectrum", None)  # no work may start
        assert main(["verify", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be non-negative\n"


#: The parser that ``_plain_args`` is compared with, apart from ``main``'s.
REFERENCE_PARSER = functools.cache(cli.build_parser)


def store_actions(parser):
    return [a for a in parser._actions if type(a) is argparse._StoreAction]


def subcommands(parser):
    return next((a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)), {})


def all_parsers(parser):
    yield parser
    for child in subcommands(parser).values():
        yield from all_parsers(child)


def plain_value(action):
    """Values of ``action`` that argparse takes, in the spellings argparse
    reads as values: dash-led ones only as negative numbers."""
    if action.choices is not None:
        return st.sampled_from(list(action.choices))
    if action.type is int:
        return st.one_of(st.integers(-2**70, 2**70).map(str), st.just("1_0"))
    if action.type is float:
        return st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                         st.sampled_from(["nan", "inf", "-1e-3", "-2.5E+2", "-.5e1", "1_0"]))
    return st.text(max_size=4).filter(lambda s: not s.startswith("-"))


def plain_tokens(draw, parser):
    """A fully spelled argv for ``parser``: options (some repeated, the
    required ones always) with plain values, then a subcommand and its own."""
    actions = store_actions(parser)
    chosen = draw(st.lists(st.sampled_from(actions), max_size=4)) if actions else []
    chosen = draw(st.permutations(chosen + [a for a in actions if a.required]))
    tokens = []
    for action in chosen:
        tokens += [draw(st.sampled_from(action.option_strings)), draw(plain_value(action))]
    choices = subcommands(parser)
    if choices:
        name = draw(st.sampled_from(sorted(choices)))
        tokens += [name, *plain_tokens(draw, choices[name])]
    return tokens


@st.composite
def plain_argv(draw):
    return plain_tokens(draw, REFERENCE_PARSER())


#: Tokens at the edge of what argparse reads as a value or an option.
STRAY_TOKENS = ["", "-", "--", "-x", "-h", "--help", "bogus", "Level", "0x10", "1_0", "nan",
                "inf", "-inf", "-1e-3", "-.5e1", "-1e", "- 1", "te", "witness", "custom"]


@st.composite
def any_argv(draw):
    """A plain argv with up to four edits: an abbreviated option, an
    ``--option=value``, a deleted token, or a stray token or an option of
    any level put in or swapped in."""
    tokens = draw(plain_argv())
    options = sorted({s for p in all_parsers(REFERENCE_PARSER())
                      for a in p._actions for s in a.option_strings})
    strays = st.sampled_from(STRAY_TOKENS + options)
    for _ in range(draw(st.integers(0, 4))):
        edit = draw(st.sampled_from(["abbreviate", "join", "delete", "insert", "replace"]))
        at = draw(st.integers(0, len(tokens)))
        token = tokens[at] if at < len(tokens) else ""
        if edit == "abbreviate" and token.startswith("--"):
            tokens[at] = token[:draw(st.integers(3, max(3, len(token) - 1)))]
        elif edit == "join" and token.startswith("--") and at + 1 < len(tokens):
            tokens[at:at + 2] = [f"{token}={tokens[at + 1]}"]
        elif edit == "delete" and token:
            del tokens[at]
        elif edit == "insert":
            tokens.insert(at, draw(strays))
        elif edit == "replace" and at < len(tokens):
            tokens[at] = draw(strays)
    return tokens


def taken_as_by_argparse(argv):
    """``_plain_args(argv)``, after checking that it is None or the namespace
    argparse returns, compared by repr so that nan equals nan."""
    taken = cli._plain_args(argv)
    if taken is not None:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as stderr:
            try:
                expected = REFERENCE_PARSER().parse_args(argv)
            except SystemExit:
                pytest.fail(f"{argv} taken, but argparse exits: {stderr.getvalue()}")
        assert repr(sorted(vars(taken).items())) == repr(sorted(vars(expected).items())), argv
    return taken


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

    def test_parse_args_only_where_argv_is_not_plain(self, capsys, monkeypatch, tmp_path):
        """The golden invocations and the benchmark's argv shapes are read
        without argparse; help, an abbreviation and an = form go to it."""
        from test_golden import STDOUT, WITNESS, custom_te_sweep

        calls = []
        parser = cli._parser()
        parse_args = parser.parse_args

        def counted(argv):
            calls.append(argv)
            return parse_args(argv)

        monkeypatch.setattr(parser, "parse_args", counted)
        for command in cli._RUNNERS:  # only the parse is under test
            monkeypatch.setitem(cli._RUNNERS, command, lambda args, catalog: (0, ()))
        plain = [list(argv) for argv in STDOUT]
        plain += [["witness", "--ion", ion, "--convention", convention, "--steps", str(steps)]
                  for ion, convention, steps in WITNESS]
        plain += [["figure1", "--outdir", str(tmp_path), "--convention", convention]
                  for convention in ("level", "multiplet")]
        plain += list(custom_te_sweep())
        plain += [["custom", "--two-s", "7", "--two-l", "12", "--zeta", "-137.5", "te",
                   "--convention", "level", "--tolerance", "1e-06"],
                  ["verify", "--seed", "0", "--samples", "1"]]
        for argv in plain:
            assert main(argv) == 0
        assert calls == []
        for argv in (["--help"], ["te", "--tol", "1e-3"],
                     ["custom", "--two-s", "1", "--two-l", "2", "--zeta=-1e-3", "te"]):
            calls.clear()
            with contextlib.suppress(SystemExit):
                main(argv)
            assert calls == [argv]
        capsys.readouterr()

    @settings(max_examples=1500, derandomize=True, deadline=None)
    @given(any_argv())
    def test_plain_args_agree_with_argparse_or_decline(self, argv):
        taken_as_by_argparse(argv)

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(plain_argv())
    def test_fully_spelled_argv_is_taken(self, argv):
        assert taken_as_by_argparse(argv) is not None, argv


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
        argv = [a.format(value) for a in argv]
        assert getattr(cli.build_parser().parse_args(argv), name) == float(value)
        assert getattr(cli._plain_args(argv), name) == float(value)

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
        them, parse to the same namespace as with that pattern, with argparse
        and with ``_plain_args``."""
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
                expected = plain.parse_args(argv)
                assert cli.build_parser().parse_args(argv) == expected
                assert cli._plain_args(argv) == expected
