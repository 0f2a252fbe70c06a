"""Self-tests of the benchmark: input generation, oracle, tracer, watchdog.

    python3 -m pytest bench
"""

from __future__ import annotations

import io
import itertools
import signal
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import oracle
import run
import workloads
from tracer import Tracer, install

SRC = Path(__file__).resolve().parent.parent / "src"


def first_cycles(name: str, seed: int, count: int = 3) -> list:
    return list(itertools.islice(workloads.WORKLOADS[name](seed), count))


@pytest.fixture(scope="module")
def sowitness():
    if not (SRC / "sowitness").is_dir():
        pytest.skip("no sowitness sources next to the benchmark")
    sys.path.insert(0, str(SRC))
    import sowitness
    return sowitness


# -- generation ------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generation_is_deterministic_per_seed(name):
    assert first_cycles(name, 5) == first_cycles(name, 5)
    assert first_cycles(name, 5) != first_cycles(name, 6)


def test_curves_cycle_mix_is_fixed():
    for cycle in first_cycles("curves", 11, 12):
        steps = sorted(op.points for op in cycle)
        assert steps[:12] == [workloads.DEFAULT_STEPS] * 12
        assert 10 * workloads.DEFAULT_STEPS <= steps[12] <= workloads.LONG_STEPS[1]
        assert len({op.argv[2:5] for op in cycle}) == 12
    longs = {max(cycle, key=lambda op: op.points).argv[2:5]
             for cycle in first_cycles("curves", 11, 12)}
    assert len(longs) == 12  # every system gets the long grid once in 12 cycles


def test_scan_systems_are_distinct_and_stratified():
    cycles = first_cycles("scan", 3, 4)
    keys = [(op.two_s, op.two_l, op.zeta, op.convention) for cycle in cycles for op in cycle]
    assert len(keys) == len(set(keys))
    expected = sorted(workloads.stratum_levels(m) for m in range(workloads.STRATA))
    for cycle in cycles:
        assert sorted(op.levels for op in cycle if op.zeta > 0) == expected
        assert sum(op.zeta < 0 for op in cycle) == workloads.NEGATIVE_PER_CYCLE
        assert all(2 <= op.levels <= 128 for op in cycle)


def test_scan_work_is_the_same_in_every_cycle_and_seed():
    def work(cycle):
        return sorted((op.levels, op.tolerance, op.convention, max(op.two_s, op.two_l),
                       round(np.log10(op.zeta), 1)) for op in cycle if op.zeta > 0)

    mixes = [work(cycle) for seed in (1, 2) for cycle in first_cycles("scan", seed, 3)]
    assert all(mix == mixes[0] for mix in mixes)


# -- oracle ------------------------------------------------------------------

def te_text(value: float) -> str:
    return f"{oracle.TE_HEADER}\ncustom,multiplet,{format(value, '.6g')},crossed\n"


def test_oracle_rejects_te_off_by_two_tolerances():
    tolerance = 1e-3
    shell = oracle.Shell(1, 2, 1.0, "multiplet")
    status, exact = shell.entanglement_temperature()
    assert status == "crossed" and abs(shell.witness(exact)) < 1e-12
    assert oracle.check_te_output(te_text(exact), shell, "multiplet", tolerance)[1] is None
    for wrong in (exact + 2 * tolerance, exact - 2 * tolerance):
        assert oracle.check_te_output(te_text(wrong), shell, "multiplet", tolerance)[1]


def oracle_csv(shell: oracle.Shell, steps: int) -> list[str]:
    grid = np.linspace(workloads.TMIN_K, workloads.TMAX_K, steps)
    mean = shell.mean_energy(grid)
    return [oracle.CURVE_HEADER] + [
        f"{t:.6g},{m:.6g},{m + shell.bound:.6g}" for t, m in zip(grid, mean)]


def test_oracle_rejects_a_flipped_witness_sign():
    two_s, two_l, zeta = oracle.IONS["Eu"]
    shell = oracle.Shell(two_s, two_l, zeta, "level")
    lines = oracle_csv(shell, 50)
    args = (shell, workloads.TMIN_K, workloads.TMAX_K, 50)
    assert oracle.check_curve_csv("\n".join(lines) + "\n", *args) is None
    t, mean, witness = lines[1].split(",")
    assert float(witness) < 0.0
    lines[1] = f"{t},{mean},{witness[1:]}"
    assert "witness_K" in oracle.check_curve_csv("\n".join(lines) + "\n", *args)


def test_oracle_accepts_the_program(sowitness):
    from sowitness import cli

    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(list(workloads.te_op(5, 8, 321.5, "level", 1e-6).argv)) == 0
    shell = oracle.Shell(5, 8, 321.5, "level")
    assert oracle.check_te_output(out.getvalue(), shell, "level", 1e-6) == ("crossed", None)


# -- tracer ------------------------------------------------------------------

def test_self_time_on_a_synthetic_span_tree():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def tick(seconds):
        now[0] += seconds

    level_energy = tracer.wrap(lambda: tick(0.25), "angular.level_energy", "angular")

    def _multiplets():
        tick(0.5)
        level_energy()  # hot and inside its own layer: counted, not timed

    multiplets = tracer.wrap(_multiplets, "angular.multiplets", "angular")
    leaf = tracer.wrap(lambda: tick(4.0), "dense.leaf", "dense")
    inner = tracer.wrap(lambda: tick(1.5), "thermal.inner", "thermal")

    def _top():
        tick(1.0)
        multiplets()
        tick(2.0)
        leaf()
        inner()
        tick(1.0)

    top = tracer.wrap(_top, "thermal.top", "thermal")
    top()  # outside an op: not traced
    assert not tracer.spans and not tracer.calls
    with tracer.op():
        tick(0.125)
        top()

    assert tracer.durations("op") == [10.375]
    assert tracer.durations("thermal.top") == [10.25]
    own = tracer.self_seconds()
    assert own == {"op": 0.125, "thermal.top": 4.0, "dense.leaf": 4.0,
                   "thermal.inner": 1.5, "angular.multiplets": 0.75}
    assert tracer.layer_self_seconds() == {"op": 0.125, "thermal": 5.5, "dense": 4.0,
                                           "angular": 0.75}
    assert tracer.hot_seconds["angular.multiplets"] == 0.75
    assert tracer.calls["angular.level_energy"] == 1
    assert tracer.op_calls == [tracer.calls]


def test_install_wraps_every_binding_and_restores(sowitness):
    from sowitness import cli, thermal

    original = thermal.entanglement_temperature
    restore = install(Tracer(), sowitness)
    try:
        assert cli.entanglement_temperature is thermal.entanglement_temperature
        assert sowitness.entanglement_temperature is thermal.entanglement_temperature
        assert thermal.entanglement_temperature is not original
    finally:
        restore()
    assert cli.entanglement_temperature is original
    assert thermal.entanglement_temperature is original


# -- watchdog ----------------------------------------------------------------

class SlowCli:
    @staticmethod
    def main(argv):
        time.sleep(5.0)
        return 0


def test_watchdog_fails_a_slow_op_and_returns(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WATCHDOG_S", 0.05)
    previous = signal.signal(signal.SIGALRM, run._alarm)
    try:
        start = time.perf_counter()
        record = run.Runner(SlowCli, None, [], tmp_path).run(workloads.WARMUP["scan"])
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert record.failure.startswith("watchdog")
    assert time.perf_counter() - start < 2.0
