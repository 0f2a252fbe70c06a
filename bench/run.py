#!/usr/bin/env python3
"""Benchmark of the sowitness package, one workload per process.

    python3 bench/run.py --workload {curves,scan,crosscheck} --seed N \
        --seconds S --trace {0,1}

Run from a checkout that holds ``src/sowitness``.  The process drives the
package in-process through ``sowitness.cli.main`` and
``sowitness.dense.ground_state_analysis`` in a closed loop with one client,
checks every op with the oracle in ``oracle.py`` outside the timed region,
and prints a detail record and then, as its last line, the result object.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs half the
time untraced and half traced and reports the per-layer metrics.  See
README.md in this directory for the workloads and metric definitions.
"""

from __future__ import annotations

import os

# BLAS and OpenMP read these when NumPy loads; the interpreters started to
# measure setup_s inherit them.
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
from tracer import Tracer, install  # noqa: E402
from workloads import TMAX_K, TMIN_K, WARMUP, WORKLOADS, Op  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WATCHDOG_S = 30.0
# A run stops starting ops this long after --seconds, even mid-cycle, so a
# stream of ops that all hit the watchdog still ends in time.
LATE_CUTOFF_S = 60.0
SETUP_REPEATS = 7
SETUP_CODE = (
    "import sys; sys.path.insert(0, {src!r}); "
    "import sowitness; from sowitness import cli; cli.build_parser()"
)
P90_MIN_SAMPLES = 100  # a 90th percentile needs ten samples beyond it
REFERENCE_ROWS = 800  # with the parser kernel, about 1 ms on a 2.1 GHz Xeon


class OpTimeout(BaseException):
    """Raised by the watchdog.  Not an Exception, so the CLI's own handlers
    cannot turn it into an exit code."""


def _alarm(signum, frame):
    raise OpTimeout


@dataclass(frozen=True)
class _Row:
    index: int
    value: float

    def __post_init__(self) -> None:
        if self.index < 0 or not math.isfinite(self.value):
            raise ValueError("reference row out of range")


def _rows_kernel() -> None:
    rows = [_Row(i, 0.5 * i) for i in range(REFERENCE_ROWS)]
    ",".join(format(math.exp(-1e-3 * row.value), ".6g") for row in rows)


def _parser_kernel() -> None:
    parser = argparse.ArgumentParser(prog="reference")
    action = parser.add_subparsers(dest="action").add_parser("go")
    for k in range(8):
        action.add_argument(f"--option{k}", type=float, default=1.0)
    for _ in range(10):
        parser.parse_args(["go", "--option1", "2.5", "--option3", "7"])


def _best_of_two(kernel) -> float:
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def reference_seconds() -> float:
    """Geometric mean of two fixed kernels, each timed best of two.  They do
    the kinds of work the package does (validated frozen dataclasses,
    ``math.exp``, 6-digit formatting, building and running an argparse
    parser) but call no sowitness code, so no change to the package can move
    them; they move only with the speed of the machine."""
    return math.sqrt(_best_of_two(_rows_kernel) * _best_of_two(_parser_kernel))


@dataclass
class Record:
    op: Op
    seconds: float
    failure: str | None
    outcome: str
    out_bytes: int
    ref: float = math.nan  # mean reference kernel time just before and after the op

    @property
    def refs(self) -> float:
        """The op's latency in units of the reference kernel."""
        return self.seconds / self.ref


@dataclass
class Phase:
    records: list
    cycles: int

    @property
    def busy(self) -> float:
        return sum(r.seconds for r in self.records)

    @property
    def busy_refs(self) -> float:
        return sum(r.refs for r in self.records)


class Runner:
    """Runs one op under the watchdog, then checks it against the oracle."""

    def __init__(self, cli, dense, coupled, workdir: Path) -> None:
        self.cli, self.dense, self.coupled = cli, dense, coupled
        self.output = workdir / "curve.csv"

    def run(self, op: Op, tracer: Tracer | None = None) -> Record:
        argv = list(op.argv) + (["--output", str(self.output)] if op.kind == "curve" else [])
        stdout, stderr = io.StringIO(), io.StringIO()
        code, analyses, failure = None, None, None
        span = tracer.op() if tracer is not None else nullcontext()
        signal.setitimer(signal.ITIMER_REAL, WATCHDOG_S)
        start = time.perf_counter()
        try:
            try:
                with span, redirect_stdout(stdout), redirect_stderr(stderr):
                    code = self.cli.main(argv)
                    if op.kind == "verify":
                        analyses = [(symbol, self.dense.ground_state_analysis(system))
                                    for symbol, system in self.coupled]
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            failure = f"watchdog: over {WATCHDOG_S:g} s"
        except SystemExit as exc:
            failure = f"SystemExit({exc.code}): {stderr.getvalue().strip()[-200:]}"
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            failure = f"raised {exc!r}"
        seconds = time.perf_counter() - start
        if failure is not None:
            self.output.unlink(missing_ok=True)
            return Record(op, seconds, failure, "error", 0)
        outcome, failure, size = self._check(op, code, stdout.getvalue(), stderr.getvalue(), analyses)
        return Record(op, seconds, failure, outcome, size)

    def _check(self, op: Op, code, out: str, err: str, analyses) -> tuple[str, str | None, int]:
        if op.kind == "verify":
            failure = oracle.check_verify_output(code, out)
            for symbol, analysis in analyses:
                failure = failure or oracle.check_ground_state(symbol, analysis)
            return ("ok" if failure is None else "error"), failure, len(out.encode())
        if code != 0:
            self.output.unlink(missing_ok=True)
            return "error", f"exit code {code}: {err.strip()[-200:]}", 0
        shell = oracle.Shell(op.two_s, op.two_l, op.zeta, op.convention)
        if op.kind == "te":
            outcome, failure = oracle.check_te_output(out, shell, op.convention, op.tolerance)
            return outcome, failure, len(out.encode())
        try:
            text = self.output.read_text(encoding="utf-8")
        except OSError as exc:
            return "error", f"curve output unreadable: {exc}", 0
        self.output.unlink()
        failure = oracle.check_curve_csv(text, shell, TMIN_K, TMAX_K, op.points)
        return ("ok" if failure is None else "error"), failure, len(text.encode())


def measure(runner: Runner, stream, seconds: float, tracer: Tracer | None = None) -> Phase:
    """Whole cycles of ops until ``seconds`` have passed, with the reference
    kernel timed between ops."""
    records: list[Record] = []
    cycles = 0
    start = time.perf_counter()
    before = reference_seconds()
    while time.perf_counter() - start < seconds:
        for op in next(stream):
            if time.perf_counter() - start > seconds + LATE_CUTOFF_S:
                return Phase(records, cycles)
            record = runner.run(op, tracer)
            after = reference_seconds()
            record.ref = 0.5 * (before + after)
            before = after
            records.append(record)
        cycles += 1
    return Phase(records, cycles)


def measure_setup() -> tuple[float, list[float]]:
    """Median wall time of a fresh interpreter importing the package and
    building the CLI parser; one unmeasured start first fills the bytecode
    cache."""
    command = [sys.executable, "-c", SETUP_CODE.format(src=str(SRC))]
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run(command, check=True, timeout=120, stdout=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - start)
    return statistics.median(times), times


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], timeout=30,
                                    capture_output=True, text=True).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "sowitness").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "thread_pins": THREAD_PINS,
    }


def census(records: list[Record]) -> dict:
    """What the inputs were and how they came out."""
    n = len(records)
    levels = Counter(r.op.levels for r in records if r.op.kind != "verify")
    outcomes = Counter(r.outcome for r in records)
    points = [r.op.points for r in records if r.op.kind == "curve"]
    return {
        "ops": n,
        "levels_histogram": {str(k): levels[k] for k in sorted(levels)},
        "outcome_shares": {k: outcomes[k] / n for k in sorted(outcomes)},
        "curve_points_per_op": (
            {"mean": statistics.fmean(points), "min": min(points), "max": max(points),
             "total": sum(points)} if points else None),
    }


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(phase: Phase, setup_s: float, rss_mb: float) -> tuple[dict, dict]:
    """(metrics of BENCHMARK.json, further figures for the detail record)."""
    latencies = [r.seconds for r in phase.records]
    refs = [r.refs for r in phase.records]
    correct = [r for r in phase.records if r.failure is None]
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "ops_per_kref": metric(1e3 * len(correct) / phase.busy_refs, "1/kref"),
        "op_p50_ref": metric(statistics.median(refs), "ref"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    extra = {
        "op_samples": len(latencies),
        "fail_share": (len(latencies) - len(correct)) / len(latencies),
        "reference_ms": 1e3 * statistics.median(r.ref for r in phase.records),
        "ops_per_s": len(correct) / phase.busy,
        "op_p50_ms": 1e3 * statistics.median(latencies),
    }
    if len(latencies) >= P90_MIN_SAMPLES:
        extra["op_p90_ms"] = 1e3 * statistics.quantiles(latencies, n=10)[-1]
        extra["op_p90_ref"] = statistics.quantiles(refs, n=10)[-1]
    points = sum(r.op.points for r in correct)
    if points:
        extra["points_per_s"] = points / phase.busy
    return metrics, extra


def per_layer(tracer: Tracer, traced: Phase, untraced: Phase) -> tuple[dict, dict]:
    """(per-layer metrics of BENCHMARK.json, trace detail)."""
    n = tracer.ops
    calls = tracer.calls
    own = tracer.self_seconds()
    layers = tracer.layer_self_seconds()
    op_seconds = tracer.op_seconds()
    te_calls = calls["thermal.entanglement_temperature"]
    points = sum(r.op.points for r in traced.records)
    states = calls["dense.sample_product_state"]
    sampling = tracer.hot_seconds["dense.sample_product_state"]
    # Both phases run whole cycles of the same mix, so mean op times compare;
    # reference units keep the machine's speed swings between phases out.
    overhead = ((traced.busy_refs / len(traced.records))
                / (untraced.busy_refs / len(untraced.records)))

    def per_op(count: float) -> float:
        return count / n

    metrics = {
        "angular.multiplets.calls_per_op": metric(per_op(calls["angular.multiplets"]), "count"),
        "angular.level_energy.calls_per_op": metric(per_op(calls["angular.level_energy"]), "count"),
        "angular.self_ms_per_op": metric(1e3 * per_op(layers.get("angular", 0.0)), "ms"),
        "thermal.witness.calls_per_te": metric(
            calls["thermal.witness"] / te_calls if te_calls else 0.0, "count"),
        "thermal.weight.calls_per_op": metric(per_op(calls["thermal.weight"]), "count"),
        "thermal.self_ms_per_op": metric(1e3 * per_op(layers.get("thermal", 0.0)), "ms"),
        "thermal.entanglement_temperature.ms_p50": metric(
            1e3 * median_or_zero(tracer.durations("thermal.entanglement_temperature")), "ms"),
        "thermal.witness_curve.us_per_point": metric(
            1e6 * sum(tracer.durations("thermal.witness_curve")) / points if points else 0.0, "us"),
        "cli.self_ms_per_op": metric(1e3 * per_op(layers.get("cli", 0.0)), "ms"),
        "cli.bytes_per_op": metric(per_op(sum(r.out_bytes for r in traced.records)), "B"),
        "dense.sample_product_state.us_per_state": metric(
            1e6 * sampling / states if states else 0.0, "us"),
        "dense.sample_product_state.share": metric(
            own.get("dense.sample_product_state", 0.0) / op_seconds, "ratio"),
        "dense.jacobi_eigh.calls_per_op": metric(per_op(calls["dense.jacobi_eigh"]), "count"),
        "dense.jacobi_eigh.ms_p50": metric(
            1e3 * median_or_zero(tracer.durations("dense.jacobi_eigh")), "ms"),
        "dense.build_hamiltonian.self_ms_per_op": metric(
            1e3 * per_op(own.get("dense.build_hamiltonian", 0.0)), "ms"),
        "dense.thermal_mean_energy.self_ms_per_op": metric(
            1e3 * per_op(own.get("dense.thermal_mean_energy", 0.0)), "ms"),
        "dense.ground_state_analysis.ms_p50": metric(
            1e3 * median_or_zero(tracer.durations("dense.ground_state_analysis")), "ms"),
        "dense.self_ms_per_op": metric(1e3 * per_op(layers.get("dense", 0.0)), "ms"),
        "ions.self_ms_per_op": metric(1e3 * per_op(layers.get("ions", 0.0)), "ms"),
        "trace.overhead_ratio": metric(overhead, "ratio"),
    }
    by_levels: dict[int, list[int]] = {}
    for record, op_calls in zip(traced.records, tracer.op_calls):
        if record.op.kind != "verify":
            by_levels.setdefault(record.op.levels, []).append(op_calls["angular.multiplets"])
    top = sorted(own.items(), key=lambda item: item[1], reverse=True)[:8]
    detail = {
        "traced_ops": n,
        "spans": len(tracer.spans),
        "self_share_by_name": {name: seconds / op_seconds for name, seconds in top},
        "self_share_by_layer": {name: seconds / op_seconds for name, seconds in
                                sorted(layers.items(), key=lambda item: item[1], reverse=True)},
        "multiplets_calls_per_op_by_levels": {
            str(k): statistics.fmean(v) for k, v in sorted(by_levels.items())},
    }
    return metrics, detail


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sowitness" / "__init__.py").is_file():
        print(f"error: {SRC} holds no sowitness package to benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sowitness
    from sowitness import cli, dense

    if Path(sowitness.__file__).resolve().parent != SRC / "sowitness":
        print(f"error: imported sowitness from {sowitness.__file__}, not {SRC}", file=sys.stderr)
        return 2
    coupled = [(r.symbol, r.system(sowitness.Convention.MULTIPLET_DEGENERATE))
               for r in sowitness.CATALOG if r.zeta is not None]
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)
    try:
        runner = Runner(cli, dense, coupled, workdir)
        stream = WORKLOADS[args.workload](args.seed)
        warmup = runner.run(WARMUP[args.workload])
        detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "environment": environment()}
        if args.trace:
            untraced = measure(runner, stream, args.seconds / 2)
            tracer = Tracer()
            restore = install(tracer, sowitness)
            try:
                traced = measure(runner, stream, args.seconds / 2, tracer)
            finally:
                restore()
            metrics, detail["trace_detail"] = per_layer(tracer, traced, untraced)
            records = untraced.records + traced.records
            detail["cycles"] = {"untraced": untraced.cycles, "traced": traced.cycles}
        else:
            setup_s, detail["setup_samples_s"] = measure_setup()
            phase = measure(runner, stream, args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics, detail["figures"] = end_to_end(phase, setup_s, rss_mb)
            records = phase.records
            detail["cycles"] = phase.cycles
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    records = [warmup] + records
    failures = [r for r in records if r.failure is not None]
    detail["census"] = census(records[1:])
    detail["failures"] = [{"argv": list(r.op.argv), "reason": r.failure} for r in failures[:5]]
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not failures, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
