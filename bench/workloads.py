"""Seeded op streams of the three workloads.

Each workload yields its ops in cycles.  Every cycle holds the same mix of
input sizes and only the seeded details change, so a run of whole cycles
costs about the same on every seed and per-run figures stay steady.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from oracle import IONS, LIGHT

CONVENTIONS = ("level", "multiplet")
TOLERANCES = (1e-3, 1e-6, 1e-9)
DEFAULT_STEPS = 600
# The CLI's default grid, which the curve ops do not override.
TMIN_K, TMAX_K = 1.0, 6000.0
# Long curves interleave heavy and light ions so that any run of cycles
# draws a near-average share of the expensive ones.
LONG_ORDER = ("Eu", "Ce", "Sm", "Pr", "Pm", "Nd")
LONG_STEPS = (6000, 7200)
# scan: level counts are the midpoints of 24 strata of equal width in
# log(levels) over 2..128; each cycle adds 3 negative-coupling ops.
STRATA = 24
NEGATIVE_PER_CYCLE = 3
ZETA_RANGE_K = (100.0, 1000.0)
SHAPES = (0.0, 1 / 3, 2 / 3, 1.0)
QUANTILES = 8


@dataclass(frozen=True)
class Op:
    """One call into the package and what its oracle needs to check it."""

    kind: str  # "curve", "te" or "verify"
    argv: tuple[str, ...]
    levels: int = 0  # fine-structure levels of the system; 0 for verify
    points: int = 0  # CSV rows a curve op writes
    two_s: int = 0
    two_l: int = 0
    zeta: float = 0.0
    convention: str = ""
    tolerance: float = 0.0


def curve_op(ion: str, convention: str, steps: int) -> Op:
    two_s, two_l, zeta = IONS[ion]
    return Op("curve", ("witness", "--ion", ion, "--convention", convention, "--steps", str(steps)),
              min(two_s, two_l) + 1, steps, two_s, two_l, zeta, convention)


def te_op(two_s: int, two_l: int, zeta: float, convention: str, tolerance: float) -> Op:
    argv = ("custom", "--two-s", str(two_s), "--two-l", str(two_l), "--zeta", repr(zeta),
            "te", "--convention", convention, "--tolerance", repr(tolerance))
    return Op("te", argv, min(two_s, two_l) + 1, 0, two_s, two_l, zeta, convention, tolerance)


def curves(seed: int) -> Iterator[list[Op]]:
    """Cycles of 13 ops: the 12 light-ion systems at the default 600 steps
    in seeded order, plus one long curve of a seeded 6000-7200 steps at a
    seeded position.  The long curve visits every system once in 12 cycles,
    in the same order on every seed."""
    rng = np.random.default_rng(seed)
    systems = [(ion, convention) for ion in LIGHT for convention in CONVENTIONS]
    for cycle in itertools.count():
        long_op = curve_op(LONG_ORDER[cycle % 6], CONVENTIONS[(cycle // 6) % 2],
                           int(rng.integers(LONG_STEPS[0], LONG_STEPS[1] + 1)))
        ops = [curve_op(*systems[i], DEFAULT_STEPS) for i in rng.permutation(len(systems))]
        ops.insert(int(rng.integers(len(ops) + 1)), long_op)
        yield ops


def stratum_levels(m: int) -> int:
    return round(2.0 ** (1.0 + 6.0 * (m + 0.5) / STRATA))


def _draw_te(rng: np.random.Generator, seen: set, levels: int, tolerance: float,
             convention: str, shape: float, quantile: float, sign: float) -> Op:
    """A system with ``levels`` levels that no earlier op of the run used.

    The larger doubled quantum number exceeds the smaller by ``shape``
    times the level count.  The coupling sits at ``quantile`` of the
    log-uniform range, moved by up to 1% by the seed.  Which of s and l is
    the larger is drawn; the spectrum is symmetric in the two.
    """
    small = levels - 1
    big = small + round(shape * levels)
    # s = l = 1/2 under level weights has W(T) -> 0 from below as
    # T -> infinity, so it has no finite zero and the op would fail.
    if big == small == 1 and convention == "level":
        big = 2
    low, high = np.log(ZETA_RANGE_K)
    while True:
        two_s, two_l = (small, big) if rng.integers(2) else (big, small)
        magnitude = np.exp(low + quantile * (high - low) + rng.uniform(-0.01, 0.01))
        zeta = sign * float(format(float(magnitude), ".6g"))
        key = (two_s, two_l, zeta, convention)
        if key not in seen:
            seen.add(key)
            return te_op(two_s, two_l, zeta, convention, tolerance)


def scan(seed: int) -> Iterator[list[Op]]:
    """Cycles of 27 distinct systems in seeded order.

    24 have a positive coupling, one per level stratum.  Tolerance,
    convention, shape and coupling quantile are spread over the strata by a
    fixed schedule, so every cycle and every seed does the same work; the
    seed moves the couplings, swaps s and l and sets the order.  3 more have
    a negative coupling and drawn parameters; they return at once.
    """
    rng = np.random.default_rng(seed)
    seen: set = set()
    while True:
        ops = [_draw_te(rng, seen, stratum_levels(m),
                        TOLERANCES[m % 3],
                        CONVENTIONS[(m // 3) % 2],
                        SHAPES[(m // 2) % len(SHAPES)],
                        ((5 * m) % QUANTILES + 0.5) / QUANTILES, 1.0)
               for m in range(STRATA)]
        for _ in range(NEGATIVE_PER_CYCLE):
            ops.append(_draw_te(rng, seen, round(2.0 ** rng.uniform(1.0, 7.0)),
                                TOLERANCES[int(rng.integers(3))],
                                CONVENTIONS[int(rng.integers(2))],
                                SHAPES[int(rng.integers(len(SHAPES)))],
                                rng.uniform(), -1.0))
        yield [ops[i] for i in rng.permutation(len(ops))]


def crosscheck(seed: int) -> Iterator[list[Op]]:
    """One verify pass per cycle, each with its own derived sampling seed."""
    rng = np.random.default_rng(seed)
    while True:
        yield [Op("verify", ("verify", "--seed", str(int(rng.integers(2**31)))))]


WORKLOADS = {"curves": curves, "scan": scan, "crosscheck": crosscheck}

# Run once before timing starts.  The scan warm-up couples below the drawn
# range, so it never repeats a measured system.
WARMUP = {
    "curves": curve_op("Ce", "level", DEFAULT_STEPS),
    "scan": te_op(3, 4, 77.7, "multiplet", 1e-3),
    "crosscheck": Op("verify", ("verify", "--seed", "0", "--samples", "1")),
}
