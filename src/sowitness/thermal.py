"""Thermal averages over the fine-structure spectrum and the witness W(T).

The witness is W(T) = <H>_T + |zeta| s l.  Product (separable) states
satisfy <H> >= -|zeta| s l, so a thermal state with W(T) < 0 is certifiably
entangled across the spin-orbit bipartition.  The entanglement temperature
is the unique zero of W: <H>_T is a nondecreasing function of T for any
fixed positive weights, so at most one sign change exists.

Every thermal quantity needs only the levels of the shell.  Each call
builds them once, straight from the doubled quantum numbers, into a level
table: NumPy arrays of the effective prefactors g_j (2j+1 or 1 by
convention), the excitations x_j = E_j - E_min, each with one rounding,
and their squares.  One kernel evaluates, over a whole array of
temperatures, the shifted weights w_j = g_j exp(-x_j/T) and returns their
raw sums: the weighted sums of x and x^2, a row per temperature, and the
partition sums Z = sum_j w_j.  Every exponent is non-positive, so the sums
cannot overflow at any temperature, and a temperature costs O(levels).
Each caller divides by Z only the columns it reads, and all read the one
moment <x> >= 0: W = W(0) + <x>, with W(0) = -zeta min(s, l) for zeta > 0
and 0 otherwise, and <H> = E_min + <x>.  So W is negative only where W(0)
is, and near its zero it cancels W(0), not |zeta| s l, against <x>.
``mean_energy``, ``witness``, ``witness_curve`` and
``entanglement_temperature`` all go through the kernel.  It runs a grid
chunk by chunk, at most ``chunk_rows`` temperatures (2**14 weights) at a
time.

A witness curve is evaluated in chunks of the kernel's own size by
``_curve_chunks``: ``witness_curve`` joins the chunks into read-only arrays,
and the command line formats each chunk as one string, so the memory a
curve needs on its way to a CSV file is bounded for any length.

The fluctuation <x^2> - <x>^2 = <H^2> - <H>^2 gives the exact slope
dW/dT = (<H^2> - <H>^2)/T^2 under either convention, for the Newton steps of
the root finder for T_E.  Each step is one kernel call on one float
temperature, with the bits of a one-element array; W and the slope are
formed from its sums and Z as Python floats.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .angular import Convention, SpinOrbitSystem, _bracket, _temperatures

__all__ = [
    "WitnessCurve",
    "WitnessStatus",
    "EntanglementTemperature",
    "mean_energy",
    "witness",
    "entanglement_temperature",
    "witness_curve",
]

#: Bracket doubling for the witness zero stops here; see entanglement_temperature.
BRACKET_CAP_K = 1.0e9

# The doubling bracket 1, 2, 4, ... K below the cap and the cap, in one kernel call.
_BRACKET_GRID = np.append(np.exp2(np.arange(math.ceil(math.log2(BRACKET_CAP_K)))),
                          BRACKET_CAP_K)

# The kernel works on at most this many (temperature, level) weights at a
# time, so its temporaries and a curve's CSV text stay bounded for any grid.
_KERNEL_ELEMENTS = 1 << 14

# Division for the kernel's exponents, which are <= 0: an overflow is -inf, a
# weight of 0.  As a decorator, errstate costs less per call than as `with`.
_divide_ignoring_overflow = np.errstate(over="ignore")(np.divide)


@dataclass(frozen=True, eq=False)
class WitnessCurve:
    """Witness samples on a strictly increasing temperature grid.

    Each field after ``system`` is a read-only array with one entry per grid
    temperature: the temperature, the mean energy <H> and the witness
    W = <H> + |zeta| s l.
    """

    system: SpinOrbitSystem
    temperatures: np.ndarray
    mean_energy: np.ndarray
    witness: np.ndarray


class WitnessStatus(enum.Enum):
    """Why entanglement_temperature did or did not produce a zero."""

    CROSSED = "crossed"
    NO_CROSSING = "no-crossing"
    WITNESS_DEGENERATE = "witness-degenerate"
    #: W is negative at every temperature up to ``BRACKET_CAP_K``; its zero,
    #: if it has one, lies above the cap.
    ABOVE_CAP = "above-cap"


@dataclass(frozen=True)
class EntanglementTemperature:
    """The zero of the witness, or why there is none.

    For a crossing, ``iterations`` counts the Newton or bisection steps taken
    inside the starting bracket and ``residual`` is W at the returned
    temperature; otherwise they keep their defaults.
    """

    temperature: float | None
    status: WitnessStatus
    iterations: int = 0
    residual: float | None = None


class _LevelTable:
    """The levels of one system as arrays, built from its doubled quantum numbers.

    The brackets B_j = 8 E_j / zeta and the degeneracies g_j (2j+1, or 1
    under level weights) are exact integers: int64 while 2s + 2l < 2^31,
    where every bracket fits, and Python ints beyond.  B_j rises with j, so
    the ground is the first level for zeta > 0 and the last otherwise.  The
    excitations x_j = |zeta| (|B_j - B_ground| / 8) and their squares are
    the two columns of ``powers``; x_j and E_min = zeta (B_ground / 8), as
    in ``level_energy``, take one rounding each.  The kernel ``sums``
    returns the weighted sums of the columns and the partition sums Z, not
    the moments: callers normalise.
    """

    def __init__(self, system: SpinOrbitSystem) -> None:
        ts, tl = system.s.twice, system.l.twice
        twice_j = np.arange(abs(ts - tl), ts + tl + 1, 2,
                            dtype=np.int64 if ts + tl < 2**31 else object)
        brackets = _bracket(ts, tl, twice_j)
        by_dimension = system.convention is Convention.MULTIPLET_DEGENERATE
        self.prefactors = (twice_j + 1).astype(float) if by_dimension else np.ones(len(twice_j))
        ground = brackets[0 if system.zeta > 0.0 else -1]
        self.ground_energy = float(system.zeta * (ground / 8))
        np.subtract(brackets, ground, out=brackets)
        np.absolute(brackets, out=brackets)
        self.powers = np.empty((len(twice_j), 2))
        self.excitations = self.powers[:, 0]
        np.divide(brackets, 8, self.excitations, casting="unsafe")
        self.excitations *= abs(system.zeta)
        np.multiply(self.excitations, self.excitations, self.powers[:, 1])
        # temperatures per chunk, so a chunk holds at most _KERNEL_ELEMENTS weights
        self.chunk_rows = max(1, _KERNEL_ELEMENTS // len(twice_j))

    def sums(self, temperatures: float | np.ndarray) -> tuple[np.ndarray, np.ndarray | float]:
        """The weighted sums of x and x^2, a row per temperature of a 1-D
        array, and the partition sums Z; each moment is its sum over Z.

        An array chunk divides into a (levels, temperatures) array and works
        on its transpose, an F-ordered view: exp, the prefactor product, the
        BLAS product and the sum Z all loop along the temperatures, and in a
        chunk of >= 2 rows Z adds the levels in order.  On a table of at most
        7 levels, where NumPy's pairwise sum of a row adds in order too, a
        row has the same bits in any chunk of >= 2 rows.

        A float gives one row as a 1-D array and Z as a scalar, by the same
        ufunc loops and BLAS call over the same contiguous weights as a
        one-element array, so with the same bits.
        """
        if isinstance(temperatures, np.ndarray):
            if len(temperatures) > self.chunk_rows:
                sums, partition = np.empty((len(temperatures), 2)), np.empty(len(temperatures))
                for start in range(0, len(temperatures), self.chunk_rows):
                    chunk = slice(start, start + self.chunk_rows)
                    sums[chunk], partition[chunk] = self.sums(temperatures[chunk])
                return sums, partition
            # level-major, so that each ufunc below loops along the temperatures;
            # x / -T has the bits of -x / T: IEEE division is symmetric in sign
            weights = _divide_ignoring_overflow(self.excitations[:, np.newaxis],
                                                -temperatures).T
        else:
            weights = _divide_ignoring_overflow(self.excitations, -temperatures)
        np.exp(weights, out=weights)
        weights *= self.prefactors
        return weights @ self.powers, np.add.reduce(weights, axis=-1)


def mean_energy(
    system: SpinOrbitSystem, temperature: float | np.ndarray
) -> float | np.ndarray:
    """Thermal mean energy <H>_T under the system's weighting convention.

    A float gives a float.  A 1-D array of temperatures gives an array of the
    same length from one level table and one level-major kernel call (see
    ``_LevelTable.sums``); its values may differ from the per-temperature
    floats in the last bits, as a one-row chunk takes the matrix-vector
    path (see ``_curve_chunks``).
    """
    temperatures = _temperatures(temperature)
    table = _LevelTable(system)
    sums, partition = table.sums(temperatures.reshape(-1))
    mean = table.ground_energy + sums[:, 0] / partition
    return float(mean[0]) if temperatures.ndim == 0 else mean


def _witness_at_zero(system: SpinOrbitSystem) -> float:
    """W(0) = E_min + |zeta| s l in closed form; +0.0 where s l = 0."""
    return 0.0 - max(system.zeta, 0.0) * (min(system.s.twice, system.l.twice) / 2)


def witness(system: SpinOrbitSystem, temperature: float) -> float:
    """W(T) = <H>_T + |zeta| s l; negative values certify entanglement.

    W(0), the T -> 0+ limit, needs no level table.
    """
    if temperature == 0.0:
        return _witness_at_zero(system)
    if not temperature > 0.0:
        raise ValueError(f"temperature must be non-negative, got {temperature!r}")
    row, z = _LevelTable(system).sums(float(temperature))
    return _witness_at_zero(system) + (row[0] / z).item()


def entanglement_temperature(
    system: SpinOrbitSystem, tolerance: float = 1e-3
) -> EntanglementTemperature:
    """Locate the zero of W(T) by a safeguarded Newton search.

    A shell without a zero is told apart before any float arithmetic, from
    (2s, 2l), the sign of zeta and the convention alone, and builds no level
    table; nor does a shell whose zero a bound puts above the cap.  The
    level energies are E_j = (zeta/2) [j(j+1) - s(s+1) - l(l+1)]:

    - s l zeta = 0 is WITNESS_DEGENERATE: the witness is identically >= 0
      and carries no information.
    - zeta < 0 is NO_CROSSING.  The ground level j = s+l has E = -|zeta| s l,
      so W(0) = 0, and <H>_T never falls below the ground energy: W >= 0 at
      every T.
    - For zeta > 0 the ground level j = |l-s| gives W(0) = -zeta min(s, l)
      < 0.  As T -> infinity, under multiplet weights W -> |zeta| s l > 0,
      because tr S.L = 0.  Under level weights, with s <= l, the 2s+1 levels
      j = l+k (k = -s..s) give W -> zeta s (3l - s - 1) / 3, that is
      zeta 2s (3 2l - 2s - 2) / 12, which is zero only at s = l = 1/2.  That
      shell, under level weights, is ABOVE_CAP: W < 0 at every T, yet at a
      tiny zeta the float grid would round W to 0 and cross at 1 K.
    - F = -T ln Z <= E_min, and the entropy is at most ln D for the D weighted
      states: (2s+1)(2l+1) under multiplet weights, min(2s, 2l)+1 levels under
      level weights.  So W(T) <= -zeta min(s, l) + T ln D, and T_E >=
      zeta min(s, l) / ln D.  Where that exceeds twice ``BRACKET_CAP_K`` (the
      factor 2 covers the rounding of the test) the shell is ABOVE_CAP, before
      a level energy or |zeta| s l could overflow.

    Every other shell has W(0) < 0 < W(infinity), so exactly one zero.  Its
    level table is built once, and W is evaluated at 1, 2, 4, ... K below
    ``BRACKET_CAP_K`` and at the cap itself in one kernel call.  The first
    non-negative value closes the bracket; if none does, W is negative at
    every temperature up to the cap, which is ABOVE_CAP too.  Inside the
    bracket, a Newton step that would leave it, or that is not at most half
    the step before the last, is replaced by bisection (``rtsafe``,
    Numerical Recipes section 9.4).  Every evaluated point narrows the
    bracket.

    The returned temperature lies within ``tolerance`` (kelvin) of the zero
    wherever the tolerance is above the rounding floor of the float
    witness: W(0) + <x> cancels near the zero, so the computed sign of W is
    unreliable an ulp or so from it.  Against an exact decimal W(T) on 20000
    random crossings with 2s, 2l <= 12, every returned value lay within
    max(tolerance, 6 ulps) of the zero, all but 32 within max(tolerance,
    3 ulps).  The floor does not grow with the shell: at s = 1/2, 2l from 6
    to 2e7 and zeta = 900 K the value is within 1.01 ulps of the
    closed-form zero, and at 2s = 2l = 1e4, zeta = 1 K, within 2 ulps.

    The search stops when the bracket is no wider than ``tolerance``, when
    its ends are adjacent floats, or when a Newton step no longer moves the
    iterate.  A Newton step shorter than tolerance/2 is certified by one
    probe tolerance/2 beyond its target; the target is returned when W
    changes sign between the iterate and the probe.  No iteration cap is
    needed: the bracket shrinks at every step, so the search ends for any
    positive finite tolerance, sub-ulp ones included.
    """
    if not 0.0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance!r}")
    if system.witness_trivial:
        return EntanglementTemperature(None, WitnessStatus.WITNESS_DEGENERATE)
    if system.zeta < 0.0:
        return EntanglementTemperature(None, WitnessStatus.NO_CROSSING)
    if system.convention is Convention.LEVEL_UNIFORM and system.s.twice == system.l.twice == 1:
        return EntanglementTemperature(None, WitnessStatus.ABOVE_CAP)
    twice_min = min(system.s.twice, system.l.twice)
    states = twice_min + 1 if system.convention is Convention.LEVEL_UNIFORM else system.dimension
    if system.zeta * (twice_min / 2) > 2.0 * BRACKET_CAP_K * math.log(states):
        return EntanglementTemperature(None, WitnessStatus.ABOVE_CAP)
    table = _LevelTable(system)
    floor = _witness_at_zero(system)
    sums, partition = table.sums(_BRACKET_GRID)
    crossed = floor + sums[:, 0] / partition >= 0.0
    k = int(crossed.argmax())
    if not crossed[k]:
        return EntanglementTemperature(None, WitnessStatus.ABOVE_CAP)
    low = float(_BRACKET_GRID[k - 1]) if k else 0.0
    x = high = float(_BRACKET_GRID[k])

    def point(t: float, row: np.ndarray, z: float) -> tuple[float, float]:
        """W and its slope at t from one row of kernel sums and its Z."""
        x1, x2 = row.tolist()
        x1 /= z
        square = t * t  # 0 below about 1.5e-162 K, where the slope is unknown
        return floor + x1, (x2 / z - x1 * x1) / square if square else math.nan

    def evaluate(t: float) -> tuple[float, float]:
        row, z = table.sums(t)
        return point(t, row, z.item())

    w, slope = point(high, sums[k], partition.item(k))

    iterations = 0
    step = before_last = high - low
    while True:
        if w < 0.0:
            low = x
        else:
            high = x
        if w == 0.0 or high - low <= tolerance or math.nextafter(low, high) == high:
            return EntanglementTemperature(x, WitnessStatus.CROSSED, iterations, w)
        newton = x - w / slope if slope > 0.0 else math.nan
        if newton == x:
            return EntanglementTemperature(x, WitnessStatus.CROSSED, iterations, w)
        iterations += 1
        if not (low < newton < high and abs(newton - x) <= 0.5 * before_last):
            before_last, step = step, 0.5 * (high - low)
            x = 0.5 * (low + high)
            w, slope = evaluate(x)
            continue
        before_last, step = step, abs(newton - x)
        if step <= 0.5 * tolerance:
            probe = newton + math.copysign(0.5 * tolerance, newton - x)
            if low < probe < high:
                w_probe, slope_probe = evaluate(probe)
                if (w_probe < 0.0) == (w < 0.0):
                    # the zero lies beyond the probe after all
                    x, w, slope = probe, w_probe, slope_probe
                    continue
            # the zero lies between x and the probe (or the bracket end
            # before it), each within tolerance/2 of the Newton target
            w_target, _ = evaluate(newton)
            return EntanglementTemperature(newton, WitnessStatus.CROSSED, iterations, w_target)
        x = newton
        w, slope = evaluate(x)


def _curve_chunks(
    system: SpinOrbitSystem, tmin: float, tmax: float, steps: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The uniform grid of ``witness_curve`` as (T, <H>, W) chunks, the
    columns of the curve CSV.

    The grid is checked and the level table built at once, before the
    first chunk is asked for, so a bad grid raises ValueError before a
    caller has written anything.  Each chunk is one level-major kernel
    chunk.  A row has the same bits in any chunk of >= 2 rows on tables of
    <= 7 levels, the catalog shells among them; a one-row chunk takes the
    matrix-vector path (Pm, Eu: 336 to 714 of 7200 rows differ).  On bigger
    tables BLAS promises no summation order, though on 150 random shells
    with 2s, 2l <= 139 no row's bits depended on its chunk.

    Each grid value is within 3 rounding errors of its exact value, so a
    spacing of at least 8 ulp(tmax) keeps the computed grid strictly
    increasing; a finer grid is rejected.  It also bounds ``steps`` below
    2**50, so the integer grid index never overflows.  The grid values are
    weighted sums with weights up to ``steps - 1``, so a grid whose
    ``tmax * (steps - 1)`` overflows is rejected too.
    """
    if not (tmin > 0.0 and math.isfinite(tmin) and math.isfinite(tmax)):
        raise ValueError("temperatures must be positive and finite")
    if tmax <= tmin:
        raise ValueError(f"tmax must exceed tmin, got [{tmin}, {tmax}]")
    if steps < 2:
        raise ValueError(f"a curve needs at least 2 steps, got {steps}")
    if steps - 1 > (tmax - tmin) / (8.0 * math.ulp(tmax)):
        raise ValueError(
            f"{steps} steps are finer than the float resolution of [{tmin}, {tmax}]"
        )
    if not math.isfinite(tmax * (steps - 1)):
        raise ValueError(f"{steps} steps up to tmax={tmax} overflow the float range")
    table = _LevelTable(system)
    floor = _witness_at_zero(system)

    def chunks() -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        for start in range(0, steps, table.chunk_rows):
            i = np.arange(start, min(start + table.chunk_rows, steps))
            temperatures = (tmin * (steps - 1 - i) + tmax * i) / (steps - 1)
            sums, partition = table.sums(temperatures)
            excitation = sums[:, 0] / partition
            yield temperatures, table.ground_energy + excitation, floor + excitation

    return chunks()


def witness_curve(
    system: SpinOrbitSystem, tmin: float, tmax: float, steps: int
) -> WitnessCurve:
    """Sample the witness on a uniform temperature grid, endpoints included."""
    columns = [np.concatenate(c) for c in zip(*_curve_chunks(system, tmin, tmax, steps))]
    for column in columns:
        column.flags.writeable = False
    return WitnessCurve(system, *columns)
