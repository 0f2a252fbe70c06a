"""Thermal averages over the fine-structure spectrum and the witness W(T).

The witness is W(T) = <H>_T + |zeta| s l.  Product (separable) states
satisfy <H> >= -|zeta| s l, so a thermal state with W(T) < 0 is certifiably
entangled across the spin-orbit bipartition.  The entanglement temperature
is the unique zero of W: <H>_T is a nondecreasing function of T for any
fixed positive weights, so at most one sign change exists.

Every thermal quantity needs only the levels (g_j, E_j) of the shell.  Each
call builds them once, straight from the doubled quantum numbers, into a
level table: NumPy arrays of the effective prefactors g_j (2j+1 or 1 by
convention), the energies E_j and the excitations x_j = E_j - E_min.  One
kernel evaluates, over a whole array of temperatures, the shifted weights
w_j = g_j exp(-x_j/T) and returns one array of the normalised moments <H>,
<x> and <x^2>, a row per temperature; the partition sum Z = sum_j w_j only
normalises them.  Every exponent is non-positive, so the sums cannot
overflow at any temperature, and a temperature costs O(levels).
``mean_energy``, ``witness``, ``witness_curve`` and
``entanglement_temperature`` all go through the kernel and each reads the
columns it needs.  It returns a grid of up to ``chunk_rows`` temperatures
(2**14 weights) as one chunk and runs a longer one chunk by chunk.

A witness curve is evaluated in chunks of the kernel's own size by
``_curve_chunks``: ``witness_curve`` joins the chunks into read-only arrays,
and the command line formats each chunk as one string, so the memory a
curve needs on its way to a CSV file is bounded for any length.

The fluctuation <x^2> - <x>^2 = <H^2> - <H>^2 gives the exact slope
dW/dT = (<H^2> - <H>^2)/T^2 under either convention, for the Newton steps of
the root finder for T_E.  Each step is one kernel call on a one-element
array; the fluctuation, W and the slope are then formed on Python floats.
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

    The brackets q_j = 8 E_j / zeta and the degeneracies g_j (2j+1, or 1
    under level weights) are exact integers: int64 while 2s + 2l < 2^31,
    where every bracket fits, and Python ints beyond.  E_j = zeta (q_j / 8)
    takes the one rounding of ``level_energy``.  ``entanglement_temperature``
    builds a table only for a shell whose witness has a zero.
    """

    def __init__(self, system: SpinOrbitSystem) -> None:
        ts, tl = system.s.twice, system.l.twice
        twice_j = np.arange(abs(ts - tl), ts + tl + 1, 2,
                            dtype=np.int64 if ts + tl < 2**31 else object)
        brackets = _bracket(ts, tl, twice_j)
        if system.convention is Convention.MULTIPLET_DEGENERATE:
            self.prefactors = (twice_j + 1).astype(float)
        else:
            self.prefactors = np.ones(len(twice_j))
        self.energies = system.zeta * (brackets.astype(float) / 8.0)
        self.ground_energy = float(self.energies.min())
        self.excitations = self.energies - self.ground_energy
        self.drops = -self.excitations  # exact: drops / T has the bits of -x / T
        # <H> is summed over the energies themselves; the fluctuation over
        # the excitations x, which are non-negative with a zero at the
        # ground level, so <x^2> - <x>^2 does not cancel catastrophically.
        self.powers = np.empty((len(self.energies), 3))
        self.powers[:, 0], self.powers[:, 1] = self.energies, self.excitations
        self.powers[:, 2] = self.excitations * self.excitations
        # temperatures per chunk, so a chunk holds at most _KERNEL_ELEMENTS weights
        self.chunk_rows = max(1, _KERNEL_ELEMENTS // len(self.energies))

    def averages(self, temperatures: np.ndarray) -> np.ndarray:
        """The moments <H>, <x> and <x^2> as the columns of one row per
        temperature of a 1-D array of positive temperatures."""
        if len(temperatures) <= self.chunk_rows:
            return self._chunk(temperatures)
        moments = np.empty((len(temperatures), 3))
        for start in range(0, len(temperatures), self.chunk_rows):
            chunk = slice(start, start + self.chunk_rows)
            moments[chunk] = self._chunk(temperatures[chunk])
        return moments

    def _chunk(self, temperatures: np.ndarray) -> np.ndarray:
        exponents = _divide_ignoring_overflow(self.drops, temperatures[:, np.newaxis])
        weights = self.prefactors * np.exp(exponents)
        return (weights @ self.powers) / weights.sum(axis=1)[:, np.newaxis]


def mean_energy(
    system: SpinOrbitSystem, temperature: float | np.ndarray
) -> float | np.ndarray:
    """Thermal mean energy <H>_T under the system's weighting convention.

    A float gives a float.  A 1-D array of temperatures gives an array of the
    same length from one level table and one kernel call; its values may
    differ from the per-temperature floats in the last bits, as a one-row
    chunk takes the matrix-vector path (see ``_curve_chunks``).
    """
    temperatures = _temperatures(temperature)
    mean = _LevelTable(system).averages(temperatures.reshape(-1))[:, 0]
    return float(mean[0]) if temperatures.ndim == 0 else mean


def witness(system: SpinOrbitSystem, temperature: float) -> float:
    """W(T) = <H>_T + |zeta| s l; negative values certify entanglement.

    At T = 0 the mean energy is its T -> 0+ limit, the ground level energy.
    """
    if temperature == 0.0:
        energy = _LevelTable(system).ground_energy
    elif temperature > 0.0:
        energy = mean_energy(system, temperature)
    else:
        raise ValueError(f"temperature must be non-negative, got {temperature!r}")
    return energy + system.separable_bound


def entanglement_temperature(
    system: SpinOrbitSystem, tolerance: float = 1e-3
) -> EntanglementTemperature:
    """Locate the zero of W(T) by a safeguarded Newton search.

    A shell without a zero is told apart before any float arithmetic, from
    (2s, 2l), the sign of zeta and the convention alone, and builds no level
    table.  The level energies are E_j = (zeta/2) [j(j+1) - s(s+1) - l(l+1)]:

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
    witness: <H> + |zeta| s l cancels near the zero, so the computed sign of
    W is unreliable a few ulps from it.  Against an exact decimal W(T) on
    115331 random crossings with 2s, 2l <= 12, every returned value lay
    within max(tolerance, 32 ulps) of the zero, all but 75 within 16 ulps;
    32 ulps is under 7.2e-15 relative.
    The floor grows with the shell: at s = 1/2, 2l = 2e6, zeta = 900 K and a
    tolerance of 1e-9 K, the value is 47208 ulps from the zero (level weights);
    at 2s = 2l = 1e4, zeta = 1 K, the exact W is still negative 1e-9 K above
    the returned 10000.249999986028 K (level) and 5000.166667766649 K (multiplet).

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
    table = _LevelTable(system)
    bound = system.separable_bound
    moments = table.averages(_BRACKET_GRID)
    crossed = np.flatnonzero(moments[:, 0] + bound >= 0.0)
    if not crossed.size:
        return EntanglementTemperature(None, WitnessStatus.ABOVE_CAP)
    k = int(crossed[0])
    low = float(_BRACKET_GRID[k - 1]) if k else 0.0
    x = high = float(_BRACKET_GRID[k])
    mean, x1, x2 = moments[k].tolist()
    w, slope = mean + bound, (x2 - x1 * x1) / (high * high)

    def evaluate(t: float) -> tuple[float, float]:
        mean, x1, x2 = table.averages(np.array([t]))[0].tolist()
        square = t * t  # 0 below about 1.5e-162 K, where the slope is unknown
        return mean + bound, (x2 - x1 * x1) / square if square else math.nan

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
    caller has written anything.  Each chunk is one kernel chunk.  A row has
    the same bits in any chunk of >= 2 rows on the catalog shells (<= 7
    levels); a one-row chunk takes the matrix-vector path (Pm, Eu: about
    2000 of 7200 rows differ), and on bigger tables BLAS blocking makes a
    row's last bits depend on its chunk (95 of 150 shells, 2s, 2l <= 139).

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
    bound = system.separable_bound

    def chunks() -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        for start in range(0, steps, table.chunk_rows):
            i = np.arange(start, min(start + table.chunk_rows, steps))
            temperatures = (tmin * (steps - 1 - i) + tmax * i) / (steps - 1)
            mean = table.averages(temperatures)[:, 0]
            yield temperatures, mean, mean + bound

    return chunks()


def witness_curve(
    system: SpinOrbitSystem, tmin: float, tmax: float, steps: int
) -> WitnessCurve:
    """Sample the witness on a uniform temperature grid, endpoints included."""
    columns = [np.concatenate(c) for c in zip(*_curve_chunks(system, tmin, tmax, steps))]
    for column in columns:
        column.flags.writeable = False
    return WitnessCurve(system, *columns)
