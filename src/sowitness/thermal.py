"""Thermal averages over the fine-structure spectrum and the witness W(T).

The witness is W(T) = <H>_T + |zeta| s l.  Product (separable) states
satisfy <H> >= -|zeta| s l, so a thermal state with W(T) < 0 is certifiably
entangled across the spin-orbit bipartition.  The entanglement temperature
is the unique zero of W: <H>_T is a nondecreasing function of T for any
fixed positive weights, so at most one sign change exists.

Every thermal quantity needs only the levels (g_j, E_j) of the shell.  Each
call builds them once, straight from the doubled quantum numbers, into a
level table: NumPy arrays of the effective prefactors g_j (2j+1 or 1 by
convention), the energies E_j and the excitations E_j - E_min.  One kernel
then evaluates, over a whole array of temperatures, the shifted weights
w_j = g_j exp(-(E_j - E_min)/T), the partition sum Z = sum_j w_j, the mean
energy <H> and the fluctuation <H^2> - <H>^2.  Every exponent is
non-positive, so the sums cannot overflow at any temperature, and a
temperature costs O(levels).  ``mean_energy``, ``witness``,
``witness_curve`` and ``entanglement_temperature`` all go through the
kernel.

A witness curve is evaluated in chunks of the kernel's own size by
``_curve_chunks``: ``witness_curve`` joins the chunks into read-only arrays,
and the command line formats and writes each chunk as it comes, so the
memory a curve needs on its way to a CSV file is bounded for any length.

The fluctuation gives the exact slope dW/dT = (<H^2> - <H>^2)/T^2 under
either convention, which the root finder for T_E uses for Newton steps.
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

# The doubling bracket 1, 2, 4, ... K up to the cap, evaluated in one kernel call.
_BRACKET_GRID = np.exp2(np.arange(math.floor(math.log2(BRACKET_CAP_K)) + 1))

# The kernel works on at most this many (temperature, level) weights at a
# time, so its temporary arrays stay bounded for any grid length.
_KERNEL_ELEMENTS = 1 << 16


@dataclass(frozen=True, eq=False)
class WitnessCurve:
    """Witness samples on a strictly increasing temperature grid.

    Each field after ``system`` is a read-only array with one entry per grid
    temperature: the shifted partition sum, the mean energy <H> and the
    witness W = <H> + |zeta| s l.
    """

    system: SpinOrbitSystem
    temperatures: np.ndarray
    partition: np.ndarray
    mean_energy: np.ndarray
    witness: np.ndarray


class WitnessStatus(enum.Enum):
    """Why entanglement_temperature did or did not produce a zero."""

    CROSSED = "crossed"
    NO_CROSSING = "no-crossing"
    WITNESS_DEGENERATE = "witness-degenerate"


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

    ``brackets`` (q_j = 8 E_j / zeta) and ``degeneracies`` (g_j) are exact
    Python ints; E_j = zeta (q_j / 8) takes the one rounding of ``level_energy``.
    """

    def __init__(self, system: SpinOrbitSystem) -> None:
        ts, tl = system.s.twice, system.l.twice
        twice_j = range(abs(ts - tl), ts + tl + 1, 2)
        self.brackets = [_bracket(ts, tl, tj) for tj in twice_j]
        by_dimension = system.convention is Convention.MULTIPLET_DEGENERATE
        self.degeneracies = [tj + 1 if by_dimension else 1 for tj in twice_j]
        self.prefactors = np.array(self.degeneracies, dtype=float)
        self.energies = system.zeta * (np.array(self.brackets, dtype=float) / 8.0)
        self.ground_energy = float(self.energies.min())
        self.excitations = self.energies - self.ground_energy
        # <H> is summed over the energies themselves; the fluctuation over
        # the excitations x, which are non-negative with a zero at the
        # ground level, so <x^2> - <x>^2 does not cancel catastrophically.
        self.powers = np.stack(
            (self.energies, self.excitations, self.excitations * self.excitations), axis=1
        )
        # temperatures per kernel chunk, so a chunk holds at most
        # _KERNEL_ELEMENTS weights
        self.chunk_rows = max(1, _KERNEL_ELEMENTS // len(self.energies))

    def averages(self, temperatures: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Z, <H> and <H^2> - <H>^2 at each of a 1-D array of positive temperatures."""
        partition = np.empty(len(temperatures))
        mean = np.empty(len(temperatures))
        fluctuation = np.empty(len(temperatures))
        for start in range(0, len(temperatures), self.chunk_rows):
            chunk = slice(start, start + self.chunk_rows)
            with np.errstate(over="ignore"):  # exponents are <= 0: -inf is a weight of 0
                exponents = -self.excitations / temperatures[chunk, np.newaxis]
            weights = self.prefactors * np.exp(exponents)
            z = weights.sum(axis=1)
            sums = (weights @ self.powers) / z[:, np.newaxis]
            partition[chunk] = z
            mean[chunk] = sums[:, 0]
            fluctuation[chunk] = sums[:, 2] - sums[:, 1] * sums[:, 1]
        return partition, mean, fluctuation


def _witness_and_slope(
    table: _LevelTable, bound: float, temperatures: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """W(T) and the fluctuation identity dW/dT = (<H^2> - <H>^2)/T^2."""
    _, mean, fluctuation = table.averages(temperatures)
    return mean + bound, fluctuation / (temperatures * temperatures)


def mean_energy(
    system: SpinOrbitSystem, temperature: float | np.ndarray
) -> float | np.ndarray:
    """Thermal mean energy <H>_T under the system's weighting convention.

    A float gives a float.  A 1-D array of temperatures gives an array of the
    same length from one level table and one kernel call; its values may
    differ from the per-temperature floats in the last bits, because the
    kernel's matrix product rounds differently with the number of rows.
    """
    temperatures = _temperatures(temperature)
    mean = _LevelTable(system).averages(temperatures.reshape(-1))[1]
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


def _witness_sign_at_infinity(system: SpinOrbitSystem, table: _LevelTable) -> int:
    """The sign of lim W(T) for T -> infinity, in exact integer arithmetic.

    The limit is the prefactor-weighted mean energy plus |zeta| s l.  With
    8 E_j = zeta q_j for the table's integer brackets q_j, it has the sign
    of sum_j g_j (sign(zeta) q_j + 2 (2s)(2l)).
    """
    sign = 1 if system.zeta > 0.0 else -1
    cross = 2 * system.s.twice * system.l.twice
    total = sum(g * (sign * q + cross) for g, q in zip(table.degeneracies, table.brackets))
    return (total > 0) - (total < 0)


def entanglement_temperature(
    system: SpinOrbitSystem, tolerance: float = 1e-3
) -> EntanglementTemperature:
    """Locate the zero of W(T) by a safeguarded Newton search.

    The level table is built once.  W(0) >= 0 means NO_CROSSING, and systems
    with s l zeta = 0 report WITNESS_DEGENERATE (the witness is identically
    >= 0 and carries no information).  If the T -> infinity limit of W,
    whose sign is computed exactly, is not positive, W never reaches zero
    and a RuntimeError is raised at once.

    Otherwise W is evaluated at 1, 2, 4, ... K up to ``BRACKET_CAP_K`` in one
    kernel call, and the first non-negative value closes the bracket (a
    RuntimeError if none does).  Inside it, Newton steps use the exact slope
    dW/dT = (<H^2> - <H>^2)/T^2; a step that would leave the bracket, or that
    is not at most half the step before the last, is replaced by bisection
    (``rtsafe``, Numerical Recipes section 9.4).  Every evaluated point
    narrows the bracket.

    The returned temperature lies within ``tolerance`` (kelvin) of the zero
    wherever the tolerance is above the rounding floor of the float
    witness: <H> + |zeta| s l cancels near the zero, so the computed sign of
    W is unreliable a few ulps from it.  Against an exact decimal W(T) on
    2296 crossings, every returned value lay within max(tolerance, 16 ulps)
    of the zero; 16 ulps is under 4e-15 relative.  The search stops when the
    bracket is no wider than ``tolerance``, when its ends are adjacent
    floats, or when a Newton step no longer moves the iterate.  A Newton
    step shorter than tolerance/2 is certified by one probe tolerance/2
    beyond its target; the target is returned when W changes sign between
    the iterate and the probe.
    No iteration cap is needed: the bracket shrinks at every step, so the
    search ends for any positive finite tolerance, sub-ulp ones included.
    """
    if not 0.0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance!r}")
    if system.witness_trivial:
        return EntanglementTemperature(None, WitnessStatus.WITNESS_DEGENERATE)
    table = _LevelTable(system)
    bound = system.separable_bound
    if table.ground_energy + bound >= 0.0:
        return EntanglementTemperature(None, WitnessStatus.NO_CROSSING)
    limit = _witness_sign_at_infinity(system, table)
    if limit <= 0:
        raise RuntimeError(
            f"witness stays negative at every temperature (its T -> infinity limit "
            f"is {'zero' if limit == 0 else 'negative'}); no zero below "
            f"{BRACKET_CAP_K:.0e} K"
        )
    values, slopes = _witness_and_slope(table, bound, _BRACKET_GRID)
    crossed = np.flatnonzero(values >= 0.0)
    if not crossed.size:
        raise RuntimeError(
            f"witness is still negative at {_BRACKET_GRID[-1]:.3g} K; no zero below "
            f"{BRACKET_CAP_K:.0e} K (its T -> infinity limit is positive, so a zero "
            "exists, above the searched range)"
        )
    k = int(crossed[0])
    low = float(_BRACKET_GRID[k - 1]) if k else 0.0
    high = float(_BRACKET_GRID[k])
    x, w, slope = high, float(values[k]), float(slopes[k])

    def evaluate(t: float) -> tuple[float, float]:
        value, derivative = _witness_and_slope(table, bound, np.array([t]))
        return float(value[0]), float(derivative[0])

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
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The uniform grid of ``witness_curve`` as (T, Z, <H>, W) chunks.

    The grid is checked and the level table built at once, before the
    first chunk is asked for, so a bad grid raises ValueError before a
    caller has written anything.  Each chunk is one kernel chunk, so every
    row is computed with the same arithmetic at any grid length.

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

    def chunks() -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        for start in range(0, steps, table.chunk_rows):
            i = np.arange(start, min(start + table.chunk_rows, steps))
            temperatures = (tmin * (steps - 1 - i) + tmax * i) / (steps - 1)
            partition, mean, _ = table.averages(temperatures)
            yield temperatures, partition, mean, mean + bound

    return chunks()


def witness_curve(
    system: SpinOrbitSystem, tmin: float, tmax: float, steps: int
) -> WitnessCurve:
    """Sample the witness on a uniform temperature grid, endpoints included."""
    columns = [np.concatenate(c) for c in zip(*_curve_chunks(system, tmin, tmax, steps))]
    for column in columns:
        column.flags.writeable = False
    return WitnessCurve(system, *columns)
