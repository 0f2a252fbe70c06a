"""Exact bookkeeping for a single spin-orbit coupled (s, l) shell.

Angular momentum quantum numbers live on the half-integer lattice, so they
are stored as doubled integers and converted to floating point only at the
moment an energy in kelvin is actually produced.  The fine-structure level
energies follow from the operator identity

    2 S.L = J^2 - S^2 - L^2

so each multiplet with total angular momentum j carries the exact energy
(zeta/2) * [j(j+1) - s(s+1) - l(l+1)].
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HalfInt",
    "Convention",
    "SpinOrbitSystem",
    "Multiplet",
    "multiplets",
    "level_energy",
]


@dataclass(frozen=True, order=True)
class HalfInt:
    """An integer or half-integer, stored exactly as ``2x``.

    Magnitude-like quantum numbers (s, l, j) are non-negative, but magnetic
    components m may be negative, so the type itself admits any sign;
    non-negativity is enforced where it is actually required.  Equality and
    ordering compare the doubled values exactly.
    """

    twice: int

    def __post_init__(self) -> None:
        if isinstance(self.twice, bool) or not isinstance(self.twice, int):
            raise TypeError(f"doubled value must be an int, got {self.twice!r}")

    @property
    def value(self) -> float:
        """The quantum number as a float (exact: halves are binary fractions)."""
        return self.twice / 2.0

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


class Convention(enum.Enum):
    """How thermal sums weight each fine-structure level.

    MULTIPLET_DEGENERATE counts every multiplet with its true dimension
    2j+1 (the Gibbs state of the full Hamiltonian).  LEVEL_UNIFORM gives
    each distinct level unit weight, as in tabulations that treat the
    fine-structure spectrum as a plain list of energies.
    """

    MULTIPLET_DEGENERATE = "multiplet"
    LEVEL_UNIFORM = "level"


@dataclass(frozen=True)
class SpinOrbitSystem:
    """An (s, l) shell with coupling constant ``zeta`` in kelvin.

    ``zeta`` carries its physical sign: positive for less-than-half-filled
    shells (ground j = |l-s|), negative for more-than-half-filled shells
    (ground j = l+s).  A zero coupling is only meaningful when one of the
    factors is trivial (s = 0 or l = 0), where every notion of spin-orbit
    entanglement degenerates.
    """

    s: HalfInt
    l: HalfInt
    zeta: float
    convention: Convention = Convention.MULTIPLET_DEGENERATE

    def __post_init__(self) -> None:
        if not isinstance(self.s, HalfInt) or not isinstance(self.l, HalfInt):
            raise TypeError("s and l must be HalfInt instances")
        if self.s.twice < 0 or self.l.twice < 0:
            raise ValueError(f"s and l must be non-negative, got s={self.s}, l={self.l}")
        if not isinstance(self.convention, Convention):
            raise TypeError(f"convention must be a Convention, got {self.convention!r}")
        object.__setattr__(self, "zeta", float(self.zeta))
        if not math.isfinite(self.zeta):
            raise ValueError(f"coupling must be finite, got {self.zeta!r}")
        if self.zeta == 0.0 and self.s.twice != 0 and self.l.twice != 0:
            raise ValueError("coupling must be nonzero when both s and l are nonzero")

    @property
    def dimension(self) -> int:
        """Product-space dimension (2s+1)(2l+1)."""
        return (self.s.twice + 1) * (self.l.twice + 1)

    @property
    def separable_bound(self) -> float:
        """|zeta| s l, the magnitude of the product-state energy floor.

        The exact /4 comes before the product with zeta, so the bound is
        finite whenever |zeta| s l is.
        """
        return abs(self.zeta) * ((self.s.twice * self.l.twice) / 4.0)

    @property
    def witness_trivial(self) -> bool:
        """True when the witness cannot resolve anything (s l zeta = 0)."""
        return self.s.twice == 0 or self.l.twice == 0 or self.zeta == 0.0


@dataclass(frozen=True)
class Multiplet:
    """One fine-structure level: total momentum j and its energy."""

    j: HalfInt
    energy: float

    def __post_init__(self) -> None:
        if self.j.twice < 0:
            raise ValueError(f"total momentum must be non-negative, got j={self.j}")

    @property
    def degeneracy(self) -> int:
        """The dimension 2j+1 of the multiplet."""
        return self.j.twice + 1


def _bracket(ts: int, tl: int, tj: int) -> int:
    """8 [j(j+1) - s(s+1) - l(l+1)] from the doubled quantum numbers, exactly;
    elementwise if tj is an integer array wide enough for the products."""
    return tj * (tj + 2) - (ts * (ts + 2) + tl * (tl + 2))


def level_energy(system: SpinOrbitSystem, j: HalfInt) -> float:
    """Energy of the j multiplet, exact up to the single multiplication by zeta.

    The bracket [j(j+1) - s(s+1) - l(l+1)] is assembled in integer
    arithmetic on doubled quantum numbers; the result picks up exactly one
    floating-point rounding.
    """
    ts, tl, tj = system.s.twice, system.l.twice, j.twice
    if tj < abs(ts - tl) or tj > ts + tl or (tj - ts - tl) % 2 != 0:
        raise ValueError(
            f"j={j} is not in the coupling range of s={system.s}, l={system.l}"
        )
    return system.zeta * (_bracket(ts, tl, tj) / 8.0)


def multiplets(system: SpinOrbitSystem) -> tuple[Multiplet, ...]:
    """All multiplets of the shell, ordered by ascending j.

    The dimensions always sum to (2s+1)(2l+1); energies are ascending in j
    for zeta > 0 and descending for zeta < 0.
    """
    ts, tl = system.s.twice, system.l.twice
    return tuple(
        Multiplet(HalfInt(tj), level_energy(system, HalfInt(tj)))
        for tj in range(abs(ts - tl), ts + tl + 1, 2)
    )


def _temperatures(value: float | np.ndarray) -> np.ndarray:
    """A temperature or a 1-D array of them, as a float array of that shape.

    Every temperature must be positive (``nan`` is not); the closed-form and
    the dense route both check their input here.
    """
    temperatures = np.asarray(value, dtype=float)
    if temperatures.ndim > 1:
        raise ValueError(f"temperatures must be a float or a 1-D array, "
                         f"got shape {temperatures.shape}")
    if not (temperatures > 0.0).all():
        raise ValueError(f"temperature must be positive, got {value!r}")
    return temperatures
