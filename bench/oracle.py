"""Independent checks of every benchmark op's output.

Nothing here imports sowitness.  Level energies come straight from

    E_j = zeta/2 [j(j+1) - s(s+1) - l(l+1)],   j = |s-l| .. s+l,

evaluated with NumPy, so a defect in the closed-form code cannot hide in
its own oracle.  Each check returns ``None`` when the output is correct
and a one-line reason when it is not.
"""

from __future__ import annotations

import math

import numpy as np

CURVE_HEADER = "T_K,mean_energy_K,witness_K"
TE_HEADER = "symbol,convention,te_K,reason"

# (2s, 2l, zeta in K) of the coupled catalog ions: Hund's-rule ground terms
# and the tabulated couplings.  Kept here, not read from the package, so a
# change to the embedded catalog shows up as an oracle failure.
IONS = {
    "Ce": (1, 6, 900.0), "Pr": (2, 10, 620.0), "Nd": (3, 12, 500.0),
    "Pm": (4, 12, 460.0), "Sm": (5, 10, 414.0), "Eu": (6, 6, 500.0),
    "Tb": (6, 6, -483.0), "Dy": (5, 10, -633.0), "Ho": (4, 12, -937.0),
    "Er": (3, 12, -1247.0), "Tm": (2, 10, -1991.0), "Yb": (1, 6, -4229.0),
}
LIGHT = ("Ce", "Pr", "Nd", "Pm", "Sm", "Eu")


class Shell:
    """Fine-structure levels of one (s, l, zeta) shell under one convention."""

    def __init__(self, two_s: int, two_l: int, zeta: float, convention: str) -> None:
        two_j = np.arange(abs(two_s - two_l), two_s + two_l + 1, 2)
        s, l, j = two_s / 2.0, two_l / 2.0, two_j / 2.0
        self.zeta = zeta
        self.energies = (zeta / 2.0) * (j * (j + 1) - s * (s + 1) - l * (l + 1))
        self.prefactors = two_j + 1.0 if convention == "multiplet" else np.ones(len(two_j))
        self.bound = abs(zeta) * (s * l)
        self.ground = float(self.energies.min())
        self.trivial = two_s == 0 or two_l == 0 or zeta == 0.0

    def mean_energy(self, temperatures: np.ndarray) -> np.ndarray:
        """Boltzmann mean of the level energies at each temperature."""
        t = np.asarray(temperatures, dtype=float)[:, None]
        w = self.prefactors * np.exp(-(self.energies - self.ground) / t)
        return (w @ self.energies) / w.sum(axis=1)

    def witness(self, temperature: float) -> float:
        return float(self.mean_energy(np.array([temperature]))[0]) + self.bound

    def entanglement_temperature(self) -> tuple[str, float | None]:
        """(status, zero of the witness) with the zero found to full precision.

        For zeta < 0 the ground level j = s+l sits exactly at -|zeta| s l, so
        the witness starts at 0 and never crosses; for zeta > 0 it starts at
        -zeta min(s, l) < 0.
        """
        if self.trivial:
            return "witness-degenerate", None
        if self.zeta < 0.0:
            return "no-crossing", None
        infinite = float(self.prefactors @ self.energies / self.prefactors.sum()) + self.bound
        if infinite <= 0.0:
            raise ValueError("the witness never turns non-negative for this shell")
        high = 1.0
        while self.witness(high) < 0.0:
            high *= 2.0
        low = 0.0
        while True:
            mid = 0.5 * (low + high)
            if mid in (low, high):
                return "crossed", mid
            if self.witness(mid) < 0.0:
                low = mid
            else:
                high = mid


def _sig6_ok(printed: np.ndarray, exact: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Whether ``printed`` is ``exact`` written with 6 significant digits.

    Allows half a unit in the sixth digit plus 1e-9 of ``scale``, the size of
    the terms that were summed or cancelled to produce the value.
    """
    size = np.maximum(np.abs(printed), np.abs(exact))
    with np.errstate(divide="ignore"):
        exponent = np.floor(np.log10(np.where(size > 0.0, size, 1.0)))
    half_unit = 0.5 * 10.0 ** (exponent - 5) * (1.0 + 1e-9)
    return np.abs(printed - exact) <= half_unit + 1e-9 * scale


def check_curve_csv(text: str, shell: Shell, tmin: float, tmax: float, steps: int) -> str | None:
    """Every row of a witness CSV against the independent evaluation."""
    lines = text.splitlines()
    if not lines or lines[0] != CURVE_HEADER:
        return "curve CSV header missing"
    if len(lines) != steps + 1:
        return f"curve CSV has {len(lines) - 1} rows, expected {steps}"
    try:
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    except ValueError as exc:
        return f"curve CSV row does not parse: {exc}"
    if rows.shape != (steps, 3):
        return "curve CSV rows do not have three columns"
    i = np.arange(steps)
    grid = (tmin * (steps - 1 - i) + tmax * i) / (steps - 1)
    mean = shell.mean_energy(grid)
    witness = mean + shell.bound
    magnitude = np.abs(mean) + shell.bound
    names = CURVE_HEADER.split(",")
    for col, (exact, scale) in enumerate(((grid, grid), (mean, magnitude), (witness, magnitude))):
        bad = np.flatnonzero(~_sig6_ok(rows[:, col], exact, scale))
        if bad.size:
            k = int(bad[0])
            return (f"curve row {k + 1}: {names[col]} reads {rows[k, col]!r}, "
                    f"the oracle gives {exact[k]!r}")
    return None


def te_within(printed: float, exact: float, tolerance: float) -> bool:
    """Whether a 6-digit T_E lies within ``tolerance`` of the exact zero.

    Accepts exactly the printed values that some temperature within
    ``tolerance`` of the zero rounds to, with 1e-12 relative slack for the
    oracle's own rounding.
    """
    slack = tolerance + 1e-12 * exact
    low = float(format(exact - slack, ".6g"))
    high = float(format(exact + slack, ".6g"))
    return low <= printed <= high


def check_te_output(text: str, shell: Shell, convention: str, tolerance: float) -> tuple[str, str | None]:
    """(outcome, failure) for the output of ``custom ... te``."""
    lines = text.splitlines()
    if len(lines) != 2 or lines[0] != TE_HEADER:
        return "error", f"te output is not one header and one row: {lines!r}"
    fields = lines[1].split(",")
    if len(fields) != 4 or fields[0] != "custom" or fields[1] != convention:
        return "error", f"te row malformed: {lines[1]!r}"
    status, exact = shell.entanglement_temperature()
    if fields[3] != status:
        return fields[3], f"te status {fields[3]!r}, oracle says {status!r}"
    if exact is None:
        if fields[2] != "none":
            return status, f"te reads {fields[2]!r} for status {status!r}"
        return status, None
    try:
        printed = float(fields[2])
    except ValueError:
        return status, f"te value {fields[2]!r} does not parse"
    if not te_within(printed, exact, tolerance):
        return status, f"te {printed!r} is not within {tolerance} of {exact!r}"
    return status, None


def check_verify_output(code: int, text: str) -> str | None:
    """``verify`` must exit 0 and report every check as passed."""
    lines = text.splitlines()
    if code != 0:
        return f"verify exited {code}"
    if not lines or lines[-1] != "verify: pass":
        return "verify summary line missing or not pass"
    for line in lines:
        _, _, verdict = line.partition(": ")
        if not verdict.startswith("pass"):
            return f"verify line not pass: {line!r}"
    return None


def check_ground_state(symbol: str, analysis) -> str | None:
    """Ground energy and degeneracy of a dense ground-state analysis.

    The ground level is j = |s-l| for zeta > 0 and j = s+l for zeta < 0; its
    degeneracy is 2j+1.  A unique ground state (Eu) must also carry a
    normalised Schmidt spectrum.
    """
    two_s, two_l, zeta = IONS[symbol]
    two_j = abs(two_s - two_l) if zeta > 0 else two_s + two_l
    shell = Shell(two_s, two_l, zeta, "multiplet")
    if not math.isclose(analysis.energy, shell.ground, rel_tol=1e-9, abs_tol=1e-9 * abs(zeta)):
        return f"{symbol}: ground energy {analysis.energy!r}, oracle {shell.ground!r}"
    if analysis.degeneracy != two_j + 1:
        return f"{symbol}: ground degeneracy {analysis.degeneracy}, oracle {two_j + 1}"
    if two_j == 0:
        spectrum = analysis.schmidt_spectrum
        if spectrum is None or not math.isclose(float(np.sum(spectrum)), 1.0, abs_tol=1e-9):
            return f"{symbol}: unique ground state without a normalised Schmidt spectrum"
    return None
