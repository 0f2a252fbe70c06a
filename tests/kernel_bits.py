"""Hash the closed-form and sampled results of one checkout of the package on
a fixed set of shells, or compare them between two checkouts:

    python3 tests/kernel_bits.py CHECKOUT > lines.txt
    python3 tests/kernel_bits.py OLD_CHECKOUT NEW_CHECKOUT

Given one checkout, it imports the package from ``<checkout>/src`` and
prints one line per entry: a key, a tab and the entry's value.  Given two,
it runs each checkout in its own interpreter and prints only the entries
that differ, as ``key: old -> new``, then writes to stderr how many entries
differ in each category (the first word of a key) and how many ``te``
entries changed their status; it exits 1 if any entry (or the stderr of a
run) differs and 0 if none does.

The entries are

- the fields of ``entanglement_temperature`` at tolerances 1e-3, 1e-9 and
  1e-300, floats by ``float.hex``;
- ``mean_energy`` at one float temperature and on geometric grids of 1 to
  40 000 points, so grids of one kernel chunk and of many are both covered;
- the three columns of ``witness_curve`` on grids of 2 to 5000 steps;
- on tables of 6 to 9 levels, where NumPy's pairwise sum starts, both of
  these also on grids of L - 1, L, L + 1 and 2L points for a table of L
  levels;
- the Bloch vectors and energies of sampled ``dense`` batches of 1 to 1025
  states;
- those of ``product_states`` on the catalog shells, for seeded complex rows
  at unit scale, scaled by 2^1000 and 2^-1000, and scaled into the
  subnormals, so the power-of-two prescale that sampled rows never need runs;
- the eigenvalues and eigenvectors of ``jacobi_eigh`` on the dense
  Hamiltonian of every 2s, 2l <= 12 at both small couplings, and on seeded
  random symmetric matrices of 1 to 29 rows at scales 1e-200, 1 and 1e200;
- the ``dense._shell`` solve of every 2s, 2l <= 12, its cache cleared first:
  the shell's eigenvalues and each block's eigenpairs;
- the ``curve_text`` bytes of seeded values with decimal exponents from -30
  to 30, of +-0, +-inf, nan and the powers of ten with their neighbours, and
  of near-ties of the sixth digit;

and an array's value is the sha256 of its shape, dtype and bytes.  Each
value ends with the category and message of every warning its computation
raised, in order, so a change in what warns shows per entry.  The
shells are the catalog, every 2s, 2l <= 24 at one positive and one negative
coupling, the midpoints of the 24 level strata of the ``scan`` benchmark
workload (2 to 128 levels) and a few shells at tiny and huge couplings, each
under both conventions.  Sampled batches are drawn on the catalog and on the
shells with 2s, 2l <= 12 only, as they do not depend on the convention.

Bits depend on the BLAS build and the CPU, so this is a script that
compares two checkouts on one machine, not a test with recorded digests;
pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from typing import Iterator

TOLERANCES = (1e-3, 1e-9, 1e-300)
GRID_POINTS = (1, 2, 31, 1000, 4097, 40000)
CURVE_STEPS = (2, 7, 5000)
# tables of these many levels also get grids of L - 1, L, L + 1 and 2L points
NEAR_LEVELS = range(6, 10)
BATCHES = (1, 37, 1025)
# product_states rows: how many per factor, and the powers of two they are
# scaled by; 2^-1060 leaves every part subnormal
EXPLICIT_ROWS = 37
EXPLICIT_SCALES = (0, 1000, -1000, -1060)
SMALL = range(25)  # every 2s, 2l <= 24
SMALL_ZETAS = (3.7, -57.3)
DENSE = range(13)  # sampled batches on 2s, 2l <= 12
# the scan workload: level counts at the midpoints of 24 strata of equal width
# in log(levels) over 2..128, with its spread of shapes and couplings
STRATA = 24
SHAPES = (0.0, 1 / 3, 2 / 3, 1.0)
# (2s, 2l) at couplings far from the catalog's
EXTREME_SHELLS = ((1, 1), (1, 2), (5, 12), (6, 6), (24, 24))
EXTREME_ZETAS = (1e-300, 1e-200, 1e-3, 1e12, 1e300, 1e308, -1e-300, -1e308)
# random symmetric matrices for jacobi_eigh: how many, and their scales
RANDOM_MATRICES = 300
MATRIX_SCALES = (1e-200, 1.0, 1e200)
# curve_text: random values, and the decimal exponents they and the near-ties span
TEXT_VALUES = 10_000
TEXT_EXPONENTS = range(-30, 31)


def shells(api) -> Iterator[tuple[str, object]]:
    """(label, system) for every shell of the set, both conventions."""
    for record in api.CATALOG:
        if record.zeta is not None:
            for convention in api.Convention:
                yield f"{record.symbol} {convention.value}", record.system(convention)
    pairs = [(two_s, two_l, zeta) for two_s, two_l in itertools.product(SMALL, SMALL)
             for zeta in SMALL_ZETAS]
    for m in range(STRATA):
        levels = round(2.0 ** (1.0 + 6.0 * (m + 0.5) / STRATA))
        small = levels - 1
        big = small + round(SHAPES[(m // 2) % len(SHAPES)] * levels)
        pairs.append((small, big, float(format(100.0 * 10.0 ** ((5 * m % 8 + 0.5) / 8), ".6g"))))
    pairs += [(two_s, two_l, zeta) for two_s, two_l in EXTREME_SHELLS for zeta in EXTREME_ZETAS]
    for two_s, two_l, zeta in pairs:
        for convention in api.Convention:
            system = api.SpinOrbitSystem(api.HalfInt(two_s), api.HalfInt(two_l), zeta, convention)
            yield f"{two_s} {two_l} {zeta!r} {convention.value}", system


def digest(array) -> str:
    text = f"{array.shape} {array.dtype} ".encode() + array.tobytes()
    return hashlib.sha256(text).hexdigest()[:32]


def eigen_entries(api, dense) -> Iterator[tuple[str, str]]:
    """``jacobi_eigh`` on the Hamiltonians and random matrices, and the
    ``_shell`` solves, each solved afresh."""
    import numpy as np

    for two_s, two_l in itertools.product(DENSE, DENSE):
        for zeta in SMALL_ZETAS:
            system = api.SpinOrbitSystem(api.HalfInt(two_s), api.HalfInt(two_l), zeta)
            yield (f"jacobi {two_s} {two_l} {zeta!r}",
                   " ".join(map(digest, dense.jacobi_eigh(dense.build_hamiltonian(system)))))
        dense._shell.cache_clear()
        values, blocks = dense._shell(two_s, two_l)
        solves = " ".join(digest(a) for block in blocks for a in block)
        yield (f"shell {two_s} {two_l}",
               f"{digest(values)} {hashlib.sha256(solves.encode()).hexdigest()[:32]}")
    rng = np.random.default_rng(2024)
    for k in range(RANDOM_MATRICES):
        n = int(rng.integers(1, 30))
        scale = MATRIX_SCALES[k % len(MATRIX_SCALES)]
        half = rng.standard_normal((n, n))
        matrix = (half + half.T) * scale
        yield f"jacobi random {k} {n} {scale!r}", " ".join(map(digest, dense.jacobi_eigh(matrix)))


def text_entries(curve_text) -> Iterator[tuple[str, str]]:
    """The ``curve_text`` bytes of three seeded sets of values, each value in
    every column once."""
    import numpy as np

    rng = np.random.default_rng(2024)
    exponents = rng.integers(TEXT_EXPONENTS.start, TEXT_EXPONENTS.stop, TEXT_VALUES)
    signs = rng.choice((-1.0, 1.0), TEXT_VALUES)
    random = signs * rng.uniform(1.0, 10.0, TEXT_VALUES) * 10.0 ** exponents.astype(float)
    powers = [float(f"1e{e}") for e in TEXT_EXPONENTS]
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, *powers,
                *(math.nextafter(v, to) for v in powers for to in (0.0, math.inf))]
    ties = [float(f"{m}.5e{e - 5}") for m, e in zip(rng.integers(10**5, 10**6, 1000),
                                                   rng.choice(TEXT_EXPONENTS, 1000))]
    near_ties = [math.nextafter(v, to) for v in ties for to in (0.0, v, math.inf)]
    for name, values in (("random", random), ("specials", specials), ("near-ties", near_ties)):
        t = np.array(values)
        text = curve_text(t, np.roll(t, 1), np.roll(t, 2))
        yield f"curve_text {name}", hashlib.sha256(text.encode()).hexdigest()[:32]


def entries(checkout: Path) -> Iterator[tuple[str, str]]:
    """The (key, value) entries of the checkout whose package is on the path."""
    import numpy as np

    import sowitness as api
    from sowitness import dense
    from sowitness._curve_csv import curve_text

    assert Path(api.__file__).resolve().is_relative_to(checkout / "src"), api.__file__
    for label, system in shells(api):
        for tolerance in TOLERANCES:
            result = api.entanglement_temperature(system, tolerance)
            fields = [None if v is None else v.hex() for v in (result.temperature,
                                                               result.residual)]
            yield (f"te {label} {tolerance!r}",
                   f"{result.status.value} {result.iterations} {fields[0]} {fields[1]}")
        yield f"mean_energy {label} 300.0", api.mean_energy(system, 300.0).hex()
        levels = min(system.s.twice, system.l.twice) + 1
        near = {levels - 1, levels, levels + 1, 2 * levels} if levels in NEAR_LEVELS else set()
        for points in sorted(near.union(GRID_POINTS)):
            grid = np.geomspace(1e-3, 1e7, points) if points > 1 else np.array([42.0])
            yield f"mean_energy {label} {points}", digest(api.mean_energy(system, grid))
        for steps in sorted(near.union(CURVE_STEPS)):
            curve = api.witness_curve(system, 1.0, 6000.0, steps)
            yield (f"witness_curve {label} {steps}",
                   " ".join(digest(c) for c in (curve.temperatures, curve.mean_energy,
                                                curve.witness)))
    sampled = [(record.symbol, record.system()) for record in api.CATALOG]
    sampled += [(f"{two_s} {two_l}", api.SpinOrbitSystem(api.HalfInt(two_s),
                                                         api.HalfInt(two_l), 3.7))
                for two_s, two_l in itertools.product(DENSE, DENSE)]
    for label, system in sampled:
        for count in BATCHES:
            rng = np.random.default_rng(count)
            for k, batch in enumerate(dense.sample_product_states(system, rng, count)):
                yield (f"dense {label} {count} batch {k}",
                       " ".join(digest(a) for a in (batch.spin_vectors, batch.orbital_vectors,
                                                    batch.energies)))
    for record in api.CATALOG:
        if record.zeta is None:
            continue
        rng = np.random.default_rng(record.n4f)
        rows = [rng.standard_normal((EXPLICIT_ROWS, 2 * (twice + 1)))
                for twice in (record.s.twice, record.l.twice)]
        for k in EXPLICIT_SCALES:
            batch = dense.product_states(record.system(),
                                         *(np.ldexp(r, k).view(complex) for r in rows))
            yield (f"product_states {record.symbol} {k}",
                   " ".join(digest(a) for a in (batch.spin_vectors, batch.orbital_vectors,
                                                batch.energies)))
    yield from eigen_entries(api, dense)
    yield from text_entries(curve_text)


def with_warnings(pairs: Iterator[tuple[str, str]]) -> Iterator[tuple[str, str]]:
    """Each (key, value) of ``pairs``, the value followed by the warnings
    raised while it was computed."""
    while True:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                key, value = next(pairs)
            except StopIteration:
                return
        yield key, value + "".join(f" | {w.category.__name__}: {w.message}" for w in caught)


def lines(checkout: Path) -> tuple[dict[str, str], str]:
    """The entries of one checkout, run in its own interpreter, and its stderr."""
    result = subprocess.run(
        [sys.executable, __file__, str(checkout)],
        env=dict(os.environ, PYTHONPATH=str(checkout / "src")),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=3600)
    if result.returncode:
        sys.exit(f"{checkout}: exit {result.returncode}\n{result.stderr}")
    found = dict(line.split("\t", 1) for line in result.stdout.splitlines())
    return found, result.stderr.replace(str(checkout), "<checkout>")


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print("usage: python3 tests/kernel_bits.py CHECKOUT [NEW_CHECKOUT]", file=sys.stderr)
        return 2
    checkouts = [Path(arg).resolve() for arg in argv]
    if len(checkouts) == 1:
        sys.path.insert(0, str(checkouts[0] / "src"))
        for key, value in with_warnings(entries(checkouts[0])):
            print(f"{key}\t{value}")
        return 0
    (old, old_err), (new, new_err) = map(lines, checkouts)
    counts: dict[str, int] = {}
    for key in sorted(old.keys() | new.keys()):
        if old.get(key) != new.get(key):
            print(f"{key}: {old.get(key)} -> {new.get(key)}", flush=True)
            category = key.split(" ", 1)[0]
            counts[category] = counts.get(category, 0) + 1
            if category == "te" and str(old.get(key)).split()[0] != str(new.get(key)).split()[0]:
                counts["te status"] = counts.get("te status", 0) + 1
    if old_err != new_err:
        print(f"stderr: {old_err!r} -> {new_err!r}", flush=True)
        counts["stderr"] = 1
    summary = ", ".join(f"{category} {n}" for category, n in sorted(counts.items()))
    print(f"differing entries: {summary or 'none'}", file=sys.stderr)
    return 1 if counts else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
