"""Dense-matrix route: explicit product-basis operators, a self-contained
cyclic Jacobi eigensolver, and product-state sampling.

H = zeta S.L has the eigenvectors of S.L and zeta times its eigenvalues, so
the route works on the zeta-free S.L of the shell (2s, 2l).  One cached
solve per shell (``_shell``) builds S.L, diagonalises it and keeps its
nonzero entries; every system on that shell, whatever its coupling or
weighting convention, reads it.  ``_eigh_of`` scales that solve by zeta
(reversing the order for zeta < 0) for the Gibbs trace, the ground-state
analysis and ``verify``'s spectrum check; the Gibbs trace takes one
temperature or a whole 1-D grid of them.  One evaluator gives the
observables of product states, for the Haar-random batches of at most
``_SAMPLE_CHUNK`` states and for the explicit states of
:func:`product_states`; each energy is zeta times the expectation of the
full S.L matrix on the Kronecker product vector.  The evaluator holds
amplitudes as (dimension, states) arrays, one column per state, and sums
each state's terms entry by entry, so a state's rounding is the same in a
batch of any size; the batch it returns has one row per state.

Everything in this module is deliberately independent of the closed-form
level arithmetic in :mod:`sowitness.angular` / :mod:`sowitness.thermal`;
agreement between the two routes is part of the test contract, so nothing
here may call back into the level formulas (and the eigensolver may not
delegate to an external one).

Basis convention: the product space is ordered spin-major, index
``i = i_s * (2l+1) + i_l`` with ``m_s = s - i_s`` and ``m_l = l - i_l``,
i.e. both magnetic quantum numbers run downward from their maximum.  The
ladder operators are real in the Condon-Shortley phase convention, so
S.L is a real symmetric matrix and its spectrum comes straight from
:func:`jacobi_eigh`; the one complex operator, J_y, enters only the Bloch
vectors of product states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .angular import SpinOrbitSystem, _temperatures

__all__ = [
    "ConvergenceError",
    "ProductStateBatch",
    "GroundStateAnalysis",
    "build_hamiltonian",
    "jacobi_eigh",
    "thermal_mean_energy",
    "product_states",
    "sample_product_states",
    "ground_state_analysis",
]


class ConvergenceError(RuntimeError):
    """The Jacobi sweep budget ran out before the off-diagonal norm target."""

    def __init__(self, message: str, residual: float) -> None:
        super().__init__(message)
        self.residual = residual


def _ladder_triplet(twice_j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Jz, J+, J-) on the 2j+1 basis states, m descending from +j.

    Entries are assembled from exact integer quarters, so e.g. the Casimir
    combination Jz^2 + (J+J- + J-J+)/2 reproduces j(j+1) to rounding error.
    """
    dim = twice_j + 1
    jz = np.zeros((dim, dim))
    jplus = np.zeros((dim, dim))
    jj = twice_j * (twice_j + 2) / 4.0  # j(j+1), exact
    for k in range(dim):
        tm = twice_j - 2 * k  # 2*m, descending from +2j
        jz[k, k] = tm / 2.0
        if k > 0:
            # raising connects |j, m> to |j, m+1>, one row up
            jplus[k - 1, k] = math.sqrt(jj - tm * (tm + 2) / 4.0)
    return jz, jplus, jplus.T


def _spin_orbit(twice_s: int, twice_l: int) -> np.ndarray:
    """S.L = Sz Lz + (S+ L- + S- L+)/2 on the spin-major product basis.

    The matrix is real, symmetric and traceless (every factor operator is
    traceless), with entries of magnitude at most about s l.
    """
    sz, splus, sminus = _ladder_triplet(twice_s)
    lz, lplus, lminus = _ladder_triplet(twice_l)
    return np.kron(sz, lz) + 0.5 * (np.kron(splus, lminus) + np.kron(sminus, lplus))


def build_hamiltonian(system: SpinOrbitSystem) -> np.ndarray:
    """zeta * S.L as a real symmetric matrix on the spin-major product basis."""
    return system.zeta * _spin_orbit(system.s.twice, system.l.twice)


def _frobenius(a: np.ndarray, unit: float) -> float:
    """Frobenius norm of ``a``, with the squares taken of ``a / unit``.

    For a power of two ``unit`` this is ``sqrt(sum(a * a))`` bit for bit
    wherever neither sum overflows or underflows.
    """
    scaled = a / unit
    return unit * math.sqrt(float(np.sum(scaled * scaled)))


_REL_TOL = 1e-13
_MAX_SWEEPS = 50


def jacobi_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a real symmetric matrix by cyclic Jacobi.

    Sweeps classical (p, q) rotations in row-cyclic order until the
    off-diagonal Frobenius norm drops below ``_REL_TOL`` (1e-13) times the
    Frobenius norm of the input, and raises ConvergenceError if it has not
    after ``_MAX_SWEEPS`` (50) sweeps.  Rotations whose pivot is already far
    below the target are skipped; the skip threshold is small enough that
    an all-skip sweep implies convergence, so the loop cannot stall.

    Every entry must be finite and below 2**1023 / n in magnitude for an
    n x n matrix, else ValueError: then the symmetrisation, the Frobenius
    norm (at most n times the largest entry) and the differences of the
    diagonal entries (each at most that norm) stay finite.  A larger matrix
    would overflow one of them and end on a wrong or unrotated diagonal.

    Returns (eigenvalues ascending, eigenvectors as matching columns).
    """
    a = np.array(matrix, dtype=float, copy=True)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    n = a.shape[0]
    scale = float(np.max(np.abs(a))) if n else 0.0
    if not scale < math.ldexp(1.0, 1023) / max(n, 1):
        raise ValueError(f"matrix entries must be finite and below 2**1023/{n} "
                         f"in magnitude, got {scale!r}")
    if scale and float(np.max(np.abs(a - a.T))) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    a = 0.5 * (a + a.T)
    vectors = np.eye(n)
    # Both norms square the entries in units of the power of two just above
    # the largest one, so no square overflows; dividing by it is exact.
    unit = math.ldexp(1.0, math.frexp(scale)[1])
    norm = _frobenius(a, unit)
    if norm == 0.0:
        return np.zeros(n), vectors
    target = _REL_TOL * norm
    # If every pivot is below this, the total off-diagonal norm is already
    # under target/10, so skipping all of them never prevents convergence.
    skip = target / (10.0 * n)
    off = norm
    for _ in range(_MAX_SWEEPS):
        for p in range(n - 1):
            for q in range(p + 1, n):
                pivot = a[p, q]
                if abs(pivot) <= skip:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * pivot)
                if theta >= 0.0:
                    t = 1.0 / (theta + math.sqrt(1.0 + theta * theta))
                else:
                    t = -1.0 / (-theta + math.sqrt(1.0 + theta * theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                vec_p, vec_q = vectors[:, p].copy(), vectors[:, q].copy()
                vectors[:, p] = c * vec_p - s * vec_q
                vectors[:, q] = s * vec_p + c * vec_q
        hollow = a.copy()
        np.fill_diagonal(hollow, 0.0)
        off = _frobenius(hollow, unit)
        if off <= target:
            order = np.argsort(np.diag(a), kind="stable")
            return np.diag(a)[order].copy(), vectors[:, order].copy()
    raise ConvergenceError(
        f"no convergence after {_MAX_SWEEPS} sweeps: off-diagonal norm "
        f"{off:.3e} > target {target:.3e}",
        residual=off,
    )


# A stack of operators as (rows, cols) of every entry nonzero in any of them,
# and the real and imaginary parts there, each of shape (operators, entries)
_Entries = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _entries(*operators: np.ndarray) -> _Entries:
    stack = np.array(operators)
    rows, cols = np.nonzero(np.any(stack != 0, axis=0))
    values = stack[:, rows, cols]
    entries = rows, cols, np.real(values).copy(), np.imag(values).copy()
    for a in entries:
        a.flags.writeable = False
    return entries


@lru_cache(maxsize=128)
def _shell(twice_s: int, twice_l: int) -> tuple[np.ndarray, np.ndarray, _Entries]:
    """Read-only eigenvalues (ascending), eigenvectors and nonzero entries
    of S.L on the shell (2s, 2l), from one build and one :func:`jacobi_eigh`.

    Kept for the last 128 shells; the 12 coupled catalog ions make 6, since
    4f^n and 4f^(14-n) share (s, l).  An entry holds at most 8 n (n + 13)
    bytes for n = (2s+1)(2l+1) (S.L has at most 3n nonzero entries): about
    140 KB in all for the 6 catalog shells (n <= 66).
    """
    matrix = _spin_orbit(twice_s, twice_l)
    values, vectors = jacobi_eigh(matrix)
    for a in (values, vectors):
        a.flags.writeable = False
    return values, vectors, _entries(matrix)


def _eigh_of(system: SpinOrbitSystem) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors (read-only columns) of the
    Hamiltonian: zeta times the shell's S.L solve, both reversed for zeta < 0.
    """
    values, vectors, _ = _shell(system.s.twice, system.l.twice)
    if system.zeta < 0.0:
        return system.zeta * values[::-1], vectors[:, ::-1]
    return system.zeta * values, vectors


def thermal_mean_energy(
    system: SpinOrbitSystem, temperature: float | np.ndarray
) -> float | np.ndarray:
    """Gibbs mean energy over all (2s+1)(2l+1) eigenvalues.

    Every eigenvalue enters with unit weight, so this is by construction
    the multiplet-degenerate convention whatever tag the system carries.
    A float gives a float; a 1-D array of temperatures gives an array of the
    same length, each entry bit for bit the float of its temperature (one
    row of weights per temperature, each summed along its own row).
    """
    temperatures = _temperatures(temperature)
    values, _ = _eigh_of(system)
    weights = np.exp(-(values - values[0]) / temperatures.reshape(-1, 1))
    mean = (weights * values).sum(axis=1) / weights.sum(axis=1)
    return float(mean[0]) if temperatures.ndim == 0 else mean


@dataclass(frozen=True, eq=False)
class ProductStateBatch:
    """Product states, one per row, and their observables as parallel arrays.

    Row ``r`` holds the unit factor states (``spin_states[r]`` of length
    2s+1, ``orbital_states[r]`` of length 2l+1), the Bloch vectors <S> and
    <L> (shape ``(k, 3)``), the cosine of the angle between them and the
    energy <psi| H |psi>.
    """

    spin_states: np.ndarray
    orbital_states: np.ndarray
    spin_vectors: np.ndarray
    orbital_vectors: np.ndarray
    cos_angles: np.ndarray
    energies: np.ndarray


# States drawn and evaluated per batch: large enough that the work runs in
# array operations, small enough that memory does not grow with the count.
_SAMPLE_CHUNK = 256

@lru_cache(maxsize=None)
def _cartesian_triplet(twice_j: int) -> _Entries:
    """Jx, Jy, Jz on the 2j+1 basis states, as stacked nonzero entries."""
    jz, jplus, jminus = _ladder_triplet(twice_j)
    return _entries(0.5 * (jplus + jminus), -0.5j * (jplus - jminus), jz)


def _expectations(entries: _Entries, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Re <psi| A |psi> of each stacked operator A for each column psi = re + i im.

    ``re`` and ``im`` have shape (dimension, states); the result has shape
    (operators, states).  Gathering an operator's entries gathers whole rows,
    and every product and sum runs along the states, so the rounding of a
    state does not depend on the other states of the batch (a matrix
    product's does, through the BLAS kernel chosen for its shape).
    """
    rows, cols, real, imag = entries
    # conj(psi_i) psi_j = (re_i re_j + im_i im_j) + i (re_i im_j - im_i re_j)
    even = re[rows]
    even *= re[cols]
    even += im[rows] * im[cols]
    values = _entry_sums(real, even)
    if imag.any():
        odd = re[rows]
        odd *= im[cols]
        odd -= im[rows] * re[cols]
        values -= _entry_sums(imag, odd)
    return values


def _entry_sums(weights: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """sum_e weights[a, e] terms[e] for each operator a.

    Each state's sum runs entry by entry in order, whatever the batch size.
    ``np.add.reduce`` over the entry axis does so while the states form the
    contiguous axis.  With one state the entries are contiguous instead and
    it would switch to pairwise summation, so one state is summed by
    ``np.add.accumulate``, which is strictly sequential but slower.
    """
    if not len(terms):  # an operator with no nonzero entry, e.g. on j = 0
        return np.zeros((len(weights), terms.shape[1]))
    products = weights[:, :, np.newaxis] * terms
    if terms.shape[1] == 1:
        return np.add.accumulate(products, axis=1)[:, -1]
    return np.add.reduce(products, axis=1)


def _row_norms(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Norm of each row re + i im."""
    return np.sqrt((re * re + im * im).sum(axis=1))


def _unit_columns(
    factor: tuple[np.ndarray, np.ndarray], norms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The (real, imaginary) rows of ``factor`` over their ``norms``, as
    C-contiguous (dimension, states) columns."""
    return tuple(np.divide(part.T, norms, order="C") for part in factor)


def _evaluate(
    system: SpinOrbitSystem, spin: tuple[np.ndarray, np.ndarray],
    orbital: tuple[np.ndarray, np.ndarray],
) -> ProductStateBatch:
    """Observables of the product states spin[:, r] x orbital[:, r], given as
    unit (real, imaginary) column pairs of shape (dimension, states).

    The energy is zeta times the honest matrix expectation <psi| S.L |psi>
    on the full Kronecker product vector, not the factorized shortcut
    zeta <S>.<L>, so that identity is something the batch exhibits rather
    than assumes.
    """
    (s_re, s_im), (o_re, o_im) = spin, orbital
    spin_vec = _expectations(_cartesian_triplet(system.s.twice), s_re, s_im)
    orbital_vec = _expectations(_cartesian_triplet(system.l.twice), o_re, o_im)

    def kron_columns(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a[:, np.newaxis] * b).reshape(len(a) * len(b), a.shape[1])

    product_re = kron_columns(s_re, o_re)
    product_re -= kron_columns(s_im, o_im)
    product_im = kron_columns(s_re, o_im)
    product_im += kron_columns(s_im, o_re)
    _, _, spin_orbit = _shell(system.s.twice, system.l.twice)
    energies = system.zeta * _expectations(spin_orbit, product_re, product_im)[0]
    norms = np.linalg.norm(spin_vec, axis=0) * np.linalg.norm(orbital_vec, axis=0)
    cos_angles = np.zeros(len(energies))
    np.divide(np.add.reduce(spin_vec * orbital_vec, axis=0), norms,
              out=cos_angles, where=norms > 1e-12)
    fields = ((s_re + 1j * s_im).T, (o_re + 1j * o_im).T, spin_vec.T, orbital_vec.T,
              cos_angles, energies)
    for a in fields:
        a.flags.writeable = False
    return ProductStateBatch(*fields)


def product_states(
    system: SpinOrbitSystem, spin_states: np.ndarray, orbital_states: np.ndarray
) -> ProductStateBatch:
    """Evaluate <S>, <L>, their angle, and <H> for explicit product states.

    Row ``r`` of ``spin_states`` (shape ``(k, 2s+1)``) and of
    ``orbital_states`` (shape ``(k, 2l+1)``) make up state ``r``.  Rows are
    normalized defensively; other shapes, and a row whose norm is zero or
    not finite, raise ValueError.  The evaluator is the one behind
    :func:`sample_product_states`, so the energy is the same honest
    <psi| H |psi> on the product vector.
    """
    spin = np.asarray(spin_states, dtype=complex)
    orbital = np.asarray(orbital_states, dtype=complex)
    dims = system.s.twice + 1, system.l.twice + 1
    if spin.ndim != 2 or (spin.shape, orbital.shape) != tuple((len(spin), d) for d in dims):
        raise ValueError(f"factor states of shapes {spin.shape} and {orbital.shape} "
                         f"do not match the system's (k, {dims[0]}) and (k, {dims[1]})")
    factors = [(rows.real, rows.imag) for rows in (spin, orbital)]
    norms = [_row_norms(*factor) for factor in factors]
    if not all(np.all(np.isfinite(n) & (n > 0.0)) for n in norms):
        raise ValueError("every factor state needs a finite, nonzero norm")
    return _evaluate(system, *map(_unit_columns, factors, norms))


def _haar_rows(
    rng: np.random.Generator, count: int, spin_dim: int, orbital_dim: int
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """``count`` unit spin and orbital states as (real, imaginary) pairs of
    (dimension, states) columns.

    Each state takes one row of 2(d_s + d_l) standard normals: the real then
    imaginary parts of the spin factor, then those of the orbital factor.  A
    row with a factor norm <= 1e-6 is redrawn from normals taken after the
    block.
    """
    rows = rng.standard_normal((count, 2 * (spin_dim + orbital_dim)))
    offset = 2 * spin_dim
    while True:
        spin = rows[:, :spin_dim], rows[:, spin_dim:offset]
        orbital = rows[:, offset:offset + orbital_dim], rows[:, offset + orbital_dim:]
        spin_norms, orbital_norms = _row_norms(*spin), _row_norms(*orbital)
        bad = (spin_norms <= 1e-6) | (orbital_norms <= 1e-6)
        if not bad.any():
            break
        rows[bad] = rng.standard_normal((int(np.count_nonzero(bad)), rows.shape[1]))
    return _unit_columns(spin, spin_norms), _unit_columns(orbital, orbital_norms)


def sample_product_states(
    system: SpinOrbitSystem, rng: np.random.Generator, n: int
) -> Iterator[ProductStateBatch]:
    """Draw ``n`` Haar-random product states, yielded in batches.

    Each batch holds at most ``_SAMPLE_CHUNK`` states, so memory stays
    bounded whatever ``n`` is.  Each factor is a complex standard-normal
    vector, normalized; that is exactly the uniform distribution on the
    factor's state sphere.  Every state takes one row of 2(d_s + d_l)
    normals from ``rng``, and no other row enters its arithmetic, so neither
    the states nor their rounding depend on the batch size (barring the
    redraw of a near-zero factor, which has probability below 1e-12 per
    state).
    """
    if n < 0:
        raise ValueError(f"sample count must be non-negative, got {n}")
    spin_dim, orbital_dim = system.s.twice + 1, system.l.twice + 1
    for start in range(0, n, _SAMPLE_CHUNK):
        count = min(_SAMPLE_CHUNK, n - start)
        yield _evaluate(system, *_haar_rows(rng, count, spin_dim, orbital_dim))


@dataclass(frozen=True, eq=False)
class GroundStateAnalysis:
    """Ground energy, its degeneracy, and (if unique) the Schmidt data."""

    energy: float
    degeneracy: int
    schmidt_spectrum: np.ndarray | None
    entropy: float | None


def ground_state_analysis(system: SpinOrbitSystem) -> GroundStateAnalysis:
    """Diagonalize H and, for a unique ground state, extract its Schmidt spectrum.

    Degeneracy counts eigenvalues within 1e-6 |zeta| of the minimum.  For a
    unique ground state the orbital factor is traced out; the Schmidt
    spectrum is the (descending) eigenvalue list of the reduced spin
    density matrix and the entropy is reported in nats.
    """
    if system.zeta == 0.0:
        raise ValueError("ground-state analysis requires a nonzero coupling")
    values, vectors = _eigh_of(system)
    threshold = 1e-6 * abs(system.zeta)
    degeneracy = int(np.count_nonzero(values <= values[0] + threshold))
    if degeneracy != 1:
        return GroundStateAnalysis(float(values[0]), degeneracy, None, None)
    ground = vectors[:, 0].reshape(system.s.twice + 1, system.l.twice + 1)
    reduced = ground @ ground.T  # trace over the orbital factor
    schmidt_ascending, _ = jacobi_eigh(reduced)
    schmidt = np.clip(schmidt_ascending[::-1], 0.0, None).copy()
    positive = schmidt[schmidt > 0.0]
    entropy = float(-np.sum(positive * np.log(positive)))
    schmidt.flags.writeable = False
    return GroundStateAnalysis(float(values[0]), 1, schmidt, entropy)
