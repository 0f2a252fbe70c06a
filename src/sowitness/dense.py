"""Dense-matrix route: explicit product-basis operators, a self-contained
cyclic Jacobi eigensolver, and product-state sampling.

Every operator is read from one cached per-j ladder (``_ladder``): the
diagonal m_k of J_z and the weights w_k = <k| J+ |k+1> / 2.  J_z lives on
its diagonal, J_x and J_y at offsets +-1; S.L lives on its diagonal and at
offsets +-2l, and ``_bands`` builds those two diagonals from the spin and
orbital ladders once per shell (2s, 2l): the one definition of S.L here.
S.L commutes with J_z, so ``_blocks`` cuts it into 2(s+l)+1 tridiagonal
blocks, one per M = m_s + m_l, of at most min(2s, 2l)+1 rows; only
``build_hamiltonian`` assembles the n x n matrix.  H = zeta S.L has the
eigenvectors of S.L and zeta times its eigenvalues, so one cached Jacobi
solve per block (``_shell``) serves every system on the shell: ``_spectrum``
scales the values by zeta for the Gibbs trace and the spectrum check in
``checks``, and a ground state comes from its block.

Product states need no solve and no dense matrix: one evaluator reads the
bands and the ladders through slices, for the Haar-random batches of at
most ``_SAMPLE_CHUNK`` (1024) states, one batch per ion in a default
``verify``, and for the explicit states of :func:`product_states`.  Each
expectation is a weighted sum over the diagonals its operator lives on,
sum_k w_k x_k y_k, and an entry and its mirror are taken once at twice the
weight (S.L and J_x are symmetric, J_y antisymmetric).  Each energy is zeta
times the expectation of the full S.L matrix on the Kronecker product
amplitudes, but :func:`_spin_orbit_expectations` holds two spin blocks of
them at a time, in at most 6(2l+1) floats per state, not about 7n.  Every
sum runs down one axis with the states along the other, so a state has the
same bits in a batch of any size, alone included.  States come one per row,
and each factor is normalised from its real and imaginary parts where they
lie (slices of the drawn normals, or the parts of the caller's complex rows)
into the (dimension, states) arrays the evaluator holds, one column per
state; the batch it returns has one row per state.

Everything in this module is deliberately independent of the closed-form
level arithmetic in :mod:`sowitness.angular` / :mod:`sowitness.thermal`:
S.L comes from the m ladders, never from the j levels, and the package
gives it only ``SpinOrbitSystem`` and the temperature check.  Agreement
between the two routes is part of the test contract, so nothing here may
call back into the level formulas (and the eigensolver may not delegate to
an external one).

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


@lru_cache(maxsize=None)
def _ladder(twice_j: int) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal m_k of Jz and the weights w_k = <k| J+ |k+1> / 2 on the
    2j+1 basis states, m descending from +j, read-only, from exact integer
    quarters.  Jx is w_k on (k, k+1) and (k+1, k), and Jy is -i w_k and
    +i w_k there.
    """
    twice_m = np.arange(twice_j, -twice_j - 1, -2)  # 2m, descending from +2j
    jj = twice_j * (twice_j + 2) / 4.0  # j(j+1), exact
    raised = twice_m[1:]  # 2m of the state J+ raises, one row down
    return _read_only(twice_m / 2.0,
                      0.5 * np.sqrt(jj - raised * (raised + 2) / 4.0))


@lru_cache(maxsize=128)
def _bands(twice_s: int, twice_l: int) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal (Sz Lz = m_s m_l) and the band at offset +2l
    (S+ L- / 2 = (2 w_s)(2 w_l) / 2) of S.L on the shell (2s, 2l), read-only,
    from the two :func:`_ladder` results.  S.L is symmetric, so offset -2l
    mirrors the band, and it has no other nonzero entry.

    Band entry ``r`` couples row ``r = i_s (2l+1) + i_l`` to column
    ``r + 2l = (i_s+1)(2l+1) + i_l - 1``, and is zero where ``i_l = 0``;
    there are n - 2l of them for n = (2s+1)(2l+1).  Kept for the last 128
    shells, about 16 n bytes each.
    """
    (m_s, w_s), (m_l, w_l) = _ladder(twice_s), _ladder(twice_l)
    steps = np.zeros((twice_s, twice_l + 1))
    steps[:, 1:] = 2.0 * np.outer(w_s, w_l)
    return _read_only(np.outer(m_s, m_l).ravel(), np.append(steps.ravel(), 0.0))


def build_hamiltonian(system: SpinOrbitSystem) -> np.ndarray:
    """zeta * S.L, with S.L = Sz Lz + (S+ L- + S- L+)/2 assembled from
    :func:`_bands` on the spin-major product basis: real, symmetric and
    traceless (as every factor operator is), with entries at most about s l.
    """
    twice_l = system.l.twice
    diagonal, band = _bands(system.s.twice, twice_l)
    return system.zeta * (np.diag(diagonal) + np.diag(band, twice_l) + np.diag(band, -twice_l))


def _blocks(twice_s: int, twice_l: int) -> Iterator[np.ndarray]:
    """S.L on each M = s + l - k as a tridiagonal matrix, from :func:`_bands`:
    block k holds the rows ``i_s 2l + k`` (i_s + i_l = k) for i_s from
    max(0, k - 2l) to min(2s, k), the band couples each row to the next, 2l
    on, and no entry of S.L couples two blocks."""
    diagonal, band = _bands(twice_s, twice_l)
    for k in range(twice_s + twice_l + 1):
        rows = np.arange(max(0, k - twice_l), min(twice_s, k) + 1) * twice_l + k
        coupling = band[rows[:-1]]  # each row but the last to the next
        yield np.diag(diagonal[rows]) + np.diag(coupling, 1) + np.diag(coupling, -1)


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


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, each made read-only in place."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=128)
def _shell(twice_s: int, twice_l: int) -> tuple[np.ndarray, tuple[tuple[np.ndarray, ...], ...]]:
    """The eigenvalues of S.L on the shell (2s, 2l), ascending, and the
    :func:`jacobi_eigh` of each of its :func:`_blocks`, all read-only.

    Kept for the last 128 shells; the 12 coupled catalog ions make 6, since
    4f^n and 4f^(14-n) share (s, l).  An entry holds 8 n bytes of values and
    8 b (b + 1) per block of b rows: about 14 KB for the 6 catalog shells.
    Product states read the bands alone, so they never wait for the solve.
    """
    blocks = tuple(_read_only(*jacobi_eigh(block)) for block in _blocks(twice_s, twice_l))
    return _read_only(np.sort(np.concatenate([values for values, _ in blocks])))[0], blocks


def _spectrum(system: SpinOrbitSystem) -> np.ndarray:
    """The Hamiltonian's eigenvalues, ascending: zeta times the shell's S.L values."""
    values, _ = _shell(system.s.twice, system.l.twice)
    return system.zeta * (values[::-1] if system.zeta < 0.0 else values)


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
    values = _spectrum(system)
    with np.errstate(over="ignore"):  # an exponent below -1.8e308 is -inf, a weight of 0
        exponents = -(values - values[0]) / temperatures.reshape(-1, 1)
    weights = np.exp(exponents)
    mean = (weights * values).sum(axis=1) / weights.sum(axis=1)
    return float(mean[0]) if temperatures.ndim == 0 else mean


@dataclass(frozen=True, eq=False)
class ProductStateBatch:
    """Observables of product states as parallel arrays, one row per state.

    Row ``r`` holds the Bloch vectors <S> and <L> of state ``r`` (shape
    ``(k, 3)``) and its energy <psi| H |psi>.
    """

    spin_vectors: np.ndarray
    orbital_vectors: np.ndarray
    energies: np.ndarray


# States drawn and evaluated per batch: large enough that a default
# ``verify`` draws each ion's 1000 states in one batch, since a batch costs
# about 0.15 ms whatever its size (on (2s, 2l) = (4, 12): 0.08 ms for the
# energy walk over the spin blocks, 0.04 ms for the two Bloch vectors,
# 0.02 ms for the draw), and small enough that memory does not grow with the
# count.  A batch is evaluated from its unit factors, 2(2s+1) + 2(2l+1)
# floats per state, while the energy evaluator works in at most 6(2l+1) more,
# and returns 7 (two Bloch vectors and an energy): one batch of 1024 on a
# catalog shell peaks at 0.56 MB (Ce) to 1.01 MB (Pm, n = 65) traced, against
# 1.03 MB for 256 states on the whole product vector.
_SAMPLE_CHUNK = 1024


def _weighted_sum(weights: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_k weights[k] a[k] b[k] for each column of two (rows, states)
    arrays.  One reduction axis and no BLAS: each column is summed term by
    term down its rows, with the same bits in a batch of any size."""
    return np.einsum("k,ks,ks->s", weights, a, b)


def _bloch_vectors(twice_j: int, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """<Jx>, <Jy>, <Jz> of each column psi = re + i im, as a (3, states) array.

    Jx and Jy live at offsets +-1, with w_k at (k, k+1) and its mirror, so
    <Jx> = 2 sum w_k Re conj(psi_k) psi_(k+1) and <Jy> = 2 sum w_k Im of the
    same; <Jz> = sum m_k |psi_k|^2 runs down the diagonal.
    """
    m, w = _ladder(twice_j)
    w = 2.0 * w
    return np.array([
        _weighted_sum(w, re[:-1], re[1:]) + _weighted_sum(w, im[:-1], im[1:]),
        _weighted_sum(w, re[:-1], im[1:]) - _weighted_sum(w, im[:-1], re[1:]),
        _weighted_sum(m, re, re) + _weighted_sum(m, im, im),
    ])


def _spin_orbit_expectations(
    twice_s: int, twice_l: int, spin: tuple[np.ndarray, np.ndarray],
    orbital: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """<psi| S.L |psi> of each product column psi = spin[:, r] x orbital[:, r],
    walked over the 2s+1 spin blocks of the product basis.

    Block i holds the amplitudes s_i o of rows i (2l+1) + i_l, each by the
    scalar operations of the full Kronecker product, with the real and
    imaginary parts of a row interleaved.  A block adds sum d |psi|^2 over
    its rows of the diagonal, and 2 sum b Re conj(psi_r) psi_(r+2l) over the
    band entries (r, r + 2l) and their mirrors, which couple its row i_l >= 1
    to row i_l - 1 of the next block.  So two blocks are live at a time.
    """
    diagonal, band = _bands(twice_s, twice_l)
    diagonal, band = np.repeat(diagonal, 2), np.repeat(2.0 * band, 2)
    (s_re, s_im), (o_re, o_im) = spin, orbital
    dim, count = o_re.shape

    def block(i: int) -> np.ndarray:
        amplitudes = np.empty((dim, 2, count))
        np.subtract(s_re[i] * o_re, s_im[i] * o_im, out=amplitudes[:, 0])
        np.add(s_re[i] * o_im, s_im[i] * o_re, out=amplitudes[:, 1])
        return amplitudes.reshape(2 * dim, count)

    total = np.zeros(count)
    current = block(0)
    for i in range(twice_s + 1):
        rows = slice(2 * i * dim, 2 * (i + 1) * dim)
        total += _weighted_sum(diagonal[rows], current, current)
        if i < twice_s:
            following = block(i + 1)
            total += _weighted_sum(band[rows][2:], current[2:], following[:-2])
            current = following
    return total


def _norms(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The norm of each row re + i im of one factor's (real, imaginary)
    parts, views or not: ``sqrt((re*re + im*im).sum(axis=1))``."""
    return np.sqrt((re * re + im * im).sum(axis=1))


def _unit_columns(
    re: np.ndarray, im: np.ndarray, norms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The rows re + i im over their ``norms``, as a (real, imaginary) pair
    of C-contiguous (dimension, states) arrays."""
    return tuple(np.divide(part.T, norms, order="C") for part in (re, im))


def _evaluate(
    system: SpinOrbitSystem, spin: tuple[np.ndarray, np.ndarray],
    orbital: tuple[np.ndarray, np.ndarray],
) -> ProductStateBatch:
    """The Bloch vectors <S> and <L> and the energy of each product state
    spin[:, r] x orbital[:, r], given as unit (real, imaginary) column pairs
    of shape (dimension, states).  The batch holds no copy of the states.

    The energy is zeta times the honest matrix expectation <psi| S.L |psi>
    on the Kronecker product amplitudes, not the factorized shortcut
    zeta <S>.<L>, so that identity is something the batch exhibits rather
    than assumes.  Every value of a state has the same bits in a batch of
    any size.  The energies come first, so their working arrays peak before
    the Bloch vectors exist.
    """
    energies = system.zeta * _spin_orbit_expectations(
        system.s.twice, system.l.twice, spin, orbital)
    return ProductStateBatch(*_read_only(_bloch_vectors(system.s.twice, *spin).T,
                                         _bloch_vectors(system.l.twice, *orbital).T,
                                         energies))


def product_states(
    system: SpinOrbitSystem, spin_states: np.ndarray, orbital_states: np.ndarray
) -> ProductStateBatch:
    """Evaluate <S>, <L> and <H> for explicit product states.

    Row ``r`` of ``spin_states`` (shape ``(k, 2s+1)``) and of
    ``orbital_states`` (shape ``(k, 2l+1)``) make up state ``r``.  Rows are
    normalized at any scale: each factor row is divided first by the power
    of two of its largest part, which is exact, so that no square underflows
    or overflows.  Other shapes, and a row whose norm is zero or not finite,
    raise ValueError.  The evaluator is the one behind
    :func:`sample_product_states`, so the energy is the same honest
    <psi| H |psi> on the product vector.
    """
    spin = np.asarray(spin_states, dtype=complex)
    orbital = np.asarray(orbital_states, dtype=complex)
    dims = system.s.twice + 1, system.l.twice + 1
    if spin.ndim != 2 or (spin.shape, orbital.shape) != tuple((len(spin), d) for d in dims):
        raise ValueError(f"factor states of shapes {spin.shape} and {orbital.shape} "
                         f"do not match the system's (k, {dims[0]}) and (k, {dims[1]})")

    def unit_columns(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        largest = np.maximum(np.abs(states.real).max(axis=1), np.abs(states.imag).max(axis=1))
        shift = -np.frexp(largest)[1][:, None]
        parts = np.ldexp(states.real, shift), np.ldexp(states.imag, shift)
        norms = _norms(*parts)
        if not np.all(np.isfinite(norms) & (norms > 0.0)):
            raise ValueError("every factor state needs a finite, nonzero norm")
        return _unit_columns(*parts, norms)

    return _evaluate(system, unit_columns(spin), unit_columns(orbital))


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
    middle = 2 * spin_dim + orbital_dim
    factors = ((rows[:, :spin_dim], rows[:, spin_dim:2 * spin_dim]),
               (rows[:, 2 * spin_dim:middle], rows[:, middle:]))
    while True:
        norms = [_norms(*factor) for factor in factors]
        bad = (norms[0] <= 1e-6) | (norms[1] <= 1e-6)
        if not bad.any():
            return tuple(_unit_columns(*factor, n) for factor, n in zip(factors, norms))
        rows[bad] = rng.standard_normal((int(np.count_nonzero(bad)), rows.shape[1]))


def sample_product_states(
    system: SpinOrbitSystem, rng: np.random.Generator, n: int
) -> Iterator[ProductStateBatch]:
    """Draw ``n`` Haar-random product states, yielded in batches.

    Each batch holds at most ``_SAMPLE_CHUNK`` (1024) states, so memory
    stays bounded whatever ``n`` is: at most 1.01 MB traced per batch on a
    catalog shell.  The batch's fixed cost, about 0.15 ms, is paid once per
    1024 states.  Each factor is a complex standard-normal vector,
    normalized; that is exactly the uniform distribution on the factor's
    state sphere.  Every state takes one row of 2(d_s + d_l)
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
    """Ground energy and degeneracy and, for a unique ground state, its
    Schmidt spectrum (descending) and entropy (in nats), from the shell solve.

    The ground S.L value is the least (zeta > 0) or the greatest (zeta < 0),
    and degeneracy counts the S.L values within 1e-6 of it (1e-6 |zeta| in
    energy), unscaled, so a huge zeta cannot overflow into a tie.  A unique
    ground state ends the M block that holds that value, where each spin
    state pairs with one orbital state: the spectrum is its squared amplitudes.
    """
    if system.zeta == 0.0:
        raise ValueError("ground-state analysis requires a nonzero coupling")
    values, blocks = _shell(system.s.twice, system.l.twice)
    end, extreme = (0, min) if system.zeta > 0.0 else (-1, max)
    degeneracy = int(np.count_nonzero(np.abs(values - values[end]) <= 1e-6))
    energy = system.zeta * float(values[end])
    if degeneracy != 1:
        return GroundStateAnalysis(energy, degeneracy, None, None)
    ground = extreme(blocks, key=lambda block: block[0][end])[1][:, end]
    schmidt = np.sort(ground * ground)[::-1].copy()
    positive = schmidt[schmidt > 0.0]
    entropy = float(-np.sum(positive * np.log(positive)))
    return GroundStateAnalysis(energy, 1, *_read_only(schmidt), entropy)
