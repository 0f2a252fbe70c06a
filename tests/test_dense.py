import ast
import contextlib
import dataclasses
import io
import itertools
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sowitness import dense
from sowitness.cli import main
from sowitness.angular import Convention, HalfInt, SpinOrbitSystem, multiplets
from sowitness.dense import (
    ConvergenceError,
    build_hamiltonian,
    ground_state_analysis,
    jacobi_eigh,
    product_states,
    sample_product_states,
    thermal_mean_energy,
)
from sowitness.ions import CATALOG, ion_record

COUPLED = [r for r in CATALOG if r.zeta is not None]
# one ion per distinct (s, l) pair of the catalog
DISTINCT_SHELLS = sorted({(r.s.twice, r.l.twice): r.symbol for r in CATALOG}.values())
CATALOG_SHELLS = {(r.s.twice, r.l.twice) for r in CATALOG}
COUPLED_SHELLS = sorted({(r.s.twice, r.l.twice) for r in COUPLED})
GRID = np.geomspace(1.0, 1e6, 50)
CHUNK = dense._SAMPLE_CHUNK


def sys_of(symbol):
    return ion_record(symbol).system(Convention.MULTIPLET_DEGENERATE)


def closed_form_spectrum(system):
    """Level energies repeated by multiplicity, ascending."""
    return np.sort(
        np.concatenate([[m.energy] * m.degeneracy for m in multiplets(system)])
    )


# The textbook construction, kept as the reference for the ladder and S.L
# that dense.py reads from one per-j ladder: (Jz, J+, J-) on the 2j+1 basis
# states, m descending from +j, from exact integer quarters.
def ladder_triplet(twice_j):
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


def reference_spin_orbit(twice_s, twice_l):
    """S.L = Sz Lz + (S+ L- + S- L+)/2 by Kronecker products of the triplets."""
    sz, splus, sminus = ladder_triplet(twice_s)
    lz, lplus, lminus = ladder_triplet(twice_l)
    return np.kron(sz, lz) + 0.5 * (np.kron(splus, lminus) + np.kron(sminus, lplus))


def ladder_matrices(twice_j):
    """(Jz, J+, J-) assembled from the production ladder ``dense._ladder``."""
    m, w = dense._ladder(twice_j)
    jplus = np.diag(2.0 * w, 1)
    return np.diag(m), jplus, jplus.T


class TestAngularMomentumMatrices:
    def test_spin_half(self):
        jz, jplus, jminus = ladder_matrices(1)
        assert np.array_equal(jz, np.diag([0.5, -0.5]))
        assert np.array_equal(jplus, [[0.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(jminus, jplus.T)

    def test_spin_one(self):
        _, jplus, _ = ladder_matrices(2)
        root2 = math.sqrt(2.0)
        assert jplus == pytest.approx(
            np.array([[0, root2, 0], [0, 0, root2], [0, 0, 0]])
        )

    @pytest.mark.parametrize("twice_j", range(17))
    def test_ladder_algebra(self, twice_j):
        jz, jplus, jminus = ladder_matrices(twice_j)
        # [Jz, J+] = J+,  [J+, J-] = 2 Jz
        assert jz @ jplus - jplus @ jz == pytest.approx(jplus, abs=1e-12)
        assert jplus @ jminus - jminus @ jplus == pytest.approx(2.0 * jz, abs=1e-12)

    @pytest.mark.parametrize("twice_j", range(17))
    def test_casimir(self, twice_j):
        jz, jplus, jminus = ladder_matrices(twice_j)
        casimir = jz @ jz + 0.5 * (jplus @ jminus + jminus @ jplus)
        jj = twice_j * (twice_j + 2) / 4.0
        assert casimir == pytest.approx(jj * np.eye(twice_j + 1), abs=1e-12)

    def test_ladder_is_the_reference_diagonals(self):
        for twice_j in range(65):
            m, w = dense._ladder(twice_j)
            jz, jplus, _ = ladder_triplet(twice_j)
            assert np.array_equal(m, np.diag(jz)), twice_j
            assert np.array_equal(w, 0.5 * np.diag(jplus, 1)), twice_j
            assert not m.flags.writeable and not w.flags.writeable


class TestBuildHamiltonian:
    def test_singlet_triplet_spectrum(self):
        h = build_hamiltonian(SpinOrbitSystem(HalfInt(1), HalfInt(1), 1.0))
        values, _ = jacobi_eigh(h)
        assert values == pytest.approx([-0.75, 0.25, 0.25, 0.25], abs=1e-12)

    def test_cerium_spectrum_and_shape(self):
        h = build_hamiltonian(sys_of("Ce"))
        assert h.shape == (14, 14)
        expected = [-1800.0] * 6 + [1350.0] * 8
        assert jacobi_eigh(h)[0] == pytest.approx(expected, rel=1e-12)

    def test_half_filled_shell_is_zero_operator(self):
        h = build_hamiltonian(sys_of("Gd"))
        assert h.shape == (8, 8)
        assert np.all(h == 0.0)

    def test_symmetric_and_traceless(self):
        for record in COUPLED:
            h = build_hamiltonian(record.system())
            assert np.array_equal(h, h.T), record.symbol
            assert abs(h.trace()) <= 1e-12 * abs(record.zeta), record.symbol

    def test_matches_closed_form_spectrum(self):
        for record in COUPLED:
            sys_ = record.system()
            values, _ = jacobi_eigh(build_hamiltonian(sys_))
            expected = closed_form_spectrum(sys_)
            scale = float(np.max(np.abs(expected)))
            assert np.max(np.abs(values - expected)) <= 1e-9 * scale, record.symbol


class TestJacobiEigh:
    def test_two_by_two(self):
        values, vectors = jacobi_eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert values == pytest.approx([-1.0, 1.0], abs=1e-14)
        assert vectors.T @ vectors == pytest.approx(np.eye(2), abs=1e-14)

    def test_identity_needs_no_rotations(self):
        values, vectors = jacobi_eigh(np.eye(5))
        assert np.array_equal(values, np.ones(5))
        assert np.array_equal(vectors, np.eye(5))

    def test_zero_matrix(self):
        values, vectors = jacobi_eigh(np.zeros((4, 4)))
        assert np.array_equal(values, np.zeros(4))
        assert np.array_equal(vectors, np.eye(4))

    def test_random_symmetric_decomposition(self):
        rng = np.random.default_rng(42)
        base = rng.standard_normal((20, 20))
        a = 0.5 * (base + base.T)
        values, vectors = jacobi_eigh(a)
        scale = np.linalg.norm(a)
        assert np.all(np.diff(values) >= 0.0)
        assert np.linalg.norm(a @ vectors - vectors * values) <= 1e-10 * scale
        assert vectors.T @ vectors == pytest.approx(np.eye(20), abs=1e-12)

    def test_residual_certificate_on_catalog_hamiltonians(self):
        for record in COUPLED:
            h = build_hamiltonian(record.system())
            _, vectors = jacobi_eigh(h)
            rotated = vectors.T @ h @ vectors
            np.fill_diagonal(rotated, 0.0)
            assert np.linalg.norm(rotated) <= 1e-13 * np.linalg.norm(h), record.symbol

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            jacobi_eigh(np.zeros((2, 3)))

    def test_convergence_error_carries_residual(self, monkeypatch):
        monkeypatch.setattr(dense, "_MAX_SWEEPS", 0)
        with pytest.raises(ConvergenceError) as err:
            jacobi_eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert err.value.residual > 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("matrix", [
        8e307 * (np.eye(4, k=1) + np.eye(4, k=-1)),  # norm 1.96e308 overflows
        np.array([[0.0, 1e308], [1e308, 0.0]]),      # a + a.T overflows
        np.array([[0.0, 1e308], [-1e308, 0.0]]),     # so would a - a.T
        np.array([[math.ldexp(1.0, 1023)]]),         # 2a overflows at n = 1
        np.array([[math.inf]]),
        np.array([[1.0, math.nan], [math.nan, 1.0]]),
    ], ids=["path-4", "pair", "antisymmetric", "n1-limit", "inf", "nan"])
    def test_rejects_entries_beyond_float_range_over_n(self, matrix):
        # These once returned the unrotated diagonal ([0, 0, 0, 0] and [0, 0])
        with pytest.raises(ValueError, match="finite and below"):
            jacobi_eigh(matrix)

    @pytest.mark.filterwarnings("error")
    def test_largest_entries_within_the_limit(self):
        below = math.nextafter(math.ldexp(1.0, 1023), 0.0)
        assert jacobi_eigh(np.array([[-below]]))[0] == [-below]
        half = math.nextafter(math.ldexp(1.0, 1022), 0.0)
        values, _ = jacobi_eigh(np.array([[half, half], [half, -half]]))
        assert values == pytest.approx([-math.sqrt(2.0) * half, math.sqrt(2.0) * half],
                                       rel=1e-15)

    @pytest.mark.parametrize("zeta", [1e160, -1e300, 1e-170, -1e-170])
    def test_spectrum_relative_to_extreme_coupling(self, zeta):
        # Entries above about 1e154 square to inf, and below about 1e-162 to
        # 0; the norms must not, or the sweep stops on the unrotated diagonal
        sys_ = SpinOrbitSystem(HalfInt(1), HalfInt(6), zeta, Convention.MULTIPLET_DEGENERATE)
        values, _ = jacobi_eigh(build_hamiltonian(sys_))
        assert values / zeta == pytest.approx(closed_form_spectrum(sys_) / zeta, rel=1e-12)

    def test_europium_multiplicities(self):
        values, _ = jacobi_eigh(build_hamiltonian(sys_of("Eu")))
        unique, counts = np.unique(np.round(values, 6), return_counts=True)
        assert list(counts) == [1, 3, 5, 7, 9, 11, 13]
        expected = [m.energy for m in multiplets(sys_of("Eu"))]
        assert list(unique) == pytest.approx(expected, abs=1e-6)


def check_scaled_shell_solve(system):
    """``_spectrum`` ascends and is the spectrum of ``build_hamiltonian`` of
    the system, and each cached block solve holds orthonormal eigenvectors
    of its block."""
    values = dense._spectrum(system)
    assert np.all(np.diff(values) >= 0.0)
    scale = abs(system.zeta) * max(1.0, system.s.value * system.l.value)
    full, _ = jacobi_eigh(build_hamiltonian(system))
    assert np.abs(values - full).max() <= 1e-12 * scale
    shell = system.s.twice, system.l.twice
    for block, (block_values, vectors) in zip(dense._blocks(*shell), dense._shell(*shell)[1]):
        residual = np.linalg.norm(block @ vectors - vectors * block_values, axis=0)
        assert residual.max() <= 1e-12 * scale / abs(system.zeta)
        assert np.allclose(vectors.T @ vectors, np.eye(len(block)), rtol=0, atol=1e-12)


class TestShellSolve:
    """One zeta-free S.L solve per shell (2s, 2l), scaled by each system's zeta."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8),
           st.floats(1e-3, 1e4).flatmap(lambda x: st.sampled_from([x, -x])))
    def test_scaled_solve_of_drawn_shells(self, two_s, two_l, zeta):
        check_scaled_shell_solve(SpinOrbitSystem(HalfInt(two_s), HalfInt(two_l), zeta))

    @pytest.mark.parametrize("symbol", [r.symbol for r in COUPLED])
    def test_scaled_solve_of_catalog_ions(self, symbol):
        check_scaled_shell_solve(sys_of(symbol))

    def test_opposite_couplings_and_conventions_share_one_solve(self):
        dense._shell.cache_clear()
        ce, yb = ion_record("Ce"), ion_record("Yb")  # 4f^1 and 4f^13: s = 1/2, l = 3
        assert (ce.s, ce.l) == (yb.s, yb.l) and ce.zeta * yb.zeta < 0.0
        light = ce.system(Convention.LEVEL_UNIFORM)
        heavy = yb.system(Convention.MULTIPLET_DEGENERATE)
        light_values = dense._spectrum(light)
        heavy_values = dense._spectrum(heavy)
        info = dense._shell.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        values, blocks = dense._shell(1, 6)
        assert np.array_equal(light_values, ce.zeta * values)
        assert np.array_equal(heavy_values, yb.zeta * values[::-1])
        assert not any(a.flags.writeable for a in (values, *itertools.chain(*blocks)))
        assert heavy_values == pytest.approx(closed_form_spectrum(heavy), rel=1e-12)

    def test_catalog_shells_hold_at_most_16_kb(self):
        """The M-block solves of the 6 coupled catalog shells hold 13 640
        bytes of arrays; the whole-matrix solves held 122 000."""
        total = 0
        for twice_s, twice_l in COUPLED_SHELLS:
            values, blocks = dense._shell(twice_s, twice_l)
            total += values.nbytes + sum(a.nbytes for a in itertools.chain(*blocks))
        assert total <= 16_000, total

    def test_fresh_sampling_solves_nothing(self, monkeypatch):
        """Product states read the cached S.L bands, never the shell solve."""
        calls = []
        monkeypatch.setattr(dense, "jacobi_eigh", lambda matrix: calls.append(matrix.shape))
        dense._shell.cache_clear()
        dense._bands.cache_clear()
        for symbol in ("Pr", "Tm"):  # 4f^2 and 4f^12 share a shell
            next(sample_product_states(sys_of(symbol), np.random.default_rng(1), 3))
        product_states(SpinOrbitSystem(HalfInt(12), HalfInt(12), 1.0),
                       np.ones((1, 13)), np.ones((1, 13)))
        assert calls == []
        assert dense._shell.cache_info().currsize == 0
        info = dense._bands.cache_info()
        assert (info.misses, info.hits) == (2, 1)


def unit_coupling(two_s, two_l):
    return SpinOrbitSystem(HalfInt(two_s), HalfInt(two_l), 1.0)


class TestBands:
    @pytest.mark.parametrize("two_s", range(13))
    def test_spin_orbit_is_the_kron_reference_bit_for_bit(self, two_s):
        for two_l in range(13):
            reference = reference_spin_orbit(two_s, two_l)
            matrix = build_hamiltonian(unit_coupling(two_s, two_l))
            assert np.array_equal(matrix, reference), (two_s, two_l)
            # the same bits, signed zeros included
            assert matrix.shape == reference.shape
            assert matrix.tobytes() == reference.tobytes(), (two_s, two_l)
            # the reference itself has no entry the two bands leave out
            rows, cols = np.indices(reference.shape)
            off_bands = ~np.isin(cols - rows, (0, two_l, -two_l))
            assert not reference[off_bands].any(), (two_s, two_l)
            diagonal, band = dense._bands(two_s, two_l)
            assert not diagonal.flags.writeable and not band.flags.writeable

    @pytest.mark.parametrize("two_s", range(13))
    def test_blocks_are_the_reference_on_each_m(self, two_s):
        """Each M block is the reference S.L on its rows, bit for bit; the
        rows of all blocks are the whole basis, and the reference couples no
        two blocks."""
        for two_l in range(13):
            reference = reference_spin_orbit(two_s, two_l)
            i_s, i_l = np.divmod(np.arange(len(reference)), two_l + 1)
            blocks = list(dense._blocks(two_s, two_l))
            assert len(blocks) == two_s + two_l + 1
            for k, block in enumerate(blocks):
                rows = np.flatnonzero(i_s + i_l == k)
                assert np.array_equal(rows, np.arange(max(0, k - two_l), min(two_s, k) + 1)
                                      * two_l + k)
                assert block.tobytes() == reference[np.ix_(rows, rows)].tobytes(), (two_s, k)
                assert len(block) <= min(two_s, two_l) + 1
            different = (i_s + i_l)[:, np.newaxis] != (i_s + i_l)[np.newaxis, :]
            assert not reference[different].any(), (two_s, two_l)

    @pytest.mark.parametrize("two_s", range(13))
    def test_block_spectrum_is_the_full_matrix_spectrum(self, two_s):
        """The sorted block eigenvalues are those of one Jacobi solve of the
        whole S.L matrix: within 1e-13 max(1, s l), and bit for bit on the
        catalog shells, which keeps the ``verify`` digests as they were."""
        for two_l in range(13):
            values, _ = dense._shell(two_s, two_l)
            full, _ = jacobi_eigh(build_hamiltonian(unit_coupling(two_s, two_l)))
            tolerance = 1e-13 * max(1.0, two_s * two_l / 4.0)
            assert np.abs(values - full).max() <= tolerance, (two_s, two_l)
            if (two_s, two_l) in CATALOG_SHELLS:
                assert values.tobytes() == full.tobytes(), (two_s, two_l)


class TestRouteIndependence:
    def test_dense_imports_no_level_arithmetic(self):
        """From the package, dense.py imports only the system type and the
        temperature check of angular: nothing from thermal or ions."""
        tree = ast.parse(Path(dense.__file__).read_text())
        package = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = "." * node.level + (node.module or "")
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                module, names = "", [alias.name for alias in node.names]
            else:
                continue
            package |= {(module, name) for name in names
                        if module.startswith(".") or "sowitness" in f"{module}.{name}"}
        assert package == {(".angular", "SpinOrbitSystem"), (".angular", "_temperatures")}


class TestThermalMeanEnergy:
    def test_cerium_at_gap_over_ln8(self):
        t = 3150.0 / math.log(8.0)
        assert thermal_mean_energy(sys_of("Ce"), t) == pytest.approx(-1350.0, rel=1e-12)

    def test_low_temperature_limit(self):
        assert thermal_mean_energy(sys_of("Eu"), 5.0) == pytest.approx(-6000.0, abs=1e-6)

    def test_high_temperature_tracelessness(self):
        assert abs(thermal_mean_energy(sys_of("Ce"), 1e9)) < 0.1

    def test_temperature_validated(self):
        with pytest.raises(ValueError):
            thermal_mean_energy(sys_of("Ce"), 0.0)
        with pytest.raises(ValueError):
            thermal_mean_energy(sys_of("Ce"), -10.0)

    def test_grid_is_bitwise_the_per_temperature_floats(self):
        for record in COUPLED:
            sys_ = record.system()
            values = thermal_mean_energy(sys_, GRID)
            assert isinstance(values, np.ndarray) and values.shape == GRID.shape
            floats = [thermal_mean_energy(sys_, float(t)) for t in GRID]
            assert all(type(value) is float for value in floats)
            assert np.array_equal(values, floats), record.symbol

    @pytest.mark.parametrize("grid", [[300.0, 0.0], [-1.0], [1.0, math.nan, 2.0],
                                      [[300.0]]])
    def test_grid_temperatures_validated(self, grid):
        with pytest.raises(ValueError):
            thermal_mean_energy(sys_of("Ce"), np.array(grid))

    @pytest.mark.filterwarnings("error")
    def test_tiny_temperatures_give_the_ground_mean_without_warnings(self):
        """Below about x_max / 1.8e308 an excited state's exponent overflows
        to -inf, a weight of 0: the float and the array form give the bits
        of the mean at 1e-300, with no overflow warning."""
        ce = sys_of("Ce")
        expected = thermal_mean_energy(ce, 1e-300)
        for t in (1e-305, 5e-324):
            assert_same_bits(np.float64(expected), np.float64(thermal_mean_energy(ce, t)), t)
            assert_same_bits(np.array([expected, expected]),
                             thermal_mean_energy(ce, np.array([t, 1e-300])), t)


FIELDS = [f.name for f in dataclasses.fields(dense.ProductStateBatch)]


def draw_all(system, rng, n):
    """Concatenate the batches of ``sample_product_states`` field by field."""
    batches = list(sample_product_states(system, rng, n))
    return {f: np.concatenate([getattr(b, f) for b in batches]) for f in FIELDS}


def normal_rows(seed, n, spin_dim, orbital_dim):
    """The normals that ``sample_product_states`` draws for ``n`` states
    from ``default_rng(seed)``: one row of 2(d_s + d_l) per state."""
    return np.random.default_rng(seed).standard_normal((n, 2 * (spin_dim + orbital_dim)))


def factor_states(rows, spin_dim):
    """The spin and orbital states of rows laid out as [spin real | spin
    imaginary | orbital real | orbital imaginary], as complex arrays whose
    parts are the rows' bits."""
    orbital_dim = rows.shape[1] // 2 - spin_dim
    states = []
    for start, dim in ((0, spin_dim), (2 * spin_dim, orbital_dim)):
        state = np.empty((len(rows), dim), dtype=complex)
        state.real = rows[:, start:start + dim]
        state.imag = rows[:, start + dim:start + 2 * dim]
        states.append(state)
    return states


def assert_same_bits(expected, actual, label):
    """Equal bit for bit: shape, dtype and bytes, so -0.0 differs from 0.0."""
    assert (expected.shape, expected.dtype) == (actual.shape, actual.dtype), label
    assert expected.tobytes() == actual.tobytes(), label


def naive_observables(system, spin, orbital):
    """<S>, <L> and <psi|H|psi> of one product state, by explicit kron and vdot."""
    def bloch(twice_j, state):
        jz, jplus, jminus = ladder_triplet(twice_j)
        ops = (0.5 * (jplus + jminus), -0.5j * (jplus - jminus), jz)
        return np.array([np.vdot(state, op @ state).real for op in ops])

    product = np.kron(spin, orbital)
    hamiltonian = system.zeta * reference_spin_orbit(system.s.twice, system.l.twice)
    energy = np.vdot(product, hamiltonian @ product).real
    return bloch(system.s.twice, spin), bloch(system.l.twice, orbital), energy


def bloch_operators(twice_j):
    """(Jx, Jy, Jz) from the textbook triplet."""
    jz, jplus, jminus = ladder_triplet(twice_j)
    return 0.5 * (jplus + jminus), -0.5j * (jplus - jminus), jz


def kron_columns(a, b):
    """The Kronecker product of each column of ``a`` with that of ``b``."""
    return (a[:, np.newaxis] * b).reshape(len(a) * len(b), a.shape[1])


# The gather evaluator that the band evaluator replaced, kept as a second,
# independently summed reference: it gathers every entry that is nonzero in
# any operator of a stack, in row-major order, and sums each state's terms in
# that order.
def gather_entries(*operators):
    stack = np.array(operators)
    rows, cols = np.nonzero(np.any(stack != 0, axis=0))
    values = stack[:, rows, cols]
    return rows, cols, np.real(values), np.imag(values)


def gather_sums(weights, terms):
    if not len(terms):
        return np.zeros((len(weights), terms.shape[1]))
    products = weights[:, :, np.newaxis] * terms
    if terms.shape[1] == 1:
        return np.add.accumulate(products, axis=1)[:, -1]
    return np.add.reduce(products, axis=1)


def gather_expectations(entries, re, im):
    rows, cols, real, imag = entries
    even = re[rows]
    even *= re[cols]
    even += im[rows] * im[cols]
    values = gather_sums(real, even)
    if imag.any():
        odd = re[rows]
        odd *= im[cols]
        odd -= im[rows] * re[cols]
        values -= gather_sums(imag, odd)
    return values


def gather_evaluate(system, spin, orbital):
    """The ProductStateBatch fields of unit (real, imaginary) column pairs."""
    def bloch(twice_j, re, im):
        return gather_expectations(gather_entries(*bloch_operators(twice_j)), re, im)

    (s_re, s_im), (o_re, o_im) = spin, orbital
    spin_vec = bloch(system.s.twice, s_re, s_im)
    orbital_vec = bloch(system.l.twice, o_re, o_im)
    product_re = kron_columns(s_re, o_re)
    product_re -= kron_columns(s_im, o_im)
    product_im = kron_columns(s_re, o_im)
    product_im += kron_columns(s_im, o_re)
    spin_orbit = gather_entries(reference_spin_orbit(system.s.twice, system.l.twice))
    energies = system.zeta * gather_expectations(spin_orbit, product_re, product_im)[0]
    return {"spin_vectors": spin_vec.T, "orbital_vectors": orbital_vec.T,
            "energies": energies}


def gamma(m):
    """The bound m u / (1 - m u) on m roundings in a row, u = 2**-53."""
    return m * 2.0**-53 / (1.0 - m * 2.0**-53)


def error_bounds(system, spin, orbital):
    """Per field, the a-priori bound on the rounding error of each state of
    unit (real, imaginary) columns, in the shape of the field.

    With nu = |Re psi| + |Im psi|, a Bloch component of a factor of dimension
    d is a sum of at most 3d terms w x y, each with at most three roundings,
    and two such sums are added: it is within gamma(3d + 4) sum |J_rc| nu_r
    nu_c of its exact value.  A product amplitude part is within gamma(2) mu_r
    of its exact value, mu = (|Re s| + |Im s|) x (|Re o| + |Im o|), so a
    term w x y of the energy is within gamma(7) |w| mu_r mu_c.  The real and
    imaginary parts make at most 4n terms, summed in at most 4n + 4(2s+1)
    <= 8n additions, and zeta adds one rounding: the energy is within
    gamma(8n + 8) |zeta| 2 sum |(S.L)_rc| mu_r mu_c.  The sums are taken in
    floats, all terms nonnegative, and raised by 1e-9 to bound their own
    rounding.
    """
    def majorant(matrix, nu):
        return np.einsum("rc,rs,cs->s", np.abs(matrix), nu, nu) * (1.0 + 1e-9)

    bounds = {}
    for name, twice_j, (re, im) in (("spin_vectors", system.s.twice, spin),
                                    ("orbital_vectors", system.l.twice, orbital)):
        nu = np.abs(re) + np.abs(im)
        bounds[name] = gamma(3 * (twice_j + 1) + 4) * np.stack(
            [majorant(op, nu) for op in bloch_operators(twice_j)], axis=1)
    mu = kron_columns(*(np.abs(re) + np.abs(im) for re, im in (spin, orbital)))
    spin_orbit = reference_spin_orbit(system.s.twice, system.l.twice)
    bounds["energies"] = (gamma(8 * len(mu) + 8) * abs(system.zeta) * 2.0
                          * majorant(spin_orbit, mu))
    return bounds


def exact_expectation(matrix, re, im):
    """<psi| matrix |psi> of psi = re + i im, lists of Fractions, exactly, over
    the nonzero entries of a Hermitian float matrix."""
    total = Fraction(0)
    for r, c in zip(*np.nonzero(matrix)):
        a, b = Fraction(matrix[r, c].real), Fraction(matrix[r, c].imag)
        total += a * (re[r] * re[c] + im[r] * im[c]) - b * (re[r] * im[c] - im[r] * re[c])
    return total


def exact_fields(system, spin, orbital, r):
    """Per field, the exact components of state ``r`` of unit (real,
    imaginary) columns, as Fractions of the float operators and inputs."""
    def column(pair):
        return [[Fraction(x) for x in part[:, r].tolist()] for part in pair]

    fields = {}
    for name, twice_j, pair in (("spin_vectors", system.s.twice, spin),
                                ("orbital_vectors", system.l.twice, orbital)):
        fields[name] = [exact_expectation(op, *column(pair)) for op in bloch_operators(twice_j)]
    (s_re, s_im), (o_re, o_im) = column(spin), column(orbital)
    factors = [(a, b, c, d) for a, b in zip(s_re, s_im) for c, d in zip(o_re, o_im)]
    re = [a * c - b * d for a, b, c, d in factors]
    im = [a * d + b * c for a, b, c, d in factors]
    spin_orbit = reference_spin_orbit(system.s.twice, system.l.twice)
    fields["energies"] = [Fraction(system.zeta) * exact_expectation(spin_orbit, re, im)]
    return fields


def basis_rows(dim, indices):
    return np.eye(dim, dtype=complex)[indices]


def columns_of(rows):
    """Rows of states over their norms, as the evaluator's C-contiguous
    (real, imaginary) columns: the unit states that product_states
    evaluates on rows in the normal range, bit for bit.  Its _norms of the
    parts where they lie has the bits of these contiguous copies (see
    test_row_norms_are_bitwise_the_summed_squares), and its power-of-two
    scaling is exact (see test_rows_at_any_scale)."""
    re, im = np.ascontiguousarray(rows.real), np.ascontiguousarray(rows.imag)
    norms = np.sqrt((re * re + im * im).sum(axis=1))
    return (re.T / norms).copy(), (im.T / norms).copy()


def fields_of(batch):
    return {name: getattr(batch, name) for name in FIELDS}


def assert_within_exact_bounds(system, spin, orbital):
    """The evaluator on unit (real, imaginary) column pairs, product_states on
    their rows, and the gather oracle on the unit states each evaluates: all
    within :func:`error_bounds` of the exact values on the first, middle and
    last state, and within twice the bounds of each other on every state."""
    def check(batch, spin, orbital):
        reference = gather_evaluate(system, spin, orbital)
        bounds = error_bounds(system, spin, orbital)
        for name in FIELDS:
            assert np.all(np.abs(batch[name] - reference[name]) <= 2.0 * bounds[name]), name
        count = len(bounds["energies"])
        for r in sorted({0, count // 2, count - 1} & set(range(count))):
            exact = exact_fields(system, spin, orbital, r)
            for fields in (batch, reference):
                for name in FIELDS:
                    values = np.atleast_1d(fields[name][r]).tolist()
                    for value, expected, bound in zip(values, exact[name],
                                                      np.atleast_1d(bounds[name][r])):
                        assert abs(Fraction(value) - expected) <= bound, (name, r)

    check(fields_of(dense._evaluate(system, spin, orbital)), spin, orbital)
    states = [(re + 1j * im).T for re, im in (spin, orbital)]
    check(fields_of(product_states(system, *states)), *map(columns_of, states))


def assert_basis_exact(system, spin_indices, orbital_indices):
    """Product basis states |m_s> |m_l> give the energy zeta m_s m_l and the
    Bloch vectors (0, 0, m_s) and (0, 0, m_l) exactly, from the evaluator,
    from product_states and from the gather oracle."""
    m_s = (system.s.twice - 2.0 * np.asarray(spin_indices)) / 2.0
    m_l = (system.l.twice - 2.0 * np.asarray(orbital_indices)) / 2.0
    zeros = np.zeros_like(m_s)
    expected = {"spin_vectors": np.stack([zeros, zeros, m_s], axis=1),
                "orbital_vectors": np.stack([zeros, zeros, m_l], axis=1),
                "energies": system.zeta * (m_s * m_l)}
    states = (basis_rows(system.s.twice + 1, spin_indices),
              basis_rows(system.l.twice + 1, orbital_indices))
    columns = [columns_of(rows) for rows in states]
    for fields in (fields_of(dense._evaluate(system, *columns)),
                   fields_of(product_states(system, *states)),
                   gather_evaluate(system, *columns)):
        for name in FIELDS:
            assert np.all(fields[name] == expected[name]), name


class TestGatherOracle:
    """The evaluator and the gather oracle against exact arithmetic: product
    basis states exactly, and Haar states within the a-priori bounds derived
    in error_bounds, gamma(8n + 8) |zeta| 2 sum |(S.L)_rc| mu_r mu_c for an
    energy and gamma(3d + 4) sum |J_rc| nu_r nu_c for a Bloch component."""

    @pytest.mark.parametrize("two_s", range(13))
    def test_every_shell(self, two_s):
        rng = np.random.default_rng(two_s)
        for two_l in range(13):
            ds, dl = two_s + 1, two_l + 1
            sys_ = SpinOrbitSystem(HalfInt(two_s), HalfInt(two_l), 3.7)
            for count in (1, 5):
                assert_within_exact_bounds(sys_, *dense._haar_rows(rng, count, ds, dl))
            # every product basis state |m_s> |m_l>, as one batch and alone
            spin, orbital = np.repeat(np.arange(ds), dl), np.tile(np.arange(dl), ds)
            assert_basis_exact(sys_, spin, orbital)
            assert_basis_exact(sys_, spin[-1:], orbital[-1:])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 12), st.integers(0, 12), st.one_of(st.just(1), st.integers(2, 300)),
           st.booleans(), st.sampled_from([-57.3, 1e-3, 2.0e4]), st.integers(0, 2**32 - 1))
    def test_drawn_batches(self, two_s, two_l, count, basis, zeta, seed):
        rng = np.random.default_rng(seed)
        ds, dl = two_s + 1, two_l + 1
        sys_ = SpinOrbitSystem(HalfInt(two_s), HalfInt(two_l), zeta)
        if basis:
            assert_basis_exact(sys_, rng.integers(ds, size=count), rng.integers(dl, size=count))
        else:
            assert_within_exact_bounds(sys_, *dense._haar_rows(rng, count, ds, dl))

    @pytest.mark.parametrize("two_l", [0, 1, 2])
    def test_many_small_spin_blocks(self, two_l):
        rng = np.random.default_rng(two_l)
        for two_s in range(41):
            sys_ = SpinOrbitSystem(HalfInt(two_s), HalfInt(two_l), -57.3)
            for count in (1, 3):
                assert_within_exact_bounds(
                    sys_, *dense._haar_rows(rng, count, two_s + 1, two_l + 1))

    def test_one_spin_block(self):
        rng = np.random.default_rng(40)
        for two_l in range(41):
            sys_ = SpinOrbitSystem(HalfInt(0), HalfInt(two_l), 2.0e4)
            for count in (1, 3):
                assert_within_exact_bounds(sys_, *dense._haar_rows(rng, count, 1, two_l + 1))

    @pytest.mark.parametrize("shell", sorted(CATALOG_SHELLS) + [(40, 2), (0, 40)])
    def test_empty_single_and_full_default_batches(self, shell):
        rng = np.random.default_rng(sum(shell))
        sys_ = SpinOrbitSystem(HalfInt(shell[0]), HalfInt(shell[1]), -57.3)
        for count in (0, 1, dense._SAMPLE_CHUNK):
            assert_within_exact_bounds(
                sys_, *dense._haar_rows(rng, count, shell[0] + 1, shell[1] + 1))


class _ZeroFirstRng:
    """Generator stand-in whose first block has a zero spin factor in its
    first row (Ce: 2s+1 = 2, so the first 4 normals)."""

    def __init__(self, seed):
        self.inner = np.random.default_rng(seed)
        self.calls = []

    def standard_normal(self, shape):
        self.calls.append(shape)
        block = self.inner.standard_normal(shape)
        if len(self.calls) == 1:
            block[0, :4] = 0.0
        return block


class TestProductStates:
    def test_sampling_is_deterministic(self):
        ce = sys_of("Ce")
        first = draw_all(ce, np.random.default_rng(11), 600)
        second = draw_all(ce, np.random.default_rng(11), 600)
        for name, values in first.items():
            assert_same_bits(values, second[name], name)

    def test_batches_are_bounded_and_read_only(self):
        chunk = dense._SAMPLE_CHUNK
        batches = list(sample_product_states(sys_of("Ho"), np.random.default_rng(2),
                                             2 * chunk + 3))
        assert [len(b.energies) for b in batches] == [chunk, chunk, 3]
        for name in FIELDS:
            assert not getattr(batches[0], name).flags.writeable, name
        assert list(sample_product_states(sys_of("Ho"), np.random.default_rng(2), 0)) == []

    def test_chunk_size_does_not_change_the_draws(self, monkeypatch):
        """Two default batches and three states hold the same bits as batches
        of 7 states and of one."""
        ho = sys_of("Ho")
        count = 2 * dense._SAMPLE_CHUNK + 3
        default = draw_all(ho, np.random.default_rng(5), count)
        for chunk in (7, 1):
            monkeypatch.setattr(dense, "_SAMPLE_CHUNK", chunk)
            first = next(sample_product_states(ho, np.random.default_rng(5), count))
            assert len(first.energies) == chunk
            small = draw_all(ho, np.random.default_rng(5), count)
            for name, values in default.items():
                assert_same_bits(values, small[name], (chunk, name))

    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    @pytest.mark.parametrize("shell", COUPLED_SHELLS + [(0, 0), (40, 1), (3, 40)])
    def test_one_normal_row_per_state(self, shell, n):
        """The draws are the rows of ``standard_normal((n, 2(d_s + d_l)))``,
        laid out as spin real, spin imaginary, orbital real, orbital
        imaginary: the batches hold the bits of product_states on them."""
        spin_dim, orbital_dim = shell[0] + 1, shell[1] + 1
        sys_ = SpinOrbitSystem(HalfInt(shell[0]), HalfInt(shell[1]), -57.3)
        seed = n + 1000 * sum(shell)
        drawn = draw_all(sys_, np.random.default_rng(seed), n)
        rows = normal_rows(seed, n, spin_dim, orbital_dim)
        explicit = product_states(sys_, *factor_states(rows, spin_dim))
        for name in FIELDS:
            assert_same_bits(drawn[name], getattr(explicit, name), (shell, n, name))

    def test_near_zero_factor_is_redrawn(self):
        """A row with a zero factor is replaced by the row of normals drawn
        after the block."""
        rng = _ZeroFirstRng(4)
        batch = next(sample_product_states(sys_of("Ce"), rng, 5))
        assert rng.calls == [(5, 18), (1, 18)]
        twin = np.random.default_rng(4)
        rows = twin.standard_normal((5, 18))
        rows[0] = twin.standard_normal((1, 18))
        explicit = product_states(sys_of("Ce"), *factor_states(rows, 2))
        for name in FIELDS:
            assert_same_bits(getattr(explicit, name), getattr(batch, name), name)
        assert np.all(np.isfinite(batch.energies))

    @pytest.mark.parametrize("dims", [(1, 41), (6, 11), (41, 3)])
    def test_row_norms_are_bitwise_the_summed_squares(self, dims):
        """_norms on strided views, the four slices of a drawn block and the
        parts of a complex array, has the bits of the summed squares of
        contiguous copies: so sampled batches equal product_states on their
        rows."""
        spin_dim, orbital_dim = dims
        rows = normal_rows(spin_dim, 50, spin_dim, orbital_dim)
        start = 2 * spin_dim
        slices = ((rows[:, :spin_dim], rows[:, spin_dim:start]),
                  (rows[:, start:start + orbital_dim], rows[:, start + orbital_dim:]))
        for (re, im), state in zip(slices, factor_states(rows, spin_dim)):
            re_copy, im_copy = np.ascontiguousarray(re), np.ascontiguousarray(im)
            expected = np.sqrt((re_copy * re_copy + im_copy * im_copy).sum(axis=1))
            for views in ((re, im), (state.real, state.imag)):
                assert not any(view.flags.c_contiguous for view in views)
                assert_same_bits(expected, dense._norms(*views), dims)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            next(sample_product_states(sys_of("Ce"), np.random.default_rng(0), -1))

    def test_sample_invariants(self):
        for record in COUPLED:
            sys_ = record.system()
            s, l = record.s.value, record.l.value
            bound = sys_.separable_bound
            drawn = draw_all(sys_, np.random.default_rng(record.n4f), 500)
            assert np.all(np.linalg.norm(drawn["spin_vectors"], axis=1) <= s + 1e-9)
            assert np.all(np.linalg.norm(drawn["orbital_vectors"], axis=1) <= l + 1e-9)
            assert np.all(drawn["energies"] >= -bound - 1e-9)
            factorized = record.zeta * np.einsum(
                "rx,rx->r", drawn["spin_vectors"], drawn["orbital_vectors"]
            )
            energies = drawn["energies"]
            assert np.all(np.abs(energies - factorized) <= 1e-9 * (1.0 + np.abs(energies)))

    @pytest.mark.parametrize("symbol", DISTINCT_SHELLS)
    def test_haar_moments(self, symbol):
        """E|<J>|^2 = j/2 and E<J> = 0 for a Haar-random spin-j state."""
        record = ion_record(symbol)
        drawn = draw_all(record.system(), np.random.default_rng(record.n4f + 50), 10_000)
        for j, vectors in ((record.s.value, drawn["spin_vectors"]),
                           (record.l.value, drawn["orbital_vectors"])):
            squared = np.sum(vectors * vectors, axis=1)
            error = squared.std(ddof=1) / math.sqrt(len(squared))
            assert abs(squared.mean() - j / 2.0) <= 5.0 * error + 1e-12, (symbol, j)
            if j == 0.5:  # a pure qubit state has |<S>| = 1/2 exactly
                assert np.allclose(squared, 0.25, rtol=0, atol=1e-12)
            errors = vectors.std(axis=0, ddof=1) / math.sqrt(len(vectors))
            assert np.all(np.abs(vectors.mean(axis=0)) <= 5.0 * errors + 1e-12), (symbol, j)

    def test_batch_matches_single_state_evaluation(self):
        """10^4 draws over the distinct shells: each shell's rows of normals
        evaluated again in one explicit call, every 17th also alone and
        naively."""
        per_shell = -(-10_000 // len(DISTINCT_SHELLS))
        for symbol in DISTINCT_SHELLS:
            record = ion_record(symbol)
            sys_ = record.system()
            spin_dim, orbital_dim = record.s.twice + 1, record.l.twice + 1
            drawn = draw_all(sys_, np.random.default_rng(record.n4f), per_shell)
            spin_states, orbital_states = factor_states(
                normal_rows(record.n4f, per_shell, spin_dim, orbital_dim), spin_dim)
            explicit = product_states(sys_, spin_states, orbital_states)
            s, l = record.s.value, record.l.value
            scale = abs(sys_.zeta) * s * l
            assert np.allclose(drawn["spin_vectors"], explicit.spin_vectors,
                               rtol=1e-12, atol=1e-12 * s)
            assert np.allclose(drawn["orbital_vectors"], explicit.orbital_vectors,
                               rtol=1e-12, atol=1e-12 * l)
            assert np.allclose(drawn["energies"], explicit.energies,
                               rtol=1e-12, atol=1e-12 * scale)
            for r in range(0, per_shell, 17):
                spin = spin_states[r] / np.linalg.norm(spin_states[r])
                orbital = orbital_states[r] / np.linalg.norm(orbital_states[r])
                single = product_states(sys_, spin[None], orbital[None])
                spin_vec, orbital_vec, energy = naive_observables(sys_, spin, orbital)
                for vectors in (single.spin_vectors[0], explicit.spin_vectors[r]):
                    assert np.allclose(vectors, spin_vec, rtol=1e-12, atol=1e-12 * s)
                for vectors in (single.orbital_vectors[0], explicit.orbital_vectors[r]):
                    assert np.allclose(vectors, orbital_vec, rtol=1e-12, atol=1e-12 * l)
                for value in (single.energies[0], explicit.energies[r]):
                    assert abs(value - energy) <= 1e-12 * scale, symbol

    @settings(max_examples=25, deadline=None)
    @given(st.tuples(st.integers(0, 12), st.integers(0, 12)).filter(
               lambda shell: shell not in CATALOG_SHELLS),
           st.integers(1, 300), st.integers(0, 2**32 - 1))
    def test_batch_is_bitwise_row_by_row(self, shell, count, seed):
        """Every field of a batch of ``count`` states equals, exactly, that of
        each state evaluated alone."""
        sys_ = SpinOrbitSystem(HalfInt(shell[0]), HalfInt(shell[1]), -57.3)
        rng = np.random.default_rng(seed)
        spin, orbital = (rng.standard_normal((count, 2 * (twice + 1))).view(complex)
                         for twice in shell)
        batch = product_states(sys_, spin, orbital)
        assert batch.spin_vectors.shape == batch.orbital_vectors.shape == (count, 3)
        assert batch.energies.shape == (count,)
        for r in range(count):
            single = product_states(sys_, spin[r:r + 1], orbital[r:r + 1])
            for name in FIELDS:
                assert np.array_equal(getattr(batch, name)[r], getattr(single, name)[0]), (
                    name, r)

    @pytest.mark.parametrize("two_s", range(13))
    def test_one_state_alone_and_in_a_pair_is_its_row(self, two_s):
        """On every shell 2s, 2l <= 12, catalog shells included, each state of
        a 37-state Haar batch has the same bits evaluated alone and in a batch
        of two."""
        rng = np.random.default_rng(two_s + 500)
        for two_l in range(13):
            sys_ = SpinOrbitSystem(HalfInt(two_s), HalfInt(two_l), -57.3)
            spin, orbital = (rng.standard_normal((37, 2 * (twice + 1))).view(complex)
                             for twice in (two_s, two_l))
            batch = product_states(sys_, spin, orbital)
            for r in range(37):
                pair = [r, (r + 1) % 37]
                alone = product_states(sys_, spin[r:r + 1], orbital[r:r + 1])
                two = product_states(sys_, spin[pair], orbital[pair])
                for name in FIELDS:
                    row = getattr(batch, name)[r:r + 1]
                    assert_same_bits(row, getattr(alone, name), (two_l, r, name))
                    assert_same_bits(row, getattr(two, name)[:1], (two_l, r, name))

    def test_aligned_basis_state_saturates_bound(self):
        for record in COUPLED:
            sys_ = record.system()
            spin = np.zeros(record.s.twice + 1)
            orbital = np.zeros(record.l.twice + 1)
            spin[0] = 1.0  # m_s = +s
            # zeta > 0 wants the moments antiparallel, zeta < 0 parallel.
            sign = -1.0 if record.zeta > 0 else 1.0
            orbital[-1 if record.zeta > 0 else 0] = 1.0
            state = product_states(sys_, spin[None], orbital[None])
            assert state.energies[0] == pytest.approx(-sys_.separable_bound, rel=1e-12)
            assert np.array_equal(state.spin_vectors, [[0.0, 0.0, record.s.value]])
            assert np.array_equal(state.orbital_vectors, [[0.0, 0.0, sign * record.l.value]])

    @pytest.mark.filterwarnings("error")
    def test_rows_at_any_scale(self):
        """A basis row whose squares are subnormal, underflow or overflow
        gives the basis state's exact energy and Bloch vector; rows scaled by
        any 2^k from 2^-1000 to 2^1000 keep every bit of the batch."""
        ce = sys_of("Ce")
        for amplitude in (3e-162, 1e-170, 1e200):
            batch = product_states(ce, [[amplitude, 0.0]], [[0, 0, 0, 0, 0, 0, 1]])
            assert batch.energies.tolist() == [-1350.0], amplitude
            assert batch.spin_vectors.tolist() == [[0.0, 0.0, 0.5]], amplitude
        rows = normal_rows(9, 20, 2, 7)
        reference = product_states(ce, *factor_states(rows, 2))
        for k in range(-1000, 1001):
            scaled = product_states(ce, *factor_states(np.ldexp(rows, k), 2))
            for name in FIELDS:
                assert_same_bits(getattr(reference, name), getattr(scaled, name), (k, name))

    def test_states_normalized_defensively(self):
        """A row and its multiples give the same observables; a multiple by
        a power of two keeps every bit of the norm, so every bit of them."""
        ce = sys_of("Ce")
        spin = np.array([3.0, 4.0])
        orbital = np.zeros(7)
        orbital[2] = -2.5
        scaled = product_states(ce, [spin, 2.0 * spin], [orbital, orbital])
        unit = product_states(ce, [spin / 5.0], [orbital / 2.5])
        assert scaled.energies == pytest.approx(np.repeat(unit.energies, 2), rel=1e-12)
        assert not scaled.energies.flags.writeable
        rows = normal_rows(6, 4, 2, 7)
        quadrupled = rows.copy()
        quadrupled[0] *= 4.0       # both factors
        quadrupled[1, :4] *= 4.0   # the spin factor
        quadrupled[2, 4:] *= 4.0   # the orbital factor
        batch = product_states(ce, *factor_states(rows, 2))
        again = product_states(ce, *factor_states(quadrupled, 2))
        for name in FIELDS:
            assert_same_bits(getattr(batch, name), getattr(again, name), name)

    def test_dimension_mismatch_rejected(self):
        for spin, orbital in [
            (np.ones((1, 3)), np.ones((1, 7))),  # spin dimension
            (np.ones((1, 2)), np.ones((1, 5))),  # orbital dimension
            (np.ones((2, 2)), np.ones((1, 7))),  # row counts differ
            (np.ones(2), np.ones(7)),            # single states need a row axis
            (np.ones((1, 1, 2)), np.ones((1, 7))),
        ]:
            with pytest.raises(ValueError, match="do not match"):
                product_states(sys_of("Ce"), spin, orbital)

    @pytest.mark.parametrize("row", [np.zeros(7), np.full(7, np.inf), np.full(7, np.nan)])
    def test_zero_or_non_finite_row_rejected(self, row):
        orbital = np.ones((2, 7))
        orbital[1] = row
        with pytest.raises(ValueError, match="finite, nonzero norm"):
            product_states(sys_of("Ce"), np.ones((2, 2)), orbital)
        with pytest.raises(ValueError, match="finite, nonzero norm"):
            product_states(sys_of("Ce"), orbital[:, :2], np.ones((2, 7)))

    def test_empty_batch(self):
        empty = product_states(sys_of("Ho"), np.ones((0, 5)), np.ones((0, 13)))
        assert empty.energies.shape == (0,)
        assert empty.spin_vectors.shape == empty.orbital_vectors.shape == (0, 3)


def traced_peak(call):
    """Peak bytes that tracemalloc sees allocated during ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryBudget:
    """Traced peaks of the sampling path, each within the figure of the
    whole-vector evaluator, which held 256 states per batch: 1 028 320 bytes
    for one batch on n = 66 and 1 136 679 for a default verify.  Caches are
    filled first, so only the sampling and its checks are traced."""

    # One default batch of 1024 states per coupled catalog shell: the peaks
    # measured (562 376 to 1 014 352 bytes, moving by up to about 200 with the
    # interpreter's state) rounded up to whole 4 KiB: less than the 8 KiB of
    # one more float per state, which would exceed them.  That leaves 1 392
    # (Sm) to 2 872 (Ce) bytes of headroom per shell, so a failure here means
    # a larger batch or a new temporary, not noise.
    BATCH_PEAKS = {"Ce": 565_248, "Pr": 851_968, "Nd": 999_424, "Pm": 1_015_808,
                   "Sm": 901_120, "Eu": 647_168}

    @pytest.mark.parametrize("symbol", sorted(BATCH_PEAKS))
    def test_one_default_batch_on_each_shell(self, symbol):
        system = sys_of(symbol)
        next(sample_product_states(system, np.random.default_rng(0), 1))
        peak = traced_peak(lambda: next(
            sample_product_states(system, np.random.default_rng(1), dense._SAMPLE_CHUNK)))
        assert peak <= self.BATCH_PEAKS[symbol], peak

    def test_one_default_batch_on_the_largest_shell(self):
        sm = sys_of("Sm")
        assert (sm.s.twice + 1) * (sm.l.twice + 1) == 66
        next(sample_product_states(sm, np.random.default_rng(0), 1))
        peak = traced_peak(lambda: next(
            sample_product_states(sm, np.random.default_rng(1), dense._SAMPLE_CHUNK)))
        assert peak <= 1_028_320, peak

    def test_default_verify(self):
        def verify(*args):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["verify", *args]) == 0

        verify("--samples", "1")
        peak = traced_peak(verify)
        assert peak <= 1_136_679, peak


class TestGroundStateAnalysis:
    def test_europium_singlet(self):
        analysis = ground_state_analysis(sys_of("Eu"))
        assert analysis.degeneracy == 1
        assert analysis.energy == pytest.approx(-6000.0, rel=1e-12)
        assert analysis.schmidt_spectrum == pytest.approx(np.full(7, 1.0 / 7.0), abs=1e-9)
        assert float(np.sum(analysis.schmidt_spectrum)) == pytest.approx(1.0, abs=1e-12)
        assert analysis.entropy == pytest.approx(math.log(7.0), abs=1e-9)

    def test_singlet_triplet_ground(self):
        analysis = ground_state_analysis(SpinOrbitSystem(HalfInt(1), HalfInt(1), 1.0))
        assert analysis.degeneracy == 1
        assert analysis.energy == pytest.approx(-0.75, abs=1e-12)
        assert analysis.schmidt_spectrum == pytest.approx([0.5, 0.5], abs=1e-12)
        assert analysis.entropy == pytest.approx(math.log(2.0), abs=1e-12)

    def test_degenerate_ground_states_have_no_schmidt_data(self):
        ce = ground_state_analysis(sys_of("Ce"))
        assert ce.degeneracy == 6
        assert ce.schmidt_spectrum is None and ce.entropy is None
        tb = ground_state_analysis(sys_of("Tb"))
        assert tb.degeneracy == 13
        assert tb.energy == pytest.approx(-4347.0, rel=1e-12)

    def test_requires_coupling(self):
        with pytest.raises(ValueError):
            ground_state_analysis(sys_of("Gd"))

    @pytest.mark.parametrize("two_s, zeta", [*((two_s, 1.0) for two_s in range(13)),
                                             (0, -1.0), (1, 1e308), (3, 1e308)])
    def test_singlet_of_equal_momenta_is_maximally_entangled(self, two_s, zeta):
        """For s = l the j = 0 ground state is unique, and its Schmidt
        spectrum is flat: 2s+1 entries of 1/(2s+1), entropy ln(2s+1).  At
        zeta = 1e308 the two lowest levels of s = 3/2 both overflow to -inf,
        which a count on zeta S.L took for a 4-fold ground level."""
        analysis = ground_state_analysis(SpinOrbitSystem(HalfInt(two_s), HalfInt(two_s), zeta))
        assert analysis.degeneracy == 1
        schmidt = analysis.schmidt_spectrum
        assert schmidt.shape == (two_s + 1,) and not schmidt.flags.writeable
        assert np.abs(schmidt - 1.0 / (two_s + 1)).max() <= 1e-12
        assert abs(analysis.entropy - math.log(two_s + 1)) <= 1e-12
