import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sowitness import dense
from sowitness.angular import Convention, HalfInt, SpinOrbitSystem, multiplets
from sowitness.dense import (
    ConvergenceError,
    _ladder_triplet,
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
GRID = np.geomspace(1.0, 1e6, 50)


def sys_of(symbol):
    return ion_record(symbol).system(Convention.MULTIPLET_DEGENERATE)


def closed_form_spectrum(system):
    """Level energies repeated by multiplicity, ascending."""
    return np.sort(
        np.concatenate([[m.energy] * m.degeneracy for m in multiplets(system)])
    )


class TestAngularMomentumMatrices:
    def test_spin_half(self):
        jz, jplus, jminus = _ladder_triplet(1)
        assert np.array_equal(jz, np.diag([0.5, -0.5]))
        assert np.array_equal(jplus, [[0.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(jminus, jplus.T)

    def test_spin_one(self):
        _, jplus, _ = _ladder_triplet(2)
        root2 = math.sqrt(2.0)
        assert jplus == pytest.approx(
            np.array([[0, root2, 0], [0, 0, root2], [0, 0, 0]])
        )

    @pytest.mark.parametrize("twice_j", range(17))
    def test_ladder_algebra(self, twice_j):
        jz, jplus, jminus = _ladder_triplet(twice_j)
        # [Jz, J+] = J+,  [J+, J-] = 2 Jz
        assert jz @ jplus - jplus @ jz == pytest.approx(jplus, abs=1e-12)
        assert jplus @ jminus - jminus @ jplus == pytest.approx(2.0 * jz, abs=1e-12)

    @pytest.mark.parametrize("twice_j", range(17))
    def test_casimir(self, twice_j):
        jz, jplus, jminus = _ladder_triplet(twice_j)
        casimir = jz @ jz + 0.5 * (jplus @ jminus + jminus @ jplus)
        jj = twice_j * (twice_j + 2) / 4.0
        assert casimir == pytest.approx(jj * np.eye(twice_j + 1), abs=1e-12)


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

    def test_convergence_error_carries_residual(self):
        with pytest.raises(ConvergenceError) as err:
            jacobi_eigh(np.array([[0.0, 1.0], [1.0, 0.0]]), max_sweeps=0)
        assert err.value.residual > 0.0

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


def draw_all(system, rng, n):
    """Concatenate the batches of ``sample_product_states`` field by field."""
    batches = list(sample_product_states(system, rng, n))
    fields = ("spin_states", "orbital_states", "spin_vectors", "orbital_vectors",
              "cos_angles", "energies")
    return {f: np.concatenate([getattr(b, f) for b in batches]) for f in fields}


def naive_observables(system, spin, orbital):
    """<S>, <L> and <psi|H|psi> of one product state, by explicit kron and vdot."""
    def bloch(twice_j, state):
        jz, jplus, jminus = _ladder_triplet(twice_j)
        ops = (0.5 * (jplus + jminus), -0.5j * (jplus - jminus), jz)
        return np.array([np.vdot(state, op @ state).real for op in ops])

    product = np.kron(spin, orbital)
    energy = np.vdot(product, build_hamiltonian(system) @ product).real
    return bloch(system.s.twice, spin), bloch(system.l.twice, orbital), energy


class _ZeroFirstRng:
    """Generator stand-in whose first block has an all-zero first row."""

    def __init__(self, seed):
        self.inner = np.random.default_rng(seed)
        self.calls = []

    def standard_normal(self, shape):
        self.calls.append(shape)
        block = self.inner.standard_normal(shape)
        if len(self.calls) == 1:
            block[0] = 0.0
        return block


class TestProductStates:
    def test_sampling_is_deterministic(self):
        ce = sys_of("Ce")
        first = draw_all(ce, np.random.default_rng(11), 600)
        second = draw_all(ce, np.random.default_rng(11), 600)
        for name, values in first.items():
            assert np.array_equal(values, second[name]), name

    def test_batches_are_bounded_and_read_only(self):
        batches = list(sample_product_states(sys_of("Ho"), np.random.default_rng(2), 600))
        sizes = [len(b.energies) for b in batches]
        assert sum(sizes) == 600
        assert max(sizes) <= dense._SAMPLE_CHUNK
        assert not batches[0].energies.flags.writeable
        assert not batches[0].spin_states.flags.writeable
        assert list(sample_product_states(sys_of("Ho"), np.random.default_rng(2), 0)) == []

    def test_chunk_size_does_not_change_the_draws(self, monkeypatch):
        ho = sys_of("Ho")
        default = draw_all(ho, np.random.default_rng(5), 600)
        monkeypatch.setattr(dense, "_SAMPLE_CHUNK", 7)
        assert len(next(sample_product_states(ho, np.random.default_rng(5), 600)).energies) == 7
        small = draw_all(ho, np.random.default_rng(5), 600)
        for name, values in default.items():
            assert np.array_equal(values, small[name]), name

    def test_one_normal_row_per_state(self):
        ce = sys_of("Ce")  # 2s+1 = 2, 2l+1 = 7
        rng = np.random.default_rng(9)
        batch = next(sample_product_states(ce, rng, 3))
        rows = np.random.default_rng(9).standard_normal((3, 2 * (2 + 7)))
        spin = rows[:, :2] + 1j * rows[:, 2:4]
        orbital = rows[:, 4:11] + 1j * rows[:, 11:]
        assert np.allclose(batch.spin_states,
                           spin / np.linalg.norm(spin, axis=1)[:, None], rtol=0, atol=1e-15)
        assert np.allclose(batch.orbital_states,
                           orbital / np.linalg.norm(orbital, axis=1)[:, None], rtol=0, atol=1e-15)

    def test_near_zero_factor_is_redrawn(self):
        rng = _ZeroFirstRng(4)
        batch = next(sample_product_states(sys_of("Ce"), rng, 5))
        assert rng.calls == [(5, 18), (1, 18)]
        assert np.allclose(np.linalg.norm(batch.spin_states, axis=1), 1.0, atol=1e-15)
        assert np.all(np.isfinite(batch.energies))

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
            assert np.all(np.abs(drawn["cos_angles"]) <= 1.0 + 1e-12)
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
        """10^4 draws over the distinct shells: each shell's rows evaluated
        again in one explicit call, every 17th also alone and naively."""
        per_shell = -(-10_000 // len(DISTINCT_SHELLS))
        for symbol in DISTINCT_SHELLS:
            record = ion_record(symbol)
            sys_ = record.system()
            drawn = draw_all(sys_, np.random.default_rng(record.n4f), per_shell)
            explicit = product_states(sys_, drawn["spin_states"], drawn["orbital_states"])
            s, l = record.s.value, record.l.value
            scale = abs(sys_.zeta) * s * l
            assert np.allclose(drawn["spin_vectors"], explicit.spin_vectors,
                               rtol=1e-12, atol=1e-12 * s)
            assert np.allclose(drawn["orbital_vectors"], explicit.orbital_vectors,
                               rtol=1e-12, atol=1e-12 * l)
            assert np.allclose(drawn["cos_angles"], explicit.cos_angles, rtol=1e-12, atol=1e-12)
            assert np.allclose(drawn["energies"], explicit.energies,
                               rtol=1e-12, atol=1e-12 * scale)
            for r in range(0, per_shell, 17):
                spin, orbital = drawn["spin_states"][r], drawn["orbital_states"][r]
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
        assert batch.spin_states.shape == spin.shape
        assert batch.orbital_states.shape == orbital.shape
        assert batch.spin_vectors.shape == batch.orbital_vectors.shape == (count, 3)
        for r in range(count):
            single = product_states(sys_, spin[r:r + 1], orbital[r:r + 1])
            for name in ("spin_states", "orbital_states", "spin_vectors", "orbital_vectors",
                         "cos_angles", "energies"):
                assert np.array_equal(getattr(batch, name)[r], getattr(single, name)[0]), (
                    name, r)

    def test_aligned_basis_state_saturates_bound(self):
        for record in COUPLED:
            sys_ = record.system()
            spin = np.zeros(record.s.twice + 1)
            orbital = np.zeros(record.l.twice + 1)
            spin[0] = 1.0  # m_s = +s
            # zeta > 0 wants the moments antiparallel, zeta < 0 parallel.
            orbital[-1 if record.zeta > 0 else 0] = 1.0
            state = product_states(sys_, spin[None], orbital[None])
            assert state.energies[0] == pytest.approx(-sys_.separable_bound, rel=1e-12)
            assert state.cos_angles[0] == pytest.approx(-1.0 if record.zeta > 0 else 1.0,
                                                        abs=1e-12)

    def test_states_normalized_defensively(self):
        ce = sys_of("Ce")
        spin = np.array([3.0, 4.0])
        orbital = np.zeros(7)
        orbital[2] = -2.5
        scaled = product_states(ce, [spin, 2.0 * spin], [orbital, orbital])
        unit = product_states(ce, [spin / 5.0], [orbital / 2.5])
        assert scaled.energies == pytest.approx(np.repeat(unit.energies, 2), rel=1e-12)
        assert np.allclose(np.linalg.norm(scaled.spin_states, axis=1), 1.0, atol=1e-15)
        assert not scaled.energies.flags.writeable

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
