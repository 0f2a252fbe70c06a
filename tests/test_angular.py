import math

import pytest
from hypothesis import given, strategies as st

from sowitness.angular import (
    Convention,
    HalfInt,
    Multiplet,
    SpinOrbitSystem,
    level_energy,
    multiplets,
)
from sowitness.ions import CATALOG


def system(ts, tl, zeta, convention=Convention.MULTIPLET_DEGENERATE):
    return SpinOrbitSystem(HalfInt(ts), HalfInt(tl), zeta, convention)


class TestHalfInt:
    def test_value_and_str(self):
        assert HalfInt(5).value == 2.5
        assert str(HalfInt(5)) == "5/2"
        assert str(HalfInt(6)) == "3"
        assert str(HalfInt(-5)) == "-5/2"

    def test_rejects_non_int(self):
        with pytest.raises(TypeError):
            HalfInt(2.5)
        with pytest.raises(TypeError):
            HalfInt(True)

    def test_ordering(self):
        assert HalfInt(5) < HalfInt(6)
        assert HalfInt(5) < HalfInt(8)  # 5/2 < 4
        assert sorted([HalfInt(8), HalfInt(1), HalfInt(5)]) == [
            HalfInt(1), HalfInt(5), HalfInt(8),
        ]

    @given(st.integers(-100, 100), st.integers(-100, 100))
    def test_arithmetic_is_exact_on_doubled_values(self, a, b):
        assert HalfInt(a).value == a / 2
        assert (HalfInt(a) < HalfInt(b)) == (a < b)
        assert (HalfInt(a) == HalfInt(b)) == (a == b)


class TestSpinOrbitSystem:
    def test_dimension(self):
        assert system(1, 6, 900.0).dimension == 14
        assert system(6, 6, 500.0).dimension == 49

    def test_separable_bound(self):
        assert system(1, 6, 900.0).separable_bound == 900.0 * 0.5 * 3.0
        assert system(6, 6, -483.0).separable_bound == 483.0 * 9.0

    def test_zeta_must_be_finite(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                system(1, 6, bad)

    def test_zeta_zero_requires_trivial_factor(self):
        with pytest.raises(ValueError):
            system(1, 6, 0.0)
        assert system(7, 0, 0.0).witness_trivial
        assert system(0, 6, 100.0).witness_trivial
        assert not system(1, 6, 900.0).witness_trivial

    def test_negative_quantum_numbers_rejected(self):
        with pytest.raises(ValueError):
            system(-1, 6, 900.0)

    def test_field_types_checked(self):
        with pytest.raises(TypeError):
            SpinOrbitSystem(0.5, HalfInt(6), 900.0)
        with pytest.raises(TypeError):
            SpinOrbitSystem(HalfInt(1), HalfInt(6), 900.0, "level")


class TestMultiplet:
    def test_negative_j_rejected(self):
        with pytest.raises(ValueError):
            Multiplet(HalfInt(-1), 0.0)

    def test_degeneracy_is_two_j_plus_one(self):
        assert [Multiplet(HalfInt(tj), 0.0).degeneracy for tj in range(5)] == [1, 2, 3, 4, 5]


class TestMultiplets:
    def test_smallest_coupled_pair(self):
        levels = multiplets(system(1, 1, 1.0))
        assert [m.j for m in levels] == [HalfInt(0), HalfInt(2)]
        assert [m.degeneracy for m in levels] == [1, 3]

    def test_cerium(self):
        levels = multiplets(system(1, 6, 900.0))
        assert [m.j for m in levels] == [HalfInt(5), HalfInt(7)]
        assert [m.degeneracy for m in levels] == [6, 8]

    def test_europium_dimension(self):
        levels = multiplets(system(6, 6, 500.0))
        assert [m.j.twice for m in levels] == [0, 2, 4, 6, 8, 10, 12]
        assert sum(m.degeneracy for m in levels) == 49

    def test_dimension_sum_rule_exhaustive(self):
        for ts in range(17):
            for tl in range(17):
                zeta = 1.0 if ts and tl else 0.0
                sys_ = system(ts, tl, zeta)
                assert sum(m.degeneracy for m in multiplets(sys_)) == sys_.dimension


class TestLevelEnergy:
    def test_europium_ground(self):
        assert level_energy(system(6, 6, 500.0), HalfInt(0)) == -6000.0

    def test_cerium_top_is_zeta_s_l(self):
        assert level_energy(system(1, 6, 900.0), HalfInt(7)) == 1350.0

    def test_cerium_gap(self):
        ce = system(1, 6, 900.0)
        assert level_energy(ce, HalfInt(7)) - level_energy(ce, HalfInt(5)) == 3150.0

    def test_out_of_range_j(self):
        ce = system(1, 6, 900.0)
        with pytest.raises(ValueError):
            level_energy(ce, HalfInt(3))  # below |l-s|
        with pytest.raises(ValueError):
            level_energy(ce, HalfInt(9))  # above l+s
        with pytest.raises(ValueError):
            level_energy(ce, HalfInt(6))  # wrong parity

    def test_strictly_monotone_in_j(self):
        for zeta, sign in ((700.0, 1.0), (-700.0, -1.0)):
            energies = [m.energy for m in multiplets(system(5, 10, zeta))]
            diffs = [b - a for a, b in zip(energies, energies[1:])]
            assert all(sign * d > 0 for d in diffs)

    def test_trace_identity_exhaustive_small(self):
        for ts in range(1, 9):
            for tl in range(1, 9):
                for zeta in (1.0, -273.15, 900.0):
                    levels = multiplets(system(ts, tl, zeta))
                    trace = math.fsum(m.degeneracy * m.energy for m in levels)
                    scale = math.fsum(m.degeneracy * abs(m.energy) for m in levels)
                    assert abs(trace) <= 1e-10 * max(scale, 1.0)

    @given(
        st.integers(1, 16), st.integers(1, 16),
        st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
        st.booleans(),
    )
    def test_trace_identity_random(self, ts, tl, magnitude, negative):
        zeta = -magnitude if negative else magnitude
        levels = multiplets(system(ts, tl, zeta))
        trace = math.fsum(m.degeneracy * m.energy for m in levels)
        scale = math.fsum(m.degeneracy * abs(m.energy) for m in levels)
        assert abs(trace) <= 1e-10 * max(scale, 1.0)


class TestGroundLevel:
    """The ground level is the first multiplet (j = |l-s|) for zeta > 0 and
    the last (j = l+s) for zeta < 0."""

    def test_neodymium(self):
        assert multiplets(system(3, 12, 500.0))[0].j == HalfInt(9)

    def test_terbium(self):
        assert multiplets(system(6, 6, -483.0))[-1].j == HalfInt(12)

    def test_gadolinium_single_multiplet(self):
        (ground,) = multiplets(system(7, 0, 0.0))
        assert ground.j == HalfInt(7)
        assert ground.energy == 0.0

    def test_is_argmin_of_level_energy(self):
        for ts, tl, zeta in ((1, 6, 900.0), (6, 6, -483.0), (5, 10, 414.0), (4, 12, -937.0)):
            levels = multiplets(system(ts, tl, zeta))
            ground = levels[0] if zeta > 0 else levels[-1]
            assert ground.energy == min(m.energy for m in levels)
            assert sum(m.energy == ground.energy for m in levels) == 1

    def test_closed_forms_for_catalog_ions(self):
        for record in CATALOG:
            if record.zeta is None:
                continue
            levels = multiplets(record.system())
            ground = (levels[0] if record.zeta > 0 else levels[-1]).energy
            s, l, zeta = record.s.value, record.l.value, record.zeta
            if zeta > 0:
                assert ground == pytest.approx(-zeta * s * (l + 1), rel=1e-14)
            else:
                assert ground == pytest.approx(zeta * s * l, rel=1e-14)
