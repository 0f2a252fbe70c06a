import decimal
import itertools
import math
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sowitness import angular, thermal
from sowitness.angular import Convention, HalfInt, SpinOrbitSystem, multiplets
from sowitness.dense import build_hamiltonian, jacobi_eigh, thermal_mean_energy
from sowitness.ions import CATALOG, ion_record
from sowitness.thermal import (
    BRACKET_CAP_K,
    WitnessStatus,
    entanglement_temperature,
    mean_energy,
    witness,
    witness_curve,
)

from exact_witness import exact_witness_sign

LEVEL = Convention.LEVEL_UNIFORM
MULTIPLET = Convention.MULTIPLET_DEGENERATE

# Entanglement temperatures in kelvin, frozen from an independent dense-matrix
# solver (Brent root finding on the trace-formula witness, xtol = 1e-10).
TE_LEVEL = {
    "Ce": 1758.0484736364,
    "Pr": 1850.5726640819,
    "Nd": 1903.7245931154,
    "Pm": 2008.1731408087,
    "Sm": 1974.8609711047,
    "Eu": 3295.3248901796,
}
TE_MULTIPLET = {
    "Ce": 1514.8297929334,
    "Pr": 1665.0208543617,
    "Nd": 1711.2116743757,
    "Pm": 1753.4789112451,
    "Sm": 1564.2282381372,
    "Eu": 1588.9863011275,
}

# Shifted per-level weights for Eu at T = 3295 K under unit level weights,
# frozen from the same solver.
EU_LEVEL_WEIGHTS_3295 = [
    1.0,
    0.859207292012,
    0.634298760253,
    0.402334917259,
    0.219270164226,
    0.102676087833,
    0.041310175303,
]

LIGHT = [r for r in CATALOG if r.light]
COUPLED = [r for r in CATALOG if r.zeta is not None]


def assert_brackets_the_exact_zero(sys_, t, tolerance):
    """The exact W changes sign across [T - d, T + d], d = max(tolerance,
    8 ulp(T)), the stated accuracy of T_E on 2s, 2l <= 12; below 0 K,
    W(0) < 0 stands in."""
    d = max(tolerance, 8 * math.ulp(t))
    assert exact_witness_sign(sys_, t + d) >= 0
    assert exact_witness_sign(sys_, max(t - d, 0.0)) <= 0


def sys_of(symbol, convention):
    return ion_record(symbol).system(convention)


def ground_level(system):
    """The multiplet of lowest energy."""
    return min(multiplets(system), key=lambda level: level.energy)


def witness_at_zero(system):
    """W(0) in closed form: -zeta min(s, l) for zeta > 0, and 0 otherwise."""
    return -system.zeta * min(system.s.value, system.l.value) if system.zeta > 0.0 else 0.0


def excitation_means(system, temperatures):
    """<x> at each temperature, from the kernel sums of one level table."""
    sums, partition = thermal._LevelTable(system).sums(temperatures)
    return sums[:, 0] / partition


def weight(system, level, temperature):
    """Boltzmann weight of one level, shifted so the ground level has weight g:
    the per-level reference the level-table kernel is tested against."""
    g = level.degeneracy if system.convention is MULTIPLET else 1
    return g * math.exp(-(level.energy - ground_level(system).energy) / temperature)


class TestWeight:
    """The per-level reference, checked against frozen independent values."""

    def test_ground_weight_is_effective_degeneracy(self):
        ce = sys_of("Ce", MULTIPLET)
        assert weight(ce, ground_level(ce), 137.0) == 6.0
        ce_level = sys_of("Ce", LEVEL)
        assert weight(ce_level, ground_level(ce_level), 137.0) == 1.0

    def test_cerium_ratio_at_gap_over_ln8(self):
        ce = sys_of("Ce", MULTIPLET)
        ground, excited = multiplets(ce)
        t = 3150.0 / math.log(8.0)
        ratio = weight(ce, ground, t) / weight(ce, excited, t)
        assert ratio == pytest.approx(6.0, rel=1e-12)

    def test_high_temperature_ratio_approaches_degeneracy_ratio(self):
        ce = sys_of("Ce", MULTIPLET)
        ground, excited = multiplets(ce)
        ratio = weight(ce, excited, 1e13) / weight(ce, ground, 1e13)
        assert ratio == pytest.approx(8.0 / 6.0, rel=1e-9)
        ce_level = sys_of("Ce", LEVEL)
        ratio = weight(ce_level, excited, 1e13) / weight(ce_level, ground, 1e13)
        assert ratio == pytest.approx(1.0, rel=1e-9)

    def test_europium_level_weights_at_3295(self):
        eu = sys_of("Eu", LEVEL)
        got = [weight(eu, level, 3295.0) for level in multiplets(eu)]
        assert got == pytest.approx(EU_LEVEL_WEIGHTS_3295, abs=1e-9)

    def test_europium_weights_match_dense_spectrum_ratios(self):
        eu = sys_of("Eu", LEVEL)
        values, _ = jacobi_eigh(build_hamiltonian(eu))
        unique = sorted({round(v, 6) for v in values})
        dense_weights = [math.exp(-(v - unique[0]) / 3295.0) for v in unique]
        got = [weight(eu, level, 3295.0) for level in multiplets(eu)]
        assert sorted(got, reverse=True) == pytest.approx(dense_weights, rel=1e-9)


class TestMeanEnergy:
    def test_europium_level_at_table_temperature(self):
        # The tabulated crossing temperature is rounded to the kelvin, so the
        # mean energy reaches the product bound -4500 K only to ~0.2 K there.
        assert mean_energy(sys_of("Eu", LEVEL), 3295.0) == pytest.approx(-4500.0, abs=0.2)

    def test_europium_level_at_computed_root(self):
        assert mean_energy(sys_of("Eu", LEVEL), TE_LEVEL["Eu"]) == pytest.approx(
            -4500.0, abs=1e-6
        )

    def test_low_temperature_limit_is_ground_energy(self):
        for record in COUPLED:
            for convention in (LEVEL, MULTIPLET):
                sys_ = record.system(convention)
                cold = mean_energy(sys_, record.delta_e / 100.0)
                assert cold == pytest.approx(ground_level(sys_).energy, abs=1e-6)

    def test_cerium_high_temperature_limits(self):
        assert mean_energy(sys_of("Ce", LEVEL), 1e8) == pytest.approx(-225.0, abs=0.1)
        assert mean_energy(sys_of("Ce", MULTIPLET), 1e8) == pytest.approx(0.0, abs=0.1)

    def test_high_temperature_equal_weight_average(self):
        # At 1e10 K every catalog ion sits within 0.1 K of the equal-weight
        # average; the residual at finite T is the 1/T correction tested below.
        for record in COUPLED:
            for convention in (LEVEL, MULTIPLET):
                sys_ = record.system(convention)
                levels = multiplets(sys_)
                if convention is MULTIPLET:
                    weights = [m.degeneracy for m in levels]
                else:
                    weights = [1] * len(levels)
                flat = math.fsum(w * m.energy for w, m in zip(weights, levels)) / sum(weights)
                assert mean_energy(sys_, 1e10) == pytest.approx(flat, abs=0.1)

    def test_high_temperature_convergence_law(self):
        # <H>_T - <H>_flat -> -Var(E)/T: check the leading coefficient at
        # 1e8 K, which pins the approach to the limit far more tightly than
        # any single absolute tolerance.
        for record in COUPLED:
            for convention in (LEVEL, MULTIPLET):
                sys_ = record.system(convention)
                levels = multiplets(sys_)
                if convention is MULTIPLET:
                    weights = [float(m.degeneracy) for m in levels]
                else:
                    weights = [1.0] * len(levels)
                total = math.fsum(weights)
                flat = math.fsum(w * m.energy for w, m in zip(weights, levels)) / total
                var = math.fsum(
                    w * (m.energy - flat) ** 2 for w, m in zip(weights, levels)
                ) / total
                deviation = mean_energy(sys_, 1e8) - flat
                assert deviation == pytest.approx(-var / 1e8, rel=2e-2), record.symbol

    def test_nondecreasing_in_temperature(self):
        grid = np.geomspace(1.0, 1e6, 200)
        for record in COUPLED:
            for convention in (LEVEL, MULTIPLET):
                sys_ = record.system(convention)
                values = [mean_energy(sys_, t) for t in grid]
                diffs = np.diff(values)
                assert diffs.min() >= -1e-9, record.symbol

    def test_matches_dense_trace_formula(self):
        for record in COUPLED:
            sys_ = record.system(MULTIPLET)
            for t in np.geomspace(1.0, 1e6, 50):
                lhs = mean_energy(sys_, t)
                rhs = thermal_mean_energy(sys_, t)
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs)), record.symbol

    def test_grid_agrees_with_per_temperature_floats(self):
        """One call on a grid gives each temperature's float within 1e-13
        relative, but not bit for bit: the kernel's matrix product of the
        weights with the level powers is rounded by a BLAS kernel that
        depends on the number of rows, so a 50-row product and a 1-row
        product of the same row may differ in the last bits."""
        grid = np.geomspace(1.0, 1e6, 50)
        for record in COUPLED:
            for convention in (LEVEL, MULTIPLET):
                sys_ = record.system(convention)
                values = mean_energy(sys_, grid)
                assert isinstance(values, np.ndarray) and values.shape == grid.shape
                floats = np.array([mean_energy(sys_, float(t)) for t in grid])
                assert np.all(np.abs(values - floats) <= 1e-13 * np.abs(floats)), record.symbol

    @pytest.mark.parametrize("grid", [[300.0, 0.0], [-1.0], [1.0, math.nan, 2.0],
                                      [[300.0]]])
    def test_grid_temperatures_validated(self, grid):
        with pytest.raises(ValueError):
            mean_energy(sys_of("Ce", LEVEL), np.array(grid))

    def test_shift_invariance_at_moderate_temperatures(self):
        # Above ~300 K the unshifted Boltzmann factors are representable, so
        # an unshifted reference sum must agree to near machine precision.
        for record in COUPLED:
            for convention in (LEVEL, MULTIPLET):
                sys_ = record.system(convention)
                levels = multiplets(sys_)
                for t in (300.0, 1000.0, 5000.0):
                    if convention is MULTIPLET:
                        raw = [m.degeneracy * math.exp(-m.energy / t) for m in levels]
                    else:
                        raw = [math.exp(-m.energy / t) for m in levels]
                    reference = math.fsum(
                        w * m.energy for w, m in zip(raw, levels)
                    ) / math.fsum(raw)
                    value = mean_energy(sys_, t)
                    assert abs(value - reference) <= 1e-12 * max(1.0, abs(reference))


class TestGroundEnergy:
    def test_catalog_values(self):
        assert ground_level(sys_of("Ce", MULTIPLET)).energy == -1800.0
        assert ground_level(sys_of("Tb", MULTIPLET)).energy == -4347.0
        assert ground_level(sys_of("Gd", MULTIPLET)).energy == 0.0

    def test_witness_at_zero_is_ground_energy_plus_bound(self):
        # bit for bit, under either convention
        for record in CATALOG:
            ground = ground_level(record.system(MULTIPLET)).energy
            for convention in (LEVEL, MULTIPLET):
                sys_ = record.system(convention)
                assert witness(sys_, 0.0) == ground + sys_.separable_bound, record.symbol


class TestWitness:
    def test_cerium_at_zero(self):
        assert witness(sys_of("Ce", MULTIPLET), 0.0) == -450.0

    def test_terbium_at_zero_is_exactly_zero(self):
        # Heavy ground energy is zeta*s*l, cancelling the bound identically.
        assert witness(sys_of("Tb", MULTIPLET), 0.0) == 0.0
        for record in CATALOG:
            if record.heavy:
                assert witness(record.system(MULTIPLET), 0.0) == 0.0

    def test_europium_level_near_zero_at_table_temperature(self):
        assert abs(witness(sys_of("Eu", LEVEL), 3295.0)) < 0.2

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            witness(sys_of("Ce", MULTIPLET), -1.0)

    def test_is_the_witness_at_zero_plus_the_mean_excitation(self):
        # W = W(0) + <x> and <H> = E_min + <x>, bit for bit from the same
        # kernel sums; so W = <H> + |zeta| s l up to their roundings
        for record in COUPLED:
            sys_ = record.system(MULTIPLET)
            for t in (10.0, 450.0, 3000.0):
                mean_excitation = excitation_means(sys_, np.array([t]))[0]
                w = witness(sys_, t)
                assert w == witness_at_zero(sys_) + mean_excitation
                assert mean_energy(sys_, t) == ground_level(sys_).energy + mean_excitation
                assert w == pytest.approx(mean_energy(sys_, t) + sys_.separable_bound,
                                          rel=0.0, abs=1e-12 * sys_.separable_bound)

    @pytest.mark.parametrize("zeta", [5.0, -5.0, 0.0])
    def test_witness_at_zero_without_coupling_is_positive_zero(self, zeta):
        # W(0) = -zeta min(s, l) is -0.0 at s l = 0 unless formed as 0.0 - ...
        for two_s, two_l in ((0, 2), (3, 0), (0, 0)):
            sys_ = SpinOrbitSystem(HalfInt(two_s), HalfInt(two_l), zeta)
            assert math.copysign(1.0, witness(sys_, 0.0)) == 1.0, (two_s, two_l)

    @pytest.mark.parametrize("convention", [LEVEL, MULTIPLET])
    def test_heavy_ion_witness_has_the_exact_sign(self, convention):
        """zeta < 0 gives W(0) = 0 and W = <x>, so W > 0, the exact sign,
        wherever the weight exp(-x_1/T) of the first excited level does not
        underflow to 0.  As <H> + |zeta| s l, W rounded to 0 at the lowest 8
        (Tb) to 40 (Yb) of these temperatures, up to 391.6 K."""
        for record in CATALOG:
            if not record.heavy:
                continue
            sys_ = record.system(convention)
            energies = sorted(m.energy for m in multiplets(sys_))
            gap = energies[1] - energies[0]
            curve = witness_curve(sys_, 1.0, 6000.0, 600)
            for t, w in zip(curve.temperatures.tolist(), curve.witness.tolist()):
                assert w >= 0.0, (record.symbol, t)
                if w != 0.0:
                    assert exact_witness_sign(sys_, t) == 1, (record.symbol, t)
                else:
                    assert math.exp(-gap / t) == 0.0, (record.symbol, t)

    def test_light_witness_at_zero_closed_form(self):
        # For zeta > 0: ground -zeta*s*(l+1) plus bound zeta*s*l gives -zeta*s.
        for record in LIGHT:
            sys_ = record.system(MULTIPLET)
            expected = -record.zeta * record.s.value
            assert witness(sys_, 0.0) == pytest.approx(expected, rel=1e-14)


class TestEntanglementTemperature:
    def test_light_ions_level_uniform(self):
        for symbol, expected in TE_LEVEL.items():
            result = entanglement_temperature(sys_of(symbol, LEVEL))
            assert result.status is WitnessStatus.CROSSED
            assert result.temperature == pytest.approx(expected, abs=1e-3)

    def test_light_ions_multiplet_degenerate(self):
        for symbol, expected in TE_MULTIPLET.items():
            result = entanglement_temperature(sys_of(symbol, MULTIPLET))
            assert result.status is WitnessStatus.CROSSED
            assert result.temperature == pytest.approx(expected, abs=1e-3)

    def test_cerium_closed_forms(self):
        assert entanglement_temperature(sys_of("Ce", LEVEL)).temperature == pytest.approx(
            3150.0 / math.log(6.0), abs=1e-3
        )
        assert entanglement_temperature(sys_of("Ce", MULTIPLET)).temperature == pytest.approx(
            3150.0 / math.log(8.0), abs=1e-3
        )

    def test_multiplet_weighting_lowers_the_crossing(self):
        for symbol in TE_LEVEL:
            low = entanglement_temperature(sys_of(symbol, MULTIPLET)).temperature
            high = entanglement_temperature(sys_of(symbol, LEVEL)).temperature
            assert low < high

    def test_heavy_ions_never_cross(self):
        for record in CATALOG:
            if not record.heavy:
                continue
            for convention in (LEVEL, MULTIPLET):
                result = entanglement_temperature(record.system(convention))
                assert result.status is WitnessStatus.NO_CROSSING
                assert result.temperature is None

    def test_half_filled_shell_is_degenerate(self):
        result = entanglement_temperature(sys_of("Gd", MULTIPLET))
        assert result.status is WitnessStatus.WITNESS_DEGENERATE
        assert result.temperature is None

    def test_singlet_triplet_closed_form(self):
        sys_ = SpinOrbitSystem(HalfInt(1), HalfInt(1), 1.0, MULTIPLET)
        result = entanglement_temperature(sys_, tolerance=1e-6)
        assert result.temperature == pytest.approx(1.0 / math.log(3.0), abs=1e-6)

    def test_singlet_triplet_level_uniform_never_crosses_below_cap(self):
        # With unit level weights the s = l = 1/2 witness tends to zero from
        # below without ever crossing; the shell alone reports it, before any
        # bracketing.
        sys_ = SpinOrbitSystem(HalfInt(1), HalfInt(1), 1.0, LEVEL)
        start = time.perf_counter()
        result = entanglement_temperature(sys_)
        assert time.perf_counter() - start < 0.05
        assert result == thermal.EntanglementTemperature(None, WitnessStatus.ABOVE_CAP)
        assert WitnessStatus.ABOVE_CAP.value == "above-cap"
        assert BRACKET_CAP_K == 1e9

    @pytest.mark.parametrize("zeta", [1e-300, 1e-30, 1.0, 1e30])
    def test_singlet_triplet_level_uniform_has_no_false_crossing(self, zeta):
        # At a tiny coupling every weight rounds to 1 and the float W to 0;
        # deciding the status from the shell keeps that from reading as a
        # crossing at 1 K.
        sys_ = SpinOrbitSystem(HalfInt(1), HalfInt(1), zeta, LEVEL)
        assert entanglement_temperature(sys_).status is WitnessStatus.ABOVE_CAP

    @pytest.mark.parametrize("convention", [LEVEL, MULTIPLET])
    def test_zero_above_the_cap_is_a_status(self, convention):
        # W(infinity) > 0, so the zero exists, but near 1e12 K: above the cap.
        sys_ = SpinOrbitSystem(HalfInt(1), HalfInt(2), 1e12, convention)
        assert witness(sys_, BRACKET_CAP_K) < 0.0
        result = entanglement_temperature(sys_)
        assert result == thermal.EntanglementTemperature(None, WitnessStatus.ABOVE_CAP)

    @pytest.mark.parametrize("zeta", [5.0e8, 7.0e8, 9.2e8])
    def test_zero_between_the_last_power_of_two_and_the_cap(self, zeta):
        # s = 1/2, l = 1 with multiplet weights crosses at 1.5 zeta / ln 4,
        # here between 2**29 K and the 1e9 K cap.  Reference: bisection on
        # the dense route's Gibbs trace.
        sys_ = SpinOrbitSystem(HalfInt(1), HalfInt(2), zeta, MULTIPLET)

        def dense_witness(t):
            return thermal_mean_energy(sys_, t) + sys_.separable_bound

        low, high = 2.0**29, BRACKET_CAP_K
        assert dense_witness(low) < 0.0 < dense_witness(high)
        for _ in range(100):
            mid = 0.5 * (low + high)
            if dense_witness(mid) < 0.0:
                low = mid
            else:
                high = mid
        result = entanglement_temperature(sys_)
        assert result.status is WitnessStatus.CROSSED
        assert abs(result.temperature - low) <= 1e-3 + 1e-6
        assert result.temperature == pytest.approx(1.5 * zeta / math.log(4.0), rel=1e-12)

    def test_tolerance_validated(self):
        with pytest.raises(ValueError):
            entanglement_temperature(sys_of("Ce", LEVEL), tolerance=0.0)
        with pytest.raises(ValueError):
            entanglement_temperature(sys_of("Ce", LEVEL), tolerance=-1.0)

    @pytest.mark.parametrize("tolerance", [math.inf, -math.inf, math.nan])
    def test_non_finite_tolerance_rejected(self, tolerance):
        # W(2048 K) = +107 K for Ce, yet an infinite tolerance once returned
        # 2048 K as CROSSED.
        with pytest.raises(ValueError, match="positive and finite"):
            entanglement_temperature(sys_of("Ce", LEVEL), tolerance=tolerance)

    def test_coarse_tolerance_still_brackets_root(self):
        result = entanglement_temperature(sys_of("Ce", LEVEL), tolerance=100.0)
        assert result.temperature == pytest.approx(TE_LEVEL["Ce"], abs=50.0)

    def test_root_certificate(self):
        tol = 1e-3
        for symbol in TE_LEVEL:
            for convention in (LEVEL, MULTIPLET):
                sys_ = sys_of(symbol, convention)
                t_star = entanglement_temperature(sys_, tolerance=tol).temperature
                assert abs(witness(sys_, t_star)) < abs(sys_.zeta) * 1e-6
                assert witness(sys_, t_star - 10 * tol) < 0.0
                assert witness(sys_, t_star + 10 * tol) > 0.0

    def test_diagnostics_of_catalog_crossings(self):
        for record in COUPLED:
            for convention in (LEVEL, MULTIPLET):
                sys_ = record.system(convention)
                result = entanglement_temperature(sys_)
                if result.status is not WitnessStatus.CROSSED:
                    assert (result.iterations, result.residual) == (0, None)
                    continue
                assert result.iterations > 0
                assert abs(result.residual) < abs(sys_.zeta) * 1e-6
                assert result.residual == pytest.approx(
                    witness(sys_, result.temperature), abs=1e-9)

    @pytest.mark.parametrize("tolerance", [1e-3, 1e-9])
    @pytest.mark.parametrize("convention", [LEVEL, MULTIPLET])
    def test_one_half_closed_form_within_two_ulps(self, convention, tolerance):
        """s = 1/2 (or l = 1/2) has two levels, and the zero of W the closed
        form T_E = |zeta| (n + 1) / (2 ln n) under level weights and
        |zeta| (n + 1) / (2 ln(n + 2)) under multiplet weights, n = 2l (or
        2s).  As <H> + |zeta| s l, W put T_E 47208 ulps off at n = 2e6 and
        450057 at n = 2e7.  (At n = 2 the level-weight value is 2.02 ulps
        off, within the 8 ulps that the small shells are held to.)"""
        zeta = 900.0
        for n in (6, 13, 200, 2 * 10**4, 2 * 10**6, 2 * 10**7):
            with decimal.localcontext() as ctx:
                ctx.prec = 40
                log = decimal.Decimal(n if convention is LEVEL else n + 2).ln()
                exact = decimal.Decimal(zeta) * (n + 1) / (2 * log)
            for two_s, two_l in ((1, n), (n, 1)):
                sys_ = SpinOrbitSystem(HalfInt(two_s), HalfInt(two_l), zeta, convention)
                t = entanglement_temperature(sys_, tolerance).temperature
                ulps = abs(decimal.Decimal(t) - exact) / decimal.Decimal(math.ulp(t))
                assert ulps <= 2, (two_s, two_l, t, float(ulps))

    @pytest.mark.parametrize("convention", [LEVEL, MULTIPLET])
    def test_shells_near_two_to_the_53_are_above_the_cap(self, convention):
        """At 2s near 2^53 every excitation is at least |zeta| (2s - 2l + 2) / 2,
        so W = W(0) < 0 up to the cap.  Float level energies once rounded W(0) away at
        this size, and 14 of these 1792 shells read as crossed."""
        for two_s in range(2**53 - 6, 2**53 + 1):
            for two_l in range(1, 65):
                for zeta in (1.0, 3.7):
                    sys_ = SpinOrbitSystem(HalfInt(two_s), HalfInt(two_l), zeta, convention)
                    result = entanglement_temperature(sys_)
                    assert result.status is WitnessStatus.ABOVE_CAP, (two_s, two_l, zeta)

    @pytest.mark.parametrize("two_s, two_l, zeta, tolerance, expected", [
        # T * T underflows to 0 near T_E, so the slope is unknown and the
        # step bisects, as the 0/0 of the old array division did
        (1, 2, 1e-200, 1e-300, 1.0820212806667226e-200),
        # the fluctuation stays nonzero while T * T is 0; the old slope of
        # inf stopped the search at 1.47e-162 K, where |W| was 1.4 |zeta|
        (2, 11, 3e-163, 1e-320, 8.50689693444192e-163),
    ])
    def test_underflowing_slope_bisects_without_a_warning(
            self, two_s, two_l, zeta, tolerance, expected):
        sys_ = SpinOrbitSystem(HalfInt(two_s), HalfInt(two_l), zeta, MULTIPLET)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = entanglement_temperature(sys_, tolerance=tolerance)
        assert result.status is WitnessStatus.CROSSED
        assert result.temperature == expected
        assert abs(result.residual) <= 1e-14 * zeta

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(st.integers(1, 12), st.integers(1, 12), st.floats(-6.0, 6.0),
           st.floats(-300.0, -3.0), st.sampled_from([LEVEL, MULTIPLET]))
    def test_crossing_brackets_the_exact_zero(self, two_s, two_l, log_zeta, log_tolerance,
                                              convention):
        sys_ = SpinOrbitSystem(HalfInt(two_s), HalfInt(two_l), 10.0**log_zeta, convention)
        tolerance = 10.0**log_tolerance
        result = entanglement_temperature(sys_, tolerance)
        if result.status is WitnessStatus.CROSSED:
            assert_brackets_the_exact_zero(sys_, result.temperature, tolerance)

    @pytest.mark.parametrize("two_s,two_l,zeta,tolerance,convention,expected,iterations", [
        (7, 14, 15128.721931870088, 3.335758537411976e-11, MULTIPLET, 78917.12050711768, 5),
        (9, 26, 0.34583168301636386, 1.2258994999810162e-15, LEVEL, 3.068396675597504, 4),
    ])
    def test_zero_beyond_the_probe(self, two_s, two_l, zeta, tolerance, convention,
                                   expected, iterations):
        """A Newton step shorter than tolerance/2 whose probe has W of the
        iterate's sign: the search goes on from the probe."""
        sys_ = SpinOrbitSystem(HalfInt(two_s), HalfInt(two_l), zeta, convention)
        result = entanglement_temperature(sys_, tolerance)
        assert result.status is WitnessStatus.CROSSED
        assert (result.temperature, result.iterations) == (expected, iterations)
        assert_brackets_the_exact_zero(sys_, expected, tolerance)

    def test_kernel_calls_per_root_find(self, monkeypatch):
        """One call for the bracket grid, then one per Newton or bisection
        step, probe and final residual: the counts on the catalog are pinned."""
        calls = []
        sums = thermal._LevelTable.sums

        def counted(table, temperatures):
            calls.append(np.size(temperatures))
            return sums(table, temperatures)

        monkeypatch.setattr(thermal._LevelTable, "sums", counted)
        expected = {
            (1e-3, MULTIPLET): [6, 6, 5, 5, 5, 6],
            (1e-3, LEVEL): [6, 5, 5, 5, 5, 6],
            (1e-9, MULTIPLET): [7, 6, 6, 6, 6, 5],
            (1e-9, LEVEL): [7, 6, 6, 4, 4, 5],
        }
        for (tolerance, convention), counts in expected.items():
            for record in COUPLED:
                calls.clear()
                entanglement_temperature(record.system(convention), tolerance)
                if record.heavy:
                    assert calls == [], record.symbol
                    continue
                assert calls[0] == len(thermal._BRACKET_GRID)
                assert calls[1:] == [1] * (len(calls) - 1)
                assert len(calls) == counts[LIGHT.index(record)], (record.symbol, tolerance)

    @pytest.mark.parametrize("tolerance", [1e-3, 1e-6, 1e-9])
    def test_within_tolerance_of_the_zero(self, tolerance):
        # The witness changes sign across [T - tol, T + tol] for every
        # crossing of a small custom sweep, whose zeros sit at 0.09 K to 4500 K.
        for two_s, two_l, zeta in [(1, 2, 0.37), (2, 4, 0.37), (5, 12, 900.0),
                                   (7, 9, 137.0), (3, 3, 0.05)]:
            for convention in (LEVEL, MULTIPLET):
                sys_ = SpinOrbitSystem(HalfInt(two_s), HalfInt(two_l), zeta, convention)
                t_star = entanglement_temperature(sys_, tolerance).temperature
                assert witness(sys_, t_star - tolerance) <= 0.0
                assert witness(sys_, t_star + tolerance) >= 0.0


def interpolated_crossings(curve):
    """Zero crossings of the sampled witness, by linear interpolation."""
    crossings = []
    temps, values = curve.temperatures.tolist(), curve.witness.tolist()
    for t0, t1, w0, w1 in zip(temps, temps[1:], values, values[1:]):
        if w0 < 0.0 <= w1 or w1 < 0.0 <= w0:
            frac = w0 / (w0 - w1)
            crossings.append(t0 + frac * (t1 - t0))
    return crossings


class TestWitnessCurve:
    def test_grid_is_uniform_and_inclusive(self):
        curve = witness_curve(sys_of("Ce", LEVEL), 1.0, 6000.0, 600)
        temps = curve.temperatures
        assert len(temps) == 600
        assert temps[0] == 1.0
        assert temps[-1] == 6000.0
        steps = np.diff(temps)
        assert steps.max() - steps.min() < 1e-9 * steps.mean()

    def test_europium_crossing_location(self):
        curve = witness_curve(sys_of("Eu", LEVEL), 1.0, 6000.0, 600)
        crossings = interpolated_crossings(curve)
        assert len(crossings) == 1
        assert 3290.0 < crossings[0] < 3300.0

    def test_neodymium_crossing_location(self):
        curve = witness_curve(sys_of("Nd", LEVEL), 1.0, 4000.0, 400)
        crossings = interpolated_crossings(curve)
        assert len(crossings) == 1
        assert 1900.0 < crossings[0] < 1910.0

    def test_gadolinium_curve_is_identically_zero(self):
        curve = witness_curve(sys_of("Gd", MULTIPLET), 1.0, 5000.0, 50)
        assert np.all(curve.witness == 0.0)
        assert np.all(curve.mean_energy == 0.0)

    def test_point_invariants(self):
        sys_ = sys_of("Pr", MULTIPLET)
        curve = witness_curve(sys_, 1.0, 10000.0, 100)
        mean_excitation = excitation_means(sys_, curve.temperatures)
        assert np.array_equal(curve.witness, witness_at_zero(sys_) + mean_excitation)
        assert np.array_equal(curve.mean_energy, ground_level(sys_).energy + mean_excitation)

    @pytest.mark.parametrize("args", [
        (0.0, 100.0, 10),
        (-1.0, 100.0, 10),
        (100.0, 100.0, 10),
        (100.0, 50.0, 10),
        (1.0, 100.0, 1),
        (float("nan"), 100.0, 10),
        (1.0, float("inf"), 10),
        (1.0, 1.0 + 1e-12, 100000),
        (1.0, 6000.0, 10**20),
        # tmax * (steps - 1) overflows in the grid arithmetic
        (1e-320, 1e308, 3),
        (1.0, 1e305, 10**4),
    ])
    def test_invalid_ranges_rejected(self, args):
        with pytest.raises(ValueError):
            witness_curve(sys_of("Ce", LEVEL), *args)

    def test_arrays_are_read_only(self):
        curve = witness_curve(sys_of("Ce", LEVEL), 1.0, 6000.0, 600)
        for column in (curve.temperatures, curve.mean_energy, curve.witness):
            assert column.shape == (600,)
            with pytest.raises(ValueError):
                column[0] = 0.0

    @pytest.mark.parametrize("symbol", ["Ce", "Sm", "Eu"])
    def test_columns_share_the_mean_excitation_exactly(self, symbol):
        # over three kernel chunks, so the joined arrays line up at the seams
        sys_ = sys_of(symbol, MULTIPLET)
        steps = 2 * thermal._LevelTable(sys_).chunk_rows + 7
        curve = witness_curve(sys_, 1.0, 6000.0, steps)
        assert len(curve.witness) == len(curve.mean_energy) == steps
        mean_excitation = excitation_means(sys_, curve.temperatures)
        assert np.array_equal(curve.witness, witness_at_zero(sys_) + mean_excitation)
        assert np.array_equal(curve.mean_energy, ground_level(sys_).energy + mean_excitation)

    @pytest.mark.parametrize("tmin,tmax,steps", [
        (1.0, 6000.0, 600), (1.0, 1.0 + 1e-9, 7), (1e-3, 1e7, 100000),
        (1e-300, 8e307, 3),  # tmax * (steps - 1) is just below the float limit
    ])
    def test_grid_is_strictly_increasing(self, tmin, tmax, steps):
        temps = witness_curve(sys_of("Ce", LEVEL), tmin, tmax, steps).temperatures
        assert temps[0] == tmin and temps[-1] == tmax
        assert np.all(np.diff(temps) > 0.0)


def counting_builds(monkeypatch):
    """Counts of level tables built and of ``multiplets()`` calls, as they happen."""
    # angular.multiplets sees every call only if thermal binds no name of its own
    assert not hasattr(thermal, "multiplets")
    counts = {"tables": 0, "multiplets": 0}

    class CountedTable(thermal._LevelTable):
        def __init__(self, system):
            counts["tables"] += 1
            super().__init__(system)

    def counted_multiplets(system):
        counts["multiplets"] += 1
        return multiplets(system)

    monkeypatch.setattr(thermal, "_LevelTable", CountedTable)
    monkeypatch.setattr(angular, "multiplets", counted_multiplets)
    return counts


def reference_table(sys_):
    """(prefactors, excitations, ground energy) assembled from ``multiplets()``,
    the excitations as |zeta| (sigma (B_j - B_ground) / 8) from the exact
    brackets B_j = 2j(2j+2) - 2s(2s+2) - 2l(2l+2) in Python ints."""
    levels = multiplets(sys_)
    by_dimension = sys_.convention is MULTIPLET
    prefactors = np.array([float(m.degeneracy) if by_dimension else 1.0 for m in levels])
    ts, tl, sigma = sys_.s.twice, sys_.l.twice, 1 if sys_.zeta > 0.0 else -1
    brackets = [sigma * (m.j.twice * (m.j.twice + 2) - ts * (ts + 2) - tl * (tl + 2))
                for m in levels]
    excitations = np.array([abs(sys_.zeta) * ((b - min(brackets)) / 8) for b in brackets])
    return prefactors, excitations, min(m.energy for m in levels)


def preallocating_averages(table, temperatures, level_major=True):
    """The kernel as it was once written, the oracle for its outputs' bits:
    ``powers`` built by ``np.stack``, exponents -x/T, and every grid run
    chunk by chunk into a preallocated array of <x> and <x^2>.  With
    ``level_major`` every chunk holds its weights in the kernel's memory
    order, a level per row, and a chunk of >= 2 rows sums Z along the levels
    in order; without it every chunk is row-major, as the kernel once was,
    and Z is NumPy's pairwise sum of each row."""
    excitations = table.excitations
    powers = np.stack((excitations, excitations * excitations), axis=1)
    moments = np.empty((len(temperatures), 2))
    for start in range(0, len(temperatures), table.chunk_rows):
        chunk = slice(start, start + table.chunk_rows)
        with np.errstate(over="ignore"):
            if level_major:
                exponents = (-excitations[:, np.newaxis] / temperatures[chunk]).T
            else:
                exponents = -excitations / temperatures[chunk, np.newaxis]
        weights = table.prefactors * np.exp(exponents)
        z = weights.sum(axis=1)
        moments[chunk] = (weights @ powers) / z[:, np.newaxis]
    return moments


def reference_sign_at_infinity(sys_):
    """sign W(T -> infinity) by math.fsum over ``multiplets()``.

    The sign does not depend on |zeta|, so the sum runs at zeta = +-1, where
    every level energy is a multiple of 1/8 and, for small shells, every term
    is exact.
    """
    unit = SpinOrbitSystem(sys_.s, sys_.l, math.copysign(1.0, sys_.zeta), sys_.convention)
    levels = multiplets(unit)
    weights = [m.degeneracy if unit.convention is MULTIPLET else 1 for m in levels]
    total = math.fsum(w * (m.energy + unit.separable_bound) for w, m in zip(weights, levels))
    return (total > 0) - (total < 0)


def reference_sign_at_zero(sys_):
    """sign W(0) from the j of ``multiplets()``, in exact integers.

    8 W(0) / |zeta| is the least of sign(zeta) [2j(2j+2) - 2s(2s+2) - 2l(2l+2)]
    over the multiplets, plus 2 (2s)(2l).  A sum of the float energies would
    not do: at 2s = 2**70 and zeta = 1 they round W(0) = -l to 0.
    """
    ts, tl = sys_.s.twice, sys_.l.twice
    sign = 1 if sys_.zeta > 0.0 else -1
    total = min(sign * (m.j.twice * (m.j.twice + 2) - ts * (ts + 2) - tl * (tl + 2))
                for m in multiplets(sys_)) + 2 * ts * tl
    return (total > 0) - (total < 0)


def reference_status(sys_):
    """The status of a shell without a zero, by the test-side oracles, or
    None for one with W(0) < 0 < W(infinity), whose zero the search places."""
    if sys_.witness_trivial:
        return WitnessStatus.WITNESS_DEGENERATE
    if reference_sign_at_zero(sys_) >= 0:
        return WitnessStatus.NO_CROSSING
    if reference_sign_at_infinity(sys_) <= 0:
        return WitnessStatus.ABOVE_CAP
    return None


class TableBuilt(Exception):
    """Raised by ``refuse_table`` where a level table would be built."""


def refuse_table(system):
    raise TableBuilt


def status_without_table(sys_):
    """entanglement_temperature's status for a shell it decides without a
    level table, or None if it builds one."""
    with mock.patch.object(thermal, "_LevelTable", refuse_table):
        try:
            return entanglement_temperature(sys_).status
        except TableBuilt:
            return None


# shells far outside the hypothesis range: 2s = 10**10, and 2s = 2**70 beyond
# int64; and 2s + 2l = 2^31 - 1 or 2^31, either side of where the level table
# builds its brackets in Python ints instead of int64
HUGE_SHELLS = [
    SpinOrbitSystem(HalfInt(two_s), HalfInt(two_l), zeta, convention)
    for two_s, two_l in [*itertools.product((10**10, 2**70), (1, 2, 3)),
                         (2**31 - 3, 2), (2**31 - 2, 2), (5, 2**31 - 6), (6, 2**31 - 6),
                         (2**31 - 41, 40), (2**31 - 40, 40)]
    for zeta in (1.0, -483.0) for convention in (LEVEL, MULTIPLET)
]


def reference_sums(sys_, t):
    """(<H>, magnitude of the summed terms) by math.fsum over the weights of
    weight(), with the ground energy found once."""
    levels = multiplets(sys_)
    ground = min(level.energy for level in levels)
    weights = [(level.degeneracy if sys_.convention is MULTIPLET else 1)
               * math.exp(-(level.energy - ground) / t) for level in levels]
    partition = math.fsum(weights)
    energy = math.fsum(w * level.energy for w, level in zip(weights, levels)) / partition
    scale = math.fsum(w * abs(level.energy) for w, level in zip(weights, levels)) / partition
    return energy, scale


def shells(twice, magnitude):
    """Systems with 2s, 2l drawn from ``twice`` and zeta = +-``magnitude``."""
    return st.builds(
        lambda two_s, two_l, zeta, convention: SpinOrbitSystem(
            HalfInt(two_s), HalfInt(two_l), zeta, convention),
        twice,
        twice,
        st.one_of(magnitude, magnitude.map(lambda x: -x)),
        st.sampled_from([LEVEL, MULTIPLET]),
    )


systems = shells(st.integers(1, 40), st.floats(1e-2, 1e4))


class TestKernel:
    def test_one_level_table_per_entanglement_temperature(self, monkeypatch):
        counts = counting_builds(monkeypatch)
        for record in COUPLED:
            for convention in (LEVEL, MULTIPLET):
                before = counts["tables"]
                entanglement_temperature(record.system(convention), tolerance=1e-9)
                expected = 1 if record.zeta > 0.0 else 0  # none for a heavy ion
                assert counts["tables"] - before == expected
        assert counts["multiplets"] == 0

    def test_one_level_table_per_witness_curve(self, monkeypatch):
        counts = counting_builds(monkeypatch)
        witness_curve(sys_of("Eu", LEVEL), 1.0, 6000.0, 600)
        assert counts["tables"] == 1
        witness_curve(SpinOrbitSystem(HalfInt(60), HalfInt(80), 10.0), 1.0, 1e5, 3000)
        assert counts["tables"] == 2
        assert counts["multiplets"] == 0

    @settings(max_examples=200, deadline=None)
    @given(shells(st.integers(0, 60), st.floats(1e-3, 1e6)))
    def test_table_matches_multiplets(self, sys_):
        self.check_table(sys_)

    @pytest.mark.parametrize("sys_", HUGE_SHELLS, ids=lambda s: (
        f"{s.s.twice}-{s.l.twice}-{s.zeta:g}-{s.convention.value}"))
    def test_table_matches_multiplets_on_huge_shells(self, sys_):
        self.check_table(sys_)

    @staticmethod
    def check_table(sys_):
        table = thermal._LevelTable(sys_)
        prefactors, excitations, ground_energy = reference_table(sys_)
        assert np.array_equal(table.prefactors, prefactors)
        assert table.powers.shape == (len(excitations), 2)
        assert table.excitations.tobytes() == excitations.tobytes()
        assert np.array_equal(table.powers[:, 1], excitations * excitations)
        assert table.ground_energy == ground_energy
        assert status_without_table(sys_) is reference_status(sys_)

    @settings(max_examples=150, deadline=None)
    @given(systems, st.floats(1e-2, 1e7), st.integers(2, 5))
    def test_matches_per_level_fsum(self, sys_, tmin, steps):
        curve = witness_curve(sys_, tmin, 3.0 * tmin, steps)
        for t, mean in zip(curve.temperatures.tolist(), curve.mean_energy.tolist()):
            energy, scale = reference_sums(sys_, t)
            assert abs(mean - energy) <= 1e-12 * scale
            assert mean_energy(sys_, t) == pytest.approx(mean, rel=1e-12, abs=1e-12 * scale)

    def test_slope_matches_central_difference(self):
        cases = [record.system(convention) for record in COUPLED
                 for convention in (LEVEL, MULTIPLET)]
        cases.append(SpinOrbitSystem(HalfInt(40), HalfInt(50), 100.0))
        for sys_ in cases:
            table = thermal._LevelTable(sys_)
            for t in (300.0, 1000.0, 3000.0, 1e5):
                sums, partition = table.sums(np.array([t]))
                x1, x2 = (sums[0] / partition[0]).tolist()
                slope = (x2 - x1 * x1) / (t * t)
                h = 1e-4 * t
                central = (witness(sys_, t + h) - witness(sys_, t - h)) / (2.0 * h)
                # rounding of W, about 1e-13 of the largest |E|, limits the difference
                noise = 1e-13 * max(abs(m.energy) for m in multiplets(sys_)) / h
                assert slope == pytest.approx(central, rel=1e-6, abs=noise)

    @settings(max_examples=30, deadline=None)
    @given(shells(st.integers(0, 40), st.floats(1e-3, 1e6)), st.floats(1e-310, 1e7),
           st.floats(1.0, 1e6), st.data())
    def test_kernel_matches_the_preallocating_chunk_loop(self, sys_, tmin, ratio, data):
        table = thermal._LevelTable(sys_)
        rows = table.chunk_rows
        levels = len(table.excitations)
        for length in (1, levels, rows, rows + 1, data.draw(st.integers(2, 3 * rows + 5))):
            temperatures = np.geomspace(tmin, tmin * ratio, length)
            sums, partition = table.sums(temperatures)
            assert sums.shape == (length, 2) and partition.shape == (length,)
            got = sums / partition[:, np.newaxis]
            assert np.array_equal(got, preallocating_averages(table, temperatures),
                                  equal_nan=True)
            if levels <= 7:
                # in order and pairwise, a sum of at most 7 terms has the same bits
                assert np.array_equal(got, preallocating_averages(table, temperatures, False),
                                      equal_nan=True)

    @settings(max_examples=200, deadline=None)
    @given(shells(st.integers(0, 130), st.floats(1e-3, 1e6)), st.floats(1e-310, 1e10))
    def test_float_temperature_has_the_bits_of_a_one_element_array(self, sys_, t):
        table = thermal._LevelTable(sys_)
        row, z = table.sums(t)
        sums, partition = table.sums(np.array([t]))
        assert row.shape == (2,) and np.shape(z) == ()
        assert row.tobytes() == sums[0].tobytes()
        assert np.float64(z).tobytes() == partition[0].tobytes()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(7, 129), st.integers(0, 40), st.booleans(),
           st.one_of(st.floats(1e-2, 1e4), st.floats(-1e4, -1e-2)),
           st.sampled_from([LEVEL, MULTIPLET]), st.floats(1e-2, 1e7), st.floats(1.0, 1e4),
           st.data())
    def test_level_major_grid_matches_per_level_fsum(self, small, extra, swap, zeta,
                                                     convention, tmin, ratio, data):
        """Grids on tables of 8 to 130 levels, where Z adds the levels in
        order and no longer as NumPy's pairwise sum would: shorter and longer
        than the table, and from 128 levels over more than one chunk."""
        two_s, two_l = (small + extra, small) if swap else (small, small + extra)
        sys_ = SpinOrbitSystem(HalfInt(two_s), HalfInt(two_l), zeta, convention)
        levels = small + 1
        points = data.draw(st.integers(2, 2 * levels + 1))
        temperatures = np.geomspace(tmin, tmin * ratio, points)
        means = mean_energy(sys_, temperatures)
        for t, mean in zip(temperatures.tolist(), means.tolist()):
            energy, scale = reference_sums(sys_, t)
            assert abs(mean - energy) <= 1e-12 * scale, (t, mean, energy)

    @pytest.mark.parametrize("sys_", [
        sys_of("Sm", MULTIPLET),  # 6 levels
        SpinOrbitSystem(HalfInt(20), HalfInt(30), 500.0, MULTIPLET),  # 21 levels
    ], ids=["Sm", "21-levels"])
    def test_long_grid_is_chunked_consistently(self, sys_):
        # More points than one kernel chunk holds: the chunked evaluation
        # must agree with point-by-point evaluation at the chunk seams.
        rows = thermal._LevelTable(sys_).chunk_rows
        steps = 3 * rows + 7
        curve = witness_curve(sys_, 1.0, 6000.0, steps)
        for k in (0, rows - 1, rows, 2 * rows, steps - 1):
            t = float(curve.temperatures[k])
            assert curve.mean_energy[k] == pytest.approx(
                mean_energy(sys_, t), rel=1e-12, abs=1e-9)


class TestStatusFromTheShell:
    """A shell without a zero is decided from (2s, 2l), the sign of zeta and
    the convention, builds no level table and so does no float arithmetic
    that could overflow."""

    @pytest.mark.parametrize("convention", [LEVEL, MULTIPLET])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_every_small_shell(self, sign, convention):
        for two_s in range(1, 61):
            for two_l in range(1, 61):
                unit = SpinOrbitSystem(HalfInt(two_s), HalfInt(two_l), sign, convention)
                expected = reference_status(unit)
                # a crossing shell at 1e308 K has its zero above the cap by
                # the entropy bound, and needs no table to say so either
                for magnitude, crossing in ((1e-300, None), (3.7, None),
                                            (1e308, WitnessStatus.ABOVE_CAP)):
                    sys_ = SpinOrbitSystem(unit.s, unit.l, sign * magnitude, convention)
                    want = crossing if expected is None else expected
                    assert status_without_table(sys_) is want, (two_s, two_l, sys_.zeta)

    @pytest.mark.parametrize("convention", [LEVEL, MULTIPLET])
    def test_zero_lies_above_the_entropy_bound(self, convention):
        """F <= E_min and S <= ln D give T_E >= zeta min(s, l) / ln D, for D
        the weighted states; at 2s, 2l <= 24 the zero lies at least 2.5 times
        above it, to within the tolerance of the search.  At (2s, 2l) = (1, 4)
        under level weights the exact ratio is 2.5 itself: T_E = zeta 5 / (2
        ln 4) and the bound zeta (1/2) / ln 2."""
        zeta, tolerance = 3.7, 1e-9
        for two_s in range(1, 25):
            for two_l in range(1, 25):
                sys_ = SpinOrbitSystem(HalfInt(two_s), HalfInt(two_l), zeta, convention)
                result = entanglement_temperature(sys_, tolerance)
                if result.status is not WitnessStatus.CROSSED:
                    assert (convention, two_s, two_l) == (LEVEL, 1, 1)
                    continue
                states = min(two_s, two_l) + 1 if convention is LEVEL else sys_.dimension
                bound = zeta * min(two_s, two_l) / 2 / math.log(states)
                assert result.temperature >= 2.5 * bound - tolerance, (two_s, two_l)

    @pytest.mark.parametrize("convention", [LEVEL, MULTIPLET])
    def test_above_twice_the_cap_by_the_bound_builds_no_table(self, convention):
        # just above and below the coupling at which the bound reaches twice the cap
        for two_s, two_l in ((1, 2), (5, 12), (24, 24), (2**53, 1)):
            unit = SpinOrbitSystem(HalfInt(two_s), HalfInt(two_l), 1.0, convention)
            states = min(two_s, two_l) + 1 if convention is LEVEL else unit.dimension
            edge = 2 * BRACKET_CAP_K * math.log(states) / (min(two_s, two_l) / 2)
            above = SpinOrbitSystem(unit.s, unit.l, edge * 1.01, convention)
            assert status_without_table(above) is WitnessStatus.ABOVE_CAP
            below = SpinOrbitSystem(unit.s, unit.l, edge * 0.99, convention)
            assert status_without_table(below) is None
