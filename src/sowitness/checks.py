"""The cross-check of the two routes, which is the test contract of the package.

:func:`verify_catalog` runs the six checks of ``sowitness verify`` over a
catalog and returns one :class:`Check` for each.  ``hund-rules`` compares
every record with an aufbau filling of the 4f shell; the other five run over
the coupled ions only, and fail on a catalog without one, where the two
routes have nothing to compare; the two sampled checks also fail when no
state is drawn.  This module imports both routes and neither
route imports it, so the dense route stays independent of the level formulas.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import dense
from .angular import Convention, SpinOrbitSystem, multiplets
from .ions import IonRecord
from .thermal import entanglement_temperature, mean_energy

__all__ = ["Check", "verify_catalog"]


class Check(NamedTuple):
    """One check: its name, its verdict, and the residual it judged."""

    name: str
    passed: bool
    key: str
    value: float


def _worst(deviations: np.ndarray) -> float:
    """The largest of the deviations, or inf if any is nan: a check that
    cannot compare a value fails rather than skipping it."""
    worst = float(deviations.max())
    return math.inf if math.isnan(worst) else worst


def _sampled_residuals(
    system: SpinOrbitSystem, rng: np.random.Generator, samples: int
) -> tuple[float, float]:
    """Over ``samples`` Haar product states: the worst relative deviation of
    an energy from zeta <S>.<L>, and min(E) minus the separable floor (-inf if
    any energy is nan).  Each batch is freed before the next is drawn, and
    nothing of the last one outlives the call.
    """
    identity_worst, bound_margin = 0.0, math.inf
    floor = -system.separable_bound
    for batch in dense.sample_product_states(system, rng, samples):
        factored = system.zeta * (batch.spin_vectors * batch.orbital_vectors).sum(axis=1)
        deviations = np.abs(batch.energies - factored) / (1.0 + np.abs(batch.energies))
        identity_worst = max(identity_worst, _worst(deviations))
        bound_margin = min(bound_margin, -_worst(floor - batch.energies))
        del batch
    return identity_worst, bound_margin


def _aufbau_term(n4f: int) -> tuple[int, int, int]:
    """Doubled (s, l, j0) of the ground term by filling the 14 4f spin-orbitals.

    The electrons take m_l = 3 ... -3 spin up, then spin down; 2S = |sum 2 m_s|,
    2L = 2 |sum m_l|, and j0 = |L - S| below half filling, L + S from half
    filling up.  It checks ``ions.hund_rules`` without sharing its formulas.
    """
    orbitals = [(m, spin) for spin in (1, -1) for m in range(3, -4, -1)][:n4f]
    ts = abs(sum(spin for _, spin in orbitals))
    tl = 2 * abs(sum(m for m, _ in orbitals))
    return ts, tl, abs(tl - ts) if n4f < 7 else tl + ts


# A coupling so large that the arithmetic overflows gives inf or nan residuals,
# which _worst turns into failing checks; the floating-point warnings on the
# way would only repeat that on stderr.
@np.errstate(over="ignore", invalid="ignore")
def verify_catalog(catalog: Sequence[IonRecord], seed, samples: int) -> tuple[Check, ...]:
    """The six checks, in the order ``verify`` prints them.  ``seed`` is
    anything ``np.random.default_rng`` takes, a ``Generator`` too; only the
    sampling draws from it, ``samples`` product states per coupled ion.  With
    no coupled ion the five route checks fail, their values those of no ion,
    and with ``samples`` below 1 the two sampled checks fail, their values
    those of no state.  A ``dense.ConvergenceError`` of the eigensolver
    escapes."""
    rng = np.random.default_rng(seed)
    coupled = [r for r in catalog if r.zeta is not None]
    mismatches = sum(
        1 for r in catalog if _aufbau_term(r.n4f) != (r.s.twice, r.l.twice, r.j0.twice)
    )

    # One pass over the coupled ions; only the sampling draws from rng.
    spectrum_worst = trace_worst = identity_worst = te_worst = 0.0
    bound_margin = math.inf
    grid = np.geomspace(1.0, 1e6, 50)
    for record in coupled:
        system = record.system(Convention.MULTIPLET_DEGENERATE)
        computed = dense._spectrum(system)
        expected = np.sort(np.concatenate([
            np.full(level.degeneracy, level.energy) for level in multiplets(system)
        ]))
        deviations = np.abs(computed - expected) / np.maximum(np.abs(expected), 1.0)
        spectrum_worst = max(spectrum_worst, _worst(deviations))
        a, b = dense.thermal_mean_energy(system, grid), mean_energy(system, grid)
        scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
        trace_worst = max(trace_worst, _worst(np.abs(a - b) / scale))
        identity, margin = _sampled_residuals(system, rng, samples)
        identity_worst = max(identity_worst, identity)
        bound_margin = min(bound_margin, margin)
        if record.te_reference is not None:
            found = entanglement_temperature(record.system(Convention.LEVEL_UNIFORM)).temperature
            te_worst = max(te_worst, math.inf if found is None
                           else abs(found - record.te_reference))

    compared = bool(coupled)
    sampled = compared and samples >= 1
    return (
        Check("hund-rules", mismatches == 0, "mismatches", mismatches),
        Check("spectrum-equivalence", compared and spectrum_worst <= 1e-9, "max_rel_dev",
              spectrum_worst),
        Check("trace-equivalence", compared and trace_worst <= 1e-10, "max_rel_dev",
              trace_worst),
        Check("product-energy-identity", sampled and identity_worst <= 1e-9, "max_rel_dev",
              identity_worst),
        Check("separable-bound", sampled and bound_margin >= -1e-9, "min_margin_K",
              bound_margin),
        Check("reference-te", compared and te_worst <= 1.0, "max_abs_dev_K", te_worst),
    )
