"""The public API, pinned: each ``__all__`` equals an explicit list, so adding
or removing an export is a visible edit here, and every exported name
exists, so tooling that walks ``__all__`` never meets a stale entry."""

import importlib
import pkgutil

import pytest

import sowitness

EXPORTS = {
    "sowitness": [
        "Convention", "HalfInt", "Multiplet", "SpinOrbitSystem", "level_energy",
        "multiplets", "CATALOG", "CatalogError", "IonRecord", "UnknownIonError",
        "hund_rules", "ion_record", "load_catalog", "EntanglementTemperature",
        "WitnessCurve", "WitnessStatus", "entanglement_temperature", "mean_energy",
        "witness", "witness_curve", "dense", "__version__",
    ],
    "sowitness.angular": [
        "HalfInt", "Convention", "SpinOrbitSystem", "Multiplet", "multiplets",
        "level_energy",
    ],
    "sowitness.dense": [
        "ConvergenceError", "ProductStateBatch", "GroundStateAnalysis",
        "build_hamiltonian", "jacobi_eigh", "thermal_mean_energy", "product_states",
        "sample_product_states", "ground_state_analysis",
    ],
    "sowitness.ions": [
        "IonRecord", "CatalogError", "UnknownIonError", "hund_rules", "ion_record",
        "load_catalog", "CATALOG",
    ],
    "sowitness.thermal": [
        "WitnessCurve", "WitnessStatus", "EntanglementTemperature", "mean_energy",
        "witness", "entanglement_temperature", "witness_curve",
    ],
}

MODULES = [
    importlib.import_module(f"sowitness.{info.name}")
    for info in pkgutil.iter_modules(sowitness.__path__)
]
EXPORTING = [sowitness] + [m for m in MODULES if hasattr(m, "__all__")]


def test_every_exporting_module_is_pinned():
    assert sorted(m.__name__ for m in EXPORTING) == sorted(EXPORTS)


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_exports_are_pinned(module):
    assert module.__all__ == EXPORTS[module.__name__]


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from sowitness import *", namespace)
    assert set(sowitness.__all__) <= set(namespace)
