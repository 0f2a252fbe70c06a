"""The public API, pinned: each ``__all__`` equals an explicit list, so adding
or removing an export is a visible edit here, and every exported name
exists, so tooling that walks ``__all__`` never meets a stale entry.  The
fields of each exported dataclass are pinned the same way.  The package
resolves ``dense`` and the ``thermal`` exports on first use; they are the
objects of their home modules, ``dir`` lists them, and an unknown name
still raises ``AttributeError``."""

import dataclasses
import importlib
import pkgutil
import subprocess
import sys

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
    "sowitness.checks": ["Check", "verify_catalog"],
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

FIELDS = {
    "sowitness.angular.HalfInt": ["twice"],
    "sowitness.angular.SpinOrbitSystem": ["s", "l", "zeta", "convention"],
    "sowitness.angular.Multiplet": ["j", "energy"],
    "sowitness.dense.ProductStateBatch": ["spin_vectors", "orbital_vectors", "energies"],
    "sowitness.dense.GroundStateAnalysis": [
        "energy", "degeneracy", "schmidt_spectrum", "entropy",
    ],
    "sowitness.ions.IonRecord": [
        "symbol", "n4f", "s", "l", "j0", "delta_e", "zeta", "te_reference",
    ],
    "sowitness.thermal.WitnessCurve": [
        "system", "temperatures", "mean_energy", "witness",
    ],
    "sowitness.thermal.EntanglementTemperature": [
        "temperature", "status", "iterations", "residual",
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


DATACLASSES = {
    f"{cls.__module__}.{cls.__qualname__}": cls
    for module in EXPORTING
    for cls in (getattr(module, name) for name in module.__all__)
    if dataclasses.is_dataclass(cls) and isinstance(cls, type)
}


def test_every_exported_dataclass_is_pinned():
    assert sorted(DATACLASSES) == sorted(FIELDS)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_dataclass_fields_are_pinned(name):
    assert [f.name for f in dataclasses.fields(DATACLASSES[name])] == FIELDS[name]


# -- the numeric routes are resolved on first use --------------------------

def test_dir_lists_every_export():
    assert set(sowitness.__all__) <= set(dir(sowitness))


@pytest.mark.parametrize("name", EXPORTS["sowitness.thermal"])
def test_thermal_export_is_its_home_modules_object(name):
    assert getattr(sowitness, name) is getattr(sys.modules["sowitness.thermal"], name)


def test_dense_is_its_module():
    assert sowitness.dense is sys.modules["sowitness.dense"]


def test_from_import_in_a_fresh_interpreter():
    code = ("from sowitness import dense, witness\n"
            "import sowitness.thermal\n"
            "print(dense.__name__, witness is sowitness.thermal.witness)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=120)
    assert (result.stdout, result.stderr) == ("sowitness.dense True\n", "")


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'thermal_witness'"):
        sowitness.thermal_witness
    assert not hasattr(sowitness, "checks_catalog")


def test_cli_resolves_entanglement_temperature_on_use():
    from sowitness import cli, thermal

    assert cli.entanglement_temperature is thermal.entanglement_temperature
    assert not hasattr(cli, "witness_curve")
