"""Thermal entanglement witnesses for spin-orbit coupled rare-earth ions.

Two independent computational routes live side by side: closed-form level
arithmetic (:mod:`sowitness.angular`, :mod:`sowitness.thermal`) and a dense
product-basis route with its own eigensolver (:mod:`sowitness.dense`).
Their agreement is part of the test contract: :mod:`sowitness.checks`
computes it (``verify_catalog``), and ``sowitness verify`` prints it.

Importing the package loads no NumPy.  It imports :mod:`sowitness.angular`
and :mod:`sowitness.ions`, the exact quantum-number bookkeeping and the
catalog, and binds their exports.  The numeric routes wait for first use:
the module ``__getattr__`` resolves ``dense`` and the exports of
:mod:`sowitness.thermal` by importing their home module and returning its
object, so ``sowitness.witness`` is ``sowitness.thermal.witness``.
"""

import importlib

from .angular import (
    Convention,
    HalfInt,
    Multiplet,
    SpinOrbitSystem,
    level_energy,
    multiplets,
)
from .ions import (
    CATALOG,
    CatalogError,
    IonRecord,
    UnknownIonError,
    hund_rules,
    ion_record,
    load_catalog,
)

__version__ = "0.1.0"

__all__ = [
    "Convention",
    "HalfInt",
    "Multiplet",
    "SpinOrbitSystem",
    "level_energy",
    "multiplets",
    "CATALOG",
    "CatalogError",
    "IonRecord",
    "UnknownIonError",
    "hund_rules",
    "ion_record",
    "load_catalog",
    "EntanglementTemperature",
    "WitnessCurve",
    "WitnessStatus",
    "entanglement_temperature",
    "mean_energy",
    "witness",
    "witness_curve",
    "dense",
    "__version__",
]


def __getattr__(name: str):
    # Only the names not bound above reach here: dense, and the exports of thermal.
    if name == "dense":
        return importlib.import_module(".dense", __name__)
    if name in __all__:
        return getattr(importlib.import_module(".thermal", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
