"""Thermal entanglement witnesses for spin-orbit coupled rare-earth ions.

Two independent computational routes live side by side: closed-form level
arithmetic (:mod:`sowitness.angular`, :mod:`sowitness.thermal`) and a dense
product-basis route with its own eigensolver (:mod:`sowitness.dense`).
Their agreement is part of the test contract: :mod:`sowitness.checks`
computes it (``verify_catalog``), and ``sowitness verify`` prints it.
"""

from . import dense
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
from .thermal import (
    EntanglementTemperature,
    WitnessCurve,
    WitnessStatus,
    entanglement_temperature,
    mean_energy,
    witness,
    witness_curve,
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
