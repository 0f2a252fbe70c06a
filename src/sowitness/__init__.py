"""Thermal entanglement witnesses for spin-orbit coupled rare-earth ions.

Two independent computational routes live side by side: closed-form level
arithmetic (:mod:`sowitness.angular`, :mod:`sowitness.thermal`) and a dense
product-basis route with its own eigensolver (:mod:`sowitness.dense`).
Their agreement is part of the test contract and can be rerun at any time
via ``sowitness verify``.
"""

from . import dense
from .angular import (
    Convention,
    HalfInt,
    Multiplet,
    SpinOrbitSystem,
    ground_multiplet,
    level_energy,
    multiplets,
)
from .ions import (
    CATALOG,
    CatalogError,
    IonRecord,
    UnknownIonError,
    coupling_from_gap,
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
    mean_energy_at_zero,
    weight,
    witness,
    witness_curve,
)

__version__ = "0.1.0"

__all__ = [
    "Convention",
    "HalfInt",
    "Multiplet",
    "SpinOrbitSystem",
    "ground_multiplet",
    "level_energy",
    "multiplets",
    "CATALOG",
    "CatalogError",
    "IonRecord",
    "UnknownIonError",
    "coupling_from_gap",
    "hund_rules",
    "ion_record",
    "load_catalog",
    "EntanglementTemperature",
    "WitnessCurve",
    "WitnessStatus",
    "entanglement_temperature",
    "mean_energy",
    "mean_energy_at_zero",
    "weight",
    "witness",
    "witness_curve",
    "dense",
    "__version__",
]
