"""Catalog of trivalent rare-earth ions (4f^1 .. 4f^13).

Ground-term quantum numbers follow from Hund's rules for an f shell; the
embedded energy gaps and coupling constants are the standard tabulated
values in kelvin.  A catalog can also be loaded from a JSON document of the
form

    {"ions": [{"symbol": "Ce", "n4f": 1, "deltaE_K": 3150,
               "zeta_K": 900, "te_paper_K": 1758}, ...]}

where the three numeric fields may be null.  Quantum numbers are never
stored in the document; they are always rederived from the occupation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import IO, Union

from .angular import Convention, HalfInt, SpinOrbitSystem

__all__ = [
    "IonRecord",
    "CatalogError",
    "UnknownIonError",
    "hund_rules",
    "ion_record",
    "load_catalog",
    "CATALOG",
]


class CatalogError(ValueError):
    """A catalog document is malformed or physically inconsistent."""


class UnknownIonError(LookupError):
    """An ion symbol is not present in the active catalog."""


def hund_rules(n4f: int) -> tuple[HalfInt, HalfInt, HalfInt]:
    """Ground-term (s, l, j0) of an f shell with ``n4f`` electrons.

    Maximal spin s = min(n, 14-n)/2; maximal orbital momentum for the
    electrons beyond any half-filled core, l = 3k - k(k-1)/2 with
    k = n or n-7; third rule j0 = |l-s| below half filling, l+s at or
    above it.
    """
    if isinstance(n4f, bool) or not isinstance(n4f, int) or not 1 <= n4f <= 13:
        raise ValueError(f"4f occupation must be an integer in 1..13, got {n4f!r}")
    ts = min(n4f, 14 - n4f)
    k = n4f if n4f <= 7 else n4f - 7
    tl = k * (7 - k)
    tj0 = abs(tl - ts) if n4f < 7 else tl + ts
    return HalfInt(ts), HalfInt(tl), HalfInt(tj0)


@dataclass(frozen=True)
class IonRecord:
    """One catalog row: identity, occupation, quantum numbers, energetics.

    The constructor takes the five fields of the catalog document; the
    ground-term quantum numbers ``s``, ``l`` and ``j0`` follow from the
    occupation by :func:`hund_rules`.  ``te_reference`` is a tabulated
    entanglement temperature kept purely as a cross-check target; nothing
    in the library computes from it.
    """

    symbol: str
    n4f: int
    s: HalfInt = field(init=False)
    l: HalfInt = field(init=False)
    j0: HalfInt = field(init=False)
    delta_e: float | None
    zeta: float | None
    te_reference: float | None

    def __post_init__(self) -> None:
        for name, value in zip(("s", "l", "j0"), hund_rules(self.n4f)):
            object.__setattr__(self, name, value)
        for name in ("delta_e", "zeta", "te_reference"):
            value = getattr(self, name)
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise CatalogError(f"{self.symbol}: {name} must be a number or null")
            try:
                value = float(value)
            except OverflowError:  # an int beyond the float range
                value = math.inf
            if not math.isfinite(value):
                raise CatalogError(f"{self.symbol}: {name} must be finite")
            object.__setattr__(self, name, value)
        if self.delta_e is not None and self.delta_e <= 0:
            raise CatalogError(f"{self.symbol}: delta_e must be positive")
        if self.te_reference is not None and self.te_reference <= 0:
            raise CatalogError(f"{self.symbol}: te_reference must be positive")
        if self.zeta is not None:
            if self.n4f == 7:
                raise CatalogError(f"{self.symbol}: a half-filled shell has no coupling")
            if self.n4f < 7 and self.zeta <= 0:
                raise CatalogError(f"{self.symbol}: coupling must be positive below half filling")
            if self.n4f > 7 and self.zeta >= 0:
                raise CatalogError(f"{self.symbol}: coupling must be negative above half filling")

    @property
    def light(self) -> bool:
        return self.n4f < 7

    @property
    def heavy(self) -> bool:
        return self.n4f > 7

    def system(self, convention: Convention = Convention.MULTIPLET_DEGENERATE) -> SpinOrbitSystem:
        """Build the SpinOrbitSystem for this ion.

        A record without a coupling maps to zeta = 0, which is only
        constructible when s l = 0 (the half-filled shell); anything else
        raises from the SpinOrbitSystem validator.
        """
        return SpinOrbitSystem(self.s, self.l, self.zeta or 0.0, convention)


# symbol, n4f, gap (K), coupling (K), tabulated T_E (K)
_EMBEDDED: tuple[tuple[str, int, float, float | None, float | None], ...] = (
    ("Ce", 1, 3150.0, 900.0, 1758.0),
    ("Pr", 2, 3100.0, 620.0, 1851.0),
    ("Nd", 3, 2750.0, 500.0, 1904.0),
    ("Pm", 4, 2300.0, 460.0, 2008.0),
    ("Sm", 5, 1450.0, 414.0, 1975.0),
    ("Eu", 6, 500.0, 500.0, 3295.0),
    ("Gd", 7, 43200.0, None, None),
    ("Tb", 8, 2900.0, -483.0, None),
    ("Dy", 9, 4750.0, -633.0, None),
    ("Ho", 10, 7500.0, -937.0, None),
    ("Er", 11, 9350.0, -1247.0, None),
    ("Tm", 12, 11950.0, -1991.0, None),
    ("Yb", 13, 14800.0, -4229.0, None),
)

CATALOG: tuple[IonRecord, ...] = tuple(IonRecord(*row) for row in _EMBEDDED)


def ion_record(symbol: str, catalog: tuple[IonRecord, ...] = CATALOG) -> IonRecord:
    """Look up an ion by chemical symbol, case-insensitively."""
    wanted = symbol.strip().capitalize()
    for record in catalog:
        if record.symbol == wanted:
            return record
    known = ", ".join(r.symbol for r in catalog)
    raise UnknownIonError(f"unknown ion {symbol!r}; catalog contains: {known}")


_FIELDS = ("symbol", "n4f", "deltaE_K", "zeta_K", "te_paper_K")

# load_catalog reads at most one byte (or character) more than this, so an
# endless stream such as /dev/zero is rejected rather than read into memory.
_MAX_CATALOG_BYTES = 1 << 20


def _to_json(catalog: tuple[IonRecord, ...]) -> str:
    """The catalog as the document :func:`load_catalog` reads: JSON indented
    by two spaces, keys in schema order, ending in a newline."""
    rows = ((r.symbol, r.n4f, r.delta_e, r.zeta, r.te_reference) for r in catalog)
    return json.dumps({"ions": [dict(zip(_FIELDS, row)) for row in rows]}, indent=2) + "\n"


def load_catalog(source: Union[bytes, str, IO[bytes]]) -> tuple[IonRecord, ...]:
    """Parse a catalog document from bytes, text, or a binary stream.

    A blank document yields an empty catalog.  Every record must carry
    exactly the five schema keys; unknown or missing keys, type mismatches,
    numbers beyond the float range, occupations outside 1..13, non-positive
    gaps, couplings with the wrong sign, and duplicate symbols are all
    rejected with a CatalogError that names the offending record.  A
    document that ``json`` cannot parse, including one whose integer has
    too many digits or whose nesting is too deep, raises a CatalogError too,
    and so does one of more than 1 MiB (2**20 bytes, or characters for
    text), of which a stream is read no further than one byte past it.
    """
    raw = source.read(_MAX_CATALOG_BYTES + 1) if hasattr(source, "read") else source
    if len(raw) > _MAX_CATALOG_BYTES:
        raise CatalogError(f"catalog is larger than {_MAX_CATALOG_BYTES} bytes")
    if isinstance(raw, bytes):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CatalogError(f"catalog is not valid UTF-8: {exc}") from exc
    else:
        text = raw
    if text.strip() == "":
        return ()
    try:
        document = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # besides a syntax error: an integer of more digits than int() takes,
        # or arrays or objects nested deeper than the recursion limit
        raise CatalogError(f"catalog is not valid JSON: {exc}") from exc
    if not isinstance(document, dict) or set(document) != {"ions"}:
        raise CatalogError('catalog must be an object with the single key "ions"')
    entries = document["ions"]
    if not isinstance(entries, list):
        raise CatalogError('"ions" must be an array')

    records: list[IonRecord] = []
    seen: set[str] = set()
    for index, entry in enumerate(entries):
        where = f"ions[{index}]"
        if not isinstance(entry, dict):
            raise CatalogError(f"{where}: record must be an object")
        if set(entry) != set(_FIELDS):
            missing = sorted(set(_FIELDS) - set(entry))
            unknown = sorted(set(entry) - set(_FIELDS))
            detail = "; ".join(
                part for part in (
                    f"missing keys {missing}" if missing else "",
                    f"unknown keys {unknown}" if unknown else "",
                ) if part
            )
            raise CatalogError(f"{where}: {detail}")
        symbol = entry["symbol"]
        if not isinstance(symbol, str) or not symbol.strip():
            raise CatalogError(f"{where}: symbol must be a non-empty string")
        symbol = symbol.strip().capitalize()
        n4f = entry["n4f"]
        if isinstance(n4f, bool) or not isinstance(n4f, int):
            raise CatalogError(f"{where} ({symbol}): n4f must be an integer")
        try:
            record = IonRecord(symbol, n4f, *(entry[key] for key in _FIELDS[2:]))
        except (CatalogError, ValueError) as exc:
            raise CatalogError(f"{where} ({symbol}): {exc}") from exc
        if symbol in seen:
            raise CatalogError(f"{where}: duplicate symbol {symbol}")
        seen.add(symbol)
        records.append(record)
    return tuple(records)
