import io
import json

import pytest

from sowitness.angular import HalfInt, SpinOrbitSystem, level_energy
from sowitness.ions import (
    CATALOG,
    CatalogError,
    IonRecord,
    UnknownIonError,
    hund_rules,
    ion_record,
    load_catalog,
)

# Ground terms of 4f^n, as doubled (2s, 2l, 2j0).
HUND_TABLE = {
    1: (1, 6, 5),
    2: (2, 10, 8),
    3: (3, 12, 9),
    4: (4, 12, 8),
    5: (5, 10, 5),
    6: (6, 6, 0),
    7: (7, 0, 7),
    8: (6, 6, 12),
    9: (5, 10, 15),
    10: (4, 12, 16),
    11: (3, 12, 15),
    12: (2, 10, 12),
    13: (1, 6, 7),
}


def record_to_entry(record: IonRecord) -> dict:
    return {
        "symbol": record.symbol,
        "n4f": record.n4f,
        "deltaE_K": record.delta_e,
        "zeta_K": record.zeta,
        "te_paper_K": record.te_reference,
    }


def document(entries) -> str:
    return json.dumps({"ions": list(entries)})


class TestHundRules:
    def test_all_occupations(self):
        for n4f, (ts, tl, tj0) in HUND_TABLE.items():
            assert hund_rules(n4f) == (HalfInt(ts), HalfInt(tl), HalfInt(tj0))

    def test_particle_hole_symmetry_of_s_and_l(self):
        for n4f in range(1, 7):
            s, l, _ = hund_rules(n4f)
            s_conj, l_conj, _ = hund_rules(14 - n4f)
            assert (s, l) == (s_conj, l_conj)

    @pytest.mark.parametrize("bad", [0, 14, -1, 100])
    def test_occupation_out_of_range(self, bad):
        with pytest.raises(ValueError):
            hund_rules(bad)

    @pytest.mark.parametrize("bad", [2.5, "3", None, True])
    def test_occupation_wrong_type(self, bad):
        with pytest.raises(ValueError):
            hund_rules(bad)


class TestCatalogCouplings:
    def test_gap_implied_couplings_round_to_tabulated(self):
        # The gap to the first excited multiplet (j0 + 1 for a light ion,
        # j0 - 1 for a heavy one) is zeta times a gap per unit coupling.  The
        # tabulated couplings are the gap-implied values rounded to integer
        # kelvin, so the two must agree to better than 1 K.
        for record in CATALOG:
            if record.zeta is None:
                continue
            unit = SpinOrbitSystem(record.s, record.l, 1.0)
            step = 2 if record.light else -2
            gap_per_kelvin = (level_energy(unit, HalfInt(record.j0.twice + step))
                              - level_energy(unit, record.j0))
            implied = record.delta_e / gap_per_kelvin
            assert abs(implied - record.zeta) < 1.0, record.symbol


class TestIonRecord:
    def test_lookup_is_case_insensitive(self):
        assert ion_record("ce") is ion_record("Ce")
        assert ion_record("CE") is ion_record("Ce")
        assert ion_record(" yb ").symbol == "Yb"

    def test_unknown_symbol_lists_catalog(self):
        with pytest.raises(UnknownIonError) as err:
            ion_record("La")
        assert "Ce" in str(err.value) and "Yb" in str(err.value)

    def test_europium_row(self):
        eu = ion_record("Eu")
        assert eu.n4f == 6
        assert (eu.s, eu.l, eu.j0) == (HalfInt(6), HalfInt(6), HalfInt(0))
        assert eu.delta_e == 500.0
        assert eu.zeta == 500.0
        assert eu.te_reference == 3295.0
        assert eu.light and not eu.heavy

    def test_gadolinium_row(self):
        gd = ion_record("Gd")
        assert gd.zeta is None
        assert gd.te_reference is None
        assert gd.delta_e == 43200.0
        assert not gd.light and not gd.heavy
        assert gd.system().witness_trivial

    def test_catalog_shape(self):
        assert len(CATALOG) == 13
        assert [r.symbol for r in CATALOG] == [
            "Ce", "Pr", "Nd", "Pm", "Sm", "Eu", "Gd",
            "Tb", "Dy", "Ho", "Er", "Tm", "Yb",
        ]
        assert sum(r.light for r in CATALOG) == 6
        assert sum(r.heavy for r in CATALOG) == 6

    def test_quantum_numbers_follow_occupation(self):
        for record in CATALOG:
            assert (record.s, record.l, record.j0) == hund_rules(record.n4f)
        ce = IonRecord("Ce", 1, 3150.0, 900.0, 1758.0)
        assert ce == ion_record("Ce") and hash(ce) == hash(ion_record("Ce"))
        assert repr(ce) == (
            "IonRecord(symbol='Ce', n4f=1, s=HalfInt(twice=1), l=HalfInt(twice=6), "
            "j0=HalfInt(twice=5), delta_e=3150.0, zeta=900.0, te_reference=1758.0)"
        )

    def test_coupling_sign_enforced(self):
        with pytest.raises(CatalogError):
            IonRecord("Ce", 1, 3150.0, -900.0, None)
        with pytest.raises(CatalogError):
            IonRecord("Tb", 8, 2900.0, 483.0, None)

    def test_half_filled_shell_cannot_carry_coupling(self):
        with pytest.raises(CatalogError):
            IonRecord("Gd", 7, 43200.0, 100.0, None)

    def test_numeric_field_types(self):
        with pytest.raises(CatalogError):
            IonRecord("Ce", 1, 3150.0, True, None)
        with pytest.raises(CatalogError):
            IonRecord("Ce", 1, -3150.0, 900.0, None)
        with pytest.raises(CatalogError):
            IonRecord("Ce", 1, float("inf"), 900.0, None)
        with pytest.raises(CatalogError, match="zeta must be finite"):
            IonRecord("Ce", 1, 3150.0, 10**400, None)
        assert IonRecord("Ce", 1, 10**300, 900, None).delta_e == 1e300


class TestLoadCatalog:
    def test_round_trip(self):
        text = document(record_to_entry(r) for r in CATALOG)
        assert load_catalog(text) == CATALOG

    def test_accepts_bytes_and_streams(self):
        text = document(record_to_entry(r) for r in CATALOG)
        assert load_catalog(text.encode()) == CATALOG
        assert load_catalog(io.BytesIO(text.encode())) == CATALOG

    @pytest.mark.parametrize("blank", ["", "   \n\t ", b"", b"  \n"])
    def test_blank_document_is_empty_catalog(self, blank):
        assert load_catalog(blank) == ()

    def test_null_numerics_allowed(self):
        text = document([{"symbol": "Ce", "n4f": 1, "deltaE_K": None,
                          "zeta_K": None, "te_paper_K": None}])
        (ce,) = load_catalog(text)
        assert ce.delta_e is None and ce.zeta is None and ce.te_reference is None

    def test_symbol_normalized(self):
        text = document([{"symbol": " yb ", "n4f": 13, "deltaE_K": None,
                          "zeta_K": None, "te_paper_K": None}])
        assert load_catalog(text)[0].symbol == "Yb"

    @pytest.mark.parametrize("text", [
        "{nope",
        # an integer of more digits than int() converts
        '{"ions": [%s]}' % ("9" * 5000),
        # arrays nested deeper than the recursion limit
        '{"ions": ' + "[" * 10**5 + "]" * 10**5 + "}",
    ], ids=["syntax", "int-of-5000-digits", "nested-1e5-deep"])
    def test_invalid_json(self, text):
        with pytest.raises(CatalogError, match="^catalog is not valid JSON: "):
            load_catalog(text)

    @pytest.mark.parametrize("form", [bytes, bytes.decode, io.BytesIO],
                             ids=["bytes", "text", "stream"])
    def test_document_over_1_mib_is_rejected(self, form):
        assert load_catalog(form(b" " * 2**20)) == ()
        with pytest.raises(CatalogError, match=r"^catalog is larger than 1048576 bytes$"):
            load_catalog(form(b" " * (2**20 + 1)))

    def test_stream_is_read_one_byte_past_the_limit(self):
        stream = io.BytesIO(b" " * 2**22)
        with pytest.raises(CatalogError):
            load_catalog(stream)
        assert stream.tell() == 2**20 + 1

    @pytest.mark.parametrize("key,name", [
        ("deltaE_K", "delta_e"), ("zeta_K", "zeta"), ("te_paper_K", "te_reference"),
    ])
    def test_integer_beyond_float_range_is_not_finite(self, key, name):
        entry = dict(record_to_entry(ion_record("Ce")), **{key: 10**400})
        with pytest.raises(CatalogError, match=rf"^ions\[0\] \(Ce\): Ce: {name} must be finite$"):
            load_catalog(document([entry]))

    def test_invalid_utf8(self):
        with pytest.raises(CatalogError, match="UTF-8"):
            load_catalog(b"\xff\xfe{}")

    @pytest.mark.parametrize("doc", [
        "[]", '{"ions": 5}', '{"ions": [], "extra": 1}', '{"other": []}', "42",
    ])
    def test_top_level_shape_enforced(self, doc):
        with pytest.raises(CatalogError):
            load_catalog(doc)

    def test_record_must_be_object(self):
        with pytest.raises(CatalogError, match=r"ions\[0\]"):
            load_catalog('{"ions": [42]}')

    def test_quantum_numbers_cannot_be_overridden(self):
        # Records never carry s/l/j0 directly; an attempt to smuggle in a
        # spin that contradicts the occupation is rejected as an unknown key.
        entry = {"symbol": "Nd", "n4f": 3, "s": 1, "deltaE_K": 2750,
                 "zeta_K": 500, "te_paper_K": 1904}
        with pytest.raises(CatalogError, match="unknown keys"):
            load_catalog(document([entry]))

    def test_missing_key_rejected(self):
        entry = {"symbol": "Ce", "n4f": 1, "deltaE_K": 3150, "te_paper_K": None}
        with pytest.raises(CatalogError, match="missing keys"):
            load_catalog(document([entry]))

    @pytest.mark.parametrize("n4f", [0, 14, True, 2.5, "3"])
    def test_bad_occupation_rejected(self, n4f):
        entry = {"symbol": "Xx", "n4f": n4f, "deltaE_K": None,
                 "zeta_K": None, "te_paper_K": None}
        with pytest.raises(CatalogError):
            load_catalog(document([entry]))

    def test_bad_symbol_rejected(self):
        for symbol in ("", "   ", 42, None):
            entry = {"symbol": symbol, "n4f": 1, "deltaE_K": None,
                     "zeta_K": None, "te_paper_K": None}
            with pytest.raises(CatalogError):
                load_catalog(document([entry]))

    def test_wrong_sign_coupling_rejected(self):
        entry = {"symbol": "Ce", "n4f": 1, "deltaE_K": 3150,
                 "zeta_K": -900, "te_paper_K": None}
        with pytest.raises(CatalogError, match="Ce"):
            load_catalog(document([entry]))

    @pytest.mark.parametrize("field,value,name", [
        ("deltaE_K", 0, "delta_e"), ("te_paper_K", 0, "te_reference"),
        ("te_paper_K", -1, "te_reference"),
    ])
    def test_non_positive_gap_rejected(self, field, value, name):
        entry = {"symbol": "Ce", "n4f": 1, "deltaE_K": 3150,
                 "zeta_K": 900, "te_paper_K": None, field: value}
        with pytest.raises(CatalogError, match=f"{name} must be positive"):
            load_catalog(document([entry]))

    def test_duplicate_symbols_rejected(self):
        base = {"n4f": 1, "deltaE_K": None, "zeta_K": None, "te_paper_K": None}
        text = document([dict(base, symbol="Ce"), dict(base, symbol="ce")])
        with pytest.raises(CatalogError, match="duplicate"):
            load_catalog(text)

    def test_error_names_offending_record(self):
        good = record_to_entry(ion_record("Ce"))
        bad = {"symbol": "Gd", "n4f": 7, "deltaE_K": 43200,
               "zeta_K": 100, "te_paper_K": None}
        with pytest.raises(CatalogError, match=r"ions\[1\] \(Gd\)"):
            load_catalog(document([good, bad]))
