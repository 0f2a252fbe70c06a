"""The CSV text of witness-curve rows, each field ``format(v, ".6g")`` byte
for byte, built in NumPy; ``cli`` imports it on the first curve it writes."""

from __future__ import annotations

import numpy as np

# curve_text writes a field as 16 byte slots, 0 where empty: the sign, one
# of two layouts of the six significant digits, the separator in slot 12
# and three pad slots.  These are the digit slots of each layout, both the
# fixed form of %g: e >= 0 (a point may follow any of the first five digits)
# and e < 0 (after "0." and up to three zeros), at index e < 0.
_DIGIT_SLOTS = ((1, 3, 5, 7, 9, 11), (6, 7, 8, 9, 10, 11))
# the decimal exponents whose fields curve_text builds itself
_EXPONENTS = range(-4, 6)


def _tables() -> tuple[np.ndarray, ...]:
    """The read-only tables of ``curve_text``, built once at import.

    ``forms`` holds a field's 16 slots, as two words, at row
    24 (e + 4) + 4 (t - 1) + 2 negative + last, for exponent e, t digits
    up to the last non-zero one, sign and separator; a digit slot holds 255
    if ``%g`` keeps the digit and 0 if not.  Its last two rows write the
    placeholder "%g".  ``high`` and ``low`` hold the three digits of 0...999
    in the first or last three digit slots of a layout, at row
    1000 layout + group, and 255 elsewhere, so two ANDs put the digits in
    place.  ``kept_high`` and ``kept_low`` give 4 (t - 1) for a group of
    digits, 0 for a zero low group.
    """
    forms = np.zeros((len(_EXPONENTS) * 24 + 2, 16), dtype=np.uint8)
    for e in _EXPONENTS:
        slots = list(_DIGIT_SLOTS[e < 0])
        for t in range(1, 7):
            kept = max(t, e + 1)  # the fixed form keeps the zeros before its point
            for negative in (0, 1):
                for last in (0, 1):
                    form = forms[24 * (e + 4) + 4 * (t - 1) + 2 * negative + last]
                    form[0] = b"-"[0] * negative
                    form[slots] = [255 * (k < kept) for k in range(6)]
                    if e >= 0 and kept > e + 1:
                        form[slots[e] + 1] = b"."[0]
                    elif e < 0:
                        form[1:2 - e] = list(b"0.000"[:1 - e])
                    form[12] = b",\n"[last]
    forms[-2:, [0, 2]] = list(b"%g")  # slots that no digit table writes
    forms[-2:, 12] = list(b",\n")
    groups = [b"%03d" % i for i in range(1000)]
    digits = np.frombuffer(b"".join(groups), np.uint8).reshape(1000, 3)
    high, low = (np.full((len(_DIGIT_SLOTS), 1000, 16), 255, dtype=np.uint8) for _ in range(2))
    for layout, slots in enumerate(_DIGIT_SLOTS):
        high[layout][:, slots[:3]] = digits
        low[layout][:, slots[3:]] = digits
    zeros = [len(group) - len(group.rstrip(b"0")) for group in groups]
    tables = (
        *(table.view("<u8").reshape(-1, 2) for table in (forms, high, low)),
        np.array([4 * (2 - z) for z in zeros], dtype=np.int32),
        np.array([0] + [4 * (5 - z) for z in zeros[1:]], dtype=np.int32),
        np.array([float(10 ** (5 - e)) for e in _EXPONENTS]),
        np.array([1000 * (e < 0) for e in _EXPONENTS], dtype=np.int32),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


_FORMS, _HIGH_DIGITS, _LOW_DIGITS, _KEPT_HIGH, _KEPT_LOW, _POWERS, _LAYOUTS = _tables()


def curve_text(t: np.ndarray, mean: np.ndarray, w: np.ndarray) -> str:
    """The CSV rows of the columns T, <H> and W, each field the bytes of
    ``format(v, ".6g")``, built in NumPy.

    Why it is exact: for finite v != 0, let e be floor(log10 |v|) clamped to
    [-4, 5].  Then s = |v| 10^(5-e) takes one rounding, as 10^0 ... 10^9
    are exact doubles, so below 2^20 it is within 2^-34 of the exact
    product S.  If s lies in [10^5, 10^6) and at least 2^-30 from a half,
    n = rint(s) is S rounded to the nearest integer: the six digits to
    which ``%g`` correctly rounds |v|, at exponent e.  (An S just below
    10^5 has n = 10^5, and at exponent e - 1 its digits round up to the
    same 1.00000 10^e.)  An n of 10^6 would carry into exponent e + 1, so
    it is left out.  ``%g`` writes n 10^(e-5) in fixed form, as it does
    for every e >= -4, and without trailing zeros.

    The digits come from a table of 0...999 and the rest of a field from a
    table of forms; both are ANDed into 16 slots per field, and the empty
    slots are deleted by one ``translate``.  Every other value (+-0, inf,
    nan, a near-tie, |v| rounding below 1e-4 or to 1e+06 or more) gets the
    placeholder "%g" and is formatted by one ``%`` over just those values.
    """
    values = np.stack((t, mean, w), axis=1).ravel()
    with np.errstate(divide="ignore", invalid="ignore"):  # log10(0); inf - inf
        s = np.abs(values)
        # k = e + 4 indexes _EXPONENTS; fmin and fmax send nan to an end too
        k = np.fmax(np.fmin(np.floor(np.log10(s)), 5.0), -4.0).astype(np.int32) + 4
        s *= _POWERS.take(k)
        exact = (s >= 1e5) & (np.abs(s - np.rint(s)) <= 0.5 - 2.0**-30)
        exact &= np.rint(s, out=s) < 1e6
    others = values[~exact].tolist()
    n = np.where(exact, s, 1e5).astype(np.int32)
    high, low = n // 1000, n % 1000
    form = np.maximum(_KEPT_HIGH.take(high), _KEPT_LOW.take(low))
    form += 24 * k
    form += 2 * np.signbit(values)
    form[~exact] = len(_FORMS) - 2
    form.reshape(-1, 3)[:, 2] += 1  # the separator that ends a row
    offset = _LAYOUTS.take(k)
    high += offset
    low += offset
    del values, s, k, exact, n, offset  # freed before the bytes are built
    # the fields are built in the bytes that translate reads, not copied
    # there; "clip" (every row exists) spares take a temporary for out
    data = bytearray(16 * len(form))
    fields = np.frombuffer(data, "<u8").reshape(-1, 2)
    _FORMS.take(form, axis=0, out=fields, mode="clip")
    fields &= _HIGH_DIGITS.take(high, axis=0)
    fields &= _LOW_DIGITS.take(low, axis=0)
    del form, high, low
    text = data.translate(None, b"\0").decode()
    return text % tuple(others) if others else text
