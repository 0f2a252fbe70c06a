"""Reading the CLI's witness-curve CSV back, for the tests."""

from sowitness.cli import CURVE_HEADER


def parse_witness_csv(text):
    """Parse a curve CSV back into (T, mean energy, witness) rows."""
    lines = text.splitlines()
    if not lines or lines[0] != CURVE_HEADER:
        raise ValueError(f"expected header {CURVE_HEADER!r}")
    rows = []
    for line in lines[1:]:
        t_k, mean_k, witness_k = line.split(",")
        rows.append((float(t_k), float(mean_k), float(witness_k)))
    return rows
