"""The exact sign of the witness W(T), for the tests.

For a shell (2s, 2l, zeta) the levels are E_j = (zeta/8) B_j with the exact
integers B_j = 2j(2j+2) - 2s(2s+2) - 2l(2l+2), and |zeta| s l is
(|zeta|/8) 2 (2s)(2l).  With sigma the sign of zeta, so

    8 Z W(T) / |zeta| = sum_j g_j (sigma B_j + 2 (2s)(2l)) exp(-x_j / T),

where x_j = |zeta| (sigma B_j - min sigma B) / 8 >= 0 and Z > 0.  The sum is
taken in ``decimal`` from the exact binary values of zeta and T, with an
error bound on every rounding, and the precision is doubled until the sum
lies outside its bound.  Nothing here calls the package's own arithmetic.
"""

from __future__ import annotations

import decimal

from sowitness.angular import Convention

_FIRST_DIGITS = 40
_LAST_DIGITS = 5120


def exact_witness_sign(system, temperature: float) -> int:
    """-1, 0 or 1: the sign of the exact W at a float temperature >= 0.

    W(0) is its T -> 0+ limit, the ground level's term alone.
    """
    ts, tl = system.s.twice, system.l.twice
    sigma = 1 if system.zeta > 0.0 else -1
    levels = []
    for tj in range(abs(ts - tl), ts + tl + 1, 2):
        b = tj * (tj + 2) - ts * (ts + 2) - tl * (tl + 2)
        g = tj + 1 if system.convention is Convention.MULTIPLET_DEGENERATE else 1
        levels.append((g, sigma * b + 2 * ts * tl, sigma * b))
    if system.zeta == 0.0 or all(c == 0 for _, c, _ in levels):
        return 0
    ground = min(e for _, _, e in levels)
    if temperature == 0.0:
        # the ground term dominates every other as T -> 0+, whatever its weight
        total = sum(g * c for g, c, e in levels if e == ground)
        return (total > 0) - (total < 0)
    if not temperature > 0.0:
        raise ValueError(f"temperature must be non-negative, got {temperature!r}")
    digits = _FIRST_DIGITS
    while digits <= _LAST_DIGITS:
        sign = _sign_at(levels, ground, abs(system.zeta), temperature, digits)
        if sign is not None:
            return sign
        digits *= 2
    raise ArithmeticError(f"no stable sign of W({temperature!r}) at {_LAST_DIGITS} digits")


def _sign_at(levels, ground, zeta, temperature, digits):
    """The sign of the sum at ``digits`` digits, or None if its error bound
    covers zero.

    With u = 10**(1 - digits), the exponent a = x / T takes three roundings,
    so exp(-a) carries a relative error of at most 3 a u + u, and the product
    with g c one more; the n additions add n u of the magnitudes.  So the
    sum is within sum |t| (3 a + n + 8) u of its exact value.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        ctx.Emin = decimal.MIN_EMIN  # so exp(-a) underflows only far below any sum
        scale = decimal.Decimal(zeta) / (8 * decimal.Decimal(temperature))
        total = bound = decimal.Decimal(0)
        for g, c, e in levels:
            exponent = scale * (e - ground)
            term = g * c * (-exponent).exp()
            total += term
            bound += abs(term) * (3 * exponent + len(levels) + 8)
        if abs(total) <= bound * decimal.Decimal(10) ** (1 - digits):
            return None
        return 1 if total > 0 else -1
