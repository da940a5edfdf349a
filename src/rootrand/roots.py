"""Exact integer nth roots and decimal digit windows of irrational roots.

The fractional digits of p**(1/r) are recovered exactly: scaling the
radicand by 10**(r*D) shifts the root by 10**D, so the integer root of
p * 10**(r*D) carries the first D fractional digits in its low decimal
positions. Those digits are exact and do not change when D grows.

_floor_root computes that integer root for every window, and whether it
is exact: with gmpy2 when it imports, else in the standard library's
``decimal``, whose multiplication stays fast at a hundred thousand digits
and whose output is already decimal. There, Newton's method on the inverse
root, z <- z + z*(1 - p*z**r)/r, converges to p**(-1/r) and divides only
by the small int r; p*z**(r-1) is then the root. Every result T is proved
before use with one exact power chain: 0 <= x - T**r < r*T**(r-1) implies
T**r <= x < (T+1)**r, because (T+1)**r - T**r >= r*T**(r-1).
int_nth_root never uses gmpy2.
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MIN_EMIN, ROUND_FLOOR, Context, Decimal, Inexact

import numpy as np

from ._checks import int_arg

try:
    import gmpy2

    _HAVE_GMPY2 = True
except ImportError:  # pragma: no cover - exercised via monkeypatching in tests
    _HAVE_GMPY2 = False

__all__ = ["int_nth_root", "root_fractional_digits"]


def int_nth_root(x: int, r: int) -> int:
    """Return floor(x ** (1/r)) for integer x >= 0, r >= 1, exactly.

    The result T satisfies T**r <= x < (T + 1)**r. A pure integer Newton
    iteration computes it with or without gmpy2: a backend-free reference.
    """
    int_arg("x", x, 0)
    int_arg("r", r, 1)
    return _newton_nth_root(x, r)


def _newton_nth_root(x: int, r: int) -> int:
    """Integer Newton iteration with a precision-doubling initial guess."""
    if r == 1 or x == 0:
        return x
    bits = x.bit_length()
    if bits <= r:
        return 1  # 1 <= x < 2**r; also ends the recursion below
    if bits <= 52:
        guess = int(round(float(x) ** (1.0 / r)))
    else:
        # Seed from the root of a truncated radicand, then one Newton step
        # roughly doubles the number of correct leading bits.
        root_bits = (bits + r - 1) // r
        half = root_bits // 2
        guess = (_newton_nth_root(x >> (r * half), r) + 1) << half
        guess = ((r - 1) * guess + x // guess ** (r - 1)) // r
    while guess > 0 and guess ** r > x:
        guess = ((r - 1) * guess + x // guess ** (r - 1)) // r
    while (guess + 1) ** r <= x:
        guess += 1
    return guess


# Digits carried beyond the requested depth by the decimal Newton iteration,
# and the most +-1 corrections the exact bracket may make to its result.
_GUARD_DIGITS = 10
_REPAIR_STEPS = 4


def _newton_floor(p: int, r: int, depth: int) -> Decimal:
    """floor(p ** (1/r) * 10**depth) by a division-free Newton iteration.

    Newton's method on z**-r - p, z <- z + z*(1 - p*z**r)/r, converges to
    z = p ** (-1/r) with only multiplications and a division by the small
    int r. Each step roughly doubles the correct digits, so the precision
    doubles from step to step up to depth plus guard digits. The last step
    is taken on y = p*z**(r-1), the root itself, which spares a power chain
    at full precision: p ** (1/r) = y * (y*z) ** (-(r-1)/r), so with
    d = 1 - y*z, y <- y + y*d*(r-1)/r. The result is floor(y * 10**depth).
    Rounding can still leave it one off the true floor; _floor_root checks
    and repairs it.
    """
    e = math.log10(p) / r
    lead = math.floor(e)
    # Precisions from the target down to about what the float estimate
    # holds; each step is given a few digits of slack, more for larger r.
    slack = 2 + len(str(r))
    levels = [depth + lead + 1 + _GUARD_DIGITS]
    while levels[-1] > 2 * slack + 20:
        levels.append(levels[-1] // 2 + slack)
    ctx = Context(prec=levels[-1], Emax=MAX_EMAX, Emin=MIN_EMIN)
    z = ctx.scaleb(Decimal(10 ** (lead - e)), -lead)  # the only float: a ~15-digit estimate
    for prec in reversed(levels[1:]):
        ctx.prec = prec
        d = ctx.subtract(1, ctx.multiply(p, ctx.power(z, r)))
        z = ctx.add(z, ctx.divide(ctx.multiply(z, d), r))
    ctx.prec = levels[0]
    y = ctx.multiply(p, ctx.power(z, r - 1))
    d = ctx.subtract(1, ctx.multiply(y, z))
    y = ctx.add(y, ctx.divide(ctx.multiply(ctx.multiply(y, d), r - 1), r))
    return ctx.scaleb(y, depth).to_integral_value(rounding=ROUND_FLOOR)


def _floor_root(p: int, r: int, depth: int):
    """(T, exact) for T = floor((p * 10**(r*depth)) ** (1/r)), like gmpy2.iroot.

    exact tells whether T**r equals the radicand x. Without gmpy2, T from
    _newton_floor is accepted when 0 <= x - T**r < r*T**(r-1), which needs
    the one exact power chain T**(r-1), T*T**(r-1) and implies
    x < (T+1)**r, since (T+1)**r - T**r >= r*T**(r-1). Only where that test
    is inconclusive is (T+1)**r computed. Every step runs in a context wide
    enough to hold (T+1)**r, with Inexact trapped so that no operation can
    round. A T that misses is moved by one at a time, at most
    _REPAIR_STEPS times.
    """
    if _HAVE_GMPY2:
        return gmpy2.iroot(gmpy2.mpz(p) * gmpy2.mpz(10) ** (r * depth), r)
    t = _newton_floor(p, r, depth)
    exact = Context(prec=r * (t.adjusted() + 2), Emax=MAX_EMAX, Emin=MIN_EMIN)
    exact.traps[Inexact] = True
    x = exact.scaleb(p, r * depth)
    for _ in range(_REPAIR_STEPS):
        below = exact.power(t, r - 1)
        rest = exact.subtract(x, exact.multiply(t, below))
        if rest < 0:
            t = exact.subtract(t, 1)
        elif rest < exact.multiply(r, below):
            return t, not rest
        elif exact.power(exact.add(t, 1), r) <= x:
            t = exact.add(t, 1)
        else:
            return t, False
    raise ArithmeticError(f"Newton estimate of {p}**(1/{r}) at {depth} digits is off by more than {_REPAIR_STEPS}")


# No stream walk asks for one (p, r) twice, so roots are not cached. The
# name stays, always empty, for callers that check for a cold start.
_digit_cache: dict = {}


def root_fractional_digits(p: int, r: int, first: int, count: int) -> np.ndarray:
    """Decimal digits of the fractional part of p ** (1/r).

    Returns digits at 1-based positions first .. first+count-1 after the
    decimal point, as a uint8 array. p must be at least 2 and must not be
    a perfect r-th power, so the root is irrational and the expansion
    never terminates.
    """
    for name, value, low in (("p", p, 2), ("r", r, 2), ("first", first, 1), ("count", count, 0)):
        int_arg(name, value, low)
    # An empty window only needs the perfect-power check, which depth 0 gives.
    root, exact = _floor_root(p, r, first + count - 1 if count else 0)
    if exact:
        raise ValueError(f"{p} is a perfect power of degree {r}; its root has no fractional digits")
    digits = str(root)[-count:] if count else ""
    return np.frombuffer(digits.encode("ascii"), dtype=np.uint8) - ord("0")
