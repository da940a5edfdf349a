"""Exact integer nth roots and decimal digit windows of irrational roots.

The fractional digits of p**(1/r) are recovered exactly: scaling the
radicand by 10**(r*D) shifts the root by 10**D, so the integer root of
p * 10**(r*D) carries the first D fractional digits in its low decimal
positions. Those digits are exact and do not change when D grows.

gmpy2 computes that integer root when it imports. Without it the root is
computed in the standard library's ``decimal``, whose multiplication and
division stay fast at a hundred thousand digits and whose output is
already decimal, and every result is proved by an exact bracket.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, ROUND_FLOOR, Context, Decimal, Inexact

import numpy as np

from ._checks import digit_array, int_arg

try:
    import gmpy2

    _HAVE_GMPY2 = True
except ImportError:  # pragma: no cover - exercised via monkeypatching in tests
    _HAVE_GMPY2 = False

__all__ = ["DigitBlock", "int_nth_root", "root_fractional_digits"]


def int_nth_root(x: int, r: int) -> int:
    """Return floor(x ** (1/r)) for integer x >= 0, r >= 1, exactly.

    The result T satisfies T**r <= x < (T + 1)**r. gmpy2 does the heavy
    lifting when present; a pure integer Newton iteration is the fallback.
    """
    int_arg("x", x, 0)
    int_arg("r", r, 1)
    if _HAVE_GMPY2:
        return int(gmpy2.iroot(gmpy2.mpz(x), r)[0])
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
    """floor(p ** (1/r) * 10**depth) by Newton's method in decimal.

    Each step roughly doubles the correct digits, so the precision doubles
    from step to step up to depth plus guard digits. Rounding can still
    leave the result one off the true floor; _decimal_root_digits checks
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
    y = ctx.scaleb(Decimal(10 ** (e - lead)), lead)  # the only float: a ~15-digit estimate
    for prec in reversed(levels):
        ctx.prec = prec
        # y <- ((r - 1) * y + p / y**(r - 1)) / r
        y = ctx.divide(ctx.add(ctx.multiply(r - 1, y), ctx.divide(p, ctx.power(y, r - 1))), r)
    return ctx.scaleb(y, depth).to_integral_value(rounding=ROUND_FLOOR)


def _decimal_root_digits(p: int, r: int, depth: int) -> bytes:
    """The first depth fractional digits of p ** (1/r), proved exact.

    T from _newton_floor must satisfy T**r <= p * 10**(r*depth) < (T+1)**r,
    evaluated in a context wide enough to hold both powers, with Inexact
    trapped so that no operation can round. A T that misses is moved by one
    at a time, at most _REPAIR_STEPS times.
    """
    t = _newton_floor(p, r, depth)
    exact = Context(prec=r * (t.adjusted() + 2), Emax=MAX_EMAX, Emin=MIN_EMIN)
    exact.traps[Inexact] = True
    x = exact.scaleb(p, r * depth)
    for _ in range(_REPAIR_STEPS):
        if exact.power(t, r) > x:
            t = exact.subtract(t, 1)
        elif exact.power(exact.add(t, 1), r) <= x:
            t = exact.add(t, 1)
        else:
            return str(t)[-depth:].encode("ascii")
    raise ArithmeticError(f"Newton estimate of {p}**(1/{r}) at {depth} digits is off by more than {_REPAIR_STEPS}")


def _root_digits(p: int, r: int, depth: int) -> bytes:
    """The first depth fractional digits of p ** (1/r) as ASCII, uncached."""
    if _HAVE_GMPY2:
        root = int_nth_root(p * 10 ** (r * depth), r)
        return gmpy2.mpz(root % 10 ** depth).digits(10).rjust(depth, "0").encode("ascii")
    return _decimal_root_digits(p, r, depth)


# Cache of fractional digit strings keyed by (p, r). Entries hold the
# longest prefix computed so far; shorter requests slice into it.
_CACHE_MAX = 256
_digit_cache: OrderedDict[tuple[int, int], bytes] = OrderedDict()
_cache_lock = threading.Lock()


def _fractional_digit_bytes(p: int, r: int, depth: int) -> bytes:
    with _cache_lock:
        hit = _digit_cache.get((p, r))
        if hit is not None and len(hit) >= depth:
            _digit_cache.move_to_end((p, r))
            return hit
    digits = _root_digits(p, r, depth)
    with _cache_lock:
        hit = _digit_cache.get((p, r))
        if hit is None or len(hit) < depth:
            _digit_cache[(p, r)] = digits
            _digit_cache.move_to_end((p, r))
            while len(_digit_cache) > _CACHE_MAX:
                _digit_cache.popitem(last=False)
        else:
            digits = hit
    return digits


def root_fractional_digits(p: int, r: int, first: int, count: int) -> np.ndarray:
    """Decimal digits of the fractional part of p ** (1/r).

    Returns digits at 1-based positions first .. first+count-1 after the
    decimal point, as a uint8 array. p must be at least 2 and must not be
    a perfect r-th power, so the root is irrational and the expansion
    never terminates.
    """
    for name, value, low in (("p", p, 2), ("r", r, 2), ("first", first, 1), ("count", count, 0)):
        int_arg(name, value, low)
    whole = int_nth_root(p, r)
    if whole ** r == p:
        raise ValueError(f"{p} is a perfect power of degree {r}; its root has no fractional digits")
    if count == 0:
        return np.zeros(0, dtype=np.uint8)
    depth = first + count - 1
    digits = _fractional_digit_bytes(p, r, depth)
    window = np.frombuffer(digits[first - 1 : first - 1 + count], dtype=np.uint8)
    return (window - ord("0")).astype(np.uint8)


@dataclass
class DigitBlock:
    """A contiguous window of fractional digits with its 1-based offset."""

    digits: np.ndarray
    offset: int = 1

    def __post_init__(self):
        self.digits = digit_array(self.digits)
        int_arg("offset", self.offset, 1)

    def __len__(self) -> int:
        return int(self.digits.size)

    @classmethod
    def from_root(cls, p: int, r: int, first: int, count: int) -> "DigitBlock":
        return cls(root_fractional_digits(p, r, first, count), first)
