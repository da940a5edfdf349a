"""Exact integer nth roots and decimal digit windows of irrational roots.

The fractional digits of p**(1/r) are recovered without floating point:
scaling the radicand by 10**(r*D) shifts the root by 10**D, so the integer
root of p * 10**(r*D) carries the first D fractional digits in its low
decimal positions. Those digits are exact and do not change when D grows.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

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
    if not isinstance(x, int) or isinstance(x, bool):
        raise ValueError("x must be an int")
    if not isinstance(r, int) or isinstance(r, bool):
        raise ValueError("r must be an int")
    if x < 0:
        raise ValueError("x must be nonnegative")
    if r < 1:
        raise ValueError("r must be at least 1")
    if _HAVE_GMPY2:
        return int(gmpy2.iroot(gmpy2.mpz(x), r)[0])
    return _newton_nth_root(x, r)


def _newton_nth_root(x: int, r: int) -> int:
    """Integer Newton iteration with a precision-doubling initial guess."""
    if r == 1 or x == 0:
        return x
    bits = x.bit_length()
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


_int_str_cap_lock = threading.Lock()


def _to_decimal(x, width: int) -> bytes:
    if _HAVE_GMPY2:
        return gmpy2.mpz(x).digits(10).rjust(width, "0").encode("ascii")
    try:
        s = str(x)
    except ValueError:
        # int-to-str conversion is capped by default on new interpreters.
        # The cap is process-wide, so lift it for this one conversion only,
        # and under a lock so no two threads can leave it raised.
        with _int_str_cap_lock:
            cap = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(width + 16)
            try:
                s = str(x)
            finally:
                sys.set_int_max_str_digits(cap)
    return s.rjust(width, "0").encode("ascii")


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
    root = int_nth_root(p * 10 ** (r * depth), r)
    digits = _to_decimal(root % 10 ** depth, depth)
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
    for name, value in (("p", p), ("r", r), ("first", first), ("count", count)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an int")
    if p < 2:
        raise ValueError("p must be at least 2")
    if r < 2:
        raise ValueError("r must be at least 2")
    if first < 1:
        raise ValueError("first must be at least 1")
    if count < 0:
        raise ValueError("count must be nonnegative")
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
        arr = np.asarray(self.digits, dtype=np.uint8)
        if arr.ndim != 1:
            raise ValueError("digits must be one dimensional")
        if arr.size and arr.max() > 9:
            raise ValueError("digits must lie in 0..9")
        if not isinstance(self.offset, int) or isinstance(self.offset, bool):
            raise ValueError("offset must be an int")
        if self.offset < 1:
            raise ValueError("offset must be at least 1")
        self.digits = arr

    def __len__(self) -> int:
        return int(self.digits.size)

    @classmethod
    def from_root(cls, p: int, r: int, first: int, count: int) -> "DigitBlock":
        return cls(root_fractional_digits(p, r, first, count), first)
