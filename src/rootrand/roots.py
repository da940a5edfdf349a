"""Exact integer nth roots and decimal digit windows of irrational roots.

The fractional digits of p**(1/r) are recovered exactly: scaling the
radicand by 10**(r*D) shifts the root by 10**D, so the integer root of
p * 10**(r*D) carries the first D fractional digits in its low decimal
positions. Those digits are exact and do not change when D grows.

_floor_root computes that integer root for every window, and whether it
is exact. Three functions answer it, each exact on its own:

- _gmpy2_floor, gmpy2.iroot on the whole radicand;
- _integer_floor, the integer Newton iteration of int_nth_root;
- _decimal_floor, a Newton iteration in the standard library's
  ``decimal``, whose multiplication stays fast at a hundred thousand
  digits and whose output is already decimal, falling back to
  _integer_floor wherever its certificate cannot decide.

_floor_root is bound once, at import: to _gmpy2_floor when gmpy2 imports,
else to _decimal_floor. _integer_floor is never the default; the tests run
the pinned streams on every function here that can run.

In _decimal_floor, Newton's method on the inverse root,
z <- z + z*(1 - p*z**r)/r, converges to p**(-1/r) and divides only by the
small int r; y = p*z**(r-1) is then the root. Every result T is proved
before use, in one of two ways:

- A certificate from the last Newton step. With d = 1 - y*z, the identity
  p**(1/r) = y * (1 - d)**(-(r-1)/r) holds exactly for any z > 0, and the
  step y + y*d*(r-1)/r keeps its linear term. While |d| < 10**-2 the
  step's relative error, roundings included, is at most 2*d**2 + 4*u, with
  u = 5*10**-P the rounding unit at the step's precision P; err rounds
  that bound up to a power of ten read off the exponents of d and y*10**D
  (_newton_root derives both). When the interval of half-width err around
  y*10**D holds no integer, its floor is T and the root is irrational at
  that depth.
- Otherwise, by _integer_floor, whose integer Newton iteration ends in
  loops that enforce T**r <= x < (T+1)**r. It runs for perfect powers,
  whose root is an integer that no error interval can exclude, for
  |d| >= 10**-2, and for the rare y*10**D within err of an integer.
  x = p * 10**(r*D) is an r-th power exactly when p is, so the integer
  root of p alone decides perfect powers.

Every decimal operation that can round or signal names one of this
module's contexts, so the caller's decimal context, its precision and its
traps play no part.
int_nth_root never uses gmpy2.
"""

from __future__ import annotations

import functools
import math
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_FLOOR, Context, Decimal

import numpy as np

from ._checks import int_arg

try:
    import gmpy2

    _HAVE_GMPY2 = True
except ImportError:  # pragma: no cover - depends on the machine
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
    """Integer Newton iteration seeded, at every size, by the root of a truncated radicand."""
    if r == 1 or x == 0:
        return x
    bits = x.bit_length()
    if bits <= r:
        return 1  # 1 <= x < 2**r; also ends the recursion below
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


# Digits carried beyond the requested depth by the decimal Newton iteration.
_GUARD_DIGITS = 10

_ONE = Decimal(1)
# Wide enough that no sum, difference or scaling of a root rounds.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
# The context above and those of _newton_plan are shared and never changed;
# their flags collect conditions that nothing reads.


@functools.lru_cache(maxsize=64)
def _newton_plan(r: int, top: int):
    """(start, ladder, chain, last): _newton_root's contexts for degree r up to precision top.

    The precisions run from about what the float estimate holds up to top,
    each step given a few digits of slack, more for larger r; start is the
    lowest one. ladder holds one (lo, hi) pair per level below top: hi at
    the level's precision, lo at the one below it (the lowest level's own).
    chain holds the binary powering bits of r - 1 after the leading one,
    and last the context at top. Bounded, so roots at many depths cannot
    grow it without limit.
    """
    slack = 2 + len(str(r))
    levels = [top]
    while levels[-1] > 2 * slack + 20:
        levels.append(levels[-1] // 2 + slack)
    ctxs = [Context(prec=prec, Emax=MAX_EMAX, Emin=MIN_EMIN) for prec in reversed(levels)]
    return ctxs[0], tuple(zip(ctxs[:1] + ctxs[:-2], ctxs[:-1])), bin(r - 1)[3:], ctxs[-1]


def _newton_root(p: int, r: int, depth: int):
    """(v, err): v estimates V = p ** (1/r) * 10**depth, for r >= 2.

    Newton's method on z**-r - p, z <- z + z*(1 - p*z**r)/r, converges to
    z = p ** (-1/r) with only multiplications and a division by the small
    int r. Each step roughly doubles the correct digits, so the precision
    doubles from step to step up to P, the root's integer digits plus
    depth plus _GUARD_DIGITS. Below P each step is fused into two
    roundings: d = 1 - p*z**r at the precision of the level below, which
    holds every digit d keeps once its leading digits cancel, and
    z + z*(d/r) at the level's own. The last step is taken on the root itself,
    which spares a power chain at full precision: with y0 = p*z**(r-1) and
    d = 1 - y0*z, it returns v = y1 * 10**depth, where
    y1 = y0 + y0*d*(r-1)/r.

    err is an upper bound on |V - v|, or None outside the bound's premise:
    where z <= 0, or where d.adjusted() > -3, as it is for every
    |d| >= 10**-2. The bound:

    The identity. Let k = (r-1)/r and q = p*z**(r-1) exactly. For any
    z > 0, q * (q*z)**-k = p**(1/r) * z**((r-1)/r - k) = p**(1/r). The
    computed y0 is q*(1 + e1), and the exact D = 1 - y0*z is q*z*(1 + e1)
    subtracted from 1, so p**(1/r) = y0 * (1 - D)**-k * (1 + e1)**(-1/r).
    The step keeps the linear term of (1 - D)**-k = 1 + k*D + rho; what
    earlier levels did is irrelevant.

    The Taylor remainder. rho = k*(k+1)/2 * D**2 * (1 - s)**(-k-2) for
    some s between 0 and D. With k < 1 and |D| <= 0.0101 that is at most
    1.04 * D**2.

    The roundings. Each correctly rounded operation at precision P has
    relative error at most u = 5*10**-P, and P >= 11, so u <= 5e-11.
    Left-to-right binary powering of z**(r-1), done with explicit
    multiplications, compounds r-2 of them: squaring a result carrying m-1
    rounding factors gives 2m-1, multiplying by z gives m. The product
    by p adds one, so (1 + e1) lies between (1 - u)**(r-1) and
    (1 + u)**(r-1), and |(1 + e1)**(-1/r) - 1| <= 1.01*u for every r.
    The computed m = y0*z carries one rounding and 1 - m is exact (its
    digits lie within m's), so with |d| <= 0.01, |D - d| <= 1.03*u, which
    also gives |D| <= 0.0101 and |rho| <= 1.04*d**2 + 0.04*u. The
    correction y0*d*(r-1)/r carries three roundings, at most 3.01*u
    relative to a term at most 0.01*y0, and the final sum one more.
    Collecting the terms, relative to y0 the step misses p**(1/r) by
    1.03*u (from D - d) + 1.04*d**2 + 0.04*u (rho) + 1.01*u (e1) + u (the
    sum) + 0.06*u (products of small terms); and y0 <= 1.0103*y1. So
    |p**(1/r) - y1| <= (2*d**2 + 4*u) * y1, and |V - v| <= (2*d**2 + 4*u) * v.

    The bound is evaluated from exponents alone (_error_bound). Every
    nonzero Decimal x, and zero too, satisfies |x| < 10**(x.adjusted() + 1).
    With a = d.adjusted() and b = v.adjusted(), 2*d**2 < 2*10**(2*a + 2)
    and 4*u = 2*10**(1 - P), so 2*d**2 + 4*u < 4*10**m <= 10**(m + 1) with
    m = max(2*a + 2, 1 - P), and v < 10**(b + 1). Hence
    err = 10**(m + 2 + b) > (2*d**2 + 4*u) * v, a power of ten exactly.
    And a <= -3 gives |d| < 10**-2, the premise.
    """
    e = math.log10(p) / r
    lead = math.floor(e)
    top = depth + lead + 1 + _GUARD_DIGITS
    start, ladder, chain, ctx = _newton_plan(r, top)
    neg_p, p = Decimal(-p), Decimal(p)
    # The only float: 10**(lead - e) lies in (0.1, 1], so its 16 leading
    # digits, taken as an int, give z to about 15 digits for any size of p.
    z = start.scaleb(int(10 ** (lead - e + 16)), -16 - lead)
    for lo, hi in ladder:
        d_r = lo.divide(lo.fma(neg_p, hi.power(z, r), 1), r)
        z = hi.fma(z, d_r, z)
    power = z
    for bit in chain:
        power = ctx.multiply(power, power)
        if bit == "1":
            power = ctx.multiply(power, z)
    y = ctx.multiply(p, power)
    d = ctx.subtract(1, ctx.multiply(y, z))
    y = ctx.add(y, ctx.divide(ctx.multiply(ctx.multiply(y, d), r - 1), r))
    v = ctx.scaleb(y, depth)
    return v, _error_bound(d, v, top) if z > 0 else None


def _error_bound(d: Decimal, v: Decimal, top: int):
    """err = 10**(max(2*d.adjusted() + 2, 1 - top) + 2 + v.adjusted()), above
    (2*d**2 + 4*u) * v with u = 5*10**-top, or None unless d.adjusted() <= -3.

    _newton_root derives the bound.
    """
    a = d.adjusted()
    if a > -3:
        return None
    return _EXACT.scaleb(_ONE, max(2 * a + 2, 1 - top) + 2 + v.adjusted())


def _newton_floor(p: int, r: int, depth: int):
    """(T, certified): T = floor(v) from _newton_root, for r >= 2.

    certified is True only when T is proved to be floor(V) and V to be
    irrational. V lies in [v - err, v + err]; with frac = v - T, if
    err < frac and frac + err < 1, then T < V < T + 1, so T is the floor,
    and V, an r-th root of an integer that is not itself an integer, is
    irrational. Perfect powers never pass, since their V is an integer
    within err of v, nor does a step that gave no err; the caller proves T
    then. The subtraction, the sum and the comparisons are exact.
    """
    v, err = _newton_root(p, r, depth)
    t = v.to_integral_value(ROUND_FLOOR, _EXACT)
    if err is None:
        return t, False
    frac = _EXACT.subtract(v, t)
    return t, err < frac and _EXACT.add(frac, err) < 1


def _gmpy2_floor(p: int, r: int, depth: int):
    """(T, exact) for T = floor((p * 10**(r*depth)) ** (1/r)), from gmpy2.iroot.

    exact tells whether T**r equals the radicand. Callable only where
    gmpy2 imports.
    """
    return gmpy2.iroot(gmpy2.mpz(p) * gmpy2.mpz(10) ** (r * depth), r)


def _integer_floor(p: int, r: int, depth: int):
    """(T, exact) as _gmpy2_floor gives them, by integer Newton alone.

    T is s * 10**depth where p = s**r, scaled without rounding, with exact
    True; or else the integer root of the whole radicand.
    """
    s = _newton_nth_root(p, r)
    if s**r == p:
        return _EXACT.scaleb(Decimal(s), depth), True
    return Decimal(_newton_nth_root(p * 10 ** (r * depth), r)), False


def _decimal_floor(p: int, r: int, depth: int):
    """(T, exact) as _gmpy2_floor gives them: the floor that _newton_floor
    certified, with exact False, or else _integer_floor's answer."""
    t, certified = _newton_floor(p, r, depth)
    if certified:
        return t, False
    return _integer_floor(p, r, depth)


# The floor root every digit window and stats' spot check use: gmpy2's
# where it imports, else the certified decimal one. Bound once, here;
# nothing chooses among the three per call.
_floor_root = _gmpy2_floor if _HAVE_GMPY2 else _decimal_floor


# No stream walk asks for one (p, r) twice, so roots are not cached. The
# name stays, always empty, for callers that check for a cold start.
_digit_cache: dict = {}

# Maps each ASCII digit to its value.
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))


def root_fractional_digits(p: int, r: int, first: int, count: int) -> np.ndarray:
    """Decimal digits of the fractional part of p ** (1/r).

    Returns digits at 1-based positions first .. first+count-1 after the
    decimal point, as a uint8 array. p must be at least 2 and must not be
    a perfect r-th power, so the root is irrational and the expansion
    never terminates.
    """
    # Plain ints in range skip the checks, which name the first bad argument.
    if not (type(p) is type(r) is type(first) is type(count) is int
            and p >= 2 and r >= 2 and first >= 1 and count >= 0):
        for name, value, low in (("p", p, 2), ("r", r, 2), ("first", first, 1), ("count", count, 0)):
            int_arg(name, value, low)
    # An empty window only needs the perfect-power check, which depth 0 gives.
    root, exact = _floor_root(p, r, first + count - 1 if count else 0)
    if exact:
        raise ValueError(f"{p} is a perfect power of degree {r}; its root has no fractional digits")
    digits = bytearray(str(root)[-count:] if count else "", "ascii")
    return np.frombuffer(digits.translate(_DIGIT_VALUES), np.uint8)
