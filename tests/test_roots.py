import decimal
import functools
import hashlib
import random
import sys
import time
import types
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rootrand.generator as generator_mod
import rootrand.roots as roots_mod
from rootrand import (
    GeneratorConfig,
    StreamCache,
    first_n_primes,
    generate_bits,
    int_nth_root,
    root_fractional_digits,
)
from rootrand.generator import _entries, _entry_windows
from rootrand.roots import _newton_nth_root

# Digits 51..70 of the cube roots of 5 and 17, cross-checked below
# against an independent high-precision float computation.
CBRT5_51_70 = "49243828617074442959"
CBRT17_51_70 = "62598480223762199399"


def test_isqrt_known_value():
    assert int_nth_root(2 * 10**20, 2) == 14142135623


def test_small_roots():
    assert int_nth_root(0, 2) == 0
    assert int_nth_root(1, 5) == 1
    assert int_nth_root(7**3, 3) == 7
    assert int_nth_root(7**3 - 1, 3) == 6
    assert int_nth_root(123456789, 1) == 123456789


def test_root_validation():
    with pytest.raises(ValueError):
        int_nth_root(-1, 2)
    with pytest.raises(ValueError):
        int_nth_root(4, 0)
    with pytest.raises(ValueError):
        int_nth_root(4.0, 2)
    with pytest.raises(ValueError):
        int_nth_root(4, 2.0)


def test_newton_root_below_two():
    # x < 2**r: the root is 1, and the seeding recursion used to shift by
    # zero bits forever.
    assert _newton_nth_root(2**60, 61) == 1
    assert _newton_nth_root(2**61 - 1, 61) == 1
    assert _newton_nth_root(2**61, 61) == 2


@given(x=st.integers(min_value=0, max_value=10**60), r=st.integers(min_value=1, max_value=11))
def test_floor_root_bracket(x, r):
    t = int_nth_root(x, r)
    assert t**r <= x < (t + 1) ** r


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@given(x=st.integers(min_value=0, max_value=10**40), r=st.integers(min_value=2, max_value=7))
def test_newton_matches_primary(sympy, x, r):
    # Without gmpy2, int_nth_root is _newton_nth_root itself; sympy's
    # integer root is an independent reference on every machine.
    assert _newton_nth_root(x, r) == sympy.integer_nthroot(x, r)[0]


def test_newton_every_bit_length_and_near_powers(sympy):
    # Every radicand size from 0 to 89 bits, across the 52 bits where a
    # float seed once took over, and exact powers with their neighbours,
    # which random sampling rarely hits.
    rng = random.Random(25)
    for r in range(1, 12):
        cases = [rng.getrandbits(bits) | (1 << bits >> 1) for bits in range(90) for _ in range(3)]
        for t in (2, 3, 10, 2**17 - 1, 3**20, 10**9 + 7):
            cases += [t**r - 1, t**r, t**r + 1]
        for x in cases:
            assert _newton_nth_root(x, r) == sympy.integer_nthroot(x, r)[0], (x, r)


@given(x=st.integers(min_value=0, max_value=10**30), r=st.integers(min_value=2, max_value=5))
def test_root_monotone(x, r):
    assert int_nth_root(x, r) <= int_nth_root(x + 1, r)


@pytest.fixture
def default_int_str_cap():
    """Hold the int-to-str conversion cap at the interpreter default.

    A wide conversion then crosses the cap whatever an earlier caller
    set it to. Yields the pinned cap (None on interpreters without one)
    and restores the previous cap afterwards.
    """
    if not hasattr(sys, "get_int_max_str_digits"):
        yield None
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield sys.int_info.default_max_str_digits
    sys.set_int_max_str_digits(previous)


def _force_fallback(monkeypatch):
    """Bind the decimal floor root, the default only where gmpy2 does not import."""
    monkeypatch.setattr(roots_mod, "_floor_root", roots_mod._decimal_floor)


def _scaled_root(whole, digits):
    """whole.d1d2...dn * 10**n as an int, built without int-from-str,
    which the same conversion cap limits."""
    return functools.reduce(lambda t, d: 10 * t + d, digits.tolist(), whole)


def test_fallback_without_gmpy2(monkeypatch, default_int_str_cap):
    _force_fallback(monkeypatch)
    assert int_nth_root(2 * 10**20, 2) == 14142135623
    assert root_fractional_digits(5, 3, 1, 3).tolist() == [7, 0, 9]
    # Wide enough to exceed the default int-to-str conversion cap.
    wide = root_fractional_digits(5, 3, 1, 5000)
    assert wide.size == 5000
    t = _scaled_root(1, wide)
    assert t**3 <= 5 * 10**15000 < (t + 1) ** 3
    # The fallback never converts a wide int to str, so the cap is as it was.
    if default_int_str_cap is not None:
        assert sys.get_int_max_str_digits() == default_int_str_cap


def test_fallback_leaves_int_str_cap_alone(default_int_str_cap, monkeypatch):
    # The decimal fallback never converts a wide int to str, so it has no
    # reason to touch the process-wide cap, not even to restore it.
    _force_fallback(monkeypatch)
    calls = []
    monkeypatch.setattr(sys, "set_int_max_str_digits", calls.append, raising=False)
    wide = root_fractional_digits(5, 3, 1, 5000)
    assert calls == []
    # SHA-256 of the same window from the integer-Newton root this replaced.
    digest = hashlib.sha256((wide + ord("0")).tobytes()).hexdigest()
    assert digest == "be23146edf528f89c1aaf852046f6511adb310c2828c1c8dfbb8d3d4ece67d22"


_PRIMES_BELOW_1E5 = first_n_primes(9592)  # 99991 is the 9592nd prime


@st.composite
def _windows(draw):
    first = draw(st.integers(min_value=1, max_value=3000))
    return first, draw(st.integers(min_value=0, max_value=3001 - first))


@given(p=st.sampled_from(_PRIMES_BELOW_1E5), r=st.sampled_from((2, 3, 5, 7, 11)), window=_windows())
@example(p=23929, r=7, window=(1, 1796))
@settings(max_examples=60, deadline=None)
def test_decimal_fallback_matches_mpmath(p, r, window):
    mpmath = pytest.importorskip("mpmath")
    first, count = window
    depth = first + count - 1
    with mock.patch.object(roots_mod, "_floor_root", roots_mod._decimal_floor):
        got = root_fractional_digits(p, r, first, count)
    # The reference goes through exp(log(p) / r): mpmath.root loses up to
    # ~40 of its digits near 1840 dps (its seventh root of 23929 at that
    # precision is wrong in digit 1796), so its floor cannot be trusted.
    with mpmath.workdps(depth + 40):
        root = mpmath.mpf(p) ** (mpmath.mpf(1) / r)
        scaled = int(mpmath.floor(root * mpmath.mpf(10) ** depth))
    expect = str(scaled % 10**depth).rjust(depth, "0")[first - 1 : depth]
    assert "".join(map(str, got.tolist())) == expect


@pytest.mark.parametrize("depth", [0, 1, 50, 2000])
@pytest.mark.parametrize("r", [2, 3, 5, 7, 13, 101])
def test_decimal_floor_root_matches_sympy(floor_functions, sympy, r, depth):
    # Every floor-root function gives the floor root of the decimally scaled
    # radicand p * 10**(r*depth), and whether it is exact, as an independent
    # integer root does, perfect powers included.
    radicands = (2, 3, 99991) + {3: (8,), 5: (32,)}.get(r, ())
    for floor in floor_functions:
        for p in radicands:
            t, exact = floor(p, r, depth)
            assert (int(t), exact) == sympy.integer_nthroot(p * 10 ** (r * depth), r), floor.__name__


_NEWTON_FLOOR = roots_mod._newton_floor


def _offset_newton(monkeypatch, offset):
    """Move every decimal Newton result by offset units in its last place
    and mark it uncertified, as an estimate the certificate cannot prove."""

    def off(p, r, depth):
        t, _ = _NEWTON_FLOOR(p, r, depth)
        return decimal.Context(prec=t.adjusted() + 2).add(t, offset), False

    monkeypatch.setattr(roots_mod, "_newton_floor", off)


@pytest.mark.parametrize(
    "offset, p, r, count",
    [(1, 5, 3, 5000), (-1, 5, 3, 5000), (1000, 5, 3, 5000), (-1000, 5, 3, 5000), (None, 99991, 7, 20000)],
    ids=["near-miss-up", "near-miss-down", "far-miss-up", "far-miss-down", "no-error-bound"],
)
def test_uncertified_root_comes_from_the_integer_root(monkeypatch, offset, p, r, count):
    # A decimal estimate one unit or 1000 units off, or a last step that
    # gives no error bound (offset None), is never certified and never used:
    # the integer root answers, with the certified run's digits, in under 5 s.
    _force_fallback(monkeypatch)
    want = root_fractional_digits(p, r, 1, count)
    if offset is None:
        newton_root = roots_mod._newton_root
        monkeypatch.setattr(roots_mod, "_newton_root", lambda p, r, depth: (newton_root(p, r, depth)[0], None))
    else:
        _offset_newton(monkeypatch, offset)
    assert roots_mod._newton_floor(p, r, count)[1] is False
    start = time.perf_counter()
    assert np.array_equal(root_fractional_digits(p, r, 1, count), want)
    assert time.perf_counter() - start < 5


def test_certificate_is_sound():
    # Wherever the last Newton step certifies its floor, a 25-digit deeper
    # integer root agrees on T and puts the true value within err of v.
    rng = np.random.default_rng(20261019)
    primes = [int(p) for p in _PRIMES_BELOW_1E5]
    accepted = 0
    for _ in range(500):
        p, r, depth = int(rng.choice(primes)), int(rng.choice([2, 3, 5, 7, 11, 281])), int(rng.integers(0, 401))
        t, certified = roots_mod._newton_floor(p, r, depth)
        if not certified:
            continue
        accepted += 1
        v, err = roots_mod._newton_root(p, r, depth)
        scale = 10**25
        deep = int_nth_root(p * 10 ** (r * (depth + 25)), r)  # floor(V * scale)
        assert deep // scale == int(t), (p, r, depth)
        # V lies in [deep, deep + 1) / scale; it must meet [v - err, v + err].
        low, high = (Fraction(v) - Fraction(err)) * scale, (Fraction(v) + Fraction(err)) * scale
        assert low < deep + 1 and deep <= high, (p, r, depth)
    assert accepted > 450


def test_error_bound_covers_the_step_bound(monkeypatch):
    # err, taken from exponents, is at least the step's bound (2*d**2 + 4*u) * v,
    # u = 5*10**-top, computed exactly from the d, v and top it was given.
    rng = np.random.default_rng(20261021)
    primes = [int(p) for p in _PRIMES_BELOW_1E5]
    error_bound, seen = roots_mod._error_bound, []

    def recorded(d, v, top):
        err = error_bound(d, v, top)
        seen.append((d, v, top, err))
        return err

    monkeypatch.setattr(roots_mod, "_error_bound", recorded)
    for _ in range(500):
        p, r, depth = int(rng.choice(primes)), int(rng.choice([2, 3, 5, 7, 11, 281])), int(rng.integers(0, 401))
        roots_mod._newton_root(p, r, depth)
    bounded = [(d, v, top, err) for d, v, top, err in seen if err is not None]
    assert len(seen) == 500 and len(bounded) > 450
    for d, v, top, err in bounded:
        assert Fraction(err) >= (2 * Fraction(d) ** 2 + 4 * Fraction(5, 10**top)) * Fraction(v), (d, v, top)


def test_roots_ignore_the_callers_decimal_context(monkeypatch):
    # Under a 3-digit context that traps every signal, FloatOperation
    # included, roots and a fresh stream come out as under the default
    # context, and that context's flags stay clear.
    _force_fallback(monkeypatch)
    config = GeneratorConfig(n_pairs=6, rounds=4, precision_digits=300)
    windows = [(p, r, 51, 250) for p in (2, 5, 10007, 99991) for r in (2, 3, 5, 7)]
    want = [root_fractional_digits(*w) for w in windows]
    want_bits = StreamCache(config).prefix(4000)
    monkeypatch.setattr(generator_mod, "_shared", {})
    with decimal.localcontext() as ctx:
        ctx.prec = 3
        ctx.clear_flags()  # a copy of the current context, flags included
        for signal in ctx.traps:
            ctx.traps[signal] = True
        got = [root_fractional_digits(*w) for w in windows]
        got_bits = generate_bits(config, 4000)
        assert not any(ctx.flags.values())
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert np.array_equal(got_bits, want_bits)


@pytest.mark.parametrize("depth", [0, 3, 50])
@pytest.mark.parametrize("p, r", [(4, 2), (8, 3), (32, 5), (2**11, 11)])
def test_perfect_powers_are_never_certified(floor_functions, p, r, depth):
    assert roots_mod._newton_floor(p, r, depth)[1] is False
    for floor in floor_functions:
        t, exact = floor(p, r, depth)
        assert exact and int(t) == 2 * 10**depth, floor.__name__


def test_wide_perfect_power_root_is_not_rounded(floor_functions):
    # A 31-digit root scaled by 10**3: the default 28-digit context would round it.
    s = 10**30 + 7
    for floor in floor_functions:
        t, exact = floor(s**2, 2, 3)
        assert exact and int(t) == s * 10**3, floor.__name__


def test_default_floor_root_binding():
    # gmpy2's floor root wherever gmpy2 imports, else the decimal one.
    default = roots_mod._gmpy2_floor if roots_mod._HAVE_GMPY2 else roots_mod._decimal_floor
    assert roots_mod._floor_root is default


@pytest.mark.parametrize(
    "v, err, want",
    [("2.5", "1E-9", (2, True)), ("1.9999999995", "1E-9", (1, False)), ("2.0000000005", "1E-9", (2, False)),
     ("2.0000000000", "1E-9", (2, False)), ("7.25", None, (7, False))],
)
def test_certificate_needs_an_interval_free_of_integers(monkeypatch, v, err, want):
    # T is certified only when [v - err, v + err] lies strictly between T and T + 1.
    step = (decimal.Decimal(v), None if err is None else decimal.Decimal(err))
    monkeypatch.setattr(roots_mod, "_newton_root", lambda p, r, depth: step)
    t, certified = roots_mod._newton_floor(2, 2, 0)
    assert (int(t), certified) == want


def test_certificate_spares_the_exact_chain(monkeypatch):
    # 400 entries at 300 digits, a hundred each of r = 2, 3, 5 and 7: the
    # certificate decides every root, so none falls back to integer Newton.
    _force_fallback(monkeypatch)
    config = GeneratorConfig(n_pairs=100, rounds=4, precision_digits=300)
    newton, calls = roots_mod._newton_nth_root, []

    def counted(x, r):
        calls.append((x, r))
        return newton(x, r)

    monkeypatch.setattr(roots_mod, "_newton_nth_root", counted)
    counts = StreamCache(config).pair_counts(400 * config.window)
    assert counts.sum() == 400 * config.window
    # At 20k digits, one entry each at r = 2, 3, 5 and 7: rounds 1..4 start at entries 0, 4, 8, 12.
    deep = GeneratorConfig(n_pairs=4, rounds=4, precision_digits=20_000)
    entries = [next(_entries(deep, k, k + 1)) for k in (0, 4, 8, 12)]
    assert [e.root_degree for e in entries] == [2, 3, 5, 7]
    for e in entries:
        _entry_windows(deep, e)
    assert calls == []


def test_newton_plan_cache_is_bounded():
    # Roots at more distinct precisions than the plan cache holds leave it at its bound.
    plan = roots_mod._newton_plan
    plan.cache_clear()
    depths = range(1, plan.cache_info().maxsize + 17)
    for depth in depths:
        assert roots_mod._newton_floor(3, 2, depth)[1]
    info = plan.cache_info()
    assert info.misses == len(depths) and info.currsize == info.maxsize


def test_fallback_matches_gmpy2():
    pytest.importorskip("gmpy2")
    t, exact = roots_mod._decimal_floor(5, 3, 5000)
    assert roots_mod._gmpy2_floor(5, 3, 5000) == (int(t), exact)


def _stand_in_gmpy2(sympy):
    """A gmpy2 module with just what roots uses, its integer root from sympy."""
    gmpy2 = types.ModuleType("gmpy2")
    gmpy2.mpz, gmpy2.iroot = int, lambda x, n: sympy.integer_nthroot(int(x), n)
    return gmpy2


def _use_gmpy2(monkeypatch, gmpy2):
    """Bind gmpy2's floor root, on the given module."""
    monkeypatch.setattr(roots_mod, "gmpy2", gmpy2, raising=False)
    monkeypatch.setattr(roots_mod, "_floor_root", roots_mod._gmpy2_floor)


@pytest.fixture(params=["decimal", "integer", "gmpy2-stand-in"])
def backend(request, monkeypatch, sympy):
    """Run the test once on each floor-root function, gmpy2's on a stand-in."""
    if request.param == "gmpy2-stand-in":
        _use_gmpy2(monkeypatch, _stand_in_gmpy2(sympy))
    else:
        monkeypatch.setattr(roots_mod, "_floor_root", getattr(roots_mod, f"_{request.param}_floor"))
    return request.param


# Windows below the int-to-str cap of 4300 digits, which the stand-in's
# str() is subject to. 1000003 ** (1/3) = 100.0000999..., and
# 10007 ** (1/2) = 100.0349..., so their digits start with zeros.
@pytest.mark.parametrize(
    "p, r, first, count",
    [(1000003, 3, 1, 4000), (10007, 2, 1, 3000), (10007, 2, 2, 5), (5, 3, 51, 20), (99991, 7, 1000, 1500)],
)
def test_gmpy2_branch_matches_decimal(monkeypatch, sympy, p, r, first, count):
    depth = first + count - 1
    _force_fallback(monkeypatch)
    root, exact = roots_mod._decimal_floor(p, r, depth)
    want = root_fractional_digits(p, r, first, count)
    _use_gmpy2(monkeypatch, _stand_in_gmpy2(sympy))
    assert roots_mod._gmpy2_floor(p, r, depth) == (int(root), exact)
    assert np.array_equal(root_fractional_digits(p, r, first, count), want)


def test_int_nth_root_never_asks_gmpy2(monkeypatch):
    # The integer root is the backend-independent reference, so it must
    # not change with the backend, not even where gmpy2 imports.
    broken = types.ModuleType("gmpy2")

    def iroot(x, n):
        raise RuntimeError("int_nth_root asked gmpy2")

    broken.mpz, broken.iroot = int, iroot
    _use_gmpy2(monkeypatch, broken)
    with pytest.raises(RuntimeError):
        root_fractional_digits(2, 2, 1, 1)
    assert int_nth_root(2 * 10**20, 2) == 14142135623
    assert int_nth_root(7**3 - 1, 3) == 6


def test_fallback_matches_mpmath(monkeypatch):
    mpmath = pytest.importorskip("mpmath")
    _force_fallback(monkeypatch)
    wide = root_fractional_digits(5, 3, 1, 5000)
    with mpmath.workdps(5030):
        expect = int(mpmath.floor(mpmath.root(5, 3) * mpmath.mpf(10) ** 5000))
    assert _scaled_root(1, wide) == expect


def test_worked_digit_windows():
    assert root_fractional_digits(5, 3, 1, 3).tolist() == [7, 0, 9]
    assert root_fractional_digits(5, 3, 51, 3).tolist() == [4, 9, 2]
    assert root_fractional_digits(17, 3, 51, 3).tolist() == [6, 2, 5]
    got5 = "".join(map(str, root_fractional_digits(5, 3, 51, 20).tolist()))
    got17 = "".join(map(str, root_fractional_digits(17, 3, 51, 20).tolist()))
    assert got5 == CBRT5_51_70
    assert got17 == CBRT17_51_70


def test_sqrt2_digits():
    assert "".join(map(str, root_fractional_digits(2, 2, 1, 10).tolist())) == "4142135623"


def test_mpmath_cross_check():
    mpmath = pytest.importorskip("mpmath")
    for p, r, expect in ((5, 3, CBRT5_51_70), (17, 3, CBRT17_51_70)):
        with mpmath.workdps(150):
            frac = mpmath.nstr(mpmath.root(p, r), 120, strip_zeros=False).split(".")[1]
        assert frac[50:70] == expect
        assert frac[:20] == "".join(map(str, root_fractional_digits(p, r, 1, 20).tolist()))


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


@given(
    p=st.sampled_from(_SMALL_PRIMES),
    r=st.sampled_from((2, 3, 5)),
    first=st.integers(min_value=1, max_value=60),
    a=st.integers(min_value=0, max_value=40),
    b=st.integers(min_value=0, max_value=40),
)
@settings(max_examples=60)
def test_window_concatenation(p, r, first, a, b):
    whole = root_fractional_digits(p, r, first, a + b)
    left = root_fractional_digits(p, r, first, a)
    right = root_fractional_digits(p, r, first + a, b)
    assert np.array_equal(whole, np.concatenate([left, right]))


@given(
    p=st.sampled_from(_SMALL_PRIMES),
    r=st.sampled_from((2, 3, 5, 7)),
    first=st.integers(min_value=1, max_value=200),
    count=st.integers(min_value=1, max_value=50),
)
@settings(max_examples=60)
def test_digits_stay_in_range(p, r, first, count):
    digits = root_fractional_digits(p, r, first, count)
    assert digits.dtype == np.uint8 and digits.flags.writeable
    assert digits.size == count
    assert digits.max() <= 9


def test_perfect_powers_rejected(backend):
    for p, r in ((8, 3), (9, 2), (4, 2), (32, 5)):
        with pytest.raises(ValueError):
            root_fractional_digits(p, r, 1, 5)
    # prime radicands are never perfect powers
    assert root_fractional_digits(2, 2, 1, 1).tolist() == [4]


def test_fractional_digit_validation():
    with pytest.raises(ValueError):
        root_fractional_digits(1, 2, 1, 5)
    with pytest.raises(ValueError):
        root_fractional_digits(5, 1, 1, 5)
    with pytest.raises(ValueError):
        root_fractional_digits(5, 3, 0, 5)
    with pytest.raises(ValueError):
        root_fractional_digits(5, 3, 1, -1)
    assert root_fractional_digits(5, 3, 7, 0).size == 0


def test_empty_window_far_out(backend):
    # An empty window needs no digits, however far out it starts, but a
    # perfect power is still rejected.
    start = time.perf_counter()
    assert root_fractional_digits(5, 3, 10**9, 0).size == 0
    assert time.perf_counter() - start < 1
    with pytest.raises(ValueError):
        root_fractional_digits(4, 2, 10**9, 0)

