import decimal
import functools
import hashlib
import sys
import time
from collections import OrderedDict
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rootrand.roots as roots_mod
from rootrand import DigitBlock, first_n_primes, int_nth_root, root_fractional_digits
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
    # x < 2**r with more than 52 bits: the root is 1, and the seeding
    # recursion used to shift by zero bits forever.
    assert _newton_nth_root(2**60, 61) == 1
    assert _newton_nth_root(2**61 - 1, 61) == 1
    assert _newton_nth_root(2**61, 61) == 2


@given(x=st.integers(min_value=0, max_value=10**60), r=st.integers(min_value=1, max_value=11))
def test_floor_root_bracket(x, r):
    t = int_nth_root(x, r)
    assert t**r <= x < (t + 1) ** r


@given(x=st.integers(min_value=0, max_value=10**40), r=st.integers(min_value=2, max_value=7))
def test_newton_matches_primary(x, r):
    assert _newton_nth_root(x, r) == int_nth_root(x, r)


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
    monkeypatch.setattr(roots_mod, "_HAVE_GMPY2", False)
    monkeypatch.setattr(roots_mod, "_digit_cache", type(roots_mod._digit_cache)())


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
    # The cap was lifted for the one conversion only.
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


_PRIMES_BELOW_1E5 = first_n_primes(9592).primes  # 99991 is the 9592nd prime


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
    with mock.patch.object(roots_mod, "_HAVE_GMPY2", False), \
            mock.patch.object(roots_mod, "_digit_cache", OrderedDict()):
        got = root_fractional_digits(p, r, first, count)
    # The reference goes through exp(log(p) / r): mpmath.root loses up to
    # ~40 of its digits near 1840 dps (its seventh root of 23929 at that
    # precision is wrong in digit 1796), so its floor cannot be trusted.
    with mpmath.workdps(depth + 40):
        root = mpmath.mpf(p) ** (mpmath.mpf(1) / r)
        scaled = int(mpmath.floor(root * mpmath.mpf(10) ** depth))
    expect = str(scaled % 10**depth).rjust(depth, "0")[first - 1 : depth]
    assert "".join(map(str, got.tolist())) == expect


_NEWTON_FLOOR = roots_mod._newton_floor


def _offset_newton(monkeypatch, offset):
    """Move every decimal Newton result by offset units in its last place."""

    def off(p, r, depth):
        t = _NEWTON_FLOOR(p, r, depth)
        return decimal.Context(prec=t.adjusted() + 2).add(t, offset)

    monkeypatch.setattr(roots_mod, "_newton_floor", off)
    monkeypatch.setattr(roots_mod, "_digit_cache", type(roots_mod._digit_cache)())


def test_bracket_repairs_a_near_miss(monkeypatch):
    _force_fallback(monkeypatch)
    want = root_fractional_digits(5, 3, 1, 5000)
    for offset in (1, -1):
        _offset_newton(monkeypatch, offset)
        assert np.array_equal(root_fractional_digits(5, 3, 1, 5000), want)


def test_bracket_rejects_a_far_miss(monkeypatch):
    _force_fallback(monkeypatch)
    for offset in (1000, -1000):
        _offset_newton(monkeypatch, offset)
        start = time.perf_counter()
        with pytest.raises(ArithmeticError, match="off by more than"):
            root_fractional_digits(5, 3, 1, 5000)
        assert time.perf_counter() - start < 5


def test_fallback_matches_gmpy2(monkeypatch):
    pytest.importorskip("gmpy2")
    _force_fallback(monkeypatch)
    wide = root_fractional_digits(5, 3, 1, 5000)
    monkeypatch.setattr(roots_mod, "_HAVE_GMPY2", True)
    monkeypatch.setattr(roots_mod, "_digit_cache", type(roots_mod._digit_cache)())
    assert np.array_equal(wide, root_fractional_digits(5, 3, 1, 5000))


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
    assert digits.dtype == np.uint8
    assert digits.size == count
    assert digits.max() <= 9


def test_perfect_powers_rejected():
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


def test_digit_block():
    block = DigitBlock.from_root(5, 3, 51, 3)
    assert len(block) == 3
    assert block.offset == 51
    assert block.digits.tolist() == [4, 9, 2]
    with pytest.raises(ValueError):
        DigitBlock(np.array([1, 2, 3], dtype=np.uint8), offset=0)
    with pytest.raises(ValueError):
        DigitBlock(np.array([4, 12], dtype=np.uint8), offset=1)
    with pytest.raises(ValueError):
        DigitBlock(np.zeros((2, 2), dtype=np.uint8), offset=1)
