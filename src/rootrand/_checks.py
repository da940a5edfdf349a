"""Argument checks shared by every module."""

from __future__ import annotations

import numpy as np


def int_arg(name: str, value, low: int | None = None, high: int | None = None, error=ValueError) -> int:
    """value if it is an int (not a bool) in low..high, else error naming name and its bounds."""
    # An exact int, the common case, skips the subclass checks.
    ok = type(value) is int or isinstance(value, int) and not isinstance(value, bool)
    if ok and low is not None:
        ok = low <= value and (high is None or value <= high)
    if not ok:
        bound = "" if low is None else f" of at least {low}" if high is None else f" in {low}..{high}"
        raise error(f"{name} must be an int{bound}")
    return value


def _small_ints(values, high: int, message: str) -> np.ndarray:
    """values as uint8 if they are bools or ints in 0..high, checked before the cast."""
    arr = np.asarray(values)
    if arr.size and (arr.dtype.kind not in "biu" or arr.min() < 0 or arr.max() > high):
        raise ValueError(message)
    return arr.astype(np.uint8, copy=False)


def bit_array(bits) -> np.ndarray:
    """bits as a flat uint8 array, which may only hold the integers 0 and 1."""
    return _small_ints(bits, 1, "bits may only contain the integers 0 and 1").ravel()


def digit_array(digits) -> np.ndarray:
    """digits as a one dimensional uint8 array, which may only hold the integers 0..9."""
    arr = np.asarray(digits)
    if arr.ndim != 1:
        raise ValueError("digits must be one dimensional")
    return _small_ints(arr, 9, "digits must be integers in 0..9")
