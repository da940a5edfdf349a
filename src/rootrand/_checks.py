"""Argument checks shared by every module."""

from __future__ import annotations

import numpy as np


def int_arg(name: str, value, low: int | None = None, high: int | None = None, error=ValueError) -> int:
    """value if it is an int (not a bool) in low..high, else error naming name and its bounds."""
    ok = isinstance(value, int) and not isinstance(value, bool)
    if ok and low is not None:
        ok = low <= value and (high is None or value <= high)
    if not ok:
        bound = "" if low is None else f" of at least {low}" if high is None else f" in {low}..{high}"
        raise error(f"{name} must be an int{bound}")
    return value


def bit_array(bits) -> np.ndarray:
    """bits as a flat uint8 array, which may only hold 0 and 1."""
    arr = np.asarray(bits, dtype=np.uint8).ravel()
    if arr.size and arr.max() > 1:
        raise ValueError("bits may only contain 0 and 1")
    return arr


def digit_array(digits) -> np.ndarray:
    """digits as a one dimensional uint8 array, which may only hold 0..9."""
    arr = np.asarray(digits, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError("digits must be one dimensional")
    if arr.size and arr.max() > 9:
        raise ValueError("digits must lie in 0..9")
    return arr
