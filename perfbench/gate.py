"""Correctness gate of the benchmark, run outside the timed region.

Checks, each counted as one operation toward ``fail_share``:

- every run's deterministic output files against the digest pinned for its
  workload and prime block (perfbench/pinned.json);
- the 64-bit desk anchor through ``generate_bits(GeneratorConfig(), 64)``;
- one schedule entry sampled from the seed: both roots are recomputed with
  the public ``int_nth_root``, bracketed exactly (``T**r <= x < (T+1)**r``)
  and compared with mpmath, and the entry's bits, derived from those digits,
  must occur in the run's output stream, cut off where the stream ends.

Import this module only after ``gmpy2`` is blocked and ``src`` is on the path.
"""

from __future__ import annotations

import math
import random
import sys

import mpmath
import numpy as np

from rootrand import GeneratorConfig, generate_bits, int_nth_root, schedule
from spec import SKIP, generator_config

# First 64 bits of the default stream; the regression anchor of tests/test_generator.py.
DESK_FIRST_64 = "0101111110111000110001111100110001110100100000001000100110010100"

# Stream bits that locate a sampled entry in the output.
HEAD_BITS = 128

# The digit windows below are up to 100000 digits long.
sys.set_int_max_str_digits(0)


class Tally:
    """Attempted and failed operations, with a line per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def check_digest(tally: Tally, pins: dict, scale: str, name: str, block: int, digest: str, label: str):
    pinned = pins.get(scale, {}).get(name, [])
    expected = pinned[block] if block < len(pinned) else None
    tally.check(f"{label} output digest", digest == expected,
                f"sha256 {digest[:16]}, pinned {expected[:16] if expected else 'none'} ({name}, block {block})")


def check_anchor(tally: Tally):
    got = "".join(map(str, generate_bits(GeneratorConfig(), 64).tolist()))
    tally.check("desk anchor", got == DESK_FIRST_64, f"first 64 bits {got}")


def _sampled_entry(w: dict, block: int, seed: int):
    """An entry of the first block whose bits start inside the output."""
    entries = schedule(generator_config(w, block))
    window = w["precision"] - SKIP
    if w["command"] == "gen-bits":
        # About 0.9 bits per digit, so entry k starts near 0.9 * k * window. Only
        # entries expected to start HEAD_BITS or more before the end are drawn.
        span = max(1, min(len(entries), math.ceil((w["bits"] - HEAD_BITS) / (0.9 * window))))
    else:
        span = len(entries)
    k = random.Random(seed).randrange(span)
    return k, entries[k]


def check_entry(tally: Tally, w: dict, block: int, seed: int, stream: np.ndarray | None):
    """Cross-check one sampled entry against mpmath and against the output bits.

    stream is the output bit array of a gen-bits run; for a test run it is
    None and the stream prefix is taken from generate_bits.
    """
    k, entry = _sampled_entry(w, block, seed)
    r, digits_total = entry.root_degree, w["precision"]
    mpmath.mp.dps = digits_total + 30
    windows = []
    for p in (entry.left, entry.right):
        x = p * 10 ** (r * digits_total)
        t = int_nth_root(x, r)
        where = f"entry {k}: p={p}, r={r}, {digits_total} digits"
        tally.check("root bracket", t ** r <= x < (t + 1) ** r, where)
        reference = int(mpmath.floor(mpmath.root(p, r) * mpmath.mpf(10) ** digits_total))
        tally.check("mpmath digits", reference == t, where)
        frac = str(t % 10 ** digits_total).zfill(digits_total)[SKIP:]
        windows.append(np.frombuffer(frac.encode("ascii"), dtype=np.uint8) - ord("0"))
    a, b = windows
    differ = a != b
    bits = (a[differ] > b[differ]).astype(np.uint8)
    if stream is None:
        stream = generate_bits(generator_config(w, block), (k + 2) * a.size)
    # The entry's first bits locate it; from there on the stream must hold its
    # bits, up to the stream's end if the entry is the last one used.
    at = stream.tobytes().find(bits[:HEAD_BITS].tobytes())
    n = min(bits.size, stream.size - at)
    found = at >= 0 and bool((stream[at:at + n] == bits[:n]).all())
    tally.check("entry bits in output", found, f"entry {k} ({bits.size} bits, r={r}, at {at})")
