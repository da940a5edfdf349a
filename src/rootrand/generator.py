"""Deterministic bit generation from digit comparisons of prime roots.

Primes are paired across two consecutive-prime sets. Each round rotates
the second set and compares, digit by digit, a window of the fractional
expansions of the two roots of that round's degree. A greater digit on
the left emits 1, a smaller one emits 0, ties emit nothing. Bits from
all comparisons, in schedule order, form one reproducible stream per
configuration.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import islice

import numpy as np

from . import primes as _primes
from ._checks import bit_array, digit_array, int_arg
from .roots import root_fractional_digits

__all__ = [
    "ConfigError",
    "StreamExhausted",
    "GeneratorConfig",
    "ScheduleEntry",
    "StreamCache",
    "schedule",
    "compare_digits",
    "operator_O",
    "concat",
    "generate_bits",
    "pair_stream",
    "bits_to_decimal",
    "digits_stream",
]


class ConfigError(ValueError):
    """A generator configuration violates one of its invariants."""


class StreamExhausted(RuntimeError):
    """More output was requested than a fixed override schedule can supply."""


def _check_prime_tuple(name: str, values) -> tuple[int, ...]:
    out = tuple(int_arg(f"each {name} entry", v, error=ConfigError) for v in values)
    for v in out:
        if v > _primes.MAX_IS_PRIME:
            raise ConfigError(f"{name} entries must be at most {_primes.MAX_IS_PRIME}, got {v}")
        if not _primes.is_prime(v):
            raise ConfigError(f"{name} must contain only primes, got {v}")
    if len(set(out)) != len(out):
        raise ConfigError(f"{name} must not repeat primes")
    return out


@dataclass(frozen=True)
class GeneratorConfig:
    """Frozen description of one bit stream.

    The default values are the desk-scale working point: 200 prime pairs,
    4 rounds, a 20000-digit expansion per root with the first 50 digits
    skipped. c1, c2 and degrees override the canonical prime tables for
    experiments with hand-picked primes, each at most primes.MAX_IS_PRIME;
    such configs stop at their single block instead of advancing to fresh
    primes. A canonical config's first block must lie within the prime
    table's primes.MAX_RANK ranks.
    """

    n_pairs: int = 200
    rounds: int = 4
    precision_digits: int = 20_000
    skip_digits: int = 50
    block_index: int = 0
    c1: tuple[int, ...] | None = None
    c2: tuple[int, ...] | None = None
    degrees: tuple[int, ...] | None = None

    def __post_init__(self):
        int_arg("n_pairs", self.n_pairs, 1, error=ConfigError)
        int_arg("rounds", self.rounds, 1, self.n_pairs, error=ConfigError)
        int_arg("skip_digits", self.skip_digits, 40, 100, error=ConfigError)
        int_arg("precision_digits", self.precision_digits, self.skip_digits + 1, error=ConfigError)
        int_arg("block_index", self.block_index, 0, error=ConfigError)
        if (self.c1 is None) != (self.c2 is None):
            raise ConfigError("c1 and c2 must be given together")
        if self.c1 is not None:
            c1 = _check_prime_tuple("c1", self.c1)
            c2 = _check_prime_tuple("c2", self.c2)
            if len(c1) != self.n_pairs or len(c2) != self.n_pairs:
                raise ConfigError("c1 and c2 must each hold n_pairs primes")
            if set(c1) & set(c2):
                raise ConfigError("c1 and c2 must be disjoint")
            object.__setattr__(self, "c1", c1)
            object.__setattr__(self, "c2", c2)
        elif (ranks := 2 * self.n_pairs * (self.block_index + 1)) > _primes.MAX_RANK:
            raise ConfigError(f"block_index {self.block_index} at n_pairs {self.n_pairs} needs {ranks} prime "
                              f"ranks; the prime table holds at most MAX_RANK = {_primes.MAX_RANK}")
        if self.degrees is not None:
            degrees = _check_prime_tuple("degrees", self.degrees)
            if len(degrees) != self.rounds:
                raise ConfigError("degrees must hold one prime per round")
            object.__setattr__(self, "degrees", degrees)

    @property
    def window(self) -> int:
        """Digits compared per pair: positions skip+1 .. precision."""
        return self.precision_digits - self.skip_digits


@dataclass(frozen=True)
class ScheduleEntry:
    """One root-pair comparison: round j, pair slot i, and the primes involved."""

    round_index: int
    pair_index: int
    root_degree: int
    left: int
    right: int


def _entries(config: GeneratorConfig, start: int, stop: int):
    """Stream entries start..stop-1, each computed from its index.

    Blocks run on from config.block_index, each in (round, pair) order; c1/c2 overrides stop after one block."""
    n, per_block = config.n_pairs, config.rounds * config.n_pairs
    if config.c1 is not None:
        stop = min(stop, per_block)
    degrees = config.degrees or _primes.first_n_primes(config.rounds)
    c1, c2 = config.c1, config.c2
    for k in range(start, stop):
        b, slot = divmod(k, per_block)
        if config.c1 is None and (k == start or slot == 0):
            c1, c2 = _primes.prime_pair_sets(n, config.block_index + b)
        j, i = divmod(slot, n)
        # Round j + 1 pairs slot i + 1 with the element j + 1 places back in
        # c2, cyclically; j + 1 < n makes this a derangement of the pairing.
        yield ScheduleEntry(j + 1, i + 1, degrees[j], c1[i], c2[(i - 1 - j) % n])


def _entry_windows(config: GeneratorConfig, e: ScheduleEntry) -> tuple[np.ndarray, np.ndarray]:
    """The aligned digit windows of one schedule entry's two roots."""
    first, count = config.skip_digits + 1, config.window
    return (
        root_fractional_digits(e.left, e.root_degree, first, count),
        root_fractional_digits(e.right, e.root_degree, first, count),
    )


def schedule(config: GeneratorConfig) -> list[ScheduleEntry]:
    """The comparison schedule of the config's own block, in (round, pair) order."""
    return list(_entries(config, 0, config.rounds * config.n_pairs))


def compare_digits(a: int, b: int) -> int | None:
    """1 if a > b, 0 if a < b, None when the digits tie."""
    int_arg("a", a, 0, 9)
    int_arg("b", b, 0, 9)
    if a == b:
        return None
    return 1 if a > b else 0


def _compare(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # operator_O on windows already known to be aligned uint8 digits, of any
    # shape; the bits come in row-major order.
    return (a > b)[a != b].view(np.uint8)


def operator_O(left, right) -> np.ndarray:
    """Positionwise digit comparison of two aligned digit arrays.

    Both must be one dimensional, of equal length, and hold only the
    integers 0..9. Emits one bit per non-tied position, in order.
    """
    a, b = digit_array(left), digit_array(right)
    if a.size != b.size:
        raise ValueError("digit windows must have equal length")
    return _compare(a, b)


def concat(chunks) -> np.ndarray:
    """Concatenate bit sequences into one uint8 bit array."""
    parts = [bit_array(c) for c in chunks]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.uint8)


# Digit pairs per block of a wave, so no temporary grows with the wave; a
# block holds at least one entry.
_BLOCK_PAIRS = 1 << 16


def _wave_output(windows, window: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Bits and per-entry digit-pair counts (10 * left + right) from entries' windows in stream order.

    Each block of entries is compared in one vectorized pass, its rows in
    entry order, and counted in one bincount with each row in its own 100
    bins. No count can exceed the window, so its smallest type holds all 100.
    """
    rows = max(1, _BLOCK_PAIRS // window)
    bits, counts = [], []
    windows = iter(windows)
    while block := list(islice(windows, rows)):
        a, b = (np.concatenate(side).reshape(len(block), window) for side in zip(*block))
        bits.append(_compare(a, b))
        codes = a * 10 + b + np.arange(0, 100 * len(block), 100)[:, None]
        counts.append(np.bincount(codes.ravel(), minlength=100 * len(block)).reshape(-1, 100)
                      .astype(np.min_scalar_type(window)))
    return bits, counts


def _entries_for_bits(config: GeneratorConfig, n_bits: int) -> int:
    """Schedule entries expected to yield n_bits: ties run near 10 percent,
    so each compared digit pair gives 0.9 bits."""
    return math.ceil(n_bits / (0.9 * config.window))


def _bits_for_digits(count: int) -> int:
    """Stream bits expected to decode into count digits, with a margin: 10 of
    16 nibble values survive, so one digit costs 6.4 bits on average."""
    return math.ceil(count * 6.4) + 64


class StreamCache:
    """Materialized prefix of one configuration's bit stream and digit-pair counts.

    Each entry's roots are extracted once, for its bits and its pair counts.
    Grows on demand and never mutates written output, so any two requests
    see consistent prefixes. generate_bits and pair_frequency_table share one
    instance per config; independent instances recompute from scratch, which
    is what determinism checks want.
    """

    def __init__(self, config: GeneratorConfig):
        self.config = config
        self._bits = np.zeros(0, dtype=np.uint8)
        self._pairs = np.zeros((0, 100), dtype=np.min_scalar_type(config.window))
        self._lock = threading.RLock()

    def prefix(self, n_bits: int, workers: int = 1) -> np.ndarray:
        """The first n_bits of the stream as a read-only uint8 view."""
        int_arg("n_bits", n_bits, 0)
        int_arg("workers", workers, 1)
        with self._lock:
            while self._bits.size < n_bits:
                self._extend(_entries_for_bits(self.config, n_bits - self._bits.size), workers)
            return self._bits[:n_bits]

    def pair_counts(self, n_pairs: int, workers: int = 1) -> np.ndarray:
        """Read-only 10x10 int64 counts of the stream's first n_pairs compared digit pairs.

        Only the entry the cut falls in is extracted again.
        """
        whole, cut = divmod(int_arg("n_pairs", n_pairs, 0), self.config.window)
        int_arg("workers", workers, 1)
        with self._lock:
            while len(self._pairs) < whole + (cut > 0):
                self._extend(whole + (cut > 0) - len(self._pairs), workers)
            counts = self._pairs[:whole].sum(axis=0, dtype=np.int64)
        if cut:
            a, b = _entry_windows(self.config, next(_entries(self.config, whole, whole + 1)))
            counts += np.bincount(a[:cut] * 10 + b[:cut], minlength=100)
        counts = counts.reshape(10, 10)
        counts.setflags(write=False)
        return counts

    def _extend(self, n_entries: int, workers: int):
        entries = list(_entries(self.config, len(self._pairs), len(self._pairs) + min(1024, n_entries)))
        if not entries:
            raise StreamExhausted(
                f"override schedule exhausted after {len(self._pairs)} entries ({self._bits.size} bits); "
                "configs with explicit c1/c2 do not advance to new blocks"
            )
        windows = partial(_entry_windows, self.config)
        if workers > 1 and len(entries) > 1:
            with ProcessPoolExecutor(max_workers=min(workers, len(entries))) as pool:
                bits, counts = _wave_output(pool.map(windows, entries), self.config.window)
        else:
            bits, counts = _wave_output(map(windows, entries), self.config.window)
        self._bits = np.concatenate((self._bits, *bits))
        self._pairs = np.vstack((self._pairs, *counts))
        self._bits.setflags(write=False)


_shared: dict[GeneratorConfig, StreamCache] = {}
_shared_lock = threading.Lock()


def shared_stream(config: GeneratorConfig) -> StreamCache:
    """The process-wide cache for config; all library consumers reuse it."""
    with _shared_lock:
        cache = _shared.get(config)
        if cache is None:
            cache = _shared[config] = StreamCache(config)
        return cache


def generate_bits(config: GeneratorConfig, max_bits: int, workers: int = 1) -> np.ndarray:
    """First max_bits bits of the stream defined by config.

    Deterministic in (config, max_bits): reruns and longer runs agree on
    their common prefix. max_bits must be positive.
    """
    return shared_stream(config).prefix(int_arg("max_bits", max_bits, 1), workers)


def pair_stream(config: GeneratorConfig, max_pairs: int) -> np.ndarray:
    """First max_pairs compared digit pairs as an (n, 2) uint8 array, walked without the stream cache.

    Tied pairs are included; they occupy a schedule position even though
    they emit no bit.
    """
    n = int_arg("max_pairs", max_pairs, 0)
    entries = list(_entries(config, 0, -(-n // config.window)))
    if len(entries) * config.window < n:
        raise StreamExhausted(
            f"override schedule supplies only {len(entries) * config.window} digit pairs, {n} requested"
        )
    windows = [np.stack(_entry_windows(config, e), axis=1) for e in entries]
    return np.concatenate([np.zeros((0, 2), dtype=np.uint8)] + windows)[:n]


def _block_values(bits: np.ndarray, k: int) -> np.ndarray:
    """Values of the non-overlapping k-bit blocks of bits, most significant bit first.

    bits is a uint8 0/1 array and k is at most 8, so the values stay uint8
    and no wider copy of the bits is made. A trailing block shorter than k
    bits is dropped.
    """
    columns = bits[: bits.size // k * k].reshape(-1, k)
    out = columns[:, 0].copy()
    for i in range(1, k):
        out <<= 1
        out |= columns[:, i]
    return out


def bits_to_decimal(bits) -> np.ndarray:
    """Map a bit array to decimal digits via non-overlapping 4-bit groups.

    Groups are read most significant bit first; values 10..15 are
    discarded, as is any trailing group shorter than 4 bits.
    """
    values = _block_values(bit_array(bits), 4)
    return values[values <= 9].astype(np.uint8)


def digits_stream(config: GeneratorConfig, count: int, workers: int = 1):
    """First count decimal digits of the stream, with the bits consumed.

    Returns (digits, bits_consumed) where bits_consumed is the smallest
    multiple of 4 whose decoding yields count digits.
    """
    int_arg("count", count, 1)
    cache = shared_stream(config)
    est = _bits_for_digits(count)
    while True:
        try:
            bits = cache.prefix(est, workers)
        except StreamExhausted:
            # An override schedule has ended, but its bits may hold enough digits.
            bits, est = cache._bits, None
        values = _block_values(bits, 4)
        kept = np.flatnonzero(values <= 9)
        if kept.size >= count:
            return values[kept[:count]].astype(np.uint8), 4 * (int(kept[count - 1]) + 1)
        if est is None:
            raise StreamExhausted(f"override schedule decodes into {kept.size} digits, {count} requested")
        # Walk on by the expected shortfall only, to walk little beyond the bits decoded.
        est += _bits_for_digits(count - kept.size)
