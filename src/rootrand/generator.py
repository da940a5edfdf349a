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
from itertools import islice

import numpy as np

from . import primes as _primes
from ._checks import bit_array, digit_array, int_arg
from .roots import DigitBlock, root_fractional_digits

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
    out = tuple(int(v) for v in values)
    for v in out:
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
    experiments with hand-picked primes; such configs stop at their single
    block instead of advancing to fresh primes.
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


def _round_degree(config: GeneratorConfig, j: int) -> int:
    if config.degrees is not None:
        return config.degrees[j - 1]
    return _primes.nth_prime(j)


def _block_entries(config: GeneratorConfig, block: int):
    if config.c1 is not None:
        c1, c2 = config.c1, config.c2
    else:
        sets = _primes.prime_pair_sets(config.n_pairs, block)
        c1, c2 = sets.c1, sets.c2
    n = config.n_pairs
    for j in range(1, config.rounds + 1):
        degree = _round_degree(config, j)
        for i in range(1, n + 1):
            # Round j pairs slot i with the element j places back in c2,
            # cyclically; j < n makes this a derangement of the pairing.
            yield ScheduleEntry(j, i, degree, c1[i - 1], c2[(i - 1 - j) % n])


def _schedule_tasks(config: GeneratorConfig):
    """(left, right, degree, first, count) for every schedule entry, in stream order.

    Plain-int tuples, so worker processes receive them cheaply. Configs
    with c1/c2 overrides stop after their one block.
    """
    first, count = config.skip_digits + 1, config.window
    block = config.block_index
    while True:
        for e in _block_entries(config, block):
            yield e.left, e.right, e.root_degree, first, count
        if config.c1 is not None:
            return
        block += 1


def _entry_windows(task) -> tuple[np.ndarray, np.ndarray]:
    """The aligned digit windows of one schedule entry's two roots."""
    left, right, degree, first, count = task
    return (
        root_fractional_digits(left, degree, first, count),
        root_fractional_digits(right, degree, first, count),
    )


def _pair_windows(config: GeneratorConfig, max_pairs: int):
    """Digit-window pairs of config's schedule in stream order, cut to max_pairs digit pairs in all."""
    windows = map(_entry_windows, _schedule_tasks(config))
    total = 0
    while total < max_pairs:
        a, b = next(windows, (None, None))
        if a is None:
            raise StreamExhausted(
                f"override schedule supplies only {total} digit pairs, {max_pairs} requested"
            )
        take = min(a.size, max_pairs - total)
        yield a[:take], b[:take]
        total += take


def schedule(config: GeneratorConfig) -> list[ScheduleEntry]:
    """The comparison schedule of the config's own block, in (round, pair) order."""
    return list(_block_entries(config, config.block_index))


def compare_digits(a: int, b: int) -> int | None:
    """1 if a > b, 0 if a < b, None when the digits tie."""
    int_arg("a", a, 0, 9)
    int_arg("b", b, 0, 9)
    if a == b:
        return None
    return 1 if a > b else 0


def operator_O(left, right) -> np.ndarray:
    """Positionwise digit comparison of two aligned windows.

    Emits one bit per non-tied position, in order. Accepts DigitBlocks
    (offsets must agree) or plain digit arrays.
    """
    if isinstance(left, DigitBlock) and isinstance(right, DigitBlock):
        if left.offset != right.offset:
            raise ValueError("digit windows must start at the same offset")
    a, b = (digit_array(w.digits if isinstance(w, DigitBlock) else w) for w in (left, right))
    if a.size != b.size:
        raise ValueError("digit windows must have equal length")
    ne = a != b
    return (a[ne] > b[ne]).astype(np.uint8)


def concat(chunks) -> np.ndarray:
    """Concatenate bit sequences into one uint8 bit array."""
    parts = [np.asarray(c, dtype=np.uint8).ravel() for c in chunks]
    return bit_array(np.concatenate(parts) if parts else [])


def _entry_bits_packed(task):
    # Packed bytes cross the process boundary 8x smaller.
    bits = operator_O(*_entry_windows(task))
    return np.packbits(bits).tobytes(), int(bits.size)


class StreamCache:
    """Materialized prefix of one configuration's bit stream.

    Grows on demand and never mutates written bits, so any two requests
    see consistent prefixes. generate_bits keeps one shared instance per
    config; independent instances recompute from scratch, which is what
    determinism checks want.
    """

    def __init__(self, config: GeneratorConfig):
        self.config = config
        self._tasks = _schedule_tasks(config)
        self._chunks: list[np.ndarray] = []
        self._buf = np.zeros(0, dtype=np.uint8)
        self._total = 0
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return self._total

    def prefix(self, n_bits: int, workers: int = 1) -> np.ndarray:
        """The first n_bits of the stream as a read-only uint8 view."""
        int_arg("n_bits", n_bits, 0)
        int_arg("workers", workers, 1)
        with self._lock:
            while self._total < n_bits:
                self._extend(n_bits - self._total, workers)
            if self._chunks:
                self._buf = np.concatenate([self._buf] + self._chunks)
                self._buf.setflags(write=False)
                self._chunks.clear()
            return self._buf[:n_bits]

    def _extend(self, deficit: int, workers: int):
        # Ties run near 10 percent, so 0.88 bits per compared digit
        # slightly overshoots and one wave usually suffices.
        est = math.ceil(deficit / (0.88 * self.config.window))
        tasks = list(islice(self._tasks, max(1, min(1024, est))))
        if not tasks:
            raise StreamExhausted(
                f"override schedule exhausted after {self._total} bits; "
                "configs with explicit c1/c2 do not advance to new blocks"
            )
        if workers > 1 and len(tasks) > 1:
            with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
                chunk = max(1, len(tasks) // (workers * 4))
                for blob, nbits in pool.map(_entry_bits_packed, tasks, chunksize=chunk):
                    bits = np.unpackbits(np.frombuffer(blob, dtype=np.uint8), count=nbits)
                    self._chunks.append(bits)
                    self._total += nbits
        else:
            for task in tasks:
                bits = operator_O(*_entry_windows(task))
                self._chunks.append(bits)
                self._total += bits.size


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
    """First max_pairs compared digit pairs as an (n, 2) uint8 array.

    Tied pairs are included; they occupy a schedule position even though
    they emit no bit.
    """
    pairs = _pair_windows(config, int_arg("max_pairs", max_pairs, 0))
    return np.concatenate([np.zeros((0, 2), dtype=np.uint8)] + [np.stack(w, axis=1) for w in pairs])


_NIBBLE_WEIGHTS = np.array([8, 4, 2, 1], dtype=np.int64)


def _nibble_values(bits: np.ndarray) -> np.ndarray:
    groups = bits.size // 4
    return bits[: groups * 4].reshape(groups, 4) @ _NIBBLE_WEIGHTS


def bits_to_decimal(bits) -> np.ndarray:
    """Map a bit array to decimal digits via non-overlapping 4-bit groups.

    Groups are read most significant bit first; values 10..15 are
    discarded, as is any trailing group shorter than 4 bits.
    """
    values = _nibble_values(bit_array(bits))
    return values[values <= 9].astype(np.uint8)


def digits_stream(config: GeneratorConfig, count: int, workers: int = 1):
    """First count decimal digits of the stream, with the bits consumed.

    Returns (digits, bits_consumed) where bits_consumed is the smallest
    multiple of 4 whose decoding yields count digits.
    """
    int_arg("count", count, 1)
    cache = shared_stream(config)
    # 10 of 16 nibble values survive, so one digit costs 6.4 bits on average.
    est = max(64, math.ceil(count * 6.4) + 64)
    while True:
        est -= est % 4
        values = _nibble_values(cache.prefix(est, workers))
        kept = np.flatnonzero(values <= 9)
        if kept.size >= count:
            return values[kept[:count]].astype(np.uint8), 4 * (int(kept[count - 1]) + 1)
        est = math.ceil(est * 1.8)
