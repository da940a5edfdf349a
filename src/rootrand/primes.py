"""Prime tables and the paired prime sets that drive the generator.

Primes come from an Eratosthenes sieve sized with the
Rosser-Schoenfeld bound, so asking for the first n primes never
over- or under-shoots by more than one sieve pass.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from ._checks import int_arg

__all__ = ["PrimeTable", "PrimePairSets", "first_n_primes", "prime_pair_sets", "nth_prime", "is_prime"]

_table = np.zeros(0, dtype=np.int64)
_table_lock = threading.Lock()


def _upper_bound(n: int) -> int:
    # p_n < n (ln n + ln ln n) for n >= 6; small cases are padded manually.
    if n < 6:
        return 15
    ln = math.log(n)
    return int(n * (ln + math.log(ln))) + 8


def _flat_sieve(limit: int) -> np.ndarray:
    """All primes strictly below limit, by a plain sieve."""
    if limit <= 2:
        return np.zeros(0, dtype=np.int64)
    mask = np.ones(limit, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit - 1) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def _ensure_table(n: int) -> np.ndarray:
    global _table
    with _table_lock:
        while _table.size < n:
            _table = _flat_sieve(_upper_bound(max(n, 2 * _table.size, 64)))
        return _table


@dataclass(frozen=True)
class PrimeTable:
    """The first len(primes) primes in increasing order."""

    primes: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.primes)

    def __getitem__(self, k):
        return self.primes[k]

    def nth(self, k: int) -> int:
        """1-based lookup: nth(1) == 2."""
        if k < 1 or k > len(self.primes):
            raise IndexError(f"rank {k} outside table of {len(self.primes)} primes")
        return self.primes[k - 1]


@dataclass(frozen=True)
class PrimePairSets:
    """Two disjoint runs of consecutive primes, ranks 2bn+1..2bn+n and on to 2bn+2n."""

    c1: tuple[int, ...]
    c2: tuple[int, ...]
    n_pairs: int
    block_index: int


def first_n_primes(n: int) -> PrimeTable:
    """The first n primes as a PrimeTable."""
    table = _ensure_table(int_arg("n", n, 1))
    return PrimeTable(tuple(int(p) for p in table[:n]))


def nth_prime(k: int) -> int:
    """The k-th prime, 1-based: nth_prime(1) == 2."""
    return int(_ensure_table(int_arg("k", k, 1))[k - 1])


def is_prime(n: int) -> bool:
    """Whether n is prime, by division by the sieved primes up to isqrt(n)."""
    if n < 2:
        return False
    return all(n % p for p in _flat_sieve(math.isqrt(n) + 1).tolist())


def prime_pair_sets(n_pairs: int, block_index: int = 0) -> PrimePairSets:
    """Consecutive prime runs for one block: ranks base+1..base+n and base+n+1..base+2n.

    base is 2 * block_index * n_pairs, so successive blocks use fresh,
    strictly larger primes and never overlap.
    """
    base = 2 * int_arg("n_pairs", n_pairs, 1) * int_arg("block_index", block_index, 0)
    table = _ensure_table(base + 2 * n_pairs)
    c1 = tuple(int(p) for p in table[base : base + n_pairs])
    c2 = tuple(int(p) for p in table[base + n_pairs : base + 2 * n_pairs])
    return PrimePairSets(c1=c1, c2=c2, n_pairs=n_pairs, block_index=block_index)
