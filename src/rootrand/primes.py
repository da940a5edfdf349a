"""Prime tables and the paired prime sets that drive the generator.

Primes come from an Eratosthenes sieve sized with the
Rosser-Schoenfeld bound, so asking for the first n primes never
over- or under-shoots by more than one sieve pass.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from ._checks import int_arg

__all__ = ["first_n_primes", "prime_pair_sets", "nth_prime", "is_prime"]

_table = np.zeros(0, dtype=np.int64)
_table_lock = threading.Lock()


def _upper_bound(n: int) -> int:
    # p_n < n (ln n + ln ln n) for n >= 6; _ensure_table never asks for fewer than 64.
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


def first_n_primes(n: int) -> tuple[int, ...]:
    """The first n primes in increasing order."""
    return tuple(_ensure_table(int_arg("n", n, 1))[:n].tolist())


def nth_prime(k: int) -> int:
    """The k-th prime, 1-based: nth_prime(1) == 2."""
    return int(_ensure_table(int_arg("k", k, 1))[k - 1])


def is_prime(n: int) -> bool:
    """Whether n is prime, by division by the sieved primes up to isqrt(n)."""
    if n < 2:
        return False
    return all(n % p for p in _flat_sieve(math.isqrt(n) + 1).tolist())


def prime_pair_sets(n_pairs: int, block_index: int = 0) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(c1, c2) for one block: two disjoint runs of n_pairs consecutive primes.

    c1 holds the primes of ranks base+1..base+n and c2 those of ranks
    base+n+1..base+2n, where base is 2 * block_index * n_pairs, so
    successive blocks use fresh, strictly larger primes and never overlap.
    """
    base = 2 * int_arg("n_pairs", n_pairs, 1) * int_arg("block_index", block_index, 0)
    run = _ensure_table(base + 2 * n_pairs)[base : base + 2 * n_pairs].tolist()
    return tuple(run[:n_pairs]), tuple(run[n_pairs:])
