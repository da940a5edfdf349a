"""Prime tables and the paired prime sets that drive the generator.

One Eratosthenes sieve, sized with the Rosser-Schoenfeld bound, fills one
shared table of at most MAX_RANK primes. Ranks and pair sets read it, and
is_prime divides by it.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from ._checks import int_arg

__all__ = ["first_n_primes", "prime_pair_sets", "nth_prime", "is_prime"]

# The table's bound, above the 5,761,455 primes below 10**8; its sieve is a 110 MB mask.
MAX_RANK = 6_000_000
# is_prime's bound: isqrt(n) needs the primes below 10**6, and n % table stays in int64.
MAX_IS_PRIME = 10**12

_table = np.zeros(0, dtype=np.int64)
_table_lock = threading.Lock()


def _upper_bound(n: int) -> int:
    # p_n < n (ln n + ln ln n) for n >= 6; _ensure_table never asks for fewer than 64.
    ln = math.log(n)
    return int(n * (ln + math.log(ln))) + 8


def _ensure_table(n: int) -> np.ndarray:
    """The shared table once it holds at least the first n primes, by a plain sieve."""
    global _table
    if n > MAX_RANK:
        raise ValueError(f"{n} primes asked for; the prime table holds at most MAX_RANK = {MAX_RANK}")
    with _table_lock:
        while _table.size < n:
            limit = _upper_bound(min(max(n, 2 * _table.size, 64), MAX_RANK))
            mask = np.ones(limit, dtype=bool)
            mask[:2] = False
            for p in range(2, math.isqrt(limit - 1) + 1):
                if mask[p]:
                    mask[p * p :: p] = False
            _table = np.flatnonzero(mask).astype(np.int64, copy=False)
        return _table


def first_n_primes(n: int) -> tuple[int, ...]:
    """The first n primes in increasing order, n at most MAX_RANK."""
    return tuple(_ensure_table(int_arg("n", n, 1))[:n].tolist())


def nth_prime(k: int) -> int:
    """The k-th prime, 1-based: nth_prime(1) == 2; k at most MAX_RANK."""
    return int(_ensure_table(int_arg("k", k, 1))[k - 1])


def is_prime(n: int) -> bool:
    """Whether n, in 0..MAX_IS_PRIME, is prime, by division by the table's primes up to isqrt(n)."""
    root = math.isqrt(int_arg("n", n, 0, MAX_IS_PRIME))
    table = _ensure_table(1)
    while table[-1] < root:
        table = _ensure_table(table.size + 1)
    return n >= 2 and bool(np.all(n % table[: np.searchsorted(table, root, side="right")]))


def prime_pair_sets(n_pairs: int, block_index: int = 0) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(c1, c2) for one block: two disjoint runs of n_pairs consecutive primes.

    c1 holds the primes of ranks base+1..base+n and c2 those of ranks
    base+n+1..base+2n, where base is 2 * block_index * n_pairs, so
    successive blocks use fresh, strictly larger primes and never overlap.
    The last rank, 2 * n_pairs * (block_index + 1), is at most MAX_RANK.
    """
    base = 2 * int_arg("n_pairs", n_pairs, 1) * int_arg("block_index", block_index, 0)
    run = _ensure_table(base + 2 * n_pairs)[base : base + 2 * n_pairs].tolist()
    return tuple(run[:n_pairs]), tuple(run[n_pairs:])
