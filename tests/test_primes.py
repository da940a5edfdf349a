import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootrand import first_n_primes, nth_prime, prime_pair_sets
from rootrand.primes import is_prime


def test_first_five():
    assert first_n_primes(5).primes == (2, 3, 5, 7, 11)
    assert first_n_primes(1).primes == (2,)


def test_known_ranks():
    assert nth_prime(1) == 2
    assert nth_prime(100) == 541
    assert nth_prime(10_000) == 104_729
    assert nth_prime(20_000) == 224_737


def test_sympy_cross_check():
    sympy = pytest.importorskip("sympy")
    table = first_n_primes(2000)
    assert table.primes == tuple(sympy.primerange(2, table.primes[-1] + 1))
    for k in (1, 7, 500, 1999):
        assert table.nth(k) == sympy.prime(k)


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    wrong = [n for n in range(20_001) if is_prime(n) != sympy.isprime(n)]
    assert wrong == []


def test_prime_table_access():
    table = first_n_primes(10)
    assert len(table) == 10
    assert table[0] == 2
    assert table[-1] == 29
    assert table.nth(10) == 29
    with pytest.raises(IndexError):
        table.nth(0)
    with pytest.raises(IndexError):
        table.nth(11)


@given(n=st.integers(min_value=1, max_value=3000), k=st.integers(min_value=0, max_value=50))
@settings(max_examples=40)
def test_prefix_consistency(n, k):
    shorter = first_n_primes(n).primes
    longer = first_n_primes(n + k).primes
    assert longer[:n] == shorter
    assert len(shorter) == n
    assert all(a < b for a, b in zip(shorter, shorter[1:]))


def test_pair_sets_block0():
    sets = prime_pair_sets(3, 0)
    assert sets.c1 == (2, 3, 5)
    assert sets.c2 == (7, 11, 13)


def test_pair_sets_block1():
    sets = prime_pair_sets(3, 1)
    assert sets.c1 == (17, 19, 23)
    assert sets.c2 == (29, 31, 37)


def test_pair_sets_large():
    sets = prime_pair_sets(10_000, 0)
    assert sets.c1[-1] == 104_729
    assert sets.c2[-1] == 224_737


@given(n=st.integers(min_value=1, max_value=60), block=st.integers(min_value=0, max_value=5))
@settings(max_examples=40)
def test_pair_set_properties(n, block):
    sets = prime_pair_sets(n, block)
    assert len(sets.c1) == len(sets.c2) == n
    assert max(sets.c1) < min(sets.c2)
    assert not set(sets.c1) & set(sets.c2)
    # the two sets are exactly the prime ranks 2bn+1 .. 2bn+2n
    table = first_n_primes(2 * n * (block + 1)).primes
    assert sets.c1 + sets.c2 == table[2 * n * block :]


def test_prime_validation():
    with pytest.raises(ValueError):
        first_n_primes(0)
    with pytest.raises(ValueError):
        nth_prime(0)
    with pytest.raises(ValueError):
        prime_pair_sets(0, 0)
    with pytest.raises(ValueError):
        prime_pair_sets(3, -1)
    with pytest.raises(ValueError):
        first_n_primes(True)
