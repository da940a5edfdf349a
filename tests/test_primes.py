import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootrand import first_n_primes, nth_prime, prime_pair_sets
from rootrand.primes import is_prime


def test_first_five():
    assert first_n_primes(5) == (2, 3, 5, 7, 11)
    assert first_n_primes(1) == (2,)


def test_known_ranks():
    assert nth_prime(1) == 2
    assert nth_prime(100) == 541
    assert nth_prime(10_000) == 104_729
    assert nth_prime(20_000) == 224_737


def test_sympy_cross_check():
    sympy = pytest.importorskip("sympy")
    table = first_n_primes(2000)
    assert table == tuple(sympy.primerange(2, table[-1] + 1))
    for k in (1, 7, 500, 1999):
        assert nth_prime(k) == sympy.prime(k)


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    wrong = [n for n in range(20_001) if is_prime(n) != sympy.isprime(n)]
    assert wrong == []


@given(n=st.integers(min_value=1, max_value=3000), k=st.integers(min_value=0, max_value=50))
@settings(max_examples=40)
def test_prefix_consistency(n, k):
    shorter = first_n_primes(n)
    longer = first_n_primes(n + k)
    assert longer[:n] == shorter
    assert len(shorter) == n
    assert all(a < b for a, b in zip(shorter, shorter[1:]))


def test_pair_sets_block0():
    assert prime_pair_sets(3, 0) == ((2, 3, 5), (7, 11, 13))


def test_pair_sets_block1():
    assert prime_pair_sets(3, 1) == ((17, 19, 23), (29, 31, 37))


def test_pair_sets_large():
    c1, c2 = prime_pair_sets(10_000, 0)
    assert c1[-1] == 104_729
    assert c2[-1] == 224_737


@given(n=st.integers(min_value=1, max_value=60), block=st.integers(min_value=0, max_value=5))
@settings(max_examples=40)
def test_pair_set_properties(n, block):
    c1, c2 = prime_pair_sets(n, block)
    assert len(c1) == len(c2) == n
    assert max(c1) < min(c2)
    assert not set(c1) & set(c2)
    # the two sets are exactly the prime ranks 2bn+1 .. 2bn+2n
    table = first_n_primes(2 * n * (block + 1))
    assert c1 + c2 == table[2 * n * block :]


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
