import math
import random

import pytest

from dftbin.numtheory import bin_order, divisors, factorize, mobius, totient


@pytest.mark.parametrize("n,expected", [
    (1, ()),
    (12, ((2, 2), (3, 1))),
    (105, ((3, 1), (5, 1), (7, 1))),
    (83, ((83, 1),)),
])
def test_factorize_examples(n, expected):
    assert factorize(n) == expected


def test_factorize_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 100000)
        factors = factorize(n)
        prod = 1
        for p, e in factors:
            prod *= p**e
        assert prod == n
        primes = [p for p, _ in factors]
        assert primes == sorted(primes)
        assert all(e >= 1 for _, e in factors)


@pytest.mark.parametrize("n,expected", [(1, 1), (12, 0), (30, -1), (6, 1), (7, -1)])
def test_mobius_examples(n, expected):
    assert mobius(n) == expected


@pytest.mark.parametrize("n,expected", [(8, 4), (83, 82), (120, 32), (1, 1)])
def test_totient_examples(n, expected):
    assert totient(n) == expected


@pytest.mark.parametrize("n,expected", [
    (1, [1]),
    (12, [1, 2, 3, 4, 6, 12]),
    (8, [1, 2, 4, 8]),
])
def test_divisors_examples(n, expected):
    assert divisors(n) == expected


@pytest.mark.parametrize("fn", [factorize, mobius, totient, divisors])
def test_rejects_nonpositive(fn):
    with pytest.raises(ValueError):
        fn(0)
    with pytest.raises(ValueError):
        fn(-3)


@pytest.mark.parametrize("N,k,expected", [
    (1024, 128, 8),
    (12, 2, 6),
    (12, 0, 1),
    (97, 0, 1),
    (12, -2, 6),     # k reduced modulo N
    (12, 14, 6),
])
def test_bin_order_examples(N, k, expected):
    assert bin_order(N, k) == expected


def test_bin_order_rejects_bad_length():
    with pytest.raises(ValueError):
        bin_order(0, 1)


def test_totient_divisor_sum():
    for n in range(1, 1001):
        assert sum(totient(d) for d in divisors(n)) == n


def test_mobius_divisor_sum():
    for n in range(1, 1001):
        total = sum(mobius(d) for d in divisors(n))
        assert total == (1 if n == 1 else 0)


def test_bin_order_divides_length():
    for N in range(1, 513):
        for k in range(N):
            assert N % bin_order(N, k) == 0
