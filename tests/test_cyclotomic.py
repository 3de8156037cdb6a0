import math
import random

import pytest

from dftbin.algorithms import jco_bin, root_power
from dftbin.cyclotomic import _build, cyclotomic, is_ternary
from dftbin.numtheory import bin_order, divisors, totient
from dftbin.polynomial import int_mul
from oracles import cyclotomic_kronecker, eval_poly


def test_examples():
    assert cyclotomic(1) == [-1, 1]
    assert cyclotomic(2) == [1, 1]
    assert cyclotomic(8) == [1, 0, 0, 0, 1]
    assert cyclotomic(12) == [1, 0, -1, 0, 1]


def test_rejects_nonpositive():
    with pytest.raises(ValueError):
        cyclotomic(0)


def test_returns_fresh_list():
    a = cyclotomic(8)
    a[0] = 99
    assert cyclotomic(8) == [1, 0, 0, 0, 1]


def test_memo_holds_the_64_orders_used_last():
    # One jco bin at each of 70 lengths builds Phi_N for each; the memo keeps
    # 64 of them, and an evicted order is built again, to the same taps.
    rng = random.Random(5)
    jco_bin([rng.uniform(-1, 1) for _ in range(3001)], 1)
    first = cyclotomic(3001)
    for N in range(3002, 3071):
        jco_bin([rng.uniform(-1, 1) for _ in range(N)], 1)
    assert _build.cache_info().currsize <= 64
    misses = _build.cache_info().misses
    assert cyclotomic(3001) == first
    assert _build.cache_info().misses == misses + 1


def test_divisor_product_small():
    for N in range(1, 101):
        prod = [1]
        for d in divisors(N):
            prod = int_mul(prod, cyclotomic(d))
        assert prod == [-1] + [0] * (N - 1) + [1]


def test_degree_is_totient():
    for n in range(1, 121):
        assert len(cyclotomic(n)) - 1 == totient(n)


def test_monic_and_constant_term():
    for n in range(1, 121):
        c = cyclotomic(n)
        assert c[-1] == 1
        assert c[0] == (-1 if n == 1 else 1)


def test_ternary_examples():
    assert is_ternary(12)
    assert is_ternary(104)
    assert not is_ternary(105)


def test_ternary_below_105():
    assert all(is_ternary(n) for n in range(1, 105))


@pytest.mark.parametrize("n", [105, 385, 1155, 2310, 4290, 30030])
def test_matches_kronecker_oracle(n):
    assert cyclotomic(n) == cyclotomic_kronecker(n)


def test_105_has_minus_two():
    assert -2 in cyclotomic(105)


def test_palindrome():
    for n in range(2, 301):
        c = cyclotomic(n)
        assert c == c[::-1]


def test_vanishes_at_matching_order_roots():
    for N in range(1, 129):
        for k in range(N):
            L = bin_order(N, k)
            value = eval_poly(cyclotomic(L), root_power(N, k))
            assert abs(value) <= 1e-10, (N, k, L)
