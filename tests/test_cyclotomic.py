import importlib
import math
import random

import pytest

from dftbin.algorithms import jco_bin, root_power
from dftbin.cyclotomic import _build, cyclotomic, is_ternary
from dftbin.numtheory import bin_order, divisors, mobius, totient
from dftbin.polynomial import int_mul
from oracles import cyclotomic_dense, cyclotomic_kronecker, eval_poly

# The package re-exports the function cyclotomic as dftbin.cyclotomic, so the
# module is looked up by its import name.
cyclotomic_module = importlib.import_module("dftbin.cyclotomic")


def test_examples():
    assert cyclotomic(1) == [-1, 1]
    assert cyclotomic(2) == [1, 1]
    assert cyclotomic(8) == [1, 0, 0, 0, 1]
    assert cyclotomic(12) == [1, 0, -1, 0, 1]


def test_rejects_nonpositive():
    with pytest.raises(ValueError):
        cyclotomic(0)


@pytest.mark.parametrize("n", [2.5, "5", 4.0, None])
def test_rejects_non_integral_order(n):
    # 4.0 is rejected rather than built and memoised under the key 4.0.
    currsize = _build.cache_info().currsize
    with pytest.raises(ValueError, match="must be an integer"):
        cyclotomic(n)
    with pytest.raises(ValueError, match="must be an integer"):
        is_ternary(n)
    assert _build.cache_info().currsize == currsize


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


def test_matches_dense_oracle():
    for n in [*range(1, 1200), 46189, 65536, 65537]:
        assert cyclotomic(n) == cyclotomic_dense(n), n


@pytest.mark.parametrize("n", [5, 12, 105, 4290, 65537])
def test_self_check_rejects_a_wrong_sign(monkeypatch, n):
    # With every Mobius sign flipped the series is 1/Phi_n, whose mirror does
    # not take Phi_n's value at 1; the failed build leaves no memo entry.
    _build.cache_clear()
    monkeypatch.setattr(cyclotomic_module, "mobius", lambda m: -mobius(m))
    with pytest.raises(ArithmeticError, match=f"n={n}"):
        cyclotomic(n)
    assert _build.cache_info().currsize == 0
    monkeypatch.undo()
    assert cyclotomic(n) == cyclotomic_dense(n)
    assert _build.cache_info().misses == 2


def test_build_makes_no_dense_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("dense polynomial helper called")

    _build.cache_clear()
    monkeypatch.setattr(cyclotomic_module, "int_mul", refuse)
    monkeypatch.setattr(cyclotomic_module, "int_exact_div", refuse)
    assert cyclotomic(4290) == cyclotomic_kronecker(4290)


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
