"""Exact construction of cyclotomic polynomials over the integers.

For n > 1, Phi_n(x) = prod over d | n of (1 - x**d)**mu(n/d) (the signs of
x**d - 1 cancel, since the mu(n/d) sum to 0). Phi_n is palindromic, so only
its power series up to degree phi(n)/2 is built, after Arnold and Monagan
(Math. Comp. 80, 2011): a factor with mu = +1 subtracts from each coefficient
the one d places below, one with mu = -1 adds it, ascending. The upper half
is the mirror. That is O(d(n) phi(n)/2) additions of Python ints; floating
point never enters. Results are memoised for the 64 orders used last.

The dense helpers int_mul and int_exact_div built Phi_n before; they stay
imported only because perfbench/layers.py wraps them by these names.
"""

import functools

from .numtheory import _integer, divisors, mobius, totient
# int_mul and int_exact_div are unused here, but perfbench/layers.py wraps them
# by these names.
from .polynomial import int_exact_div, int_mul  # noqa: F401

__all__ = ["cyclotomic", "is_ternary"]


@functools.lru_cache(maxsize=64)
def _build(n: int) -> tuple[int, ...]:
    phi = totient(n)
    if n == 1:
        return (-1, 1)
    half = phi // 2
    a = [1] + [0] * half
    ds = divisors(n)
    for d in ds:
        if d > half:
            break
        mu = mobius(n // d)
        if mu == 1:
            a[d:] = [x - y for x, y in zip(a[d:], a)]
        elif mu == -1:
            for i in range(d, half + 1):
                a[i] += a[i - d]
    a += a[:phi - half][::-1]
    # Phi_n(1) is p for n = p**e and 1 for n with two or more distinct primes.
    p = ds[1]
    if sum(a) != (p if p ** (len(ds) - 1) == n else 1):
        raise ArithmeticError(f"cyclotomic construction failed for n={n}")
    return tuple(a)


def cyclotomic(n: int) -> list[int]:
    """Coefficients of Phi_n, ascending degree. Monic, degree totient(n)."""
    n = _integer(n, "cyclotomic order")
    if n < 1:
        raise ValueError(f"cyclotomic expects n >= 1, got {n}")
    return list(_build(n))


def is_ternary(n: int) -> bool:
    """True when every coefficient of Phi_n lies in {-1, 0, 1}."""
    return all(-1 <= c <= 1 for c in cyclotomic(n))
