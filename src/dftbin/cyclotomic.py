"""Exact construction of cyclotomic polynomials over the integers.

Phi_n is built by Mobius inversion over the divisors of n: multiply the
binomials (x**d - 1) whose divisor carries a +1 Mobius weight, then exact-
divide by the ones carrying -1. All multiplications run before all divisions
so every intermediate stays divisible; floating point never enters.

Results are memoised for the 64 orders used last.
"""

import functools

from .numtheory import divisors, mobius, totient
from .polynomial import int_exact_div, int_mul

__all__ = ["cyclotomic", "is_ternary"]


@functools.lru_cache(maxsize=64)
def _build(n: int) -> tuple[int, ...]:
    num = [1]
    dens = []
    for d in divisors(n):
        mu = mobius(n // d)
        binomial = [-1] + [0] * (d - 1) + [1]  # x**d - 1
        if mu == 1:
            num = int_mul(num, binomial)
        elif mu == -1:
            dens.append(binomial)
    for den in dens:
        num = int_exact_div(num, den)
    if len(num) - 1 != totient(n) or num[-1] != 1:
        raise ArithmeticError(f"cyclotomic construction failed for n={n}")
    return tuple(num)


def cyclotomic(n: int) -> list[int]:
    """Coefficients of Phi_n, ascending degree. Monic, degree totient(n)."""
    if n < 1:
        raise ValueError(f"cyclotomic expects n >= 1, got {n}")
    return list(_build(n))


def is_ternary(n: int) -> bool:
    """True when every coefficient of Phi_n lies in {-1, 0, 1}."""
    return all(-1 <= c <= 1 for c in cyclotomic(n))
