"""Integer number theory helpers: factorization, Mobius, totient, divisors, bin order.

Everything here is exact integer arithmetic on Python ints (arbitrary
precision, so products like divisor lists and totients cannot overflow).
All functions are pure and safe to call concurrently.
"""

import functools
import math
import operator

__all__ = [
    "factorize",
    "mobius",
    "totient",
    "divisors",
    "bin_index",
    "bin_order",
]


@functools.lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Canonical prime factorization of n >= 1 as ((prime, exponent), ...).

    Primes ascend; the empty tuple is returned for n = 1. Trial division
    is plenty for DFT-sized lengths (~1e6 and below).
    """
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    factors = []
    rest = n
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if rest > 1:
        factors.append((rest, 1))
    return tuple(factors)


def mobius(n: int) -> int:
    """Mobius function: 1 for n=1, 0 if a squared prime divides n, else (-1)^#primes."""
    if n < 1:
        raise ValueError(f"mobius expects n >= 1, got {n}")
    factors = factorize(n)
    if any(e >= 2 for _, e in factors):
        return 0
    return -1 if len(factors) % 2 else 1


@functools.lru_cache(maxsize=None)
def totient(n: int) -> int:
    """Euler totient of n >= 1, computed from the prime factorization."""
    if n < 1:
        raise ValueError(f"totient expects n >= 1, got {n}")
    result = 1
    for p, e in factorize(n):
        result *= p ** (e - 1) * (p - 1)
    return result


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending (1 and n included)."""
    if n < 1:
        raise ValueError(f"divisors expects n >= 1, got {n}")
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def _integer(x, name: str) -> int:
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {x!r}") from None


def bin_index(N: int, k) -> int:
    """Bin index k reduced modulo the length N (DFT bins are periodic in k).

    N must be an integer >= 1 and k integral (an int or anything with
    __index__); a float such as 1.5, even 2.0, is rejected with ValueError
    rather than rounded, and N is checked first.
    """
    N = _integer(N, "signal length")
    if N < 1:
        raise ValueError(f"signal length must be >= 1, got {N}")
    return _integer(k, "bin index") % N


def bin_order(N: int, k: int) -> int:
    """Multiplicative order L of the N-th root of unity raised to k.

    N and k are checked by bin_index, and k is reduced modulo N first, so
    k = 0 gives L = 1. L always divides N.
    """
    return N // math.gcd(N, bin_index(N, k))
