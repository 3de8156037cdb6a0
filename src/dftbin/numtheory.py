"""Integer number theory helpers: factorization, Mobius, totient, divisors, bin order.

Everything here is exact integer arithmetic on Python ints (arbitrary
precision, so products like divisor lists and totients cannot overflow).
All functions are pure and safe to call concurrently.
"""

import functools
import math

__all__ = [
    "factorize",
    "mobius",
    "totient",
    "divisors",
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


def bin_order(N: int, k: int) -> int:
    """Multiplicative order L of the N-th root of unity raised to k.

    k may be any integer; it is reduced modulo N first (DFT bins are
    periodic in k), so k = 0 gives L = 1. L always divides N.
    """
    if N < 1:
        raise ValueError(f"bin_order expects N >= 1, got {N}")
    return N // math.gcd(N, k % N)
