"""Independent reference implementations used only by the tests.

These deliberately avoid the library's reduction kernels: plain long
division, plain products, plain DFT sums.
"""

import cmath


def poly_mul(a, b):
    """Dense product of two coefficient lists (any numeric type)."""
    if not a or not b:
        return []
    out = [0j] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def poly_longdiv(num, den):
    """Classic long division: returns (quotient, remainder)."""
    num = list(num)
    dn = len(den) - 1
    while den and den[-1] == 0:
        den = den[:-1]
        dn -= 1
    assert den, "division by zero polynomial"
    lead = den[-1]
    if len(num) - 1 < dn:
        return [], num
    q = [0j] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i] / lead
        if c == 0:
            continue
        q[i - dn] = c
        for j, dj in enumerate(den):
            num[i - dn + j] -= c * dj
    return q, num[:dn]


def eval_poly(p, z):
    """Horner evaluation of a polynomial at z (0 for the empty polynomial)."""
    acc = 0j
    for c in reversed(p):
        acc = acc * z + c
    return acc


def dft_bin(v, k):
    """Straight DFT sum, computed with nothing from the package."""
    n = len(v)
    return sum(v[m] * cmath.exp(-2j * cmath.pi * k * m / n) for m in range(n))


def first_order_reference(v, k):
    """One-pole complex filter y <- v_n + Wbar*y, Wbar = exp(+2j pi k / N),
    whose output times Wbar is bin k: one complex multiplication per sample."""
    n = len(v)
    wbar = cmath.exp(2j * cmath.pi * k / n)
    y = 0j
    for sample in v:
        y = sample + wbar * y
    return wbar * y


def primitive_root_indices(N, L):
    """Indices i in [0, N) whose N-th root power has multiplicative order L."""
    import math

    return [i for i in range(N) if N // math.gcd(N, i) == L]


def numerator_product(N, k):
    """Product form of the streaming numerator: prod(1 - W^{-i} u), i != k.

    Partial products of many unit-circle factors have huge intermediate
    coefficients, so this runs in 50-digit arithmetic and rounds at the end.
    """
    import mpmath

    k = k % N
    L = primitive_order(N, k)
    with mpmath.workdps(50):
        poly = [mpmath.mpc(1)]
        for i in primitive_root_indices(N, L):
            if i == k:
                continue
            w_inv = mpmath.expjpi(mpmath.mpf(2 * i) / N)
            poly = poly_mul(poly, [mpmath.mpc(1), -w_inv])
        return [complex(c) for c in poly]


def primitive_order(N, k):
    import math

    return N // math.gcd(N, k % N)
