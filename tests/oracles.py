"""Independent reference implementations used only by the tests.

These deliberately avoid the library's reduction kernels: plain long
division, plain products, plain DFT sums. The exceptions are earlier, simpler
forms of a library stage kept as references for the faster one that replaced
them (dense_stream, single_cyclo_reduce).
"""

import cmath

from dftbin.complexity import OpRecorder
from dftbin.cyclotomic import cyclotomic
from dftbin.polynomial import reduce_by_intpoly


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


def mp_bin(v, k):
    """DFT bin k of v summed in 30-digit arithmetic, rounded to a complex."""
    import mpmath

    n = len(v)
    with mpmath.workdps(30):
        acc = mpmath.mpc(0)
        for m, x in enumerate(v):
            acc += mpmath.mpc(x) * mpmath.expjpi(mpmath.mpf(-2 * k * m) / n)
        return complex(acc)


def single_cyclo_reduce(v, L):
    """The cyclotomic stage as one reduction: fold v modulo x**L - 1, then
    divide by Phi_L in a single reduce_by_intpoly call. Returns the remainder
    and its OpCounts; the library's chain of sparse factors must match it."""
    rec = OpRecorder()
    folded = v[:L]
    for start in range(L, len(v), L):
        folded = [rec.add(a, b) for a, b in zip(folded, v[start:start + L])]
    return reduce_by_intpoly(folded, cyclotomic(L), rec), rec.counts()


def first_order_reference(v, k):
    """One-pole complex filter y <- v_n + Wbar*y, Wbar = exp(+2j pi k / N),
    whose output times Wbar is bin k: one complex multiplication per sample."""
    n = len(v)
    wbar = cmath.exp(2j * cmath.pi * k / n)
    y = 0j
    for sample in v:
        y = sample + wbar * y
    return wbar * y


def dense_stream(v, spec):
    """The streaming filter as first written: a list register shifted with
    pop(0), every one of the totient(L) feedback slots visited per sample,
    and every tap (a[0] = 1 included) applied through OpRecorder.mul.
    Returns (value, OpCounts); the library's sparse register must match it."""
    rec = OpRecorder()
    deg = len(spec.a)
    w = [0j] * deg
    for sample in [*v, 0j]:
        acc = sample
        for j in range(1, deg + 1):
            bj = spec.b[j]
            if bj:
                acc = rec.add(acc, rec.mul(w[deg - j], -bj))
        w.pop(0)
        w.append(acc)
    value = rec.mul(w[-1], spec.a[0])
    for m in range(1, deg):
        value = rec.add(value, rec.mul(w[-1 - m], spec.a[m]))
    return value, rec.counts()


def _mobius(n):
    """Mobius function by trial division."""
    sign = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def cyclotomic_kronecker(n):
    """Coefficients of Phi_n (ascending) by Kronecker substitution.

    Phi_n(x) = prod over d | n of (x**d - 1)**mu(n/d) is evaluated as one
    exact integer at x = 2**32, and the coefficients are read back as
    balanced base-2**32 digits: integer arithmetic only, no polynomial code.
    Valid while every coefficient is below 2**31 in magnitude.
    """
    base = 1 << 32
    num = den = 1
    for d in range(1, n + 1):
        if n % d:
            continue
        mu = _mobius(n // d)
        if mu == 1:
            num *= base ** d - 1
        elif mu == -1:
            den *= base ** d - 1
    value, rem = divmod(num, den)
    assert rem == 0 and value > 0
    raw = value.to_bytes(4 * (value.bit_length() // 32 + 2), "little")
    coeffs = []
    borrow = 0
    for i in range(0, len(raw), 4):
        digit = int.from_bytes(raw[i:i + 4], "little") + borrow
        borrow = int(digit >= base // 2)
        coeffs.append(digit - borrow * base)
    while coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


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
