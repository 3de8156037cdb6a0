"""Independent reference implementations used only by the tests.

These deliberately avoid the library's reduction kernels: plain long
division, plain products, plain DFT sums. The exceptions are earlier, simpler
forms of a library stage kept as references for the faster one that replaced
them (cyclotomic_dense, dense_stream, single_cyclo_reduce, the filter design
that snaps every tap, and the per-op push, kernels and evaluation stage, which
charge every operation through the counter's add and mul).
"""

import cmath
import math

from dftbin.algorithms import BinSpec, root_power
from dftbin.complexity import OpRecorder
from dftbin.cyclotomic import cyclotomic
from dftbin.numtheory import totient
from dftbin.polynomial import int_exact_div, int_mul, reduce_by_intpoly
from dftbin.streaming import _RESIDUAL_LIMIT, FilterSpec, _snap


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


# The 30 orders below 2500 whose Phi_L has a tap of magnitude 3 or more.
ORDERS_WITH_TAP_ABOVE_2 = (
    385, 595, 665, 770, 935, 1155, 1190, 1235, 1309, 1330, 1365, 1463, 1495, 1540,
    1729, 1785, 1855, 1870, 1925, 1955, 1995, 2065, 2145, 2261, 2310, 2380, 2415,
    2431, 2465, 2470)


def chain_moduli(L):
    """The dense moduli Phi_r(x**(L/r)) of the chain stages that run at
    order L, for r the product of the i smallest primes of L, i = 1, 2, ...,
    up to, not including, the first r whose Phi_r has a tap of magnitude 3
    or more. Primes by trial division, so nothing comes from the library's
    factorize or stage plan."""
    moduli, r = [], 1
    for p in range(2, L + 1):
        if L % p or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
            continue
        phi = cyclotomic(r * p)
        if max(map(abs, phi)) > 2:
            break
        r *= p
        modulus = [0] * (L // r * (len(phi) - 1) + 1)
        modulus[::L // r] = phi
        moduli.append(modulus)
    return moduli


def single_cyclo_reduce(v, L):
    """The cyclotomic stage as one reduction: fold v modulo x**L - 1, then
    divide in a single reduce_by_intpoly call by the modulus the chain stops
    at, the last of chain_moduli(L) (Phi_L itself where every stage runs).
    Returns the remainder and its OpCounts; the library's chain of sparse
    factors must match it."""
    rec = OpRecorder()
    folded = v[:L]
    for start in range(L, len(v), L):
        folded = [rec.add(a, b) for a, b in zip(folded, v[start:start + L])]
    moduli = chain_moduli(L)
    if not moduli:  # L = 1: no stage runs
        return folded, rec.counts()
    return reduce_by_intpoly(folded, moduli[-1], rec), rec.counts()


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
    Returns (value, OpCounts): the paper's realization, which the library's
    fold register must match within rounding and never cost more than."""
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


def design_snap_every_tap(N, k):
    """streaming.design_filter as first written, with every tap through _snap:
    the reference whose FilterSpec (or ArithmeticError) the design that
    snaps only near-integer components must reproduce bit for bit."""
    bin_spec = BinSpec.for_bin(N, k)
    k, L = bin_spec.k, bin_spec.L
    deg = totient(L)
    den = cyclotomic(L)
    if den[0] == -1:  # only L = 1; normalize so the constant tap is 1
        den = [-c for c in den]
    wbar = root_power(N, -k)
    a = [complex(1.0)]
    for m in range(1, deg):
        a.append(_snap(wbar * a[m - 1] + den[m]))
    residual = den[deg] + wbar * a[deg - 1]
    if abs(residual) > _RESIDUAL_LIMIT:
        raise ArithmeticError(
            f"numerator design residual {abs(residual):.3e} for N={N}, k={k}")
    return FilterSpec(N, k, L, tuple(a), tuple(den))


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


def cyclotomic_dense(n):
    """Coefficients of Phi_n (ascending) by dense Mobius inversion.

    Multiplies every (x**d - 1) whose divisor carries mu(n/d) = +1, then
    exact-divides by the ones carrying -1, so every intermediate stays
    divisible. Its intermediates reach about sigma(n)/2 coefficients.
    """
    num = [1]
    dens = []
    for d in range(1, n + 1):
        if n % d:
            continue
        mu = _mobius(n // d)
        binomial = [-1] + [0] * (d - 1) + [1]  # x**d - 1
        if mu == 1:
            num = int_mul(num, binomial)
        elif mu == -1:
            dens.append(binomial)
    for den in dens:
        num = int_exact_div(num, den)
    return num


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
    return N // math.gcd(N, k % N)


def per_op_fold(signal, L, counter):
    """The fold modulo x**L - 1 with one counter.add per pair."""
    R = signal[:L]
    for start in range(L, len(signal), L):
        R = [counter.add(a, b) for a, b in zip(R, signal[start:start + L])]
    return R


def per_op_push(state, sample):
    """streaming.push with its add through state.rec.add, so the recorder
    holds the pushes' adds as they happen. state.adds charges every push
    past L one add up front, so each such push cancels that charge in
    state.deviation: state.adds stays 0, and finalize counts no add twice."""
    n, L = state.samples_consumed, state.L
    if n < L:
        state.slots[n] = sample
    else:
        state.slots[n % L] = state.rec.add(state.slots[n % L], sample)
        state.deviation -= 1
    state.samples_consumed = n + 1


def per_op_reduce_by_intpoly(signal, modulus, counter):
    """reduce_by_intpoly with every tap through counter.add and counter.mul."""
    modulus = list(modulus)
    while modulus and modulus[-1] == 0:
        modulus.pop()
    deg = len(modulus) - 1
    taps = [(j, -modulus[j]) for j in range(deg) if modulus[j] != 0]
    rem = list(signal)
    if len(rem) < deg:
        return rem + [0j] * (deg - len(rem))
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        base = i - deg
        for j, neg_mj in taps:
            if neg_mj == 1:
                term = c
            elif neg_mj == -1:
                term = -c
            else:
                term = counter.mul(c, neg_mj)
            rem[base + j] = counter.add(rem[base + j], term)
    return rem[:deg]


def per_op_reduce_by_pk(signal, A, counter, lam=None):
    """reduce_by_pk with every step through counter.add and counter.mul."""
    n = len(signal)
    if n == 0:
        return (0j, 0j)
    if n == 1:
        return (signal[0], 0j)
    s1 = 0j
    s2 = 0j
    if lam is None:
        for i in range(n - 1, 0, -1):
            s0 = counter.add(counter.add(signal[i], counter.mul(s1, A)), -s2)
            s2 = s1
            s1 = s0
    else:
        sign = 1 if A > 0 else -1
        d = 0j
        for i in range(n - 1, 0, -1):
            d = counter.add(counter.add(signal[i], counter.mul(s1, lam)), sign * d)
            s2 = s1
            s1 = counter.add(sign * s1, d)
    r0 = counter.add(signal[0], -s2)
    return (r0, s1)


def per_op_eval(R, spec, counter):
    """The evaluation stage with one root_power, counter.mul and counter.add
    per nonzero tap past the constant."""
    N, k = spec.N, spec.k
    acc = complex(R[0])
    for m in range(1, len(R)):
        c = R[m]
        if c == 0:
            continue
        acc = counter.add(acc, counter.mul(c, root_power(N, k * m)))
    return acc
