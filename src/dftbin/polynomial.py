"""Dense polynomial arithmetic over Z and over the complex doubles.

A polynomial is a list of coefficients in ascending degree: [c0, c1, c2]
is c0 + c1*x + c2*x**2. The zero polynomial is the empty list, and integer
polynomials keep a nonzero leading coefficient (use trim() after arithmetic
that may cancel it). Integer coefficients are exact Python ints; signal
polynomials hold complex (or real) numbers.

The two remainder kernels stream coefficients from the highest degree down,
exactly like the shift-register realizations of the block algorithms. Their
arithmetic goes through a required `counter`, any object with `add(x, y)`
and `mul(value, const)`, such as the metering OpRecorder.
"""

__all__ = [
    "trim",
    "int_mul",
    "int_exact_div",
    "reduce_by_intpoly",
    "reduce_by_pk",
]


def trim(p: list) -> list:
    """Drop trailing zero coefficients (canonical form; [] is the zero poly)."""
    n = len(p)
    while n and p[n - 1] == 0:
        n -= 1
    return p[:n]


def int_mul(a: list[int], b: list[int]) -> list[int]:
    """Exact product of two integer polynomials."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    b_terms = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in b_terms:
            out[i + j] += ai * bj
    return out


def int_exact_div(num: list[int], den: list[int]) -> list[int]:
    """Exact quotient num / den over Z.

    den must have a +-1 leading coefficient and divide num with zero
    remainder; a nonzero remainder raises ValueError.
    """
    den = trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    lead = den[-1]
    if lead not in (1, -1):
        raise ValueError(f"divisor leading coefficient must be +-1, got {lead}")
    num = list(num)
    dn = len(den) - 1
    if len(trim(num)) - 1 < dn:
        if any(num):
            raise ValueError("not exactly divisible")
        return []
    q = [0] * (len(num) - dn)
    den_terms = [(j, dj) for j, dj in enumerate(den) if dj]
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c == 0:
            continue
        qc = c // lead
        q[i - dn] = qc
        for j, dj in den_terms:
            num[i - dn + j] -= qc * dj
    if any(num):
        raise ValueError("not exactly divisible")
    return trim(q)


def reduce_by_intpoly(signal: list, modulus: list[int], counter) -> list:
    """Remainder of a signal polynomial modulo a monic integer polynomial.

    The highest-degree signal coefficient is consumed first, as in the
    autoregressive realization. Each step visits only the nonzero taps, and
    a tap of +-1 is applied as an add of +-c, so when the modulus
    coefficients are all in {0, +-1} (every cyclotomic below order 105) the
    reduction performs no multiplications, only additions and subtractions.

    Returns deg(modulus) coefficients (possibly zero-padded).
    """
    modulus = trim(modulus)
    if len(modulus) < 2:
        raise ValueError("modulus must have degree >= 1")
    if modulus[-1] != 1:
        raise ValueError("modulus must be monic")
    deg = len(modulus) - 1
    taps = [(j, -modulus[j]) for j in range(deg) if modulus[j] != 0]
    rem = list(signal)
    if len(rem) < deg:
        rem += [0j] * (deg - len(rem))
        return rem
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


def reduce_by_pk(signal: list, A: float, counter) -> tuple[complex, complex]:
    """Remainder (r0, r1) of a signal polynomial modulo 1 - A*x + x**2.

    Runs the second-order recursion s_n = v_n + A*s_{n+1} - s_{n+2} from the
    highest coefficient down; exactly max(0, N-2) multiplications by A are
    charged for a generic signal when A is nontrivial (the first step hits
    an empty register and is free).
    """
    n = len(signal)
    if n == 0:
        return (0j, 0j)
    if n == 1:
        return (signal[0], 0j)
    s1 = 0j
    s2 = 0j
    for i in range(n - 1, 0, -1):
        s0 = counter.add(counter.add(signal[i], counter.mul(s1, A)), -s2)
        s2 = s1
        s1 = s0
    r0 = counter.add(signal[0], -s2)
    return (r0, s1)
