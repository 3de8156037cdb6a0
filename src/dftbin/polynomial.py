"""Dense polynomial arithmetic over Z and over the complex doubles.

A polynomial is a list of coefficients in ascending degree: [c0, c1, c2]
is c0 + c1*x + c2*x**2. The zero polynomial is the empty list, and integer
polynomials keep a nonzero leading coefficient (use trim() after arithmetic
that may cancel it). Integer coefficients are exact Python ints; signal
polynomials hold complex (or real) numbers.

The three remainder kernels (fold, reduce_by_intpoly, reduce_by_pk) stream
coefficients from the highest degree down, exactly like the shift-register
realizations of the block algorithms. Each takes a required `counter`, any
object with `add(x, y)` returning x + y and `mul(value, const)` returning
value * const; the metering OpRecorder is one, and its add and mul are the
definition of a count.

reduce_by_intpoly takes its modulus dense, and splits it into taps once:
the checks and the split are memoised on tuple(modulus), so the chain's
stage moduli, which algorithms.stage_plan keeps as tuples, are scanned once
and then cost one hash of the tuple per call, while among the 64 moduli
used last. A split holds its offsets as ints: about 2.7 MB for the 65,536
taps of Phi_65537.

Counting goes in bulk. A kernel does the arithmetic itself and tests each
step. When no operand of the step has a zero component, what add and mul
would charge for it is fixed by the constant and by whether the operands
are real, so the kernel only tallies the step, and hands the tally to
`counter.bulk(steps, adds, const, width)` once per call, if the counter has
that method. A step with a zero operand goes through counter.add and
counter.mul. Values are the same either way: a counter with only add and
mul gets them, without the counts of the tallied steps.

reduce_by_pk, the degree-2 stage that Goertzel's algorithm and the
combined one end in, keeps its registers in floats where they hold exactly
what complex registers would: one float per register on real samples, a
real and an imaginary float on complex data. Each layout runs one loop per
form and sign of A, with the sign written into the adds. A run whose
registers end in an inf or a NaN is run again on complex registers; the
function's docstring gives why every loop is exact.
"""

import functools
from cmath import isfinite
from itertools import compress
from operator import attrgetter

__all__ = [
    "trim",
    "int_mul",
    "int_exact_div",
    "fold",
    "reduce_by_intpoly",
    "reduce_by_pk",
]

_imag = attrgetter("imag")
# Whether a float operand of complex arithmetic is promoted to
# complex(x, 0.0), as in CPython 3.10-3.13; reduce_by_pk's single float
# registers rely on it.
_PROMOTES = repr(1.0 + complex(0.0, -0.0)) == "(1+0j)"


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


def _is_real(values) -> bool:
    # A NaN imaginary part is truthy, so it counts as complex.
    return not any(map(_imag, values))


def _charge(counter, steps: int, adds: int, const=0.0, width: int = 1) -> None:
    # Hand a kernel's full steps to the counter's bulk charge, if it has one.
    bulk = getattr(counter, "bulk", None)
    if bulk is not None and steps:
        bulk(steps, adds, const, width)


def _no_zero(values, real: bool) -> bool:
    # Every value, or on complex data every component, is nonzero; NaN is
    # truthy, and add charges it as nonzero too.
    return all(values) if real else all([z.real and z.imag for z in values])


def fold(signal: list, L: int, counter) -> list:
    """Remainder of a signal polynomial modulo x**L - 1: the sum of its
    length-L blocks, added block by block in order (L must divide the
    length). Costs at most len(signal) - L adds and no multiplications.

    A block whose values and running sums have no zero component is added
    in full and charged in bulk; any other block goes through counter.add.
    """
    R = signal[:L]
    if len(signal) <= L:
        return R
    add = counter.add
    # The last sample decides generic complex data; sum is far cheaper than _is_real.
    real = not signal[-1].imag and (not isinstance(sum(signal), complex) or _is_real(signal))
    full = 0
    for start in range(L, len(signal), L):
        block = signal[start:start + L]
        if _no_zero(R, real) and _no_zero(block, real):
            R = [a + b for a, b in zip(R, block)]
            full += len(block)
        else:
            R = [add(a, b) for a, b in zip(R, block)]
    _charge(counter, full, 1 if real else 2)
    return R


@functools.lru_cache(maxsize=64)
def _split(modulus: tuple) -> tuple[int, list[int], list[int], list[tuple[int, int]]]:
    # deg, and the taps j < deg of a monic integer modulus: the offsets
    # whose slot gains +c (m_j = -1), those that gain -c (m_j = +1), and
    # (j, -m_j) for the rest. lru_cache keeps no exception, so a bad
    # modulus raises on every call.
    modulus = trim(modulus)
    if len(modulus) < 2:
        raise ValueError("modulus must have degree >= 1")
    if modulus[-1] != 1:
        raise ValueError("modulus must be monic")
    deg = len(modulus) - 1
    plus, minus, other = [], [], []
    for j in compress(range(deg), modulus):
        m = modulus[j]
        if m == -1:
            plus.append(j)
        elif m == 1:
            minus.append(j)
        else:
            other.append((j, -m))
    return deg, plus, minus, other


def reduce_by_intpoly(signal: list, modulus: list[int], counter) -> list:
    """Remainder of a signal polynomial modulo a monic integer polynomial.

    The highest-degree signal coefficient is consumed first, as in the
    autoregressive realization. Each step visits only the nonzero taps, and
    a tap of +-1 is applied as an add of +-c, so when the modulus
    coefficients are all in {0, +-1} (every cyclotomic below order 105) the
    reduction performs no multiplications, only additions and subtractions.

    The modulus is dense (a list or tuple of ints); its checks and its split
    into taps are memoised on tuple(modulus), so a warm call with the same
    tuple pays one hash of it, not a scan. The +1 and -1 taps of a step
    write distinct slots, so they run as two loops.

    The adds of the +-1 taps are charged in bulk. Where c is real, the add
    of +-c costs 1 exactly when the slot's real part is nonzero; where c
    has two nonzero components, a slot with two costs 2, and any other
    slot goes through counter.add. The taps of magnitude >= 2 go through
    counter.add and counter.mul.

    Returns deg(modulus) coefficients (possibly zero-padded).
    """
    deg, plus, minus, other = _split(tuple(modulus))
    rem = list(signal)
    if len(rem) < deg:
        rem += [0j] * (deg - len(rem))
        return rem
    add, mul = counter.add, counter.mul
    adds = 0
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        base = i - deg
        nc = -c
        if not c.imag:
            for j in plus:
                j += base
                s = rem[j]
                if s.real:
                    adds += 1
                rem[j] = s + c
            for j in minus:
                j += base
                s = rem[j]
                if s.real:
                    adds += 1
                rem[j] = s + nc
        else:
            both = c.real
            for j in plus:
                j += base
                s = rem[j]
                if both and s.real and s.imag:
                    adds += 2
                    rem[j] = s + c
                else:
                    rem[j] = add(s, c)
            for j in minus:
                j += base
                s = rem[j]
                if both and s.real and s.imag:
                    adds += 2
                    rem[j] = s + nc
                else:
                    rem[j] = add(s, nc)
        for j, neg_mj in other:
            j += base
            rem[j] = add(rem[j], mul(c, neg_mj))
    _charge(counter, adds, 1)
    return rem[:deg]


def _pk_step(add, mul, x, s1, s2, d, A, lam, sign):
    # One step of reduce_by_pk through add and mul: the new s1 and d.
    if lam is None:
        return add(add(x, mul(s1, A)), -s2), d
    d = add(add(x, mul(s1, lam)), sign * d)
    return add(sign * s1, d), d


def _pk_per_op(signal, v, A, lam, sign, counter):
    # reduce_by_pk with every step through counter.add and counter.mul, on
    # complex registers; v is signal[:0:-1].
    add, mul = counter.add, counter.mul
    s1 = s2 = d = 0j
    for x in v:
        s2, (s1, d) = s1, _pk_step(add, mul, x, s1, s2, d, A, lam, sign)
    return (add(signal[0], -s2), s1)


def reduce_by_pk(signal: list, A: float, counter,
                 lam: float | None = None) -> tuple[complex, complex]:
    """Remainder (r0, r1) of a signal polynomial modulo 1 - A*x + x**2.

    Runs the second-order recursion s_n = v_n + A*s_{n+1} - s_{n+2} from the
    highest coefficient down; exactly max(0, N-2) multiplications by A are
    charged for a generic signal when A is nontrivial (the first step hits
    an empty register and is free).

    Given lam = A - 2 (for A > 0) or A + 2 (for A < 0), it runs Reinsch's
    form instead, which carries the difference d = s_n -+ s_{n+1}:
    d <- v + lam*s +- d, s <- +-s + d. Rounding near |A| = 2 is no longer
    amplified by 1/|lam|. It multiplies by lam where the plain form
    multiplies by A, and adds one more add per step.

    A step is full when no operand of its adds has a zero component and
    its product is nonzero, or, for a constant of 0 (A = 0, or lam = 0 at
    A = +-2), exactly zero. On real data a full step costs (cost(A), 2) in
    the plain form and (cost(lam), 3) in Reinsch's, one add fewer for a
    constant of 0, and on complex data twice that. Full steps are charged
    in bulk, the others through counter.add and counter.mul.

    The values and counts are those of complex registers (s1 = s2 = d = 0j)
    stepped as above, bit for bit; only the layout of the registers is
    chosen from the input:
    - Per-op: unless the recursion's own constant (A, or lam +- 2 in
      Reinsch's form) is at most 2 in magnitude, every step runs through
      add and mul on complex registers. The 0j layout needs the bound: at
      A < -2, lam < 0 can give t a -0.0 imaginary part (see below).
    - Real: no sample has a nonzero imaginary part. Where no sample is
      complex-typed either, a register is one float: CPython 3.10-3.13
      promote a float operand of complex arithmetic to complex(x, 0.0),
      under which complex registers hold a +0.0 imaginary part throughout
      and, while every value is finite, as real part the float step's
      result. Otherwise (or on an interpreter that does not promote) the
      same loop runs on 0j registers.
    - Split: some sample has a nonzero imaginary part, and a register is
      a pair of floats. A full step has no zero component, and the cross
      terms of the complex products, +-0.0 on finite operands, leave each
      component as the pair computes it. Every other step runs on complex
      registers rebuilt from the pairs, which keeps the signed zeros of
      complex arithmetic.

    A slow step is computed as a full one in the real layout, which the
    arguments above and below show exact for every finite step, and in the
    split layout by _pk_step's own arithmetic, written out, with x - y for
    add(x, -y). Either way its operands x, s1, s2 and d are appended to a
    flat list. After the loop, if s1 is finite, the list is replayed in
    order through _pk_step with add and mul, so the counter gets the calls a
    step-by-step run makes, and the full steps are charged in bulk.
    Otherwise the list is dropped and the call runs per-op from the start.
    That rests on one fact: a register that holds an inf or a NaN never
    holds a finite value again. Every update of s1 adds a multiple of s1
    (A*s1 in the plain form, +-s1 in Reinsch's), every update of d adds +-d,
    and a multiple of an inf or a NaN is +-inf or NaN (NaN for a constant of
    0), as is a sum with one. An inf or a NaN that a step meets, in a
    sample, a product or a sum, reaches s1 or d in that step, and d reaches
    s1 (s1 <- +-s1 + d). s2 is an earlier s1, so a finite s1 at the end
    shows that no step met one, and the layout held exactly the complex
    registers' values. signal[0] enters only the final add, which every path
    makes through add.

    The list holds four slots per slow step and the registers they keep:
    about 60 bytes in the real plain form, 85 in Reinsch's and 130 in the
    split layout, against 8 per sample for v. Signals with many exact
    zeros (zero padding, silence, small integers) are mostly slow steps.

    The last sample is tested first: a nonzero imaginary part there picks
    the split layout at once. Only other data pay for sum(signal), which
    tells real-typed samples from complex-typed ones, and complex-typed
    data also for the scan of their imaginary parts.

    Each layout runs one of three loops, picked by the form and the sign
    of A: the plain form, Reinsch's form with A > 0, and Reinsch's with
    A < 0. A loop tests only the zeros of its form. Its steps that are
    not slow are full. Every Reinsch loop writes the sign into its adds,
    t + d and s1 + dn for A > 0, t - d and dn - s1 for A < 0, where the
    per-op step multiplies by +-1. That is exact in every layout:
    - on floats and pairs, 1.0*d is d, and x - y is x + (-y);
    - on 0j registers in Reinsch's form, d, s1 and s2 always hold a +0.0
      imaginary part: each update adds a term whose imaginary part is
      +0.0 (+-0.0 + +0.0 is +0.0), and for A < 0, where lam >= 0, t holds
      one too. A product by +-1.0 then has the real part of +-d, and the
      add leaves +0.0 as imaginary part either way;
    - without promotion (CPython 3.14), +-1.0*z is +-z by components.
    _pk_step keeps the product: on a per-op run a register may be
    infinite, and -1.0 * complex(inf, 0.0) is (-inf+nanj), not
    -complex(inf, 0.0).
    """
    n = len(signal)
    if n == 0:
        return (0j, 0j)
    if n == 1:
        return (signal[0], 0j)
    sign = 1 if A > 0 else -1
    const = A if lam is None else lam
    zero = not const
    v = signal[:0:-1]
    if abs(const if lam is None else lam + 2 * sign) > 2:
        return _pk_per_op(signal, v, A, lam, sign, counter)
    slow = []  # x, s1, s2, d of each slow step, four slots each
    # Generic complex data skip the sum: their last sample decides.
    if not signal[-1].imag and (not (typed := isinstance(sum(signal), complex))
                                or _is_real(signal)):
        width = 1
        s1 = s2 = d = 0.0 if _PROMOTES and not typed else 0j
        if lam is None:
            for x in v:
                m = s1 * A
                t = x + m
                if not (x and t and s2 and (m or zero)):
                    slow += x, s1, s2, d
                s2, s1 = s1, t - s2
        elif sign > 0:
            for x in v:
                m = s1 * lam
                t = x + m
                dn = t + d
                if not (x and t and d and dn and s1 and (m or zero)):
                    slow += x, s1, s2, d
                s2, s1, d = s1, s1 + dn, dn
        else:
            for x in v:
                m = s1 * lam
                t = x + m
                dn = t - d
                if not (x and t and d and dn and s1 and (m or zero)):
                    slow += x, s1, s2, d
                s2, s1, d = s1, dn - s1, dn
        s1, s2 = complex(s1), complex(s2)
    else:
        width = 2
        s1r = s1i = s2r = s2i = dr = di = 0.0
        if lam is None:
            for z in v:
                xr, xi = z.real, z.imag
                mr, mi = s1r * A, s1i * A
                tr, ti = xr + mr, xi + mi
                if xr and xi and tr and ti and s2r and s2i and (mr and mi or zero):
                    s2r, s1r = s1r, tr - s2r
                    s2i, s1i = s1i, ti - s2i
                else:
                    s1, s2, d = complex(s1r, s1i), complex(s2r, s2i), complex(dr, di)
                    slow += z, s1, s2, d
                    s1 = z + s1 * A - s2
                    s2r, s2i, s1r, s1i = s1r, s1i, s1.real, s1.imag
        elif sign > 0:
            for z in v:
                xr, xi = z.real, z.imag
                mr, mi = s1r * lam, s1i * lam
                tr, ti = xr + mr, xi + mi
                dnr, dni = tr + dr, ti + di
                if (xr and xi and tr and ti and dr and di and dnr and dni and s1r and s1i
                        and (mr and mi or zero)):
                    s2r, s1r, dr = s1r, s1r + dnr, dnr
                    s2i, s1i, di = s1i, s1i + dni, dni
                else:
                    s1, s2, d = complex(s1r, s1i), complex(s2r, s2i), complex(dr, di)
                    slow += z, s1, s2, d
                    d = z + s1 * lam + sign * d
                    s1 = sign * s1 + d
                    s2r, s2i, s1r, s1i, dr, di = s1r, s1i, s1.real, s1.imag, d.real, d.imag
        else:
            for z in v:
                xr, xi = z.real, z.imag
                mr, mi = s1r * lam, s1i * lam
                tr, ti = xr + mr, xi + mi
                dnr, dni = tr - dr, ti - di
                if (xr and xi and tr and ti and dr and di and dnr and dni and s1r and s1i
                        and (mr and mi or zero)):
                    s2r, s1r, dr = s1r, dnr - s1r, dnr
                    s2i, s1i, di = s1i, dni - s1i, dni
                else:
                    s1, s2, d = complex(s1r, s1i), complex(s2r, s2i), complex(dr, di)
                    slow += z, s1, s2, d
                    d = z + s1 * lam + sign * d
                    s1 = sign * s1 + d
                    s2r, s2i, s1r, s1i, dr, di = s1r, s1i, s1.real, s1.imag, d.real, d.imag
        s1, s2 = complex(s1r, s1i), complex(s2r, s2i)
    if not isfinite(s1):
        return _pk_per_op(signal, v, A, lam, sign, counter)
    add, mul, step = counter.add, counter.mul, _pk_step
    it = iter(slow)
    for x, r1, r2, rd in zip(it, it, it, it):
        step(add, mul, x, r1, r2, rd, A, lam, sign)
    _charge(counter, n - 1 - len(slow) // 4, (2 - zero if lam is None else 3 - zero) * width,
            const, width)
    return (add(signal[0], -s2), s1)
