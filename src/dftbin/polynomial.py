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
used last. A split holds its offsets as ints, or as a range where they
form one long run: the 65,536 taps of Phi_65537 take a range, not 2.7 MB
of ints. On real data, batches of steps and long runs of equal taps run
as C-level list passes (see reduce_by_intpoly).

Counting goes in bulk. A kernel does the arithmetic itself and tests each
step. When no operand of the step has a zero component, what add and mul
would charge for it is fixed by the constant and by whether the operands
are real, so the kernel only tallies the step, and hands the tally to
`counter.bulk(steps, adds, const, width)` once per call, if the counter has
that method. A step with a zero operand goes through counter.add and
counter.mul, but reduce_by_pk's first, free on zero registers. Values are
the same either way: a counter with only add and mul gets them, without
the counts of the tallied steps.

reduce_by_pk, the degree-2 stage that Goertzel's algorithm and the
combined one end in, is defined on float components: its constants are
real, so it steps the real parts and, on complex data, the imaginary
parts as two float recursions. It runs them in one loop per form and sign
of A, on one float per register for a real signal and on a pair for a
complex one, and tests a step that follows a full one only for the
operands it can newly zero (see its docstring).
"""

import functools
from cmath import isfinite
from itertools import compress, islice
from operator import add, attrgetter, neg

__all__ = [
    "trim",
    "int_mul",
    "int_exact_div",
    "fold",
    "reduce_by_intpoly",
    "reduce_by_pk",
]

_real, _imag = attrgetter("real"), attrgetter("imag")


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


def _all_real(values) -> bool:
    # _is_real(values), where the last value decides generic complex data
    # and sum, far cheaper than the scan, clears real-typed ones.
    return not values[-1].imag and (not isinstance(sum(values), complex) or _is_real(values))


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
    Real data with no zero sample are tested once, by all(signal), and then
    each block only by all() of the running sums.
    """
    R = signal[:L]
    if len(signal) <= L:
        return R
    count_add = counter.add
    real = _all_real(signal)
    dense = real and all(signal)
    full = 0
    for start in range(L, len(signal), L):
        block = signal[start:start + L]
        if (all(R) if dense else _no_zero(R, real) and _no_zero(block, real)):
            R = list(map(add, R, block))
            full += len(block)
        else:
            R = [count_add(a, b) for a, b in zip(R, block)]
    _charge(counter, full, 1 if real else 2)
    return R


# Where reduce_by_intpoly's list passes start to pay on real data (CPython
# 3.11, per call): batches of 8 steps of 1 to 4 taps took 0.71-0.84 of the
# loop's time, and of 4 steps 1.07-1.37; one step's run of 40 equal taps
# took 0.87, runs of 16 to 30 about 1.0, and of 4 to 12 1.1-1.26.
_BATCH_MIN = 8
_RUN_MIN = 32


@functools.lru_cache(maxsize=64)
def _split(modulus: tuple) -> tuple:
    # deg, the batch size, and the taps j < deg of a monic integer modulus:
    # the offsets whose slot gains +c (m_j = -1), those that gain -c
    # (m_j = +1), each a range where it is one run of at least _RUN_MIN
    # consecutive offsets, and (j, -m_j) for the rest. The batch size is
    # the smallest spacing of the nonzero taps, deg's included, where that
    # is at least _BATCH_MIN and every tap is +-1, else 1. lru_cache keeps
    # no exception, so a bad modulus raises on every call.
    modulus = trim(modulus)
    if len(modulus) < 2:
        raise ValueError("modulus must have degree >= 1")
    if modulus[-1] != 1:
        raise ValueError("modulus must be monic")
    deg = len(modulus) - 1
    plus, minus, other = [], [], []
    gap, last = deg, -deg
    for j in compress(range(deg), modulus):
        gap, last = min(gap, j - last), j
        m = modulus[j]
        if m == -1:
            plus.append(j)
        elif m == 1:
            minus.append(j)
        else:
            other.append((j, -m))
    gap = min(gap, deg - last)
    plus, minus = (range(t[0], t[-1] + 1) if len(t) >= _RUN_MIN and t[-1] - t[0] == len(t) - 1
                   else t for t in (plus, minus))
    return deg, gap if gap >= _BATCH_MIN and not other else 1, plus, minus, other


def _batches(rem, deg, batch, plus, minus, counter):
    # reduce_by_intpoly's steps on real data, top down, in batches of
    # `batch`: a batch with a zero c yields its steps one by one, and any
    # other runs here as one slice pass per tap. Its adds are charged at
    # the end.
    adds = 0
    for hi in range(len(rem) - 1, deg - 1, -batch):
        lo = max(hi - batch + 1, deg)
        cs = rem[lo:hi + 1]
        if 0.0 in cs:
            yield from range(hi, lo - 1, -1)
            continue
        n = len(cs)
        for taps, xs in ((plus, cs), (minus, minus and list(map(neg, cs)))):
            for j in taps:
                j += lo - deg
                seg = rem[j:j + n]
                adds += n if all(seg) else n - seg.count(0.0)
                rem[j:j + n] = map(add, seg, xs)
    _charge(counter, adds, 1)


def _run(rem, j, n, x) -> int:
    # Adds x to rem[j:j+n] on real data by one comprehension; returns the
    # adds, one per nonzero slot.
    seg = rem[j:j + n]
    rem[j:j + n] = [s + x for s in seg]
    return n if all(seg) else n - seg.count(0.0)


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

    On real data (no value with a nonzero imaginary part), two cases run
    as C-level list passes that make the loops' adds in the same order:
    - Batches. Let g be the smallest spacing between the modulus's nonzero
      taps, its leading one included: 8192 at order 16384, 41 in
      Phi_5(x**41). Any g consecutive steps write disjoint slots, none
      of them a slot whose c another of them reads. So where
      g >= _BATCH_MIN and every tap is +-1, g steps run as one slice pass
      per tap, rem[a:a+g] = map(add, seg, cs), with cs negated for the -c
      taps. A batch in which some c is zero, a step the loop skips, runs
      step by step.
    - Runs. Where the +1 or the -1 taps sit at one run of at least
      _RUN_MIN consecutive offsets, as in Phi_p for a prime p > 32, a step
      adds c to them as one comprehension over a slice.
    A pass charges an add per nonzero slot, from seg.count(0.0). Complex
    data keep the loops: a pass there would scan each component of the
    slots, at a cost above the loop's.

    The adds of the +-1 taps are charged in bulk. Where c is real, the add
    of +-c costs 1 exactly when the slot's real part is nonzero; where c
    has two nonzero components, a slot with two costs 2, and any other
    slot goes through counter.add. The taps of magnitude >= 2 go through
    counter.add and counter.mul, a complex c by components: a complex(x,
    0.0) sample then gives and costs what x does, where a complex product
    by complex(m, 0.0) turns complex(inf, 0.0) into (inf+nanj).

    Returns deg(modulus) coefficients (possibly zero-padded).
    """
    deg, batch, plus, minus, other = _split(tuple(modulus))
    rem = list(signal)
    if len(rem) < deg:
        rem += [0j] * (deg - len(rem))
        return rem
    add, mul = counter.add, counter.mul
    real = (batch > 1 or range in (type(plus), type(minus))) and _all_real(rem)
    prun, mrun = real and type(plus) is range, real and type(minus) is range
    steps = range(len(rem) - 1, deg - 1, -1)
    if real and batch > 1:
        steps = _batches(rem, deg, batch, plus, minus, counter)
    adds = 0
    for i in steps:
        c = rem[i]
        if c == 0:
            continue
        base = i - deg
        nc = -c
        if not c.imag:
            if prun:
                adds += _run(rem, base + plus.start, len(plus), c)
            else:
                for j in plus:
                    j += base
                    s = rem[j]
                    if s.real:
                        adds += 1
                    rem[j] = s + c
            if mrun:
                adds += _run(rem, base + minus.start, len(minus), nc)
            else:
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
            p = (complex(mul(c.real, neg_mj), mul(c.imag, neg_mj)) if isinstance(c, complex)
                 else mul(c, neg_mj))
            rem[j] = add(rem[j], p)
    _charge(counter, adds, 1)
    return rem[:deg]


def _pk_step(add, mul, x, s1, s2, d, A, lam, sign):
    # One step of reduce_by_pk on one component through add and mul: the
    # new s1 and d.
    if lam is None:
        return add(add(x, mul(s1, A)), -s2), d
    d = add(add(x, mul(s1, lam)), sign * d)
    return add(sign * s1, d), d


def _pk_per_op(x0, v, width, A, lam, sign, counter):
    # reduce_by_pk with every step through counter.add and counter.mul, on
    # the real parts and, at width 2, the imaginary parts; x0 is signal[0]
    # and v is signal[:0:-1].
    add, mul = counter.add, counter.mul
    r0, r1 = [], []
    for part in (_real, _imag)[:width]:
        s1 = s2 = d = 0.0
        for x in map(part, v):
            s2, (s1, d) = s1, _pk_step(add, mul, x, s1, s2, d, A, lam, sign)
        r0.append(add(part(x0), -s2))
        r1.append(s1)
    return complex(*r0), complex(*r1)


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

    The recursion is defined on float components: A and lam are real, so a
    complex signal's remainder is its real parts' remainder plus j times
    its imaginary parts', each stepped on float registers from 0.0 and
    charged what add and mul charge those floats. A signal with no nonzero
    imaginary part, of any sample type, is real: only its real parts are
    stepped, and r0 and r1 get a 0.0 imaginary part. So values and counts
    are the same on every interpreter, and complex(x, +-0.0) samples give
    what x gives. A register is one float on a real signal (complex-typed
    samples are first mapped to their real parts) and a pair of floats on
    a complex one. Each layout runs one loop per form and sign of A, and
    writes the sign into its adds (t - d for t + (-1)*d).

    A step is full when no operand of its adds has a zero component and
    its product is nonzero, or, for a constant of 0 (A = 0, or lam = 0 at
    A = +-2), exactly zero. On real data a full step costs (cost(A), 2) in
    the plain form and (cost(lam), 3) in Reinsch's, one add fewer for a
    constant of 0, and on complex data twice that. Full steps are charged
    in bulk. Every other step is computed as a full one, and each
    component's x, s1, s2 and d are appended to a flat list, replayed after
    the loop through _pk_step with add and mul but for each component's
    first step: that one meets s1 = s2 = d = 0 and charges nothing. A
    constant of 0 turns the product of an inf register into a NaN, which
    the test below takes for nonzero; such a register stays a NaN, so
    where the constant is 0 and s1 ends not finite, the call runs again
    per-op, a component at a time.

    A step that follows a full step is tested only for the zeros it can
    newly meet, by x and t and (m or zero and s2) in the plain form and
    x and t and dn and (m or zero and s1) in Reinsch's (per component in
    the pair layout), where m is the product s1*A or s1*lam. The step
    before witnesses the rest:
    - s2 is the s1 of the step before, whose product m that step found
      nonzero, and a product is zero where s1 is;
    - d is the dn of the step before, which that step tested;
    - a nonzero constant makes m witness s1; a constant of 0 witnesses
      nothing, so the `zero and` branch tests s2 (s1) again.
    After a step that is not full these witnesses do not hold, and the
    steps that follow take the full test, which adds s2 (d) to the one
    above, until one passes: the float layout runs them in an inner loop
    on the same iterator, the pair layout clears a flag.
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
    slow = []  # x, s1, s2, d of each component of each slow step
    # Generic complex data skip the sum: their last sample decides.
    if not signal[-1].imag and (not (typed := isinstance(sum(signal), complex))
                                or _is_real(signal)):
        width = 1
        if typed:
            v = list(map(_real, v))
        s1 = s2 = d = 0.0
        # A slow step's inner loop runs the full test until a step passes;
        # it leaves that step's update to the outer loop's last line. The
        # pair layout's flag would put one more test on every full step:
        # here that made dense real data 4-12% slower at N = 65537.
        it = iter(v)
        if lam is None:
            for x in it:
                m = s1 * A
                t = x + m
                if not (x and t and (m or zero and s2)):
                    slow += x, s1, s2, d
                    for x in it:
                        s2, s1 = s1, t - s2
                        m = s1 * A
                        t = x + m
                        if x and t and s2 and (m or zero):
                            break
                        slow += x, s1, s2, d
                s2, s1 = s1, t - s2
        elif sign > 0:
            for x in it:
                m = s1 * lam
                t = x + m
                dn = t + d
                if not (x and t and dn and (m or zero and s1)):
                    slow += x, s1, s2, d
                    for x in it:
                        s2, s1, d = s1, s1 + dn, dn
                        m = s1 * lam
                        t = x + m
                        dn = t + d
                        if x and t and d and dn and (m or zero and s1):
                            break
                        slow += x, s1, s2, d
                s2, s1, d = s1, s1 + dn, dn
        else:
            for x in it:
                m = s1 * lam
                t = x + m
                dn = t - d
                if not (x and t and dn and (m or zero and s1)):
                    slow += x, s1, s2, d
                    for x in it:
                        s2, s1, d = s1, dn - s1, dn
                        m = s1 * lam
                        t = x + m
                        dn = t - d
                        if x and t and d and dn and (m or zero and s1):
                            break
                        slow += x, s1, s2, d
                s2, s1, d = s1, dn - s1, dn
    else:
        width = 2
        s1r = s1i = s2r = s2i = dr = di = 0.0
        # full: the last step was full. A slow step clears it, and the next
        # step that passes the full test sets it again.
        full = False
        if lam is None:
            for z in v:
                xr, xi = z.real, z.imag
                mr, mi = s1r * A, s1i * A
                tr, ti = xr + mr, xi + mi
                if not (xr and xi and tr and ti and (mr and mi or zero and s2r and s2i)
                        and (full or (full := s2r and s2i))):
                    full = False
                    slow += xr, s1r, s2r, dr, xi, s1i, s2i, di
                s2r, s1r = s1r, tr - s2r
                s2i, s1i = s1i, ti - s2i
        elif sign > 0:
            for z in v:
                xr, xi = z.real, z.imag
                mr, mi = s1r * lam, s1i * lam
                tr, ti = xr + mr, xi + mi
                dnr, dni = tr + dr, ti + di
                if not (xr and xi and tr and ti and dnr and dni
                        and (mr and mi or zero and s1r and s1i)
                        and (full or (full := dr and di))):
                    full = False
                    slow += xr, s1r, s2r, dr, xi, s1i, s2i, di
                s2r, s1r, dr = s1r, s1r + dnr, dnr
                s2i, s1i, di = s1i, s1i + dni, dni
        else:
            for z in v:
                xr, xi = z.real, z.imag
                mr, mi = s1r * lam, s1i * lam
                tr, ti = xr + mr, xi + mi
                dnr, dni = tr - dr, ti - di
                if not (xr and xi and tr and ti and dnr and dni
                        and (mr and mi or zero and s1r and s1i)
                        and (full or (full := dr and di))):
                    full = False
                    slow += xr, s1r, s2r, dr, xi, s1i, s2i, di
                s2r, s1r, dr = s1r, dnr - s1r, dnr
                s2i, s1i, di = s1i, dni - s1i, dni
        s1, s2 = complex(s1r, s1i), complex(s2r, s2i)
    x0 = signal[0]
    if zero and not isfinite(s1):  # a product may have been inf*0
        return _pk_per_op(x0, v, width, A, lam, sign, counter)
    add, mul = counter.add, counter.mul
    it = islice(slow, 4 * width, None)  # each component's first step charges nothing
    for x, r1, r2, rd in zip(it, it, it, it):
        _pk_step(add, mul, x, r1, r2, rd, A, lam, sign)
    _charge(counter, n - 1 - len(slow) // (4 * width),
            (2 - zero if lam is None else 3 - zero) * width, const, width)
    if width == 1:
        return complex(add(x0.real, -s2)), complex(s1)
    return complex(add(x0.real, -s2.real), add(x0.imag, -s2.imag)), s1
