"""Block algorithms for one DFT bin: naive summation, Goertzel, and the
cyclotomic-reduction variants (tags "jco" and "jco_goertzel").

All four take the signal as a list of real or complex samples and the bin
index k, and return a BinResult carrying the bin value and the measured
real-operation counts. Values agree with the naive oracle to floating-point
accuracy. BinSpec.for_bin(N, k) is the one derivation of a bin, for every
tag, streaming.design_filter and complexity.nominal_costs: it rejects a
non-integral N, N < 1 and a non-integral k, reduces k modulo N, and derives
L and A; A is an integer (0, +-1, +-2) exactly when L is in
TRIVIAL_A_ORDERS. It is memoised for int N and k, the 64 bins used last;
other types (2.0, True, numpy ints) are derived afresh each call, so they
raise or reduce as before even where an equal int bin is cached. The
records (OpCounts, BinResult, BinSpec) are named tuples.

Every tag has the same structure: divide the signal polynomial by a
modulus that vanishes at the bin's root of unity, then evaluate the short
remainder there. The evaluation is one stage, shared by every tag (and by
streaming.finalize); naive summation is that stage on the unreduced signal.
Goertzel reduces by the fixed degree-2 real minimal polynomial
1 - A*x + x**2; "jco" by a multiple of the cyclotomic polynomial of the
bin's order L whose integer taps all lie in {0, +-1, +-2}, so that
reduction is multiplication-free; "jco_goertzel" chains both reductions.
Each run meters itself with its own OpRecorder, under the policy below.

"jco" and "jco_goertzel" share one cyclotomic stage. It first folds the
signal modulo x**L - 1: L divides N and Phi_L divides x**L - 1, so adding
the N/L length-L blocks together leaves the remainder modulo Phi_L
unchanged. The fold costs N - L adds and no multiplications. The L-term
sum is then reduced by a chain with one stage per distinct prime of L,
p_1 < ... < p_s: with r_i = p_1...p_i, stage i reduces by
Phi_{r_i}(x**(L/r_i)), which divides the previous stage's modulus, and the
last would be Phi_L = Phi_{rad L}(x**(L/rad L)). The chain stops before
the first stage whose Phi_{r_i} has a tap outside {0, +-1, +-2}, since
such a tap costs a multiplication per step. Every modulus the chain
reaches is a multiple of Phi_L, so its remainder has the same value at W.
Stages 1 and 2 always run (Phi_p is all ones, Phi_pq is flat by Lam and
Leung 1996, and Phi_2m(x) = Phi_m(-x)), and so does stage 3 when 3 divides
L (Bang 1895 bounds the taps of Phi_pqr by p - 1). stage_plan(L) memoises
the moduli of the stages that run, and remainder_length(L) gives D, the
length of the remainder they leave: (L/r) * phi(r) for the last r that
runs, phi(L) where every stage runs, as for every L < 385 and every L with
at most two distinct odd primes. Stage i takes (L/r_i) * phi(r_{i-1})
steps of nnz(Phi_{r_i}) - 1 adds each, so the cyclotomic stage costs
N - L adds plus the sum of those over the stages that run; a prime-power
L is a single reduction.

Bins of one signal share its cyclotomic stage: the fold and the chain
depend on the samples and on L, not on k. jco_bin and jco_goertzel_bin
reach the stage through _cyclo_stage, which keeps, for the last signal it
reduced, one entry per order L: the remainder, as a tuple the next stage
cannot change, and the stage's exact (mults, adds). A later call reuses
the entry when it passes the same sample objects at the same L, compared
by `is` against a tuple of them that the memo holds, so that none of them
can be freed and its id reused. That scan costs about 19 ns per sample
(1.2 ms at N = 65537, 4 us at 205), except for a tuple signal the memo
already holds: tuple(v) of a tuple is v itself, so that call matches by
identity alone, and dtmf.detect passes its eight calls one tuple.
Identity, not equality: -0.0 == 0.0 and 1 == 1.0 == complex(1.0, 0.0),
but their remainders differ in sign or in type, on which the later
stages' signed zeros and counts depend. A copy, a signal changed in place
and another signal compute the stage again, and the memo drops the old
signal before it does, so that call pays to free the old remainders:
0.67 ms for 65,536 complex taps (CPython 3.11).
A reused entry charges its stored counts to the call's own recorder, so
every result still carries that bin's stand-alone counts. What stays
held is the last signal's samples and one remainder per order reduced,
of at most L taps each. streaming.finalize calls _cyclo_reduce on its
slots and shares nothing.

Goertzel's degree-2 stage runs the plain recursion by A, except where
|A| >= REINSCH_MIN_A = 1.875 at an order outside TRIVIAL_A_ORDERS: there it
runs Reinsch's form with lam = A -+ 2, taken from the half angle in full
relative precision (BinSpec.lam). The plain form amplifies rounding by
about 1/|lam| near |A| = 2; at mid-range A, Reinsch's is the less accurate
one. Its multiplications are the plain form's, with one more add per step.
At L in (1, 2) (k = 0 and N/2), A = +-2 makes 1 - A*x + x**2 a square, on
whose double root the plain form's rounding grows like N**2; there
Reinsch's form runs with lam = 0, which costs no multiplication and, since
lam*s is an exact zero, one more add per call rather than per step.

Cost policy
-----------
A real multiplication by a constant c is *trivial* (free) when |c| is exactly
0, 1 or 2 (sign changes and one-bit shifts need no multiplier). Multiplying a
real value by a complex constant a+bj costs one real multiplication per
*distinct* nontrivial magnitude among {|a|, |b|}: when |a| == |b| the product
is computed once and reused for both components. Multiplying a complex value
doubles the per-constant cost. Classification depends only on the constant,
never on the data, except that an exactly-zero multiplicand performs no work
at all (the warm-up steps of a shift register).

Additions are counted per real component: an add whose operands are both
nonzero counts 1, so a full complex + complex add counts 2 and adds against
a still-zero register are free. A subtraction is an add of the negated
operand and counts the same. This is the declared convention for every
"measured adds" figure produced by this package.

There is no tolerance: _const_cost charges what the float run does.
_cost memoises it for the kernels' constants (A, lam, integer taps).
The evaluation stage reads W**m from _root_table(N, L) instead: one table
of L slots per length N and order L, whose slot j = (k/g)*m mod L,
g = N/L, holds root_power(N, g*j) and its _const_cost once a tap of a bin
visits it, a zero tap too; a sweep of every bin of N keeps under 4.6 N
roots below N = 10**6, one table per divisor of N. At k/g = 1 the table
holds W**m in m order, and a long remainder is zipped with it.
A slot is two list entries, 16 bytes on a 64-bit CPython, plus a 32-byte
complex once filled. The root stays a complex: a float tap reads its two
components, and any other tap is multiplied by it as it is.
Like every memo of a polynomial, modulus, split or root table, these keep
only the 64 keys used last; factorize, totient and _chain_orders stay
unbounded, since an entry is a few ints.
root_power returns every multiple of an eighth turn exactly and A is an
integer on TRIVIAL_A_ORDERS, so below N of about 5.96e8 the bin's constants
are charged on L: A and lam cost 1, and W costs 2, 1 at L = 8 and nothing at
L in (1, 2, 4). The powers W**m are charged in full too, though next to
k = 0 their real parts lie within 1e-12 of 1 from N of about 4.4e6 on.
From N of about 5.96e8 on, next to k = 0, N/4, N/2 and 3N/4, one component
of W rounds to exactly +-1.0, so the float run does one multiplication
fewer and W is charged 1; next to k = 0 and N/2, A rounds to +-2.0 and is
free, but the run multiplies by lam.
"""

import cmath
import functools
import math
from collections import namedtuple
from itertools import compress, islice
from operator import attrgetter, is_

from .cyclotomic import cyclotomic
from .numtheory import bin_index, bin_order, factorize, totient
from .polynomial import fold, reduce_by_intpoly, reduce_by_pk

__all__ = [
    "OpCounts",
    "OpRecorder",
    "TRIVIAL_MAGNITUDES",
    "TRIVIAL_A_ORDERS",
    "REINSCH_MIN_A",
    "BinSpec",
    "BinResult",
    "remainder_length",
    "stage_plan",
    "root_power",
    "naive_bin",
    "goertzel_bin",
    "jco_bin",
    "jco_goertzel_bin",
]


TRIVIAL_MAGNITUDES = (0.0, 1.0, 2.0)
TRIVIAL_A_ORDERS = frozenset((1, 2, 3, 4, 6))
REINSCH_MIN_A = 1.875


OpCounts = namedtuple("OpCounts", "real_mults real_adds", defaults=(0, 0))
OpCounts.__doc__ = "Tally of nontrivial real multiplications and real additions."


def _const_cost(c) -> int:
    a, b = abs(c.real), abs(c.imag)
    return (a not in TRIVIAL_MAGNITUDES) + (b not in TRIVIAL_MAGNITUDES and b != a)


_cost = functools.lru_cache(maxsize=64)(_const_cost)
_imag = attrgetter("imag")
# Past this many taps _eval_remainder zips R with a step-1 root table. Its
# set-up costs about 2.5 us (CPython 3.11): against the stepped loop, real
# and complex remainders took 1.03-1.06 of its time at 128 taps, 0.94-1.0
# at 256, 0.86-0.96 at 512 and 0.71-0.74 at 65536.
_ZIP_MIN = 256
# The last signal _cyclo_stage reduced, as (tuple of its samples,
# {L: (R, mults, adds)}), or None; see the shared stage above.
_STAGE_MEMO = None


class OpRecorder:
    """Counting recorder threaded through an algorithm run.

    Each run owns its recorder (no global state); the arithmetic performed
    is exactly what an uninstrumented run would do, so values are identical.
    """

    __slots__ = ("mults", "adds")

    def __init__(self):
        self.mults = 0
        self.adds = 0

    def mul(self, value, const):
        """value * const, charging the per-constant cost (doubled for complex data)."""
        if value == 0:
            return value * const
        cost = _cost(const)
        if cost:
            self.mults += cost if value.imag == 0 else 2 * cost
        return value * const

    def bulk(self, steps, adds, const, width):
        """Charge `steps` kernel steps that have no zero operand at once: each
        makes `adds` adds and multiplies a value of `width` nonzero
        components (1 real, 2 complex) by const, charged as mul() would."""
        cost = _cost(const)
        self.mults += steps * width * cost
        self.adds += steps * adds

    def add(self, x, y):
        if x.real != 0 and y.real != 0:
            self.adds += 1
        if x.imag != 0 and y.imag != 0:
            self.adds += 1
        return x + y

    def counts(self) -> OpCounts:
        return OpCounts(self.mults, self.adds)


_H = math.sqrt(0.5)  # correctly rounded, unlike cmath.exp's cos and sin there
_EIGHTH_TURNS = (1 + 0j, complex(_H, -_H), -1j, complex(-_H, -_H),
                 -1 + 0j, complex(-_H, _H), 1j, complex(_H, _H))


def root_power(N: int, k: int) -> complex:
    """exp(-2j pi k / N), angle reduced modulo N; eighth turns are exact."""
    r = k % N
    q, frac = divmod(8 * r, N)
    if frac == 0:
        return _EIGHTH_TURNS[q]
    return cmath.exp(complex(0.0, -2.0 * math.pi * r / N))


class BinSpec(namedtuple("BinSpec", "N k L A lam", defaults=(None,))):
    """One DFT bin and its derived constants.

    A = 2 cos(2 pi k / N) is the Goertzel feedback constant; L is the
    multiplicative order of the evaluation point W = root_power(N, k).
    lam is A -+ 2 from the half angle, set where |A| >= REINSCH_MIN_A at
    an order outside TRIVIAL_A_ORDERS, 0.0 at L in (1, 2), where A = +-2,
    and None elsewhere.
    """

    __slots__ = ()

    @classmethod
    def for_bin(cls, N: int, k: int) -> "BinSpec":
        if type(N) is int and type(k) is int:
            return _int_bin_spec(N, k)
        return cls._derive(N, k)

    @staticmethod
    def _derive(N, k) -> "BinSpec":
        k = bin_index(N, k)
        L = bin_order(N, k)
        A = 2.0 * math.cos(2.0 * math.pi * k / N)
        lam = None
        if L in TRIVIAL_A_ORDERS:
            A = float(round(A))
            if L <= 2:  # A = +-2: the plain form runs on a double root
                lam = 0.0
        elif abs(A) >= REINSCH_MIN_A:
            # -4 sin^2(pi k / N), or 4 cos^2(pi k / N) = 4 sin^2(pi (N - 2k) / 2N),
            # from an exact integer angle, so lam keeps full relative precision.
            half = math.sin(math.pi * min(k, N - k) / N if A > 0
                            else math.pi * (N - 2 * k) / (2 * N))
            lam = math.copysign(4.0 * half * half, -A)
        return BinSpec(N, k, L, A, lam)


_int_bin_spec = functools.lru_cache(maxsize=64)(BinSpec._derive)
BinResult = namedtuple("BinResult", "value counts algorithm")


@functools.lru_cache(maxsize=None)
def _chain_orders(L: int) -> tuple[int, ...]:
    """The orders r_i = p_1...p_i of the chain stages that run at order L,
    p_1 < p_2 < ... the distinct primes of L: every r_i up to, not
    including, the first whose Phi_{r_i} has a tap outside {0, +-1, +-2}."""
    orders, r = [], 1
    for p, _ in factorize(L):
        if any(abs(c) > 2 for c in cyclotomic(r * p)):
            break
        r *= p
        orders.append(r)
    return tuple(orders)


def remainder_length(L: int) -> int:
    """D, the length of the remainder the chain leaves at order L:
    (L/r_s) * phi(r_s) for the last stage r_s that runs, phi(L) when
    every stage runs."""
    orders = _chain_orders(L)
    r = orders[-1] if orders else 1
    return L // r * totient(r)


@functools.lru_cache(maxsize=64)
def stage_plan(L: int) -> tuple[tuple[int, ...], ...]:
    """The moduli of the chain stages that run at order L, memoised for the
    64 orders used last: per stage, the dense dilated modulus
    Phi_{r_i}(x**(L/r_i)) as a tuple, the key under which
    reduce_by_intpoly memoises its split into taps."""
    moduli = []
    for r in _chain_orders(L):
        stride = L // r
        phi_r = cyclotomic(r)
        modulus = [0] * (stride * (len(phi_r) - 1) + 1)
        modulus[::stride] = phi_r
        moduli.append(tuple(modulus))
    return tuple(moduli)


def _cyclo_reduce(v, spec: BinSpec, rec: OpRecorder) -> list:
    # Fold modulo x**L - 1 (len(v) - L adds; none for streaming's L slots),
    # then reduce by each planned modulus. perfbench/layers.py wraps
    # reduce_by_intpoly and cyclotomic by this module's names, so they are
    # called as globals here.
    R = fold(v, spec.L, rec)
    for modulus in stage_plan(spec.L):
        R = reduce_by_intpoly(R, modulus, rec)
    return R


def _cyclo_stage(v, spec: BinSpec, rec: OpRecorder) -> tuple:
    # _cyclo_reduce's remainder as a tuple, shared by the bins of v of one
    # order. rec is the call's fresh recorder, so its counts after the
    # stage are the stage's. The memo is read once: a concurrent caller
    # can at worst compute a stage again. A tuple signal is its own memo
    # key (tuple(v) is v), so passing it again skips the O(N) scan.
    global _STAGE_MEMO
    memo = _STAGE_MEMO
    if memo is None or memo[0] is not v and (
            len(memo[0]) != len(v) or not all(map(is_, memo[0], v))):
        _STAGE_MEMO = None  # never hold two signals' remainders; frees them here
        memo = (tuple(v), {})
    entry = memo[1].get(spec.L)
    if entry is None:
        R = tuple(_cyclo_reduce(v, spec, rec))
        entry = memo[1][spec.L] = (R, rec.mults, rec.adds)
        _STAGE_MEMO = memo
    else:
        _, rec.mults, rec.adds = entry
    return entry[0]


@functools.lru_cache(maxsize=64)
def _root_table(N: int, L: int) -> tuple[list, list]:
    # The (roots, costs) of _eval_remainder for the bins of order L at
    # length N, filled as they visit them; see "Cost policy" above.
    return [None] * L, [0] * L


def _eval_remainder(R, spec: BinSpec, rec: OpRecorder) -> complex:
    # Sum of R[m] * W**m from the root table of (N, L); see "Cost policy".
    # Each nonzero real tap past the constant costs at most 2 real
    # multiplications, matching the classic per-tap accounting. Every tap
    # is multiplied before its zero test. A float tap's product has the
    # components c * w.real and c * w.imag where both are nonzero (a
    # promoted float's cross terms are +-0.0); any other tap takes the
    # complex product. A tap is fast where ar and both components are
    # nonzero: it is added on two floats, even at ai = +-0.0, which adds pi
    # exactly and for which rec.add charges the real parts only (every
    # real signal's first add is one, as R[0] has a zero imaginary part).
    # Any other nonzero tap goes through rec.add. Where the bin's step is 1
    # and R has more than _ZIP_MIN taps, the table holds the roots in m
    # order: the loop zips R with it, and the counts are taken after the
    # loop, as the costs of the nonzero taps, again for those with a
    # nonzero imaginary part, and 2 adds per fast tap, 1 where it met
    # ai = 0. Any other remainder steps a slot index through the table and
    # tallies inline.
    N, L = spec.N, spec.L
    g, step = N // L, spec.k * L // N
    roots, costs = _root_table(N, L)
    acc = complex(R[0])
    ar, ai = acc.real, acc.imag
    if step == 1 and _ZIP_MIN < len(R) <= L:
        n = len(R)
        if not all(islice(roots, 1, n)):
            for r in range(1, n):
                if roots[r] is None:
                    roots[r] = root_power(N, r * g)
                    costs[r] = _const_cost(roots[r])
        met = other = typed = 0
        for c, w in zip(islice(R, 1, None), islice(roots, 1, None)):
            if type(c) is float:
                pr, pi = c * w.real, c * w.imag
            else:
                p = c * w
                pr, pi = p.real, p.imag
                typed = 1
            if ar and pr and pi:
                if not ai:
                    met += 1
                ar += pr
                ai += pi
            else:
                other += 1
                if c:
                    acc = rec.add(complex(ar, ai), c * w)
                    ar, ai = acc.real, acc.imag
        rec.mults += sum(compress(islice(costs, 1, None), islice(R, 1, None)))
        if typed:
            rec.mults += sum(compress(islice(costs, 1, None), map(_imag, islice(R, 1, None))))
        rec.adds += 2 * (n - 1 - other) - met
        return complex(ar, ai)
    mults = adds = r = 0
    for c in islice(R, 1, None):
        r += step
        if r >= L:
            r -= L
        w = roots[r]
        if w is None:
            w = roots[r] = root_power(N, r * g)
            costs[r] = _const_cost(w)
        if type(c) is float:
            pr, pi = c * w.real, c * w.imag
            cost = costs[r]
        else:
            p = c * w
            pr, pi = p.real, p.imag
            cost = 2 * costs[r] if c.imag else costs[r]
        if ar and pr and pi:
            mults += cost
            adds += 2 if ai else 1
            ar += pr
            ai += pi
        elif c:
            mults += cost
            acc = rec.add(complex(ar, ai), c * w)
            ar, ai = acc.real, acc.imag
    rec.mults += mults
    rec.adds += adds
    return complex(ar, ai)


def naive_bin(v, k: int) -> BinResult:
    """Direct summation of v_n * W**(k n): the reference oracle."""
    spec, rec = BinSpec.for_bin(len(v), k), OpRecorder()
    return BinResult(_eval_remainder(v, spec, rec), rec.counts(), "naive")


def goertzel_bin(v, k: int) -> BinResult:
    """Second-order real reduction, then one evaluation at W."""
    spec, rec = BinSpec.for_bin(len(v), k), OpRecorder()
    R = reduce_by_pk(v, spec.A, rec, spec.lam)
    return BinResult(_eval_remainder(R, spec, rec), rec.counts(), "goertzel")


def jco_bin(v, k: int) -> BinResult:
    """Cyclotomic reduction to D = remainder_length(L) taps, evaluated at W."""
    spec, rec = BinSpec.for_bin(len(v), k), OpRecorder()
    R = _cyclo_stage(v, spec, rec)
    return BinResult(_eval_remainder(R, spec, rec), rec.counts(), "jco")


def jco_goertzel_bin(v, k: int) -> BinResult:
    """Cyclotomic reduction chained with the degree-2 reduction.

    When D = remainder_length(L) <= 2 the two stages coincide: the
    cyclotomic remainder already has at most 2 taps, and the degree-2 stage
    passes it through.
    """
    spec, rec = BinSpec.for_bin(len(v), k), OpRecorder()
    R = reduce_by_pk(_cyclo_stage(v, spec, rec), spec.A, rec, spec.lam)
    return BinResult(_eval_remainder(R, spec, rec), rec.counts(), "jco_goertzel")
