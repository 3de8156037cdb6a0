"""Block algorithms for one DFT bin: naive summation, Goertzel, and the
cyclotomic-reduction variants (tags "jco" and "jco_goertzel").

All four take the signal as a list of real or complex samples and the bin
index k, and return a BinResult carrying the bin value and the measured
real-operation counts. Values agree with the naive oracle to floating-point
accuracy. BinSpec.for_bin(N, k) is the one derivation of a bin, for every
tag, streaming.design_filter and complexity.nominal_costs: it rejects a
non-integral N, N < 1 and a non-integral k, reduces k modulo N, and derives
L, W and A; A is an integer (0, +-1, +-2) exactly when L is in
TRIVIAL_A_ORDERS.

Every tag has the same structure: divide the signal polynomial by a
modulus that vanishes at the bin's root of unity, then evaluate the short
remainder there. The evaluation is one stage, shared by every tag (and by
streaming.finalize); naive summation is that stage on the unreduced signal.
Goertzel reduces by the fixed degree-2 real minimal polynomial
1 - A*x + x**2; "jco" by the cyclotomic polynomial of the bin's order L
(integer taps, multiplication-free below order 385); "jco_goertzel" chains
both reductions, cheapest of the three for L < 385. Each run meters itself
with its own OpRecorder, under the policy below.

"jco" and "jco_goertzel" share one cyclotomic stage. It first folds the
signal modulo x**L - 1: L divides N and Phi_L divides x**L - 1, so adding
the N/L length-L blocks together leaves the remainder modulo Phi_L
unchanged. The fold costs N - L adds and no multiplications. The L-term
sum is then reduced once per distinct prime of L, p_1 < ... < p_s: with
r_i = p_1...p_i, stage i reduces by Phi_{r_i}(x**(L/r_i)), which divides
the previous stage's modulus, and the last is Phi_L = Phi_{rad L}(x**(L/rad L)).
Stage i takes (L/r_i) * phi(r_{i-1}) steps of nnz(Phi_{r_i}) - 1 adds each,
so the cyclotomic stage costs N - L adds plus the sum of those; a
prime-power L is a single reduction.

Goertzel's degree-2 stage runs the plain recursion by A, except where
|A| >= REINSCH_MIN_A = 1.875 at an order outside TRIVIAL_A_ORDERS: there it
runs Reinsch's form with lam = A -+ 2, taken from the half angle in full
relative precision (BinSpec.lam). The plain form amplifies rounding by
about 1/|lam| near |A| = 2; at mid-range A, Reinsch's is the less accurate
one. Its multiplications are the plain form's, with one more add per step.

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

There is no tolerance: _const_cost charges what the float run does, and
_COST_CACHE only memoises it. root_power returns every multiple of an eighth
turn exactly and A is an integer on TRIVIAL_A_ORDERS, so below N of about
5.96e8 the bin's constants are charged on L: A and lam cost 1, and W costs 2,
1 at L = 8 and nothing at L in (1, 2, 4). The evaluation stage's powers W**m
are charged in full too, though next to k = 0 their real parts lie within
1e-12 of 1 from N of about 4.4e6 on. From N of about 5.96e8 on, next to
k = 0, N/4, N/2 and 3N/4, one component of W rounds to exactly +-1.0, so the
float run does one multiplication fewer and W is charged 1; next to k = 0
and N/2, A rounds to +-2.0 and is free, but the run multiplies by lam.
"""

import cmath
import math
from dataclasses import dataclass

from .cyclotomic import cyclotomic
# totient is unused here, but perfbench/layers.py wraps it by this name.
from .numtheory import bin_index, bin_order, factorize, totient  # noqa: F401
from .polynomial import reduce_by_intpoly, reduce_by_pk

__all__ = [
    "OpCounts",
    "OpRecorder",
    "TRIVIAL_MAGNITUDES",
    "TRIVIAL_A_ORDERS",
    "REINSCH_MIN_A",
    "BinSpec",
    "BinResult",
    "root_power",
    "naive_bin",
    "goertzel_bin",
    "jco_bin",
    "jco_goertzel_bin",
]


TRIVIAL_MAGNITUDES = (0.0, 1.0, 2.0)
TRIVIAL_A_ORDERS = frozenset((1, 2, 3, 4, 6))
REINSCH_MIN_A = 1.875


@dataclass
class OpCounts:
    """Tally of nontrivial real multiplications and real additions."""

    real_mults: int = 0
    real_adds: int = 0


def _const_cost(c) -> int:
    a, b = abs(c.real), abs(c.imag)
    return (a not in TRIVIAL_MAGNITUDES) + (b not in TRIVIAL_MAGNITUDES and b != a)


_COST_CACHE: dict[complex, int] = {}


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
        cost = _COST_CACHE.get(const)
        if cost is None:
            cost = _COST_CACHE[const] = _const_cost(complex(const))
        if cost:
            self.mults += cost if value.imag == 0 else 2 * cost
        return value * const

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


@dataclass(frozen=True)
class BinSpec:
    """One DFT bin and its derived constants.

    W is the evaluation point exp(-2j pi k / N); A = 2 cos(2 pi k / N) is
    the Goertzel feedback constant; L is the multiplicative order of W.
    lam is A -+ 2 from the half angle, set where |A| >= REINSCH_MIN_A at
    an order outside TRIVIAL_A_ORDERS, and None elsewhere.
    """

    N: int
    k: int
    L: int
    W: complex
    A: float
    lam: float | None = None

    @classmethod
    def for_bin(cls, N: int, k: int) -> "BinSpec":
        k = bin_index(N, k)
        L = bin_order(N, k)
        W = root_power(N, k)
        A = 2.0 * math.cos(2.0 * math.pi * k / N)
        lam = None
        if L in TRIVIAL_A_ORDERS:
            A = float(round(A))
        elif abs(A) >= REINSCH_MIN_A:
            # -4 sin^2(pi k / N), or 4 cos^2(pi k / N) = 4 sin^2(pi (N - 2k) / 2N),
            # from an exact integer angle, so lam keeps full relative precision.
            half = math.sin(math.pi * min(k, N - k) / N if A > 0
                            else math.pi * (N - 2 * k) / (2 * N))
            lam = math.copysign(4.0 * half * half, -A)
        return cls(N, k, L, W, A, lam)


@dataclass
class BinResult:
    value: complex
    counts: OpCounts
    algorithm: str


def _cyclo_reduce(v, spec: BinSpec, rec: OpRecorder) -> list:
    # Fold modulo x**L - 1 (len(v) - L adds; none for streaming's L slots),
    # then reduce by Phi_{r_i}(x**(L/r_i)) for r_i = p_1...p_i over the
    # distinct primes of L, ascending; the last modulus is Phi_L.
    # perfbench/layers.py wraps reduce_by_intpoly by this module's name, so
    # it is called as a global here.
    L = spec.L
    R = v[:L]
    for start in range(L, len(v), L):
        R = [rec.add(a, b) for a, b in zip(R, v[start:start + L])]
    r = 1
    for p, _ in factorize(L):
        r *= p
        stride = L // r
        phi_r = cyclotomic(r)
        modulus = [0] * (stride * (len(phi_r) - 1) + 1)
        modulus[::stride] = phi_r
        R = reduce_by_intpoly(R, modulus, rec)
    return R


def _eval_remainder(R, spec: BinSpec, rec: OpRecorder) -> complex:
    # Each nonzero real tap past the constant costs at most 2 real
    # multiplications, matching the classic per-tap accounting.
    acc = complex(R[0])
    for m in range(1, len(R)):
        c = R[m]
        if c == 0:
            continue
        acc = rec.add(acc, rec.mul(c, root_power(spec.N, spec.k * m)))
    return acc


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
    """Cyclotomic reduction to totient(L) taps, evaluated at W."""
    spec, rec = BinSpec.for_bin(len(v), k), OpRecorder()
    R = _cyclo_reduce(v, spec, rec)
    return BinResult(_eval_remainder(R, spec, rec), rec.counts(), "jco")


def jco_goertzel_bin(v, k: int) -> BinResult:
    """Cyclotomic reduction chained with the degree-2 reduction.

    When totient(L) <= 2 the two stages coincide: the cyclotomic remainder
    already has at most 2 taps, and the degree-2 stage passes it through.
    """
    spec, rec = BinSpec.for_bin(len(v), k), OpRecorder()
    R = reduce_by_pk(_cyclo_reduce(v, spec, rec), spec.A, rec, spec.lam)
    return BinResult(_eval_remainder(R, spec, rec), rec.counts(), "jco_goertzel")
