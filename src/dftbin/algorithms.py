"""Block algorithms for one DFT bin: naive summation, Goertzel, and the
cyclotomic-reduction variants (tags "jco" and "jco_goertzel").

All four take the signal as a list of real or complex samples and the bin
index k (any integer, reduced modulo the length), and return a BinResult
carrying the bin value and the measured real-operation counts. Values agree
with the naive oracle to floating-point accuracy.

The two reduction variants share the same structure: divide the signal
polynomial by a modulus that vanishes at the bin's root of unity, then
evaluate the short remainder there. Goertzel uses the fixed degree-2 real
minimal polynomial 1 - A*x + x**2; "jco" uses the cyclotomic polynomial of
the bin's order L (integer taps, multiplication-free below order 105);
"jco_goertzel" chains both reductions, which is cheapest of the three.
Each run meters itself with its own OpRecorder, under the policy below.

Cost policy
-----------
A real multiplication by a constant c is *trivial* (free) when |c| is 0, 1,
or 2 (sign changes and one-bit shifts need no multiplier). Multiplying a real
value by a complex constant a+bj costs one real multiplication per *distinct*
nontrivial magnitude among {|a|, |b|}: when |a| == |b| the product is computed
once and reused for both components. Multiplying a complex value doubles the
per-constant cost. Classification depends only on the constant, never on the
data, except that an exactly-zero multiplicand performs no work at all (the
warm-up steps of a shift register).

Additions are counted per real component: an add whose operands are both
nonzero counts 1, so a full complex + complex add counts 2 and adds against
a still-zero register are free. A subtraction is an add of the negated
operand and counts the same. This is the declared convention for every
"measured adds" figure produced by this package.

Constants produced by cos/sin carry float roundoff, so magnitudes are snapped
to the trivial set with a 1e-12 tolerance. The nearest distinct bin constant
differs by far more than that for any DFT length this library targets.
"""

import cmath
import math
from dataclasses import dataclass

from .cyclotomic import cyclotomic
# totient is unused here, but perfbench/layers.py wraps it by this name.
from .numtheory import bin_index, bin_order, totient  # noqa: F401
from .polynomial import reduce_by_intpoly, reduce_by_pk

__all__ = [
    "OpCounts",
    "OpRecorder",
    "TRIVIAL_MAGNITUDES",
    "SNAP_TOLERANCE",
    "BinSpec",
    "BinResult",
    "root_power",
    "naive_bin",
    "goertzel_bin",
    "jco_bin",
    "jco_goertzel_bin",
]


TRIVIAL_MAGNITUDES = (0.0, 1.0, 2.0)
SNAP_TOLERANCE = 1e-12


@dataclass
class OpCounts:
    """Tally of nontrivial real multiplications and real additions."""

    real_mults: int = 0
    real_adds: int = 0


def _is_trivial_magnitude(m: float) -> bool:
    return any(abs(m - t) <= SNAP_TOLERANCE for t in TRIVIAL_MAGNITUDES)


def _const_cost(c) -> int:
    a = abs(c.real)
    b = abs(c.imag)
    cost = 0
    if not _is_trivial_magnitude(a):
        cost += 1
    if not _is_trivial_magnitude(b) and abs(a - b) > SNAP_TOLERANCE:
        cost += 1
    return cost


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


_QUARTER_TURNS = (1 + 0j, -1j, -1 + 0j, 1j)


def root_power(N: int, k: int, m: int = 1) -> complex:
    """exp(-2j pi k m / N), angle reduced modulo N; quarter turns are exact."""
    r = (k * m) % N
    q, frac = divmod(4 * r, N)
    if frac == 0:
        return _QUARTER_TURNS[q]
    return cmath.exp(complex(0.0, -2.0 * math.pi * r / N))


@dataclass(frozen=True)
class BinSpec:
    """One DFT bin and its derived constants.

    W is the evaluation point exp(-2j pi k / N); A = 2 cos(2 pi k / N) is
    the Goertzel feedback constant; L is the multiplicative order of W.
    """

    N: int
    k: int
    L: int
    W: complex
    A: float

    @classmethod
    def for_bin(cls, N: int, k: int) -> "BinSpec":
        if N < 1:
            raise ValueError(f"signal length must be >= 1, got {N}")
        k = bin_index(N, k)
        A = 2.0 * math.cos(2.0 * math.pi * k / N)
        if abs(A - round(A)) <= 1e-12:  # exact at the trivial angles
            A = float(round(A))
        return cls(N, k, bin_order(N, k), root_power(N, k), A)


@dataclass
class BinResult:
    value: complex
    counts: OpCounts
    algorithm: str


def _start(v, k: int) -> tuple[BinSpec, OpRecorder]:
    if len(v) == 0:
        raise ValueError("empty signal")
    return BinSpec.for_bin(len(v), k), OpRecorder()


def _eval_remainder(R, spec: BinSpec, rec: OpRecorder) -> complex:
    # Dot product against the prestored powers W**m; each real tap costs at
    # most 2 real multiplications, matching the classic per-tap accounting.
    acc = complex(R[0]) if R else 0j
    for m in range(1, len(R)):
        c = R[m]
        if c == 0:
            continue
        acc = rec.add(acc, rec.mul(c, root_power(spec.N, spec.k, m)))
    return acc


def _eval_goertzel(R, spec: BinSpec, rec: OpRecorder) -> complex:
    r0, r1 = reduce_by_pk(R, spec.A, rec)
    return rec.add(r0, rec.mul(r1, spec.W))


def naive_bin(v, k: int) -> BinResult:
    """Direct summation of v_n * W**(k n): the reference oracle."""
    spec, rec = _start(v, k)
    acc = complex(v[0])
    for n in range(1, spec.N):
        acc = rec.add(acc, rec.mul(v[n], root_power(spec.N, spec.k, n)))
    return BinResult(acc, rec.counts(), "naive")


def goertzel_bin(v, k: int) -> BinResult:
    """Second-order real reduction, then one evaluation at W."""
    spec, rec = _start(v, k)
    return BinResult(_eval_goertzel(v, spec, rec), rec.counts(), "goertzel")


def jco_bin(v, k: int) -> BinResult:
    """Cyclotomic reduction to totient(L) taps, evaluated at W."""
    spec, rec = _start(v, k)
    R = reduce_by_intpoly(v, cyclotomic(spec.L), rec)
    return BinResult(_eval_remainder(R, spec, rec), rec.counts(), "jco")


def jco_goertzel_bin(v, k: int) -> BinResult:
    """Cyclotomic reduction chained with the degree-2 reduction.

    When totient(L) <= 2 the two stages coincide: the cyclotomic remainder
    already has at most 2 taps, and the degree-2 stage passes it through.
    """
    spec, rec = _start(v, k)
    R = reduce_by_intpoly(v, cyclotomic(spec.L), rec)
    return BinResult(_eval_goertzel(R, spec, rec), rec.counts(), "jco_goertzel")
