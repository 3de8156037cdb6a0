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
"""

import cmath
import math
from dataclasses import dataclass

from .complexity import OpCounts, OpRecorder
from .cyclotomic import cyclotomic
# totient is unused here, but perfbench/layers.py wraps it by this name.
from .numtheory import bin_order, totient  # noqa: F401
from .polynomial import reduce_by_intpoly, reduce_by_pk

__all__ = [
    "BinSpec",
    "BinResult",
    "root_power",
    "naive_bin",
    "goertzel_bin",
    "jco_bin",
    "jco_goertzel_bin",
]


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
        k = k % N
        A = 2.0 * math.cos(2.0 * math.pi * k / N)
        if abs(A - round(A)) <= 1e-12:  # exact at the trivial angles
            A = float(round(A))
        return cls(N, k, bin_order(N, k), root_power(N, k), A)


@dataclass
class BinResult:
    value: complex
    counts: OpCounts
    algorithm: str


def _require_signal(v) -> int:
    n = len(v)
    if n == 0:
        raise ValueError("empty signal")
    return n


def _start(v, k: int) -> tuple[BinSpec, OpRecorder]:
    return BinSpec.for_bin(_require_signal(v), k), OpRecorder()


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
    N = _require_signal(v)
    k = k % N
    rec = OpRecorder()
    acc = complex(v[0])
    for n in range(1, N):
        acc = rec.add(acc, rec.mul(v[n], root_power(N, k, n)))
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
