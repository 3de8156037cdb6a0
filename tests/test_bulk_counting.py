"""The kernels and the evaluation stage charge full steps in bulk; the
per-op kernels and per_op_eval in oracles.py charge every operation through
OpRecorder.add and OpRecorder.mul, which define a count. Both must give the
same counts and repr-equal values, on every kind of input: float, complex,
small integers (real and complex, with cancellations), exact and signed
zeros, and 1e308 samples whose registers overflow to inf and NaN.

Runs under pytest, or as a plain script on an interpreter without pytest:

    PYTHONPATH=src python tests/test_bulk_counting.py
"""

import math
import random

from dftbin import algorithms
from dftbin.algorithms import BinSpec, OpRecorder, _cyclo_reduce
from dftbin.complexity import ALGORITHMS, measure
from dftbin.cyclotomic import cyclotomic
from dftbin.polynomial import fold, reduce_by_intpoly, reduce_by_pk
from oracles import (chain_moduli, per_op_eval, per_op_fold, per_op_reduce_by_intpoly,
                     per_op_reduce_by_pk)

SMALL_N = range(1, 61)
LARGE_N = (205, 385, 1155, 4096)
ZEROS = (0, 0.0, -0.0, 0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0))


def signals(N):
    """One signal of length N of each input kind, seeded by N."""
    rng = random.Random(N)

    def pick(choices):
        return [rng.choice(choices) for _ in range(N)]

    return {
        "float": [rng.uniform(-1, 1) for _ in range(N)],
        "complex": [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(N)],
        "int": pick((-2, -1, 0, 0, 1, 1, 2)),
        "int_complex": [complex(rng.randint(-1, 1), rng.randint(-1, 1)) for _ in range(N)],
        "zeros": pick(ZEROS + (1.5, -0.5, 1, complex(0.5, -0.0))),
        "zeros_complex": pick(ZEROS + (complex(0.5, 1.0), complex(0.0, 2.0), 1.0)),
        "overflow": pick((1e308, -1e308, 1e308, 0.0)),
        # complex * int leaves inf * 0 = NaN in the imaginary part.
        "overflow_complex_typed": pick((complex(1e308, 0.0), -1e308, 1e308, 0.5)),
        # Imaginary parts cancel to 0 next to an infinite real part.
        "overflow_int_complex": [complex(rng.choice((1e308, -1e308, 1.0)), rng.randint(-1, 1))
                                 for _ in range(N)],
        "overflow_complex": [complex(rng.choice((1e308, -1e308, 0.0)), rng.choice((1e308, 0.5)))
                             for _ in range(N)],
    }


def bins(N):
    if N in SMALL_N:
        return range(N)
    return sorted({0, 1, 2, 7, N // 4, N // 2, N - 1})


def _same(what, got, want, got_rec, want_rec):
    assert repr(got) == repr(want), (what, got, want)
    assert got_rec.counts() == want_rec.counts(), (what, got_rec.counts(), want_rec.counts())


def check_pk(N) -> int:
    """reduce_by_pk at every bin of bins(N): the plain form, and Reinsch's
    form with lam = A -+ 2 (lam = 0 at A = +-2), on every input kind."""
    cases = 0
    data = signals(N)
    for k in bins(N):
        spec = BinSpec.for_bin(N, k)
        A = spec.A
        lam = A - math.copysign(2.0, A)
        for kind, v in data.items():
            for form in (None, lam):
                got_rec, want_rec = OpRecorder(), OpRecorder()
                got = reduce_by_pk(v, A, got_rec, form)
                want = per_op_reduce_by_pk(v, A, want_rec, form)
                _same(("pk", N, k, kind, form), got, want, got_rec, want_rec)
                cases += 1
    return cases


def check_cyclo(N) -> int:
    """For every order L of a bin of bins(N): the fold, the whole cyclotomic
    stage against the per-op fold and the chain stages that run
    (oracles.chain_moduli; three of four at L = 1155), and, up to L = 385,
    reduce_by_intpoly by Phi_L itself (taps of magnitude 2 at L = 105, 3 at
    L = 385) on the unfolded signal."""
    cases = 0
    data = signals(N)
    for L in sorted({BinSpec.for_bin(N, k).L for k in bins(N)}):
        spec = BinSpec.for_bin(N, N // L)
        for kind, v in data.items():
            got_rec, want_rec = OpRecorder(), OpRecorder()
            _same(("fold", N, L, kind), fold(v, L, got_rec), per_op_fold(v, L, want_rec),
                  got_rec, want_rec)
            got_rec, want_rec = OpRecorder(), OpRecorder()
            got = _cyclo_reduce(v, spec, got_rec)
            want = per_op_fold(v, L, want_rec)
            for modulus in chain_moduli(L):
                want = per_op_reduce_by_intpoly(want, modulus, want_rec)
            _same(("chain", N, L, kind), got, want, got_rec, want_rec)
            cases += 2
            if L <= 385:
                got_rec, want_rec = OpRecorder(), OpRecorder()
                phi = cyclotomic(L)
                _same(("intpoly", N, L, kind), reduce_by_intpoly(v, phi, got_rec),
                      per_op_reduce_by_intpoly(v, phi, want_rec), got_rec, want_rec)
                cases += 1
    return cases


def check_eval(N) -> int:
    """The evaluation stage on every remainder that a tag (streaming.finalize
    too) hands it, at every bin of bins(N), on every input kind, against
    per_op_eval: repr of the value and both counts."""
    data = signals(N)
    fast, remainders = algorithms._eval_remainder, []

    def keep(R, spec, rec):
        remainders.append((list(R), spec))
        return fast(R, spec, rec)

    algorithms._eval_remainder = keep
    try:
        for tag in ALGORITHMS:
            for k in bins(N):
                for v in data.values():
                    measure(tag, v, k)
    finally:
        algorithms._eval_remainder = fast
    for R, spec in remainders:
        got_rec, want_rec = OpRecorder(), OpRecorder()
        _same(("eval", spec, len(R)), fast(R, spec, got_rec), per_op_eval(R, spec, want_rec),
              got_rec, want_rec)
    return len(remainders)


def test_eval_stage_bulk_equals_per_op_small_n():
    for N in SMALL_N:
        check_eval(N)


def test_eval_stage_bulk_equals_per_op_large_n():
    for N in LARGE_N:
        check_eval(N)


def test_reduce_by_pk_bulk_equals_per_op_small_n():
    for N in SMALL_N:
        check_pk(N)


def test_reduce_by_pk_bulk_equals_per_op_large_n():
    for N in LARGE_N:
        check_pk(N)


def test_cyclotomic_stage_bulk_equals_per_op_small_n():
    for N in SMALL_N:
        check_cyclo(N)


def test_cyclotomic_stage_bulk_equals_per_op_large_n():
    for N in LARGE_N:
        check_cyclo(N)


def test_infinite_register_with_a_zero_imaginary_part():
    # The last two samples leave s1 = (inf, 0) and s2 = (1, 1): mul charges
    # s1 as a real value, though s1 * A has a NaN imaginary part.
    for A in (1.3, -0.7):
        v = [1 + 1j] * 6 + [complex(math.inf, -A), 1 + 1j]
        for lam in (None, A - math.copysign(2.0, A)):
            got_rec, want_rec = OpRecorder(), OpRecorder()
            _same(("pk", A, lam), reduce_by_pk(v, A, got_rec, lam),
                  per_op_reduce_by_pk(v, A, want_rec, lam), got_rec, want_rec)


class AddMulOnly:
    """A counter with the two required methods and no bulk charge."""

    def add(self, x, y):
        return x + y

    def mul(self, value, const):
        return value * const


def test_counter_without_bulk_gets_the_same_values():
    v = signals(385)
    for kind in ("float", "complex", "int", "zeros", "overflow"):
        for k in (1, 2, 77, 192):
            spec = BinSpec.for_bin(385, k)
            for lam in (None, spec.A - math.copysign(2.0, spec.A)):
                plain, rec = AddMulOnly(), OpRecorder()
                got = reduce_by_pk(v[kind], spec.A, plain, lam)
                assert repr(got) == repr(reduce_by_pk(v[kind], spec.A, rec, lam)), (kind, k)
            plain, rec = AddMulOnly(), OpRecorder()
            got = _cyclo_reduce(v[kind], spec, plain)
            assert repr(got) == repr(_cyclo_reduce(v[kind], spec, rec)), (kind, k)


def test_bulk_charges_what_add_and_mul_charge():
    # A step of `adds` full adds and one product of a full value by const.
    for const in (0.0, 1.0, -2.0, 1.3, 0.5 - 0.5j, 0.3 + 0.7j):
        for value in (0.75, complex(0.75, -0.25)):
            width = 1 if isinstance(value, float) else 2
            per_op, bulk = OpRecorder(), OpRecorder()
            for _ in range(3):
                per_op.mul(value, const)
                for _ in range(2):
                    per_op.add(value, value)
            bulk.bulk(3, 2 * width, const, width)
            assert bulk.counts() == per_op.counts(), (const, value)


def sweep():
    """Run every check; return the number of kernel cases compared."""
    cases = sum(check_pk(N) + check_cyclo(N) + check_eval(N) for N in (*SMALL_N, *LARGE_N))
    test_infinite_register_with_a_zero_imaginary_part()
    test_counter_without_bulk_gets_the_same_values()
    test_bulk_charges_what_add_and_mul_charge()
    return cases


if __name__ == "__main__":
    import sys

    print(f"{sweep()} cases equal on Python {sys.version.split()[0]}")
