"""The kernels and the evaluation stage charge full steps in bulk; the
per-op kernels and per_op_eval in oracles.py charge every operation through
OpRecorder.add and OpRecorder.mul, which define a count. Both must give the
same counts and repr-equal values, on every kind of input: float, complex,
small integers (real and complex, with cancellations), exact and signed
zeros, complex-typed real samples (all of them, or some among floats),
samples on both sides of and far above reduce_by_pk's former layout bound,
single inf and NaN samples, and 1e308 samples whose registers overflow to
inf and NaN. reduce_by_pk is also checked with polynomial._PROMOTES patched
false, so real signals take the 0j registers of an interpreter that does
not promote a float operand to complex.

Runs under pytest, or as a plain script on an interpreter without pytest:

    PYTHONPATH=src python tests/test_bulk_counting.py
"""

import cmath
import itertools
import math
import random

from dftbin import algorithms, polynomial
from dftbin.algorithms import BinSpec, OpRecorder, _cyclo_reduce, _eval_remainder
from dftbin.complexity import ALGORITHMS, measure
from dftbin.cyclotomic import cyclotomic
from dftbin.polynomial import fold, reduce_by_intpoly, reduce_by_pk
from oracles import (chain_moduli, per_op_eval, per_op_fold, per_op_reduce_by_intpoly,
                     per_op_reduce_by_pk)

SMALL_N = range(1, 61)
LARGE_N = (205, 385, 1155, 4096)
ZEROS = (0, 0.0, -0.0, 0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0))


def straddle(v):
    """v scaled so that len(v) * sum|v| sits just below reduce_by_pk's former
    layout bound, 1e300, at odd length and just above it at even length.
    Outside that bound the kernel used to step complex registers; it now
    checks its registers for an inf or a NaN after the float loop."""
    n = len(v)
    scale = 1e300 * (1 - 1e-9 if n % 2 else 1 + 1e-9) / (n * sum(map(abs, v)))
    return [x * scale for x in v]


def signals(N):
    """One signal of length N of each input kind, seeded by N."""
    rng = random.Random(N)

    def pick(choices):
        return [rng.choice(choices) for _ in range(N)]

    def uniform_complex():
        return [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(N)]

    return {
        "float": [rng.uniform(-1, 1) for _ in range(N)],
        "complex": uniform_complex(),
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
        # Real layout registers fed these would flip a -0.0 imaginary part.
        "complex_typed_real": [complex(rng.uniform(-1, 1), rng.choice((0.0, -0.0)))
                               for _ in range(N)],
        "near_bound": straddle([rng.uniform(-1, 1) for _ in range(N)]),
        "near_bound_complex": straddle(uniform_complex()),
        # Float samples among 0j and complex(x, -0.0) ones: a float first,
        # so only a scan of every tap finds the complex-typed ones.
        "mixed_typed_real": [rng.uniform(-1, 1)] + pick(
            (0.5, -0.75, 1.25, 0j, complex(0.5, -0.0), complex(-0.25, -0.0)))[1:],
    }


def pk_signals(N):
    """Signals of length N >= 2 for reduce_by_pk past its former bound, each
    as real floats, complex-typed real samples and complex samples:
    - "above_bound": finite, with N * sum|v| at 1e302 to 1e305, so every
      register stays finite;
    - "inf_at_1", "nan_at_1": one sample at index 1, the loop's last step;
    - "inf_at_last", "nan_at_last": one at index N - 1, its first step;
    - "inf_at_0", "nan_at_0": signal[0] alone, which the loop never reads."""
    rng = random.Random(N)
    variants = {
        "": lambda x: x,
        "_complex_typed_real": lambda x: complex(x, rng.choice((0.0, -0.0))),
        # The non-finite part of a complex sample alternates between components.
        "_complex": lambda x: (complex(x, rng.uniform(-1, 1)) if N % 2 or math.isfinite(x)
                               else complex(rng.uniform(-1, 1), x)),
    }
    base = [rng.uniform(-1, 1) for _ in range(N)]
    scale = 10.0 ** (302 + N % 4) / (N * sum(map(abs, base)))
    kinds = {"above_bound": [x * scale for x in base]}
    for name, at in (("1", 1), ("last", N - 1), ("0", 0)):
        for special in ("inf", "nan"):
            v = list(base)
            v[at] = float(special)
            kinds[f"{special}_at_{name}"] = v
    return {kind + suffix: [make(x) for x in v]
            for kind, v in kinds.items() for suffix, make in variants.items()}


def check_pk_past_former_bound(N) -> int:
    """reduce_by_pk on pk_signals(N) at bins 0, 1, 2, 7, N/4, N/2 and N - 1
    (those below N), in both forms, with polynomial._PROMOTES as found and
    patched false: repr and counts against per_op_reduce_by_pk, and repr
    through an AddMulOnly counter. Registers stay finite above the bound,
    and from N = 4 the float loop charges some steps in bulk;
    where a sample the loop reads is not finite, the counter gets exactly
    the per-op run's calls, so no slow step of the discarded float run is
    charged."""
    cases = 0
    data = pk_signals(N)
    promotes = polynomial._PROMOTES
    try:
        for flag in {promotes, False}:
            polynomial._PROMOTES = flag
            for k in {0, 1, 2, 7, N // 4, N // 2, N - 1} & set(range(N)):
                A = BinSpec.for_bin(N, k).A
                for kind, v in data.items():
                    # lam as reduce_by_pk reads the sign of A, so that the
                    # recursion's constant is A: at A = 0.0, lam = 2.0.
                    for form in (None, A - 2.0 if A > 0 else A + 2.0):
                        what = ("pk", N, k, kind, form, flag)
                        got_rec, want_rec = OpRecorder(), OpRecorder()
                        want = per_op_reduce_by_pk(v, A, want_rec, form)
                        _same(what, reduce_by_pk(v, A, got_rec, form), want, got_rec, want_rec)
                        got_calls, want_calls = AddMulOnly(), AddMulOnly()
                        got = reduce_by_pk(v, A, got_calls, form)
                        per_op_reduce_by_pk(v, A, want_calls, form)
                        assert repr(got) == repr(want), what
                        if kind.startswith("above_bound"):
                            assert all(map(cmath.isfinite, got)), what
                            # The float loop ran: its full steps made no call.
                            assert N < 4 or got_calls.calls < want_calls.calls, what
                        elif not kind.startswith(("inf_at_0", "nan_at_0")):
                            assert got_calls.calls == want_calls.calls, what
                        cases += 1
    finally:
        polynomial._PROMOTES = promotes
    return cases


def bins(N):
    if N in SMALL_N:
        return range(N)
    return sorted({0, 1, 2, 7, N // 4, N // 2, N - 1})


def _same(what, got, want, got_rec, want_rec):
    assert repr(got) == repr(want), (what, got, want)
    assert got_rec.counts() == want_rec.counts(), (what, got_rec.counts(), want_rec.counts())


def check_pk(N) -> int:
    """reduce_by_pk at every bin of bins(N): the plain form, and Reinsch's
    form with lam = A -+ 2 (lam = 0 at A = +-2, and lam = 2 at A = 0,
    which reduce_by_pk reads as negative), on every input kind, with
    polynomial._PROMOTES as found and patched false. An interpreter that
    does not promote a float operand of complex arithmetic (CPython 3.14)
    runs real signals on 0j registers, as this one does with it false."""
    cases = 0
    data = signals(N)
    promotes = polynomial._PROMOTES
    try:
        for flag in {promotes, False}:
            polynomial._PROMOTES = flag
            for k in bins(N):
                spec = BinSpec.for_bin(N, k)
                A = spec.A
                lam = A - 2.0 if A > 0 else A + 2.0
                for kind, v in data.items():
                    for form in (None, lam):
                        got_rec, want_rec = OpRecorder(), OpRecorder()
                        got = reduce_by_pk(v, A, got_rec, form)
                        want = per_op_reduce_by_pk(v, A, want_rec, form)
                        _same(("pk", N, k, kind, form, flag),
                              got, want, got_rec, want_rec)
                        cases += 1
    finally:
        polynomial._PROMOTES = promotes
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


# Orders whose chain stages space their taps below, at and above
# polynomial._BATCH_MIN (8: gap 4, 16: gap 8, 64 and 1024), with gap-1
# stages and taps of magnitude 2 among batched ones (205, 1155, 1716), and
# primes whose taps form one run below and above polynomial._RUN_MIN (31,
# 41 and 257).
PATH_ORDERS = (8, 16, 64, 1024, 205, 1155, 1716, 31, 41, 257)


def check_paths(L) -> int:
    """At order L, on every input kind of length L: the cyclotomic stage
    against the per-op chain, and the evaluation of that remainder and of
    the signal itself against per_op_eval, at k = 1 (step 1: the signal's
    L taps zip with the root table from 257 on) and at the first k >= 5
    coprime to L (the slot index steps through the table). Where 4 divides
    L, the remainders reach the quarter-turn slot L/4. Two more signals: one
    with nonzero samples above L/2 only, so batches and runs add to zero
    slots, and zeros after a -0.0, whose sign a zero tap's add would flip."""
    cases = 0
    specs = (BinSpec.for_bin(L, 1), BinSpec.for_bin(L, next(k for k in range(5, L)
                                                            if math.gcd(k, L) == 1)))
    data = signals(L)
    data["low_zeros"] = [0.0] * (L // 2) + data["float"][L // 2:]
    data["signed_zero"] = [-0.0] + [0.0] * (L - 1)
    for kind, v in data.items():
        got_rec, want_rec = OpRecorder(), OpRecorder()
        got = _cyclo_reduce(v, specs[0], got_rec)
        want = v
        for modulus in chain_moduli(L):
            want = per_op_reduce_by_intpoly(want, modulus, want_rec)
        _same(("chain", L, kind), got, want, got_rec, want_rec)
        for R in (got, v):
            for spec in specs:
                got_rec, want_rec = OpRecorder(), OpRecorder()
                _same(("eval", spec, len(R), kind), _eval_remainder(R, spec, got_rec),
                      per_op_eval(R, spec, want_rec), got_rec, want_rec)
                cases += 1
        cases += 1
    return cases


def test_batch_run_and_zip_paths_equal_per_op():
    for L in PATH_ORDERS:
        check_paths(L)


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


def test_reduce_by_pk_past_the_former_bound():
    for N in (*range(2, 41), 205, 385):
        check_pk_past_former_bound(N)


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
        for lam in (None, A - 2.0 if A > 0 else A + 2.0):
            got_rec, want_rec = OpRecorder(), OpRecorder()
            _same(("pk", A, lam), reduce_by_pk(v, A, got_rec, lam),
                  per_op_reduce_by_pk(v, A, want_rec, lam), got_rec, want_rec)


def test_signed_zeros_of_short_signals():
    # Every pattern of real-part signs, zero imaginary-part signs and sample
    # types up to length 4. A signed zero that complex arithmetic flips at
    # one step often washes out at the next, so short signals show each one:
    # float registers fed [0.3+0j, 0.5-0j, -1+0j] at A = -0.7 end in s1 =
    # 1.2+0j, where complex registers hold 1.2-0j.
    samples = [0.5, -0.75, complex(0.5, 0.0), complex(0.5, -0.0), complex(-0.75, 0.0),
               complex(-0.75, -0.0)]
    for n in range(2, 5):
        for v in itertools.product(samples, repeat=n):
            for A in (-1.5, -0.7, 0.0, 0.7, 1.5, -2.0, 2.0):
                for lam in (None, A - 2.0 if A > 0 else A + 2.0):
                    got_rec, want_rec = OpRecorder(), OpRecorder()
                    _same(("pk", v, A, lam), reduce_by_pk(list(v), A, got_rec, lam),
                          per_op_reduce_by_pk(list(v), A, want_rec, lam), got_rec, want_rec)


class AddMulOnly:
    """A counter with the two required methods and no bulk charge, which
    counts its calls."""

    def __init__(self):
        self.calls = 0

    def add(self, x, y):
        self.calls += 1
        return x + y

    def mul(self, value, const):
        self.calls += 1
        return value * const


def test_counter_without_bulk_gets_the_same_values():
    v = signals(385)
    for kind in ("float", "complex", "complex_typed_real", "near_bound", "near_bound_complex",
                 "int", "zeros", "overflow"):
        for k in (1, 2, 77, 192):
            spec = BinSpec.for_bin(385, k)
            for lam in (None, spec.A - 2.0 if spec.A > 0 else spec.A + 2.0):
                plain, rec = AddMulOnly(), OpRecorder()
                got = reduce_by_pk(v[kind], spec.A, plain, lam)
                assert repr(got) == repr(reduce_by_pk(v[kind], spec.A, rec, lam)), (kind, k)
            plain, rec = AddMulOnly(), OpRecorder()
            got = _cyclo_reduce(v[kind], spec, plain)
            assert repr(got) == repr(_cyclo_reduce(v[kind], spec, rec)), (kind, k)


def test_near_bound_kinds_straddle_the_layout_bound():
    # The bound is reduce_by_pk's former one; both sides take the float loop.
    for N in SMALL_N:
        data = signals(N)
        for kind in ("near_bound", "near_bound_complex"):
            assert (N * sum(map(abs, data[kind])) < 1e300) == (N % 2 == 1), (N, kind)


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
    cases += sum(check_pk_past_former_bound(N) for N in (*range(2, 41), 205, 385))
    cases += sum(check_paths(L) for L in PATH_ORDERS)
    test_infinite_register_with_a_zero_imaginary_part()
    test_signed_zeros_of_short_signals()
    test_counter_without_bulk_gets_the_same_values()
    test_near_bound_kinds_straddle_the_layout_bound()
    test_bulk_charges_what_add_and_mul_charge()
    return cases


if __name__ == "__main__":
    import sys

    print(f"{sweep()} cases equal on Python {sys.version.split()[0]}")
