import cmath
import random

import pytest

from dftbin.algorithms import BinSpec, _cost
from dftbin.complexity import OpRecorder
from dftbin.cyclotomic import cyclotomic
from dftbin.polynomial import (int_exact_div, int_mul, reduce_by_intpoly,
                               reduce_by_pk, trim)
from oracles import eval_poly, poly_longdiv, poly_mul


def test_int_mul_examples():
    assert int_mul([-1, 1], [1, 1]) == [-1, 0, 1]          # (x-1)(x+1)
    assert int_mul([-1, 1], [1]) == [-1, 1]
    assert int_mul([-1, 0, 1], [1, 0, 1]) == [-1, 0, 0, 0, 1]
    assert int_mul([], [1, 2]) == []


def test_int_exact_div_examples():
    assert int_exact_div([-1, 0, 0, 0, 1], [-1, 0, 1]) == [1, 0, 1]
    assert int_exact_div([-1, 0, 0, 0, 0, 0, 1], [-1, 1]) == [1, 1, 1, 1, 1, 1]
    with pytest.raises(ValueError, match="not exactly divisible"):
        int_exact_div([-1, 0, 1], [1, 0, 1])


def test_int_exact_div_requires_unit_leading():
    with pytest.raises(ValueError):
        int_exact_div([0, 0, 2], [0, 2])


def test_int_mul_div_roundtrip():
    rng = random.Random(21)
    for _ in range(300):
        a = [rng.randrange(-5, 6) for _ in range(rng.randrange(1, 7))]
        b = [rng.randrange(-5, 6) for _ in range(rng.randrange(1, 7))]
        b[-1] = rng.choice([-1, 1])
        a = trim(a)
        if not a:
            continue
        assert int_exact_div(int_mul(a, b), b) == a


def test_reduce_by_intpoly_examples():
    assert reduce_by_intpoly([1, 2, 3, 4], [1, 0, 1], OpRecorder()) == [-2, -2]
    v = [0.5, -1.25, 3.0, 2.0, -0.5]
    assert reduce_by_intpoly(v, [-1, 1], OpRecorder()) == [pytest.approx(sum(v))]
    assert reduce_by_intpoly([1, 0, 0, 0, 1], [1, 0, 0, 0, 1], OpRecorder()) == [0, 0, 0, 0]


def test_reduce_by_intpoly_rejects_bad_modulus():
    # The split of a modulus is memoised; a bad one raises on every call.
    for modulus in ([5], [1], [1, 0], [], [1, 0, 2], (1, 0, 2), [1, 1, -1]):
        for _ in range(2):
            with pytest.raises(ValueError):
                reduce_by_intpoly([1, 2], modulus, OpRecorder())


def test_reduce_by_intpoly_list_and_tuple_modulus_agree():
    rng = random.Random(8)
    for L in (5, 12, 105, 385):
        phi = cyclotomic(L)
        v = _random_complex_poly(rng, 3 * L)
        got = [(repr(reduce_by_intpoly(v, m, rec)), rec.counts())
               for m, rec in ((list(phi), OpRecorder()), (tuple(phi), OpRecorder()),
                              (list(phi) + [0, 0], OpRecorder()))]
        assert got[0] == got[1] == got[2], L


def test_reduce_by_intpoly_honours_a_mutated_modulus():
    # The memo is keyed on the modulus's taps, not on the list object.
    v = [0.5, -1.25, 3.0, 2.0, -0.5, 1.5]
    modulus = [1, 0, 1]
    first = reduce_by_intpoly(v, modulus, OpRecorder())
    modulus[1] = -1
    assert reduce_by_intpoly(v, modulus, OpRecorder()) == \
        reduce_by_intpoly(v, [1, -1, 1], OpRecorder()) != first
    modulus[:] = [-1, 1]
    assert reduce_by_intpoly(v, modulus, OpRecorder()) == [pytest.approx(sum(v))]
    modulus[-1] = 2
    with pytest.raises(ValueError):
        reduce_by_intpoly(v, modulus, OpRecorder())


def test_reduce_by_intpoly_short_signal_passthrough():
    assert reduce_by_intpoly([3, 4], [1, 0, 0, 0, 1], OpRecorder()) == [3, 4, 0j, 0j]


def _random_complex_poly(rng, n):
    return [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]


def test_division_identity_against_longdiv():
    rng = random.Random(5)
    for L in (2, 3, 8, 12, 36, 60, 100):
        phi = cyclotomic(L)
        for _ in range(5):
            v = _random_complex_poly(rng, rng.randrange(len(phi), 65))
            R = reduce_by_intpoly(v, phi, OpRecorder())
            q, r = poly_longdiv(v, [complex(c) for c in phi])
            rebuilt = poly_mul([complex(c) for c in phi], q)
            rebuilt = [a + b for a, b in zip(rebuilt + [0j] * 64,
                                             list(R) + [0j] * 64)][:max(len(v), 1)]
            scale = max(abs(c) for c in v)
            assert max(abs(a - b) for a, b in zip(rebuilt, v)) <= 1e-10 * scale
            assert max(abs(a - b) for a, b in zip(R, r + [0j] * len(R))) <= 1e-10 * scale


def test_root_preservation():
    rng = random.Random(11)
    for N, k in ((12, 1), (16, 2), (48, 5), (100, 30)):
        import math

        L = N // math.gcd(N, k)
        phi = cyclotomic(L)
        v = _random_complex_poly(rng, N)
        R = reduce_by_intpoly(v, phi, OpRecorder())
        for i in range(L):
            if math.gcd(i, L) != 1:
                continue
            z = cmath.exp(-2j * cmath.pi * i / L)
            ref = eval_poly(v, z)
            got = eval_poly(R, z)
            assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))


def test_reduce_by_pk_examples():
    assert reduce_by_pk([1, 2, 3, 4], 0.0, OpRecorder()) == (-2, -2)
    assert reduce_by_pk([3.5], 1.7, OpRecorder()) == (3.5, 0j)
    A = 0.741
    r0, r1 = reduce_by_pk([1.0, -A, 1.0], A, OpRecorder())
    assert abs(r0) < 1e-15 and abs(r1) < 1e-15
    assert reduce_by_pk([], 1.0, OpRecorder()) == (0j, 0j)


def test_reduce_by_pk_matches_longdiv():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randrange(2, 40)
        v = _random_complex_poly(rng, n)
        A = rng.uniform(-1.99, 1.99)
        r0, r1 = reduce_by_pk(v, A, OpRecorder())
        _, rem = poly_longdiv(v, [1.0, -A, 1.0])
        rem += [0j] * (2 - len(rem))
        assert abs(r0 - rem[0]) <= 1e-12 * max(1.0, abs(rem[0]))
        assert abs(r1 - rem[1]) <= 1e-12 * max(1.0, abs(rem[1]))


def test_reduce_by_pk_multiplication_count():
    # On dense real data no register is zero after the first steps: the
    # plain form charges (n-2)*cost(A) mults and 2n-4 adds, Reinsch's form
    # (n-2)*cost(lam) mults and 3(n-2)+1 adds (the first step is free, the
    # second meets s2 = 0 in the plain form, and at n = 2 the final add
    # meets s2 = 0 too).
    rng = random.Random(17)
    consts = [(3 ** 0.5, None)]
    for N, k in ((205, 18), (4096, 1), (4096, 1000), (4096, 2047)):
        A = BinSpec.for_bin(N, k).A
        consts += [(A, None), (A, A - 2.0 if A > 0 else A + 2.0)]
    for n in (2, 3, 4, 10, 64, 205, 4096):
        v = [rng.uniform(0.1, 1.0) for _ in range(n)]
        for A, lam in consts:
            rec = OpRecorder()
            reduce_by_pk(v, A, rec, lam)
            if lam is None:
                want = ((n - 2) * _cost(A), 2 * n - 4)
            else:
                want = ((n - 2) * _cost(lam), 3 * (n - 2) + (n > 2))
            assert rec.counts() == want, (n, A, lam)


def test_ternary_reduction_is_multiplication_free():
    rng = random.Random(19)
    for L in (8, 12, 104):
        v = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(200)]
        rec = OpRecorder()
        reduce_by_intpoly(v, cyclotomic(L), rec)
        assert rec.mults == 0
        assert rec.adds > 0


def test_eval_poly_examples():
    assert eval_poly([-2, -2], -1j) == -2 + 2j
    assert eval_poly([], 3 + 4j) == 0
    w8 = cmath.exp(-2j * cmath.pi / 8)
    assert abs(eval_poly([1, 0, 0, 0, 1], w8)) <= 1e-15
