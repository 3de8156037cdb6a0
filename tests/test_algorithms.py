import cmath
import math
import random

import pytest

from dftbin.algorithms import (BinSpec, goertzel_bin, jco_bin,
                               jco_goertzel_bin, naive_bin, root_power)
from dftbin.complexity import measure, nominal_costs
from dftbin.numtheory import bin_order, totient
from oracles import dft_bin

ALGS = (naive_bin, goertzel_bin, jco_bin, jco_goertzel_bin)


def _rand_real(rng, n):
    return [rng.uniform(-1, 1) for _ in range(n)]


def _rand_complex(rng, n):
    return [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]


def test_root_power_quarter_turns_exact():
    assert root_power(4, 1) == -1j
    assert root_power(8, 2) == -1j
    assert root_power(12, 6) == -1
    assert root_power(16, 12) == 1j
    assert root_power(5, 0) == 1
    assert abs(root_power(8, 1) - complex(math.sqrt(2) / 2, -math.sqrt(2) / 2)) < 1e-15


def test_bin_spec_invariants():
    for N, k in ((12, 5), (83, 2), (1024, 128), (7, 0), (16, 19), (16, -3)):
        spec = BinSpec.for_bin(N, k)
        assert 0 <= spec.k < N
        assert abs(abs(spec.W) - 1.0) <= 1e-12
        assert spec.L == bin_order(N, k)
        assert abs(spec.A - 2 * spec.W.real) <= 1e-12


def test_naive_examples():
    v = [1, 2, 3, 4]
    assert naive_bin(v, 0).value == 10
    assert naive_bin(v, 1).value == -2 + 2j
    assert naive_bin(v, 2).value == -2
    assert naive_bin(v, 1).algorithm == "naive"


def test_naive_against_independent_sum():
    rng = random.Random(2)
    v = _rand_complex(rng, 37)
    for k in range(37):
        assert abs(naive_bin(v, k).value - dft_bin(v, k)) <= 1e-11 * 37


def test_goertzel_value_example():
    assert abs(goertzel_bin([1, 2, 3, 4], 1).value - (-2 + 2j)) <= 1e-12


def test_goertzel_measured_mults_generic_bin():
    # Table rows with a nontrivial feedback constant measure exactly N.
    rng = random.Random(4)
    v = _rand_real(rng, 83)
    assert goertzel_bin(v, 1).counts.real_mults == 83
    v = _rand_real(rng, 48)
    assert goertzel_bin(v, 2).counts.real_mults == 48


def test_goertzel_trivial_bin_counts():
    # (12, 3): A = 0 and W = -j, so nothing to multiply at run time. The
    # nominal convention still charges the final evaluation as 2.
    rng = random.Random(6)
    v = _rand_real(rng, 12)
    assert goertzel_bin(v, 3).counts.real_mults == 0
    assert nominal_costs(12, 3)[0] == 2


def test_jco_value_example():
    assert abs(jco_bin([1, 2, 3, 4], 1).value - (-2 + 2j)) <= 1e-15


def test_jco_measured_mults():
    rng = random.Random(8)
    v = _rand_real(rng, 12)
    # Nominal charges two per remainder tap; the measured count may come in
    # lower at special angles (here W**3 = -j is free): 2 + 2 + 0.
    assert jco_bin(v, 1).counts.real_mults == 4
    assert nominal_costs(12, 1)[1] == 6

    v = _rand_real(rng, 32)
    assert jco_bin(v, 4).counts.real_mults <= 6

    v = _rand_real(rng, 16)
    assert jco_bin(v, 0).counts.real_mults == 0


def test_jco_goertzel_measured_mults():
    rng = random.Random(10)
    assert jco_goertzel_bin(_rand_real(rng, 120), 1).counts.real_mults == 32
    for k in (1, 2, 3, 4):
        assert jco_goertzel_bin(_rand_real(rng, 83), k).counts.real_mults == 82
    assert jco_goertzel_bin(_rand_real(rng, 12), 4).counts.real_mults == 2


def test_jco_goertzel_equals_jco_when_stages_coincide():
    # totient(L) <= 2: the degree-2 stage passes the cyclotomic remainder
    # through, so value and counts match jco exactly.
    rng = random.Random(22)
    for N in range(1, 49):
        v_real, v_complex = _rand_real(rng, N), _rand_complex(rng, N)
        for k in range(N):
            if totient(bin_order(N, k)) > 2:
                continue
            for v in (v_real, v_complex):
                a, b = jco_goertzel_bin(v, k), jco_bin(v, k)
                assert repr(a.value) == repr(b.value)
                assert a.counts == b.counts


def test_empty_signal_rejected():
    for alg in ALGS:
        with pytest.raises(ValueError):
            alg([], 0)


@pytest.mark.parametrize("alg", ["naive", "goertzel", "jco", "jco_goertzel", "stream"])
def test_non_integral_bin_rejected(alg):
    for k in (1.5, 2.0, "1"):
        with pytest.raises(ValueError, match="bin index must be an integer"):
            measure(alg, [1.0, 2.0, 3.0, 4.0], k)


def test_bin_index_periodic():
    rng = random.Random(12)
    v = _rand_complex(rng, 20)
    for alg in ALGS:
        a = alg(v, 3).value
        b = alg(v, 23).value
        c = alg(v, -17).value
        assert abs(a - b) <= 1e-12 and abs(a - c) <= 1e-12


def test_oracle_equivalence_spot():
    rng = random.Random(14)
    for N in (3, 4, 5, 8, 12, 16):
        for v in (_rand_real(rng, N), _rand_complex(rng, N)):
            scale = max(abs(c) for c in v)
            for k in range(N):
                ref = naive_bin(v, k).value
                for alg in (goertzel_bin, jco_bin, jco_goertzel_bin):
                    assert abs(alg(v, k).value - ref) <= 1e-9 * N * scale


def test_conjugate_symmetry_real_input():
    rng = random.Random(16)
    for N in (5, 12, 16, 83):
        v = _rand_real(rng, N)
        for alg in ALGS:
            for k in range(N):
                lhs = alg(v, (N - k) % N).value
                rhs = alg(v, k).value.conjugate()
                assert abs(lhs - rhs) <= 1e-9 * N


def test_linearity():
    rng = random.Random(18)
    N = 24
    u = _rand_complex(rng, N)
    v = _rand_complex(rng, N)
    alpha = complex(0.3, -1.2)
    beta = complex(-0.8, 0.45)
    mix = [alpha * a + beta * b for a, b in zip(u, v)]
    for alg in ALGS:
        for k in (0, 1, 7, 13):
            direct = alg(mix, k).value
            combined = alpha * alg(u, k).value + beta * alg(v, k).value
            assert abs(direct - combined) <= 1e-9 * N


def test_counts_nonnegative_and_tagged():
    rng = random.Random(20)
    v = _rand_complex(rng, 30)
    for alg, tag in zip(ALGS, ("naive", "goertzel", "jco", "jco_goertzel")):
        res = alg(v, 7)
        assert res.algorithm == tag
        assert res.counts.real_mults >= 0
        assert res.counts.real_adds >= 0
