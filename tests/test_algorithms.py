import cmath
import math
import random
from itertools import product

import numpy as np
import pytest

from fractions import Fraction

from dftbin import algorithms
from dftbin.algorithms import (REINSCH_MIN_A, TRIVIAL_A_ORDERS, BinSpec,
                               OpRecorder, _cyclo_reduce, _eval_remainder,
                               goertzel_bin, jco_bin, jco_goertzel_bin, naive_bin,
                               remainder_length, root_power, stage_plan)
from dftbin.complexity import ALGORITHMS, measure, nominal_costs
from dftbin.cyclotomic import cyclotomic
from dftbin.dtmf import DEFAULT_CONFIG
from dftbin.numtheory import bin_order, factorize, totient
from dftbin.polynomial import reduce_by_intpoly, reduce_by_pk
from dftbin.streaming import design_filter
from oracles import (ORDERS_WITH_TAP_ABOVE_2, chain_moduli, dft_bin, mp_bin, per_op_eval,
                     single_cyclo_reduce)

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
    h = math.sqrt(0.5)
    assert root_power(8, 1) == complex(h, -h)
    assert root_power(1024, 896) == complex(h, h)


def test_const_cost_independent_of_process_history():
    # cos(2 pi / N) lies within 1e-12 of 1 at N = 3 * 2**22, and no earlier
    # computation of the same bin's constants changes what it costs.
    N = 3 << 22
    c = 2 * math.cos(2 * math.pi / N)
    for _ in range(2):
        rec = OpRecorder()
        rec.mul(1.0, c)
        assert rec.mults == 1
        nominal_costs(N, 1)


def test_root_table_bounds_the_evaluation_memory():
    # The constants memo gains no twiddle (a complex root), only kernel
    # constants such as the chain's taps: a jco bin adds a handful of misses,
    # not one per root of its table.
    rng = random.Random(27)
    for N in (4096, 4097):
        before = algorithms._cost.cache_info().misses
        jco_bin(_rand_real(rng, N), 1)
        assert algorithms._cost.cache_info().misses - before < 8, N
    # Every bin of order L at one N shares one table of L slots; naive
    # summation of every bin of 1155 fills one table per divisor.
    before = algorithms._root_table.cache_info().misses
    v = _rand_real(rng, 1155)
    for k in range(1155):
        naive_bin(v, k)
    assert algorithms._root_table.cache_info().misses - before <= 16
    roots, costs = algorithms._root_table(1155, 1155)
    assert len(roots) == len(costs) == 1155
    # No bin of order 1155 visits slot 0: its tap m = 0 is the constant.
    assert roots[1:] == [root_power(1155, r) for r in range(1, 1155)]
    roots, costs = algorithms._root_table(1155, 7)
    assert len(roots) == len(costs) == 7
    assert roots[1:] == [root_power(1155, 165 * j) for j in range(1, 7)]
    # Only the 64 tables used last stay: one bin at each of 100 new lengths
    # leaves 64, and so many kernel constants leave 64 costs.
    before = algorithms._root_table.cache_info().misses
    for N in range(9001, 9101):
        goertzel_bin(_rand_real(rng, N), 1)
    assert algorithms._root_table.cache_info().misses - before == 100
    assert algorithms._root_table.cache_info().currsize == 64
    assert algorithms._cost.cache_info().currsize <= 64


def test_bin_spec_invariants():
    for N, k in ((12, 5), (83, 2), (1024, 128), (7, 0), (16, 19), (16, -3)):
        spec = BinSpec.for_bin(N, k)
        assert 0 <= spec.k < N
        assert abs(abs(root_power(N, k)) - 1.0) <= 1e-12
        assert spec.L == bin_order(N, k)
        assert abs(spec.A - 2 * root_power(N, k).real) <= 1e-12


def test_bin_spec_memo_holds_int_bins_only(monkeypatch):
    # An int (N, k) is derived once, through algorithms.bin_order (the name
    # perfbench wraps), and then returned as the same object. Other types
    # never reach the memo, where 2.0 == 2 and True == 1 would hit.
    calls = []

    def counted(N, k):
        calls.append((N, k))
        return bin_order(N, k)

    memo = algorithms._int_bin_spec
    memo.cache_clear()
    monkeypatch.setattr(algorithms, "bin_order", counted)
    spec = BinSpec.for_bin(8, 2)
    assert BinSpec.for_bin(8, 2) is spec and calls == [(8, 2)]
    info = memo.cache_info()
    for k in (2.0, 1.5, "1"):
        with pytest.raises(ValueError, match=rf"^bin index must be an integer, got {k!r}$"):
            BinSpec.for_bin(8, k)
    for k, want in ((True, BinSpec.for_bin(8, 1)), (np.int64(2), spec)):
        got = BinSpec.for_bin(8, k)
        assert repr(got) == repr(want) and type(got.k) is int, k
    with pytest.raises(ValueError, match="^signal length must be an integer, got 8.0$"):
        BinSpec.for_bin(8.0, 2)
    assert memo.cache_info()[:2] == (info.hits, info.misses + 1)  # only (8, 1) was new
    for k in range(70):
        assert BinSpec.for_bin(71, k) == BinSpec._derive(71, k)
    assert memo.cache_info().currsize == 64


def test_bin_spec_A_integral_exactly_at_trivial_orders():
    # A is rounded on L, not snapped on its value: at N = 2**23 the constant
    # lies within 1e-12 of 2 but is not 2.
    N = 1 << 23
    assert BinSpec.for_bin(N, 1).A == 2 * math.cos(2 * math.pi / N) != 2.0
    for N in range(1, 121):
        for k in range(N):
            spec = BinSpec.for_bin(N, k)
            assert spec.A.is_integer() == (spec.L in TRIVIAL_A_ORDERS), (N, k)


def test_goertzel_A_charged_on_order_at_large_N():
    # At N = 2**23 the k = 1 constant lies within 1e-12 of 2, yet L = N is
    # not a trivial order: 5 steps, the first on an empty register.
    N = 1 << 23
    for k, mults in ((1, 4), (N // 4, 0), (N // 2, 0)):
        rec = OpRecorder()
        reduce_by_pk([1.0] * 6, BinSpec.for_bin(N, k).A, rec)
        assert rec.mults == mults, k


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


def test_readme_library_example():
    # README's Library section, verbatim; it pins the records' repr.
    res = jco_bin([1, 2, 3, 4], 1)
    assert res.value == -2 + 2j
    assert repr(res.counts) == "OpCounts(real_mults=0, real_adds=2)"
    assert nominal_costs(120, 1) == (120, 62, 32)


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
    for alg in ("naive", "goertzel", "jco", "jco_goertzel", "stream"):
        with pytest.raises(ValueError, match="signal length must be >= 1, got 0"):
            measure(alg, [], 0)
    for derive in (nominal_costs, design_filter):
        with pytest.raises(ValueError, match="signal length must be >= 1, got 0"):
            derive(0, 1)


@pytest.mark.parametrize("derive,N", [(nominal_costs, 4.0), (design_filter, 4.5),
                                      (nominal_costs, "8"), (bin_order, 4.0)])
def test_non_integral_length_rejected(derive, N):
    with pytest.raises(ValueError, match="signal length must be an integer"):
        derive(N, 1)


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


def _unfolded(v, k):
    # The cyclotomic reduction over all N coefficients, then each tag's
    # remaining stages on its own copy of the counts.
    spec, rec = BinSpec.for_bin(len(v), k), OpRecorder()
    R = reduce_by_intpoly(v, cyclotomic(spec.L), rec)
    out = {}
    for tag, degree2 in (("jco", False), ("jco_goertzel", True)):
        tag_rec = OpRecorder()
        tag_rec.mults, tag_rec.adds = rec.mults, rec.adds
        tag_R = reduce_by_pk(R, spec.A, tag_rec, spec.lam) if degree2 else R
        out[tag] = (_eval_remainder(tag_R, spec, tag_rec), tag_rec.counts())
    return out


def test_fold_matches_unfolded_reduction():
    rng = random.Random(24)
    shapes = [(N, k) for N in range(2, 61) for k in range(N) if bin_order(N, k) < N]
    shapes.append((12012, 7))
    for N, k in shapes:
        for v in (_rand_real(rng, N), _rand_complex(rng, N)):
            rms = math.sqrt(sum(abs(c) ** 2 for c in v))
            ref = _unfolded(v, k)
            for tag, alg in (("jco", jco_bin), ("jco_goertzel", jco_goertzel_bin)):
                res = alg(v, k)
                value, counts = ref[tag]
                assert abs(res.value - value) <= 1e-12 * rms, (tag, N, k)
                assert res.counts.real_mults == counts.real_mults, (tag, N, k)
                assert res.counts.real_adds <= counts.real_adds, (tag, N, k)


@pytest.mark.parametrize("N,k", [(12012, 7), (1680, 8), (1155, 5), (2310, 10)])
def test_cyclotomic_stage_adds_linear(N, k):
    # Folding first bounds the adds by N + L * nnz(Phi_L); reducing all N
    # coefficients costs about N * nnz(Phi_L).
    L = bin_order(N, k)
    bound = N + L * sum(1 for c in cyclotomic(L) if c)
    v = _rand_real(random.Random(26), N)
    for alg in (jco_bin, jco_goertzel_bin):
        assert alg(v, k).counts.real_adds <= bound, alg.__name__


# Every order up to 400, and three with several distinct primes and taps of
# magnitude 3 or more (1155 = 3*5*7*11, 1716 = 2**2*3*11*13, 2310 = 2*3*5*7*11).
# From 385 on the chain stops early at some of them, so the single reduction
# is by the modulus it stops at (oracles.chain_moduli).
CHAIN_ORDERS = (*range(1, 401), 1155, 1716, 2310)


def _chain(v, L):
    rec = OpRecorder()
    return _cyclo_reduce(v, BinSpec.for_bin(L, 1), rec), rec.counts()


def test_chain_equals_single_reduction_on_integer_input():
    # Integer arithmetic is exact, so the chain of factors and the one
    # reduction by the modulus it stops at must give the same remainder.
    rng = random.Random(28)
    for L in CHAIN_ORDERS:
        v = [rng.randrange(-3, 4) for _ in range(L)]
        assert _chain(v, L)[0] == single_cyclo_reduce(v, L)[0], L


def test_chain_matches_single_reduction_and_costs_no_more():
    rng = random.Random(30)
    for L in CHAIN_ORDERS:
        for v in (_rand_real(rng, L), _rand_complex(rng, L)):
            R, counts = _chain(v, L)
            ref, ref_counts = single_cyclo_reduce(v, L)
            assert len(R) == len(ref) == remainder_length(L)
            rms = math.sqrt(sum(abs(c) ** 2 for c in ref) / len(ref))
            assert max(abs(a - b) for a, b in zip(R, ref)) <= 1e-12 * rms, L
            assert counts.real_mults <= ref_counts.real_mults, L
            assert counts.real_adds <= ref_counts.real_adds, L


@pytest.mark.parametrize("L", [1155, 2310])
def test_chain_close_to_exact_remainder(L):
    # Floats scaled by 2**80 are integers, so the reduction of the scaled
    # signal by the modulus the chain stops at is exact. The single float
    # reduction is off by up to 1.7e-14 of the signal's rms here, the chain
    # by 6.1e-15; by Phi_L itself the single one was off by 1.6e-11.
    v = _rand_real(random.Random(32), L)
    scale = 1 << 80
    exact = [c / scale for c in single_cyclo_reduce([int(Fraction(x) * scale) for x in v], L)[0]]
    rms = math.sqrt(sum(x * x for x in v) / L)
    assert max(abs(a - b) for a, b in zip(_chain(v, L)[0], exact)) <= 1e-12 * rms


def test_stage_plan_stops_at_first_tap_above_2():
    # oracles.chain_moduli derives the stop from the taps of each Phi_r.
    for L in range(1, 2500):
        moduli = chain_moduli(L)
        assert [list(m) for m in stage_plan(L)] == moduli, L
        D = remainder_length(L)
        assert D == (len(moduli[-1]) - 1 if moduli else 1), L
        # The chain stops early exactly where Phi_L itself has a tap above 2.
        stops = len(moduli) < len(factorize(L))
        assert stops == (max(map(abs, cyclotomic(L))) > 2) == (L in ORDERS_WITH_TAP_ABOVE_2), L
        if not stops:
            assert D == totient(L), L
        else:
            assert D > totient(L), L


def test_stage_plan_moduli_are_shared_and_unchanged():
    # A warm call reuses the plan's moduli, and no kernel writes into them.
    rng = random.Random(36)
    plan = stage_plan(1155)
    before = [list(m) for m in plan]
    for tag in ("jco", "jco_goertzel", "stream"):
        measure(tag, _rand_complex(rng, 2310), 2)
    assert stage_plan(1155) is plan
    assert [list(m) for m in plan] == before


@pytest.mark.parametrize("N,k", [(205, 18), (1155, 1), (12012, 7), (2310, 1)])
def test_cyclotomic_stage_adds_within_chain_bound(N, k):
    # The fold costs N - L adds; stage i, which reduces modulo
    # Phi_{r_i}(x**(L/r_i)) with r_i = p_1...p_i, costs (L/r_i) * phi(r_{i-1})
    # steps of nnz(Phi_{r_i}) - 1 adds each, for the stages that run.
    L = bin_order(N, k)
    bound = N - L
    degree = L
    for modulus in chain_moduli(L):
        bound += (degree - (len(modulus) - 1)) * (sum(1 for c in modulus if c) - 1)
        degree = len(modulus) - 1
    rec = OpRecorder()
    _cyclo_reduce(_rand_real(random.Random(34), N), BinSpec.for_bin(N, k), rec)
    assert rec.adds <= bound


def test_w_and_lam_charged_on_order():
    # At (2**23, 1) the real part of W lies within 1e-12 of 1, and lam
    # (about -5.6e-13) within 1e-12 of 0; the exact rule charges both.
    spec = BinSpec.for_bin(1 << 23, 1)
    assert abs(spec.lam) < 1e-12
    for const, cost in ((root_power(1 << 23, 1), 2), (spec.lam, 1), (spec.A, 1)):
        rec = OpRecorder()
        rec.mul(1.0, const)
        assert rec.mults == cost, const
    for (N, k), cost in (((8, 1), 1), ((8, 3), 1), ((1, 0), 0), ((2, 1), 0), ((4, 1), 0),
                         ((4, 3), 0), ((3, 1), 2), ((12, 1), 2)):
        rec = OpRecorder()
        rec.mul(1.0, root_power(N, k))
        assert rec.mults == cost, (N, k)


def test_lam_set_exactly_near_two():
    for N in range(1, 121):
        for k in range(N):
            spec = BinSpec.for_bin(N, k)
            near_two = abs(spec.A) >= REINSCH_MIN_A and spec.L not in TRIVIAL_A_ORDERS
            if spec.L <= 2:  # A = +-2 exactly, a double root
                assert spec.lam == 0.0, (N, k)
                continue
            assert (spec.lam is not None) == near_two, (N, k)
            if near_two:
                assert abs(spec.lam - (spec.A - math.copysign(2.0, spec.A))) <= 1e-15


@pytest.mark.parametrize("N,k", [(4096, 1), (4096, 2047), (16384, 1)])
def test_reinsch_matches_mpmath_oracle(N, k):
    # Plain Goertzel is off by about 9e-10 of the rms bin at (16384, 1).
    rng = random.Random(N + k)
    v = _rand_real(rng, N)
    assert BinSpec.for_bin(N, k).lam is not None
    ref = mp_bin(v, k)
    rms_bin = math.sqrt(sum(x * x for x in v))  # Parseval
    for alg in (goertzel_bin, jco_goertzel_bin):
        assert abs(alg(v, k).value - ref) <= 1e-11 * rms_bin, alg.__name__


def test_reinsch_mults_equal_plain():
    rng = random.Random(36)
    for N, k in ((83, 1), (205, 1), (4096, 2047), (1 << 23, 1), (1000, 499)):
        spec = BinSpec.for_bin(N, k)
        for v in (_rand_real(rng, 64), _rand_complex(rng, 64)):
            plain, reinsch = OpRecorder(), OpRecorder()
            reduce_by_pk(v, spec.A, plain)
            reduce_by_pk(v, spec.A, reinsch, spec.lam)
            assert reinsch.mults == plain.mults > 0, (N, k)
            per_step = 1 if isinstance(v[0], float) else 2
            assert reinsch.adds == plain.adds + per_step * (len(v) - 1), (N, k)


def test_goertzel_plain_below_reinsch_threshold():
    # Where |A| < REINSCH_MIN_A the goertzel tag runs the plain recursion:
    # same value, bit for bit, and same counts.
    rng = random.Random(38)
    shapes = [(205, k) for k in DEFAULT_CONFIG.row_bins() + DEFAULT_CONFIG.col_bins()]
    for N, k in shapes + [(1024, 128)]:
        spec = BinSpec.for_bin(N, k)
        assert spec.lam is None, (N, k)
        for v in (_rand_real(rng, N), _rand_complex(rng, N)):
            rec = OpRecorder()
            r0, r1 = reduce_by_pk(v, spec.A, rec)
            value = rec.add(r0, rec.mul(r1, root_power(N, k)))
            res = goertzel_bin(v, k)
            assert repr(res.value) == repr(value), (N, k)
            assert res.counts == rec.counts(), (N, k)


@pytest.mark.parametrize("N,k", [(1, 0), (2, 1), (8, 3), (12, 5), (105, 2), (105, 52),
                                 (205, 18)])
def test_numpy_and_int_samples_give_a_python_complex(N, k):
    # numpy.complex128, numpy.float64, int and complex-typed real samples
    # against the same samples as Python complex or float: the value is a
    # Python complex, with the same repr and the same counts, for every tag.
    # The goertzel stage runs the plain form at (8, 3), (12, 5) and
    # (205, 18), and Reinsch's with A > 0 at (105, 2) and with A < 0 at
    # (105, 52) and (2, 1). At L = 105 the chain has a tap of magnitude 2,
    # which the 0 and +-1e308 samples overflow to inf there.
    rng = random.Random(N)
    cx, re = _rand_complex(rng, N), _rand_real(rng, N)
    ints = [rng.randint(-3, 3) for _ in range(N)]
    big = [rng.choice((0.0, 1e308, -1e308)) for _ in range(N)]
    cases = {"complex128": (list(np.array(cx)), cx), "float64": (list(np.array(re)), re),
             "int": (ints, [float(x) for x in ints])}
    for name, v in (("real", re), ("overflow", big)):
        # At N = 1 the bin is the sample itself, signed zero and all.
        for zero in (0.0, -0.0) if N > 1 else ():
            cases[f"complex({name}, {zero})"] = ([complex(x, zero) for x in v], v)
    for tag in ALGORITHMS:
        for kind, (v, same) in cases.items():
            got, want = measure(tag, v, k), measure(tag, same, k)
            assert type(got.value) is complex, (tag, kind, type(got.value))
            assert repr((got.value, got.counts)) == repr((want.value, want.counts)), (tag, kind)


def test_eval_remainder_equals_per_op_on_mixed_short_remainders():
    # Every 2- and 3-tap remainder over float, int, signed-zero and complex
    # taps, at bins whose powers of W include eighth turns, which have zero
    # or equal components, and at generic ones: value repr and counts.
    taps = (0.5, -0.75, 0.0, -0.0, 1, complex(0.5, 0.0), complex(0.5, -0.0),
            complex(-0.25, 1.5), complex(0.0, 2.0))
    for N, k in ((4, 1), (8, 1), (8, 3), (12, 5), (7, 3), (205, 18)):
        spec = BinSpec.for_bin(N, k)
        for R in [*product(taps, repeat=2), *product(taps, repeat=3)]:
            got_rec, want_rec = OpRecorder(), OpRecorder()
            got = _eval_remainder(R, spec, got_rec)
            want = per_op_eval(R, spec, want_rec)
            assert repr(got) == repr(want), (N, k, R)
            assert got_rec.counts() == want_rec.counts(), (N, k, R)


def test_every_tag_raises_on_a_none_sample():
    # The evaluation multiplies every tap before its zero test, so naive
    # summation fails on a None sample as the reductions do: on a 2-tap
    # remainder, which steps a slot index through the root table, and on a
    # 300-tap one at step 1, which zips the taps with the table.
    for v, k in (([1.0, None], 1), ([0.5] * 299 + [None], 1)):
        for tag in ALGORITHMS:
            with pytest.raises((TypeError, AttributeError)):
                measure(tag, v, k)
