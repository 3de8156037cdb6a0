import json
import math
import random

import numpy
import pytest

from dftbin.algorithms import jco_bin, naive_bin
from dftbin.complexity import measure
from dftbin.cyclotomic import cyclotomic
from dftbin.numtheory import totient
from dftbin.streaming import design_filter, finalize, new_state, push
from oracles import dense_stream, first_order_reference, numerator_product, per_op_push

SQ2 = math.sqrt(2.0)


def _rand_real(rng, n):
    return [rng.uniform(-1, 1) for _ in range(n)]


def _rand_complex(rng, n):
    return [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]


def test_design_worked_example():
    spec = design_filter(1024, 128)
    assert spec.L == 8
    expected_a = (1, complex(SQ2 / 2, SQ2 / 2), 1j, complex(-SQ2 / 2, SQ2 / 2))
    assert all(abs(got - want) <= 1e-12 for got, want in zip(spec.a, expected_a))
    assert spec.b == (1, 0, 0, 0, 1)


def test_design_degenerate_bins():
    spec = design_filter(8, 0)
    assert spec.a == (1,) and spec.b == (1, -1) and spec.L == 1
    spec = design_filter(12, 6)
    assert spec.a == (1,) and spec.b == (1, 1) and spec.L == 2


def test_design_tap_lengths():
    for N, k in ((12, 1), (48, 5), (120, 7), (105, 1), (256, 3)):
        spec = design_filter(N, k)
        assert len(spec.a) == totient(spec.L)
        assert len(spec.b) == totient(spec.L) + 1
        assert spec.a[0] == 1 and spec.b[0] == 1
        assert list(spec.b) == cyclotomic(spec.L)


def test_numerator_matches_product_oracle():
    for N, k in ((1024, 128), (12, 1), (12, 5), (16, 6), (48, 7), (83, 2),
                 (60, 4), (256, 3)):
        spec = design_filter(N, k)
        oracle = numerator_product(N, k)
        assert len(oracle) == len(spec.a)
        assert max(abs(a - b) for a, b in zip(spec.a, oracle)) <= 1e-9


def test_transfer_identity():
    # numerator(u) * (1 - Wbar*u) must reproduce the feedback polynomial.
    from dftbin.algorithms import root_power
    from oracles import poly_mul

    for N in (5, 8, 12, 30, 64):
        for k in range(N):
            spec = design_filter(N, k)
            wbar = root_power(N, -k)
            prod = poly_mul(list(spec.a), [1, -wbar])
            assert len(prod) == len(spec.b) or len(spec.a) == 1
            for got, want in zip(prod, spec.b):
                assert abs(got - want) <= 1e-9


def test_push_examples():
    spec = design_filter(1024, 128)   # order-8 feedback
    state = new_state(spec)
    for sample in (1.0, 0.0, 0.0, 0.0):
        push(state, sample)
    assert list(state.w) == [1, 0, 0, 0]

    spec = design_filter(8, 0)        # running sum
    state = new_state(spec)
    for sample in (1, 2, 3):
        push(state, sample)
    assert list(state.w) == [6]

    spec = design_filter(12, 6)       # alternating sum
    state = new_state(spec)
    for sample in (1, 1, 1):
        push(state, sample)
    assert list(state.w) == [2, 1]


def test_slots_made_with_the_state():
    # push stores into the L slots new_state made; no push grows a list.
    spec = design_filter(1024, 128)   # L = 8
    state = new_state(spec)
    slots = state.slots
    assert slots == [None] * 8
    for sample in range(1, 13):
        push(state, float(sample))
        assert state.slots is slots and len(slots) == 8
        if sample == 3:
            assert state.w == [1.0, 2.0, 3.0]
    assert state.w == slots == [10.0, 12.0, 14.0, 16.0, 5.0, 6.0, 7.0, 8.0]
    assert state.w is not slots


def test_push_limit_enforced():
    spec = design_filter(4, 1)
    state = new_state(spec)
    for sample in (1, 2, 3, 4):
        push(state, sample)
    with pytest.raises(ValueError, match="already consumed"):
        push(state, 5)


def test_finalized_stream_says_so():
    spec = design_filter(4, 1)
    state = new_state(spec)
    for sample in (1, 2, 3, 4):
        push(state, sample)
    assert not state.finalized
    finalize(state, spec)
    assert state.finalized and state.samples_consumed == 4
    with pytest.raises(ValueError, match="already finalized"):
        finalize(state, spec)
    with pytest.raises(ValueError, match="already finalized"):
        push(state, 5)
    assert state.samples_consumed == 4


def test_finalize_requires_full_block():
    spec = design_filter(4, 1)
    state = new_state(spec)
    push(state, 1.0)
    with pytest.raises(ValueError, match="exactly 4 samples"):
        finalize(state, spec)


def test_finalize_worked_example():
    rng = random.Random(23)
    v = _rand_real(rng, 1024)
    spec = design_filter(1024, 128)
    state = new_state(spec)
    for sample in v:
        push(state, sample)
    res = finalize(state, spec)
    assert abs(res.value - naive_bin(v, 128).value) <= 1e-8
    assert res.counts.real_mults == 2
    assert res.algorithm == "stream"


def test_finalize_reads_the_state_spec():
    rng = random.Random(37)
    v = _rand_real(rng, 1024)
    spec = design_filter(1024, 128)
    expected = measure("stream", v, 128)
    for given in (spec, design_filter(1024, 128)):
        state = new_state(spec)
        for sample in v:
            push(state, sample)
        assert finalize(state, given) == expected
    for foreign in (design_filter(1024, 1), design_filter(512, 64)):
        state = new_state(spec)
        for sample in v:
            push(state, sample)
        with pytest.raises(ValueError, match="spec is not the state's"):
            finalize(state, foreign)


def test_finalize_simple_values():
    spec = design_filter(16, 0)
    state = new_state(spec)
    for _ in range(16):
        push(state, 1.0)
    assert abs(finalize(state, spec).value - 16) <= 1e-12

    spec = design_filter(4, 1)
    state = new_state(spec)
    for sample in (1, 2, 3, 4):
        push(state, sample)
    assert abs(finalize(state, spec).value - (-2 + 2j)) <= 1e-12


def test_streaming_matches_block_jco():
    rng = random.Random(29)
    for N in (3, 4, 12, 48, 105, 256):
        for v in (_rand_real(rng, N), _rand_complex(rng, N)):
            scale = max(abs(c) for c in v)
            for k in range(0, N, max(1, N // 16)):
                spec = design_filter(N, k)
                state = new_state(spec)
                for sample in v:
                    push(state, sample)
                got = finalize(state, spec).value
                want = jco_bin(v, k).value
                assert abs(got - want) <= 1e-10 * N * scale, (N, k)


def test_stream_matches_jco_and_dense_reference():
    # The fold register finishes with jco's stages, so value and counts are
    # jco's exactly; the paper's dense AR register is the independent oracle.
    rng = random.Random(43)
    for N in [*range(1, 61), 105, 205, 385, 1155]:
        ks = range(N) if N <= 60 else sorted({k % N for k in (0, 1, 3, 5, 7, 11, 35, N // 2)})
        for v in (_rand_real(rng, N), _rand_complex(rng, N)):
            rms_bin = math.sqrt(sum(abs(c) ** 2 for c in v))  # Parseval
            for k in ks:
                got = measure("stream", v, k)
                want = jco_bin(v, k)
                assert (got.value, got.counts) == (want.value, want.counts), (N, k)
                value, counts = dense_stream(v, design_filter(N, k))
                assert abs(got.value - value) <= 1e-12 * rms_bin, (N, k)
                assert got.counts.real_mults <= counts.real_mults, (N, k)
                assert got.counts.real_adds <= counts.real_adds, (N, k)


def test_push_is_one_add_per_sample_after_the_first_L():
    # A push that visits the feedback taps again would charge more adds,
    # and mults at (1155, 1), where Phi_1155 has taps of magnitude 3.
    rng = random.Random(53)
    for N, k in ((12012, 7), (1155, 1)):
        spec = design_filter(N, k)
        state = new_state(spec)
        for sample in _rand_real(rng, N):
            push(state, sample)
        assert (state.rec.mults, state.adds) == (0, N - spec.L), (N, k)
        assert len(state.w) == spec.L


def _tally_signal(case, N):
    # Every other sample is special. At (60, 4) L = 15 is odd, so each slot
    # sums specials and ordinary samples in turn; at (48, 6) L = 8, so the
    # even slots sum specials only.
    rng = random.Random(59)
    nan, inf = float("nan"), float("inf")
    if case == "real":
        specials = [0.0, -0.0, nan, inf, -inf, 0, 3, 1e308]
        plain = _rand_real(rng, N)
    elif case == "int":
        return [rng.randrange(-2, 3) for _ in range(N)]
    elif case == "numpy":
        return [numpy.float64(x) if n % 3 else numpy.float64(-0.0 if n % 2 else 0.0)
                for n, x in enumerate(_rand_real(rng, N))]
    else:
        y = rng.uniform(-1, 1)
        specials = [0j, complex(0.0, y), complex(y, 0.0), complex(-0.0, y),
                    complex(y, -0.0), 0.0, nan, complex(inf, 0.0)]
        plain = _rand_complex(rng, N)
        if case == "turns_complex":
            plain[:N // 2] = _rand_real(rng, N // 2)
    return [specials[n // 2 % len(specials)] if n % 2 == 0 else x
            for n, x in enumerate(plain)]


@pytest.mark.parametrize("N, k", [(60, 4), (48, 6)])
@pytest.mark.parametrize("case", ["real", "int", "complex", "turns_complex", "numpy"])
def test_push_tally_matches_per_op_push(case, N, k):
    v = _tally_signal(case, N)
    spec = design_filter(N, k)
    got, want = new_state(spec), new_state(spec)
    for sample in v:
        push(got, sample)
        per_op_push(want, sample)
    assert [repr(s) for s in got.slots] == [repr(s) for s in want.slots]
    assert (got.rec.mults, got.rec.adds, got.adds) == (0, 0, want.rec.adds)
    got, want = finalize(got, spec), finalize(want, spec)
    assert (repr(got.value), got.counts) == (repr(want.value), want.counts)
    got, want = measure("stream", v, k), jco_bin(v, k)
    assert (repr(got.value), got.counts) == (repr(want.value), want.counts)


class _AddMulCounter:
    # Like perfbench's PlainArithmetic: an add and a mul, and no count slots.
    __slots__ = ("calls",)

    def __init__(self):
        self.calls = 0

    def add(self, x, y):
        self.calls += 1
        return x + y

    def mul(self, x, c):
        self.calls += 1
        return x * c


def test_push_never_touches_the_recorder():
    rng = random.Random(61)
    for N, k, v in ((1155, 1, _rand_real(rng, 1155)), (256, 32, _rand_complex(rng, 256))):
        spec = design_filter(N, k)
        plain, recorded = new_state(spec), new_state(spec)
        plain.rec = _AddMulCounter()
        for sample in v:
            push(plain, sample)
            push(recorded, sample)
        assert plain.w == recorded.w and plain.rec.calls == 0, (N, k)


def test_streaming_large_length():
    # 65536 slots, reduced at finalize by the 2-tap x**32768 + 1: a
    # reduction that visited the zero taps would take minutes.
    N = 65536
    v = _rand_real(random.Random(47), N)
    got = measure("stream", v, 1).value
    assert abs(got - jco_bin(v, 1).value) <= 1e-9 * N


def test_no_multiplications_before_finalize():
    rng = random.Random(31)
    for N, k in ((48, 5), (104, 3), (64, 9)):
        v = _rand_real(rng, N)
        spec = design_filter(N, k)
        state = new_state(spec)
        for sample in v:
            push(state, sample)
        assert state.rec.mults == 0
        finalize(state, spec)


def test_register_stays_real_for_real_input():
    rng = random.Random(37)
    spec = design_filter(60, 7)
    state = new_state(spec)
    for sample in _rand_real(rng, 60):
        push(state, sample)
        assert all(w.imag == 0 for w in state.w)


def test_first_order_reference():
    rng = random.Random(41)
    for N, k in ((12, 5), (48, 7), (100, 1)):
        v = _rand_complex(rng, N)
        got = first_order_reference(v, k)
        want = naive_bin(v, k).value
        assert abs(got - want) <= 1e-9 * N


def test_json_export_schema():
    spec = design_filter(1024, 128)
    data = spec.as_json_dict()
    assert set(data) == {"N", "k", "L", "a", "b"}
    assert data["N"] == 1024 and data["k"] == 128 and data["L"] == 8
    assert data["b"] == [1, 0, 0, 0, 1]
    assert all(isinstance(b, int) for b in data["b"])
    assert all(len(pair) == 2 for pair in data["a"])
    json.dumps(data)  # serializable as-is
    assert abs(data["a"][1][0] - SQ2 / 2) <= 1e-12
    assert abs(data["a"][1][1] - SQ2 / 2) <= 1e-12
