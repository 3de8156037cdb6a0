"""jco and jco_goertzel share the cyclotomic stage among the bins of one
signal: a call that passes the same sample objects at the same order L
reuses the last signal's remainder and charges its stored counts. Each
result must equal a stand-alone call on fresh sample objects, in repr of
the value and in counts; anything but the same objects recomputes; and
the memo holds nothing of a signal once another has been reduced."""

import gc
import pickle
import random
import sys
import threading
import weakref

import numpy
import pytest

from dftbin import algorithms
from dftbin.algorithms import BinSpec, OpRecorder
from dftbin.complexity import measure
from dftbin.dtmf import DEFAULT_CONFIG, detect, synthesize
from test_bulk_counting import signals

TAGS = ("jco", "jco_goertzel")
DTMF_BINS = DEFAULT_CONFIG.row_bins() + DEFAULT_CONFIG.col_bins()


def fresh(v):
    """Equal samples in new objects (small ints stay CPython's shared ones)."""
    return pickle.loads(pickle.dumps(v))


def stand_alone(alg, v, k):
    algorithms._STAGE_MEMO = None
    return measure(alg, fresh(v), k)


def same(got, want, what):
    assert repr(got.value) == repr(want.value), what
    assert got.counts == want.counts, what


@pytest.fixture
def stages(monkeypatch):
    """The orders whose stage was computed, in call order."""
    computed = []
    reduce = algorithms._cyclo_reduce

    def counted(v, spec, rec):
        computed.append(spec.L)
        return reduce(v, spec, rec)

    monkeypatch.setattr(algorithms, "_cyclo_reduce", counted)
    monkeypatch.setattr(algorithms, "_STAGE_MEMO", None)
    return computed


def check_in_sequence(v, ks):
    """measure each tag at each k on the one list v, in turn; each result
    against a stand-alone call."""
    got = [(alg, k, measure(alg, v, k)) for alg in TAGS for k in ks]
    for alg, k, result in got:
        same(result, stand_alone(alg, v, k), (alg, len(v), k))


def test_dtmf_bins_share_one_stage_per_order(stages):
    block = synthesize("7", noise_rms=0.1, seed=5)
    for alg in TAGS:
        for k in DTMF_BINS:
            measure(alg, block, k)
    # Seven of the eight bins have order 205, k = 20 has order 41.
    assert stages == [205, 41]


def test_dtmf_bins_in_sequence_equal_stand_alone_calls():
    for digit in "1D":
        check_in_sequence(synthesize(digit, noise_rms=0.1, seed=3), DTMF_BINS)
    for v in signals(205).values():
        check_in_sequence(v, DTMF_BINS)


def test_every_bin_in_sequence_equals_stand_alone_calls():
    # Every order of N = 12 and 60, on every input kind.
    for N in (12, 60):
        for v in signals(N).values():
            check_in_sequence(v, range(N))


def test_stage_is_a_tuple():
    v = signals(60)["float"]
    R = algorithms._cyclo_stage(v, BinSpec.for_bin(60, 1), OpRecorder())
    assert isinstance(R, tuple)
    assert algorithms._cyclo_stage(v, BinSpec.for_bin(60, 1), OpRecorder()) is R


def recomputes(stages, v, w, k_v, k_w):
    """measure on v at k_v, then on w at k_w: w's stage must be computed
    anew and equal a stand-alone call."""
    for alg in TAGS:
        algorithms._STAGE_MEMO = None
        measure(alg, v, k_v)
        stages.clear()
        result = measure(alg, w, k_w)
        assert stages == [BinSpec.for_bin(len(w), k_w).L], alg
        same(result, stand_alone(alg, w, k_w), alg)


def test_a_signed_zero_copy_recomputes(stages):
    v = signals(60)["float"]
    v[7] = 0.0
    w = list(v)
    w[7] = -0.0
    recomputes(stages, v, w, 1, 1)
    # At N = 1 the bin is the sample itself, so sharing would show.
    recomputes(stages, [0.0], [-0.0], 0, 0)
    assert repr(measure("jco", [-0.0], 0).value) != repr(measure("jco", [0.0], 0).value)


def test_int_samples_against_equal_floats_recompute(stages):
    v = [random.Random(8).randint(-2, 2) for _ in range(60)]
    recomputes(stages, v, [float(x) for x in v], 1, 1)
    recomputes(stages, [float(x) for x in v], v, 1, 1)


@pytest.fixture
def scanned(monkeypatch):
    """The samples _cyclo_stage compared by identity with the memo's."""
    compared = []
    is_ = algorithms.is_
    monkeypatch.setattr(algorithms, "is_", lambda a, b: compared.append(a) or is_(a, b))
    return compared


def test_a_tuple_is_its_own_key(stages, scanned):
    v = tuple(signals(60)["float"])
    got = [(alg, k, measure(alg, v, k)) for alg in TAGS for k in range(60)]
    assert scanned == [] and sorted(stages) == sorted(set(stages))
    for alg, k, result in got:
        same(result, stand_alone(alg, v, k), (alg, k))
    # Another object with the same samples is scanned, then shares.
    algorithms._STAGE_MEMO = None
    measure("jco", v, 1)
    stages.clear()
    w = list(v)
    measure("jco_goertzel", w, 1)
    assert (len(scanned), stages) == (60, [])
    # A list changed in place is scanned again, up to the changed sample,
    # and recomputes.
    w[11] = w[11] * 0.5
    result = measure("jco", w, 1)
    assert (len(scanned), stages) == (60 + 12, [60])
    same(result, stand_alone("jco", w, 1), "in place")


def test_detect_scans_no_block(stages, scanned):
    for block in (synthesize("3", noise_rms=0.1, seed=2), numpy.array(synthesize("#"))):
        stages.clear()
        algorithms._STAGE_MEMO = None
        detect(block, alg="jco_goertzel")
        assert (scanned, stages) == ([], [205, 41])


def test_a_sample_set_in_place_recomputes(stages):
    v = signals(60)["float"]
    for alg in TAGS:
        algorithms._STAGE_MEMO = None
        measure(alg, v, 1)
        v[11] = v[11] * 0.5
        stages.clear()
        result = measure(alg, v, 1)
        assert stages == [60], alg
        same(result, stand_alone(alg, v, 1), alg)


def test_another_length_or_order_recomputes(stages):
    v = signals(60)["float"]
    recomputes(stages, v, v[:30], 1, 1)
    recomputes(stages, v, v, 1, 2)  # L = 60, then 30
    algorithms._STAGE_MEMO = None
    measure("jco", v, 1)
    measure("jco", v, 2)
    stages.clear()
    measure("jco_goertzel", v, 7)  # both orders are still held
    measure("jco_goertzel", v, 14)
    assert stages == []


class Sample(float):
    """A float that takes weak references."""


def test_a_new_signal_drops_the_old_one():
    rng = random.Random(9)
    a = [Sample(rng.uniform(-1, 1)) for _ in range(7)]
    refs = [weakref.ref(x) for x in a]
    for alg in TAGS:
        for k in (0, 1):  # L = 1, and L = 7, whose fold returns a's samples
            measure(alg, a, k)
    b = [rng.uniform(-1, 1) for _ in range(7)]
    measure("jco", b, 1)
    del a
    gc.collect()
    assert all(ref() is None for ref in refs)
    held, by_order = algorithms._STAGE_MEMO
    assert all(x is y for x, y in zip(held, b)) and len(held) == len(b)
    assert list(by_order) == [7]


def test_threads_sharing_the_memo_get_stand_alone_results():
    jobs = [(alg, signals(n)[kind], k) for n in (12, 30) for kind in ("float", "complex", "zeros")
            for alg in TAGS for k in range(n)]
    want = [stand_alone(alg, v, k) for alg, v, k in jobs]
    wrong = []

    def worker(start):
        # Each thread walks the jobs from its own start, so the bins of a
        # signal run in turn in every thread, against the others' signals.
        for i in [*range(start, len(jobs)), *range(start)]:
            alg, v, k = jobs[i]
            got = measure(alg, v, k)
            if repr(got.value) != repr(want[i].value) or got.counts != want[i].counts:
                wrong.append(jobs[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(start,))
                   for start in range(0, len(jobs), len(jobs) // 6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
