"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import random
import time

import numpy as np

from dftbin.algorithms import goertzel_bin, jco_bin, jco_goertzel_bin, naive_bin
from dftbin.cli import main
from dftbin.complexity import ALGORITHMS, measure, nominal_costs
from dftbin.cyclotomic import cyclotomic, is_ternary
from dftbin.dtmf import DIGITS, detect, synthesize
from dftbin.numtheory import bin_order, divisors, factorize, totient
from dftbin.polynomial import int_mul
from dftbin.streaming import design_filter, finalize, new_state, push

SQ2 = math.sqrt(2.0)

EXPECTED_TABLE = [
    (12, 1, 12, 6, 4, 12), (12, 2, 2, 2, 2, 6),
    (12, 3, 2, 2, 2, 4), (12, 4, 2, 2, 2, 3),
    (32, 1, 32, 30, 16, 32), (32, 2, 32, 14, 8, 16),
    (32, 3, 32, 30, 16, 32), (32, 4, 32, 6, 4, 8),
    (48, 1, 48, 30, 16, 48), (48, 2, 48, 14, 8, 24),
    (48, 3, 48, 14, 8, 16), (48, 4, 48, 6, 4, 12),
    (83, 1, 83, 162, 82, 83), (83, 2, 83, 162, 82, 83),
    (83, 3, 83, 162, 82, 83), (83, 4, 83, 162, 82, 83),
    (120, 1, 120, 62, 32, 120), (120, 2, 120, 30, 16, 60),
    (120, 3, 120, 30, 16, 40), (120, 4, 120, 14, 8, 30),
]

# Criterion 3/7 signal corpus: lengths to exercise and signals per length
# (half real, half complex), 224 signals in total.
SWEEP_LENGTHS = {3: 24, 4: 24, 5: 24, 8: 24, 12: 24, 16: 24,
                 32: 16, 48: 16, 83: 10, 105: 10, 120: 10, 128: 10, 256: 8}

_SWEEP_CACHE = {}


def _report(num: int, name: str, ok: bool, elapsed: float, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    extra = f" {detail}" if detail else ""
    print(f"[ACCEPTANCE] criterion {num} ({name}): {verdict} ({elapsed:.2f}s){extra}")


def _run_sweep():
    """Shared sweep for criteria 3 and 7: every algorithm vs the oracle."""
    if _SWEEP_CACHE:
        return _SWEEP_CACHE
    rng = random.Random(20260810)
    worst_vs_naive = 0.0
    worst_stream_vs_jco = 0.0
    signals_used = 0
    for N, count in SWEEP_LENGTHS.items():
        signals = []
        for i in range(count):
            if i % 2 == 0:
                signals.append([rng.uniform(-1, 1) for _ in range(N)])
            else:
                signals.append([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                for _ in range(N)])
        signals_used += count
        for k in range(N):
            spec = design_filter(N, k)
            for v in signals:
                scale = N * max(abs(c) for c in v)
                ref = naive_bin(v, k).value
                jco_value = jco_bin(v, k).value
                state = new_state(spec)
                for sample in v:
                    push(state, sample)
                stream_value = finalize(state, spec).value
                for value in (goertzel_bin(v, k).value,
                              jco_value,
                              jco_goertzel_bin(v, k).value,
                              stream_value):
                    worst_vs_naive = max(worst_vs_naive,
                                         abs(value - ref) / scale)
                worst_stream_vs_jco = max(worst_stream_vs_jco,
                                          abs(stream_value - jco_value) / scale)
    _SWEEP_CACHE.update(vs_naive=worst_vs_naive,
                        stream_vs_jco=worst_stream_vs_jco,
                        signals=signals_used)
    return _SWEEP_CACHE


def test_criterion_1_table_reproduction(capsys):
    start = time.perf_counter()
    assert main(["table", "--paper", "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = [tuple(int(x) for x in line.split(",")) for line in lines[1:]]
    elapsed = time.perf_counter() - start
    ok = (lines[0] == "N,k,goertzel,jco,jco_goertzel,L"
          and rows == EXPECTED_TABLE and elapsed < 1.0)
    with capsys.disabled():
        _report(1, "reference table", ok, elapsed)
    assert rows == EXPECTED_TABLE
    assert elapsed < 1.0


def test_criterion_2_worked_example():
    start = time.perf_counter()
    spec = design_filter(1024, 128)
    expected_a = (1, complex(SQ2 / 2, SQ2 / 2), 1j, complex(-SQ2 / 2, SQ2 / 2))
    tap_err = max(abs(got - want) for got, want in zip(spec.a, expected_a))

    rng = random.Random(128)
    v = [rng.uniform(-1, 1) for _ in range(1024)]
    state = new_state(spec)
    for sample in v:
        push(state, sample)
    res = finalize(state, spec)
    value_err = abs(res.value - naive_bin(v, 128).value)
    goertzel_nominal = nominal_costs(1024, 128)[0]
    elapsed = time.perf_counter() - start

    ok = (tap_err <= 1e-12 and res.counts.real_mults == 2
          and 1019 <= res.counts.real_adds <= 1035
          and value_err <= 1e-8 and goertzel_nominal == 1024 and elapsed < 1.0)
    _report(2, "worked example", ok, elapsed,
            f"mults={res.counts.real_mults} adds={res.counts.real_adds}")
    assert tap_err <= 1e-12
    assert res.counts.real_mults == 2
    assert 1019 <= res.counts.real_adds <= 1035
    assert value_err <= 1e-8
    assert goertzel_nominal == 1024
    assert elapsed < 1.0


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    sweep = _run_sweep()
    elapsed = time.perf_counter() - start
    ok = sweep["vs_naive"] <= 1e-9 and sweep["signals"] >= 200 and elapsed < 60.0
    _report(3, "oracle equivalence", ok, elapsed,
            f"{sweep['signals']} signals, worst rel err {sweep['vs_naive']:.3e}")
    assert sweep["signals"] >= 200
    assert sweep["vs_naive"] <= 1e-9
    assert elapsed < 60.0


def test_criterion_4_cyclotomic_suite():
    start = time.perf_counter()
    failures = []
    for N in range(1, 301):
        product = [1]
        for d in divisors(N):
            product = int_mul(product, cyclotomic(d))
        if product != [-1] + [0] * (N - 1) + [1]:
            failures.append(f"divisor product off at N={N}")
        if len(cyclotomic(N)) - 1 != totient(N):
            failures.append(f"degree off at N={N}")
        if N >= 2 and cyclotomic(N) != cyclotomic(N)[::-1]:
            failures.append(f"not palindromic at N={N}")
    if not all(is_ternary(n) for n in range(1, 105)):
        failures.append("ternary check below 105 failed")
    if -2 not in cyclotomic(105):
        failures.append("coefficient -2 missing from order-105 polynomial")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    _report(4, "cyclotomic suite", ok, elapsed)
    assert not failures, failures
    assert elapsed < 10.0


def _is_prime(n: int) -> bool:
    f = factorize(n)
    return len(f) == 1 and f[0][1] == 1 and n > 1


def test_criterion_5_complexity_dominance():
    start = time.perf_counter()
    rng = random.Random(555)
    failures = []
    for N in range(1, 129):
        v = [rng.uniform(-1, 1) for _ in range(N)]
        for k in range(N):
            measured_g = goertzel_bin(v, k).counts.real_mults
            measured_jg = jco_goertzel_bin(v, k).counts.real_mults
            if measured_jg > measured_g:
                failures.append(f"measured {measured_jg}>{measured_g} at ({N},{k})")
            nominal = nominal_costs(N, k)
            L = bin_order(N, k)
            if nominal[2] > nominal[0]:
                failures.append(f"nominal {nominal[2]}>{nominal[0]} at ({N},{k})")
            strict_required = ((L not in (1, 2, 3, 4, 6) and L < N)
                               or (_is_prime(N) and N > 3))
            if strict_required and not nominal[2] < nominal[0]:
                failures.append(f"nominal not strict at ({N},{k})")
    elapsed = time.perf_counter() - start
    ok = not failures
    _report(5, "complexity dominance", ok, elapsed)
    assert not failures, failures[:10]


def test_criterion_6_dtmf_round_trip():
    start = time.perf_counter()
    failures = []
    digits = [d for row in DIGITS for d in row]
    for alg in ("goertzel", "jco", "jco_goertzel"):
        for i, digit in enumerate(digits):
            block = synthesize(digit, amplitude=1.0, noise_rms=0.05, seed=100 + i)
            if detect(block, alg=alg) != digit:
                failures.append(f"{digit} missed with {alg}")
    if detect([0.0] * 205) is not None:
        failures.append("zero block not rejected")
    if detect(synthesize("1", amplitude=0.0, noise_rms=1.0, seed=7)) is not None:
        failures.append("pure-noise block not rejected")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 5.0
    _report(6, "dtmf round trip", ok, elapsed)
    assert not failures, failures
    assert elapsed < 5.0


def test_criterion_7_streaming_block_equivalence():
    start = time.perf_counter()
    sweep = _run_sweep()
    elapsed = time.perf_counter() - start
    ok = sweep["stream_vs_jco"] <= 1e-10
    _report(7, "streaming/block equivalence", ok, elapsed,
            f"worst rel err {sweep['stream_vs_jco']:.3e}")
    assert sweep["stream_vs_jco"] <= 1e-10


# Orders whose Phi_L has taps of magnitude 3 or more (up to 38 in Phi_46189),
# so the cyclotomic chain stops before its last stage.
STOP_RULE_LENGTHS = (385, 1155, 2310, 46189)


def test_criterion_8_chain_stop_rows():
    start = time.perf_counter()
    rng = random.Random(46189)
    failures = []
    for N in STOP_RULE_LENGTHS:
        for real in (True, False):
            v = [rng.uniform(-1, 1) if real else complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                 for _ in range(N)]
            ref = complex(np.fft.fft(v)[1])
            rms = math.sqrt(sum(abs(x) ** 2 for x in v))  # rms bin magnitude
            results = {tag: measure(tag, v, 1) for tag in ALGORITHMS}
            for tag, res in results.items():
                if abs(res.value - ref) > 1e-9 * rms:
                    failures.append(f"{tag} off numpy by {abs(res.value - ref) / rms:.2e} at N={N}")
            jco, stream = results["jco"], results["stream"]
            if (repr(jco.value), jco.counts) != (repr(stream.value), stream.counts):
                failures.append(f"stream differs from jco at N={N}")
            if results["jco_goertzel"].counts.real_mults > results["goertzel"].counts.real_mults:
                failures.append(f"jco_goertzel above goertzel at N={N}")
            if real and jco.counts.real_mults > nominal_costs(N, 1)[1]:
                failures.append(f"jco above nominal at N={N}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 20.0
    _report(8, "chain stop rows", ok, elapsed)
    assert not failures, failures
    assert elapsed < 20.0
