import math
import random

import pytest

from dftbin.algorithms import stage_plan
from dftbin.complexity import (CSV_HEADER, OpRecorder, REFERENCE_TABLE_SPECS,
                               complexity_table, format_csv, format_table,
                               measure, nominal_costs)
from dftbin.numtheory import totient
from oracles import ORDERS_WITH_TAP_ABOVE_2

SQ2 = math.sqrt(2.0)

# Every row of the reference 20-row table: (N, k, goertzel, jco, jco_goertzel, L).
REFERENCE_ROWS = [
    (12, 1, 12, 6, 4, 12),
    (12, 2, 2, 2, 2, 6),
    (12, 3, 2, 2, 2, 4),
    (12, 4, 2, 2, 2, 3),
    (32, 1, 32, 30, 16, 32),
    (32, 2, 32, 14, 8, 16),
    (32, 3, 32, 30, 16, 32),
    (32, 4, 32, 6, 4, 8),
    (48, 1, 48, 30, 16, 48),
    (48, 2, 48, 14, 8, 24),
    (48, 3, 48, 14, 8, 16),
    (48, 4, 48, 6, 4, 12),
    (83, 1, 83, 162, 82, 83),
    (83, 2, 83, 162, 82, 83),
    (83, 3, 83, 162, 82, 83),
    (83, 4, 83, 162, 82, 83),
    (120, 1, 120, 62, 32, 120),
    (120, 2, 120, 30, 16, 60),
    (120, 3, 120, 30, 16, 40),
    (120, 4, 120, 14, 8, 30),
]


@pytest.mark.parametrize("c,cost", [
    (0.0, 0), (1.0, 0), (-1.0, 0), (2.0, 0), (-2.0, 0),
    (3.0, 1), (0.5, 1), (math.sqrt(3), 1),
    (1j, 0), (-1j, 0), (2j, 0),
    (complex(SQ2 / 2, SQ2 / 2), 1),          # shared magnitude
    (complex(-SQ2 / 2, SQ2 / 2), 1),
    (complex(0.5, math.sqrt(3) / 2), 2),     # two distinct nontrivial magnitudes
    (complex(1.0, 0.3), 1),
    (1.0 + 1e-13, 1),                        # no tolerance: charged
])
def test_const_mult_cost(c, cost):
    rec = OpRecorder()
    rec.mul(1.0, c)
    assert rec.mults == cost


def test_recorder_mul_rules():
    rec = OpRecorder()
    rec.mul(0.0, 3.7)                 # zero data: free
    assert rec.mults == 0
    rec.mul(1.5, 3.7)                 # real data, nontrivial constant
    assert rec.mults == 1
    rec.mul(1.5 + 2.5j, 3.7)          # complex data doubles the cost
    assert rec.mults == 3
    rec.mul(1.5, -1.0)                # trivial constant
    assert rec.mults == 3


def test_recorder_add_rules():
    rec = OpRecorder()
    rec.add(1.0, 2.0)
    assert rec.adds == 1
    rec.add(1 + 1j, 2 + 2j)
    assert rec.adds == 3
    rec.add(0.0, 5.0)                 # zero operand: free
    rec.add(5 + 0j, -0j)
    assert rec.adds == 3
    rec.add(1 + 1j, -2.0)             # only the real components add
    assert rec.adds == 4


def test_recorder_arithmetic_matches_plain():
    rec = OpRecorder()
    assert rec.mul(1.5 + 0.5j, 2.2) == (1.5 + 0.5j) * 2.2
    assert rec.add(1.5, 2.5j) == 1.5 + 2.5j
    assert rec.add(3.0, -(1 + 1j)) == 3.0 - (1 + 1j)


@pytest.mark.parametrize("N,k,expected", [
    (12, 1, (12, 6, 4)),
    (48, 2, (48, 14, 8)),
    (83, 3, (83, 162, 82)),
    (2, 1, (2, 0, 0)),
    (1, 0, (0, 0, 0)),
    (16, 0, (2, 0, 0)),
])
def test_nominal_costs(N, k, expected):
    assert nominal_costs(N, k) == expected


def test_nominal_costs_rejects_bad_length():
    with pytest.raises(ValueError):
        nominal_costs(0, 1)


def test_nominal_costs_rejects_non_integral_bin():
    with pytest.raises(ValueError, match="bin index must be an integer"):
        nominal_costs(8, 1.5)


def test_reference_table_rows():
    assert complexity_table(REFERENCE_TABLE_SPECS) == REFERENCE_ROWS


def test_custom_table_rows():
    assert complexity_table([(120, [4])]) == [(120, 4, 120, 14, 8, 30)]
    assert complexity_table([(12, [3])]) == [(12, 3, 2, 2, 2, 4)]
    assert complexity_table([(16, [1])]) == [(16, 1, 16, 14, 8, 16)]


def test_csv_format():
    out = format_csv(complexity_table([(12, [1, 2])]))
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER == "N,k,goertzel,jco,jco_goertzel,L"
    assert lines[1] == "12,1,12,6,4,12"
    assert lines[2] == "12,2,2,2,2,6"


def test_text_format_aligns():
    out = format_table(complexity_table([(12, [1])]))
    lines = out.splitlines()
    assert lines[0].split() == ["N", "k", "goertzel", "jco", "jco_goertzel", "L"]
    assert lines[1].split() == ["12", "1", "12", "6", "4", "12"]


def test_measure_examples():
    rng = random.Random(3)
    v83 = [rng.uniform(-1, 1) for _ in range(83)]
    assert measure("goertzel", v83, 2).counts.real_mults == 83

    v16 = [rng.uniform(-1, 1) for _ in range(16)]
    assert measure("jco", v16, 0).counts.real_mults == 0

    v1024 = [rng.uniform(-1, 1) for _ in range(1024)]
    res = measure("stream", v1024, 128)
    assert res.counts.real_mults == 2
    assert 1019 <= res.counts.real_adds <= 1035


def test_measure_unknown_tag():
    with pytest.raises(ValueError, match="unknown algorithm tag"):
        measure("fft", [1, 2], 1)


def test_measure_value_matches_direct_call():
    from dftbin.algorithms import jco_bin

    rng = random.Random(9)
    v = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(48)]
    assert measure("jco", v, 5).value == jco_bin(v, 5).value


def test_policy_determinism():
    rng = random.Random(31)
    v = [rng.uniform(-1, 1) for _ in range(120)]
    first = measure("jco_goertzel", v, 7).counts
    second = measure("jco_goertzel", v, 7).counts
    assert first == second


def test_measured_never_exceeds_nominal_small_sweep():
    rng = random.Random(41)
    for N in range(2, 49):
        v = [rng.uniform(-1, 1) for _ in range(N)]
        for k in range(N):
            g, j, jg = nominal_costs(N, k)
            assert measure("goertzel", v, k).counts.real_mults <= g
            assert measure("jco", v, k).counts.real_mults <= j
            assert measure("jco_goertzel", v, k).counts.real_mults <= jg


# Every order below 385 whose cyclotomic polynomial has a +-2 coefficient. No
# chain stage stops there (the first tap of magnitude 3 is in Phi_385), so the
# remainder has phi(L) taps.
ORDERS_WITH_TAP_2 = (105, 165, 195, 210, 255, 273, 285, 315, 330, 345, 357)


def test_measured_never_exceeds_nominal_at_orders_with_tap_2():
    rng = random.Random(43)
    for L in ORDERS_WITH_TAP_2:
        for N, k in ((L, 1), (2 * L, 2)):
            v = [rng.uniform(-1, 1) for _ in range(N)]
            g, j, jg = nominal_costs(N, k)
            measured_g = measure("goertzel", v, k).counts.real_mults
            measured_jg = measure("jco_goertzel", v, k).counts.real_mults
            assert measured_g <= g, (N, k)
            assert measure("jco", v, k).counts.real_mults <= j, (N, k)
            assert measured_jg <= jg, (N, k)
            assert measured_jg <= measured_g, (N, k)


def test_jco_goertzel_dominates_goertzel_past_tap_3():
    # The orders below 2500 whose Phi_L has a tap of magnitude 3 or more. The
    # chain stops before its last stage there, leaving D > phi(L) taps, and
    # both claims hold against the nominal counts on D: measured never above
    # nominal, and jco_goertzel never above goertzel. With the whole chain the
    # first failed at all 30 orders, the second at 12, first at (665, 1) with
    # 720 to goertzel's 665.
    rng = random.Random(45)
    for L in ORDERS_WITH_TAP_ABOVE_2:
        D = stage_plan(L).D
        assert D > totient(L), L
        v = [rng.uniform(-1, 1) for _ in range(L)]
        g, j, jg = nominal_costs(L, 1)
        assert (j, jg) == (2 * (D - 1), D), L
        measured_g = measure("goertzel", v, 1).counts.real_mults
        measured_jg = measure("jco_goertzel", v, 1).counts.real_mults
        assert measured_g <= g, L
        assert measure("jco", v, 1).counts.real_mults <= j, L
        assert measured_jg <= jg, L
        assert measured_jg <= measured_g, L
