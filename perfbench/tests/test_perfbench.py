"""Tests of the benchmark itself: seeded inputs, printed names, traced runs.

Run from the repository root: python -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import oracle  # noqa: E402
import passes  # noqa: E402
import workload  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def inputs(wl):
    if isinstance(wl, workload.Cli):
        return [(c["argv"][:-1], Path(c["argv"][-1]).read_text())
                if Path(c["argv"][-1]).is_file() else c["argv"] for c in wl.inputs]
    return [item[:3] for item in wl.inputs]


@pytest.mark.parametrize("name", sorted(workload.WORKLOAD_TYPES))
def test_same_seed_same_inputs(name, tmp_path):
    make = workload.WORKLOAD_TYPES[name]
    first, again, other = make(7, tmp_path), make(7, tmp_path), make(8, tmp_path)
    try:
        assert inputs(first) == inputs(again)
        assert inputs(first) != inputs(other)
    finally:
        for wl in (first, again, other):
            wl.finish()


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(workload.WORKLOAD_TYPES)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_names_and_units_match_benchmark_json(trace, section):
    result = result_of(run_bench("--workload", "dtmf", "--seed", "3",
                                 "--seconds", "0.1", "--trace", str(trace)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace:
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_stream_failure_is_counted_not_hidden():
    result = result_of(run_bench("--workload", "stream", "--seed", "3",
                                 "--seconds", "0.1", "--trace", "0"))
    assert result["failed"] > 0
    assert result["metrics"]["ok_ratio"]["value"] < 1.0
    assert result["correct"] is True


def test_unexpected_failure_makes_the_run_incorrect(tmp_path):
    wl = workload.WORKLOAD_TYPES["stream"](5, tmp_path)
    wl.finish()
    rec = passes.PassRecord()
    rec.fail("design_filter", (65537, 1), ArithmeticError("residual"))
    assert wl.unexpected_failures([rec]) == []
    rec.fail("design_filter", (4096, 1), ArithmeticError("residual"))
    rec.fail("push", (65537, 1), ValueError("bad sample"))
    assert wl.unexpected_failures([rec]) == [
        ("design_filter", (4096, 1), "ArithmeticError"), ("push", (65537, 1), "ValueError")]


@pytest.mark.parametrize("name", ["dtmf", "stream"])
def test_traced_pass_equals_untraced_pass(name, tmp_path):
    """Outputs hold every bin value and count: for dtmf, the digit and the
    result of each measure() call detect made."""
    wl = workload.WORKLOAD_TYPES[name](5, tmp_path)
    try:
        wl.setup()
        plain = wl.run_pass(wl.inputs)
        tracer = layers.build_tracer()
        tracer.install()
        try:
            traced = wl.run_pass(wl.inputs, tracer)
        finally:
            tracer.remove()
    finally:
        wl.finish()
    assert traced.outputs == plain.outputs
    assert tracer.layers, "no spans were recorded"
    first, second = wl.check(wl.inputs, [plain]), wl.check(wl.inputs, [traced])
    assert first.mults > 0 and first.correct and second.correct
    assert (first.mults, first.adds, first.max_rel_err) == (
        second.mults, second.adds, second.max_rel_err)


def test_peak_memory_child_holds_no_numpy(tmp_path):
    wl = workload.WORKLOAD_TYPES["dtmf"](5, tmp_path)
    try:
        child_kb = wl.peak_rss_kb()
    finally:
        wl.finish()
    import numpy  # noqa: F401  (the test process holds numpy and the oracles)

    assert 0 < child_kb < passes.peak_rss_kb()


def test_traced_cli_child_prints_what_the_cli_prints(tmp_path):
    stats = tmp_path / "stats.json"
    env = {"PYTHONPATH": str(ROOT / "src")}
    plain = subprocess.run([sys.executable, "-m", "dftbin.cli", "cyclo", "12"], cwd=ROOT,
                           capture_output=True, text=True, env=env, timeout=60)
    traced = run_bench("--cli-child", str(stats), "--", "cyclo", "12")
    assert traced.returncode == plain.returncode == 0
    assert traced.stdout == plain.stdout
    data = json.loads(stats.read_text())
    assert data["layers"]["cyclotomic"][0] == 1
    assert data["started_ns"] > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "block", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_tail_is_the_eleventh_slowest_slot():
    value, pct, n = workload.tail(list(range(1, 101)))
    assert (value, pct, n) == (90, 90.0, 100)
    assert workload.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_slot_medians_skip_failed_calls():
    recs = [workload.PassRecord(lat=array("d", [1.0, float("nan"), 5.0])),
            workload.PassRecord(lat=array("d", [3.0, float("nan"), 4.0]))]
    assert list(workload.slot_medians(recs)) == [2.0, 4.5]


def test_oracles_agree_with_numpy():
    import numpy as np

    rng = np.random.default_rng(0)
    v = oracle.signal(rng, 64, False)
    assert oracle.BinOracle(v).rel_err(5, oracle.plain_goertzel(v, 5)) < 1e-12
    corpus = oracle.dtmf_corpus(rng, "5#", 2, 1.0, 0.1)
    assert [oracle.dtmf_decision(b, 0.1) for b, _ in corpus] == [
        ("5", True), ("#", True), (None, True), (None, True)]
