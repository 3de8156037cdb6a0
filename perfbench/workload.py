"""The four workloads: seeded inputs, one fixed pass of calls, and the checks.

The passes of block, stream and dtmf are in passes.py; cli's is here. Checks
compare every result against the numpy oracles in oracle.py.

Each workload builds two input sets of the same shape: the timed set from
--seed, and the accuracy set from spec.json's fixed accuracy_seed. The
untimed warm-up pass runs on the accuracy set, and max_rel_err is taken from
it. The error of a Goertzel-type bin near k = 0 depends on the draw as much
as on the program, so a fixed set is what lets runs on different seeds
compare the program.
"""

import json
import marshal
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
from passes import CALL_FIELDS, PASSES, PassRecord, report_once
from rows import SPEC, TOLERANCE, WORKLOADS, dftbin_module, setup, stream_rows
from speed import Speed, child_probe_ns

_now = time.perf_counter_ns
RUN_PY = Path(__file__).with_name("run.py")
NOMINAL_INDEX = {"goertzel": 0, "jco": 1, "jco_goertzel": 2, "stream": 1}
EXPECTED_FAILURES = {(f["workload"], f["call"], tuple(f["row"]), f["error"])
                     for f in SPEC["expected_failures"]}


@dataclass
class Check:
    """What the oracles found over the checked passes."""

    failed: int = 0
    correct: bool = True
    max_rel_err: float = 0.0
    mults: int = 0
    adds: int = 0
    mults_over_nominal: float = 0.0
    problems: list = field(default_factory=list)

    def bin(self, err: float, what: str):
        self.max_rel_err = max(self.max_rel_err, err)
        if not err <= TOLERANCE:
            self.wrong(f"{what}: relative error {err:.3e}")

    def wrong(self, problem: str):
        self.failed += 1
        self.correct = False
        self.problems.append(problem)

    def nominal(self, alg: str, N: int, k: int, mults: int):
        nominal = dftbin_module("complexity").nominal_costs(N, k)[NOMINAL_INDEX[alg]]
        if nominal > 0:
            self.mults_over_nominal = max(self.mults_over_nominal, mults / nominal)


class PlainArithmetic:
    """The kernels' counter interface doing the arithmetic and counting nothing."""

    __slots__ = ()

    def mul(self, x, c):
        return x * c

    def add(self, x, y):
        return x + y

    def sub(self, x, y):
        return x - y


def _child_kb(*args) -> int:
    """Peak memory in KiB that a run.py child process reports on its last line."""
    proc = subprocess.run([sys.executable, str(RUN_PY), *args], capture_output=True,
                          text=True, cwd=RUN_PY.parent.parent, timeout=170, check=True)
    return int(proc.stdout.split()[-1])


def _reduction_jobs(v, N: int, k: int) -> list:
    """Both reduction kernels on signal v for bin k, as callables f(counter)."""
    polynomial = dftbin_module("polynomial")
    spec = dftbin_module("algorithms").BinSpec.for_bin(N, k)
    modulus = dftbin_module("cyclotomic").cyclotomic(spec.L)
    return [lambda c: polynomial.reduce_by_intpoly(v, modulus, c),
            lambda c: polynomial.reduce_by_pk(v, spec.A, c)]


def _stream_job(counter, spec, v):
    streaming = dftbin_module("streaming")
    state = streaming.new_state(spec)
    state.rec = counter
    for x in v:
        streaming.push(state, x)
    return state.w


class Workload:
    """inputs: the timed set (from the seed); accuracy: the fixed set. An input
    item starts with the fields the pass reads (CALL_FIELDS) and goes on with
    what the checks need. Files go to a fresh directory under .bench_build/
    in the checkout, removed by finish()."""

    name = ""

    def __init__(self, seed: int, root):
        self.root = root
        (root / ".bench_build").mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix=f"perfbench-{self.name}-",
                                             dir=root / ".bench_build"))
        self.params = WORKLOADS[self.name]
        self.state = {}
        self.speed = Speed(SPEC["speed_probe_reference_ns"])
        self.inputs = self.make_inputs(np.random.default_rng(seed), "seeded")
        self.accuracy = self.make_inputs(np.random.default_rng(SPEC["accuracy_seed"]),
                                         "accuracy")

    def make_inputs(self, rng, label: str):
        raise NotImplementedError

    def setup(self):
        self.state = setup(self.name)

    def finish(self):
        shutil.rmtree(self.workdir)

    def run_pass(self, inputs, tracer=None) -> PassRecord:
        return PASSES[self.name](inputs, self.state, self.speed)

    def check(self, inputs, records) -> Check:
        """Every output of every record against the oracles; counts from the first."""
        raise NotImplementedError

    def unexpected_failures(self, records) -> list:
        """(call, row, error) of the failed calls that spec.json's
        expected_failures does not list."""
        seen = {error for rec in records for error in rec.errors}
        return sorted(e for e in seen if (self.name, *e) not in EXPECTED_FAILURES)

    def peak_rss_kb(self) -> int:
        """Peak memory of a fresh process that imports only dftbin and the
        standard library, and does this workload's set-up and one pass over
        the seeded inputs (run.py --rss-child)."""
        n = CALL_FIELDS[self.name]
        path = self.workdir / "inputs.marshal"
        path.write_bytes(marshal.dumps([item[:n] for item in self.inputs]))
        return _child_kb("--rss-child", self.name, str(path))

    def kernel_jobs(self) -> list:
        """Callables f(counter) running one reduction kernel each."""
        raise NotImplementedError

    def plain_inputs(self) -> list:
        """(signal, k) pairs for the plain-Python Goertzel reference."""
        raise NotImplementedError


class Block(Workload):
    name = "block"

    def make_inputs(self, rng, label):
        """[(N, k, v, real, oracle)] for every row and signal kind."""
        signals = []
        for N, k in self.params["rows"]:
            for kind in self.params["signals"]:
                v = oracle.signal(rng, N, kind == "complex")
                signals.append((N, k, v, kind == "real", oracle.BinOracle(v)))
        return signals

    def check(self, inputs, records):
        chk = Check()
        algs = self.params["algs"]
        for p, rec in enumerate(records):
            outputs = iter(rec.outputs)
            for N, k, _, real, orc in inputs:
                for alg in algs:
                    out = next(outputs)
                    if out is None:
                        continue
                    chk.bin(orc.rel_err(k, out[0]), f"{alg} ({N},{k})")
                    if p == 0:
                        chk.mults += out[1]
                        chk.adds += out[2]
                        if real:
                            chk.nominal(alg, N, k, out[1])
        return chk

    def kernel_jobs(self):
        return [job for N, k, v, real, _ in self.inputs if real
                for job in _reduction_jobs(v, N, k)]

    def plain_inputs(self):
        return [(v, k) for _, k, v, _, _ in self.inputs]


class Stream(Workload):
    name = "stream"

    def make_inputs(self, rng, label):
        """[(N, k, v, real, oracle)] for every row."""
        rows = []
        for N, k, is_complex in stream_rows():
            v = oracle.signal(rng, N, is_complex)
            rows.append((N, k, v, not is_complex, oracle.BinOracle(v)))
        return rows

    def check(self, inputs, records):
        chk = Check()
        for p, rec in enumerate(records):
            for (N, k, _, real, orc), out in zip(inputs, rec.outputs):
                if out is None:
                    continue
                chk.bin(orc.rel_err(k, out[0]), f"stream ({N},{k})")
                if p == 0:
                    chk.mults += out[1]
                    chk.adds += out[2]
                    if real:
                        chk.nominal("stream", N, k, out[1])
        return chk

    def kernel_jobs(self):
        jobs = []
        for N, k, v, _, _ in self.inputs:
            spec = self.state["filters"][(N, k)]
            if spec is not None:
                jobs.append(lambda c, s=spec, v=v: _stream_job(c, s, v))
        return jobs

    def plain_inputs(self):
        return [(v, k) for _, k, v, _, _ in self.inputs]


class Dtmf(Workload):
    name = "dtmf"

    def make_inputs(self, rng, label):
        """[(alg, block, expected digit or None, oracle)], every block once per alg."""
        p = self.params
        blocks = []
        for noise in p["noise_rms"]:
            blocks += oracle.dtmf_corpus(rng, p["digits"], p["noise_only_blocks"],
                                         noise, p["oracle_margin"])
        return [(alg, block, expected, oracle.BinOracle(block))
                for alg in p["algs"] for block, expected in blocks]

    def check(self, inputs, records):
        """Digits against the oracle's decision, and every bin that detect's
        measure() calls returned against numpy; counts from the first record."""
        chk = Check()
        for p, rec in enumerate(records):
            for (alg, block, expected, orc), out in zip(inputs, rec.outputs):
                if out is None:
                    continue
                digit, made = out
                if digit != expected:
                    chk.wrong(f"dtmf {alg}: {digit!r} for {expected!r}")
                if not made:
                    chk.wrong(f"dtmf {alg}: detect made no measure() call to check")
                for k, value, mults, adds in made:
                    chk.bin(orc.rel_err(k, value), f"dtmf {alg} bin {k}")
                    if p == 0:
                        chk.mults += mults
                        chk.adds += adds
                        chk.nominal(alg, len(block), k, mults)
        return chk

    @staticmethod
    def _bins():
        config = dftbin_module("dtmf").DEFAULT_CONFIG
        return config.row_bins() + config.col_bins()

    def _blocks(self):
        first_alg = self.params["algs"][0]
        return [block for alg, block, *_ in self.inputs if alg == first_alg]

    def kernel_jobs(self):
        return [job for block in self._blocks() for k in self._bins()
                for job in _reduction_jobs(block, len(block), k)]

    def plain_inputs(self):
        return [(block, k) for block in self._blocks() for k in self._bins()]


def _write_signal(path, samples):
    with open(path, "w", encoding="utf-8") as fh:
        for z in samples:
            z = complex(z)
            fh.write(f"{z.real!r}\n" if z.imag == 0 else f"{z.real!r},{z.imag!r}\n")


def _parse_value(line: str) -> complex:
    # "Vk = <re> <sign> <im>j"
    re_part, sign, im_part = line.split("=", 1)[1].split()
    im = float(im_part.rstrip("j"))
    return complex(float(re_part), -im if sign == "-" else im)


class Cli(Workload):
    """One fresh `python -m dftbin.cli` child per call, over files written once."""

    name = "cli"

    def __init__(self, seed, root):
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.process_start_ns = []
        super().__init__(seed, root)
        self.speed = Speed(SPEC["child_probe_reference_ns"], probe=child_probe_ns,
                           interval_ns=3e8)

    def make_inputs(self, rng, label):
        calls = []
        for i, call in enumerate(self.params["calls"]):
            argv = list(call["argv"])
            entry = {"argv": argv, "N": call.get("N"), "k": call.get("k"),
                     "signal": None, "samples": 0}
            path = self.workdir / f"{label}{i}.txt"
            if "blocks" in call:
                corpus = oracle.dtmf_corpus(rng, call["blocks"], call["noise_only_blocks"],
                                            call["noise_rms"], WORKLOADS["dtmf"]["oracle_margin"])
                _write_signal(path, [x for block, _ in corpus for x in block])
                argv.append(str(path))
                entry["expected"] = [d or "-" for _, d in corpus]
                entry["samples"] = sum(len(b) for b, _ in corpus)
            elif argv[0] == "bin":
                v = oracle.signal(rng, call["N"], False)
                _write_signal(path, v)
                argv += ["--k", str(call["k"]), "--input", str(path)]
                entry.update(signal=v, oracle=oracle.BinOracle(v), samples=call["N"])
            else:
                argv += ["--n", str(call["N"]), "--k", str(call["k"])]
            calls.append(entry)
        return calls

    def _command(self, argv, stats_path):
        if stats_path is None:
            return [sys.executable, "-m", "dftbin.cli", *argv]
        return [sys.executable, str(RUN_PY), "--cli-child", str(stats_path), "--", *argv]

    def run_pass(self, inputs, tracer=None):
        rec = PassRecord()
        for i, call in enumerate(inputs):
            stats_path = None if tracer is None else self.workdir / f"stats{i}.json"
            cmd = self._command(call["argv"], stats_path)
            before = self.speed.factor()
            spawn = time.monotonic_ns()
            t0 = _now()
            proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                                  cwd=self.root, timeout=170)
            ns = (_now() - t0) * (before + self.speed.factor()) / 2
            if proc.returncode != 0:
                row = (call["N"], call["k"]) if call["N"] else ()
                report_once(f"cli stderr: {proc.stderr.strip()}")
                rec.fail(f"cli {call['argv'][0]}", row, f"exit {proc.returncode}")
                rec.outputs.append(None)
            else:
                rec.lat.append(ns)
                rec.samples += call["samples"]
                rec.outputs.append(proc.stdout)
            if stats_path is not None and stats_path.exists():
                data = json.loads(stats_path.read_text())
                stats_path.unlink()
                self.process_start_ns.append(data.pop("started_ns") - spawn)
                tracer.merge(data)
        return rec

    def peak_rss_kb(self) -> int:
        """The largest peak memory of one CLI process per call of the pass,
        each reporting its own (run.py --rss-child cli)."""
        return max(_child_kb("--rss-child", "cli", "--", *call["argv"])
                   for call in self.inputs)

    def check(self, inputs, records):
        chk = Check()
        for p, rec in enumerate(records):
            for call, out in zip(inputs, rec.outputs):
                if out is None:
                    continue
                what = " ".join(call["argv"][:4])
                try:
                    ok = self._judge(chk, call, out, first=p == 0)
                except (ValueError, KeyError, IndexError) as exc:
                    ok = False
                    chk.problems.append(f"{what}: unreadable output ({exc})")
                if not ok:
                    chk.wrong(f"{what}: wrong output")
        return chk

    def _judge(self, chk, call, out, first) -> bool:
        argv = call["argv"]
        lines = out.splitlines()
        if argv[0] == "bin":
            err = call["oracle"].rel_err(call["k"], _parse_value(lines[0]))
            chk.max_rel_err = max(chk.max_rel_err, err)
            if first:
                counts = dict(item.split("=") for item in lines[1].split())
                mults, adds = int(counts["mults"]), int(counts["adds"])
                chk.mults += mults
                chk.adds += adds
                chk.nominal(self._alg(call), call["N"], call["k"], mults)
            return err <= TOLERANCE
        if argv[0] == "filter":
            data = json.loads(out)
            a = [complex(re, im) for re, im in data["a"]]
            return (data["N"], data["k"]) == (call["N"], call["k"]) and oracle.filter_ok(
                call["N"], call["k"], data["L"], a, data["b"])
        return lines == call["expected"]

    @staticmethod
    def _alg(call) -> str:
        return call["argv"][call["argv"].index("--alg") + 1].replace("-", "_")

    def kernel_jobs(self):
        """The reduction kernels on each bin call's signal, and the streaming
        register on the stream call's."""
        design_filter = dftbin_module("streaming").design_filter
        jobs = []
        for call in self.inputs:
            v = call["signal"]
            if v is None:
                continue
            if self._alg(call) == "stream":
                spec = design_filter(call["N"], call["k"])
                jobs.append(lambda c, s=spec, v=v: _stream_job(c, s, v))
            else:
                jobs += _reduction_jobs(v, call["N"], call["k"])
        return jobs

    def plain_inputs(self):
        return [(c["signal"], c["k"]) for c in self.inputs if c["signal"] is not None]


WORKLOAD_TYPES = {w.name: w for w in (Block, Stream, Dtmf, Cli)}


def recorder_overhead(jobs, repeats: int = 3) -> tuple[float, bool]:
    """(sum of median kernel times with OpRecorder / with PlainArithmetic,
    whether both counters gave identical results)."""
    recorder = dftbin_module("complexity").OpRecorder
    same = True
    with_rec = without = 0.0
    for job in jobs:
        times = {True: [], False: []}
        results = {}
        for _ in range(repeats):
            for counted in (True, False):
                counter = recorder() if counted else PlainArithmetic()
                t0 = _now()
                results[counted] = job(counter)
                times[counted].append(_now() - t0)
        same = same and results[True] == results[False]
        with_rec += float(np.median(times[True]))
        without += float(np.median(times[False]))
    return (with_rec / without if without else 0.0), same


def plain_goertzel_ns_per_sample(inputs) -> float:
    samples = sum(len(v) for v, _ in inputs)
    t0 = _now()
    for v, k in inputs:
        oracle.plain_goertzel(v, k)
    return (_now() - t0) / samples if samples else 0.0


def slot_medians(records) -> np.ndarray:
    """Per call slot, its median latency over the passes, failed calls excluded."""
    lengths = {len(r.lat) for r in records}
    if len(lengths) != 1:
        raise ValueError(f"passes made different numbers of calls: {sorted(lengths)}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-nan slots
        slots = np.nanmedian(np.array([r.lat for r in records], dtype=float), axis=0)
    return slots[~np.isnan(slots)]


def tail(slots) -> tuple[float, float, int]:
    """(latency, percentile, slot count) at the highest percentile with at least
    ten slots beyond it; the slowest slot when there are fewer than 11."""
    ordered = np.sort(slots)
    n = len(ordered)
    if n == 0:
        return math.nan, math.nan, 0
    if n < 11:
        return float(ordered[-1]), 100.0, n
    return float(ordered[n - 11]), 100.0 * (n - 10) / n, n
