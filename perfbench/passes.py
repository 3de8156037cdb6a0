"""The fixed pass of block, stream and dtmf: their calls, one at a time.

A pass issues its calls one at a time (closed loop, one caller) and records,
per call slot, the latency in ns (nan when the call failed) and, per result,
what the program returned. A call that raises is recorded with its row and
error type, so that a failure the spec does not expect makes the run
incorrect.

Imports only the standard library and dftbin: the child process that
measures peak memory (run.py --rss-child) runs these passes, so its memory
is dftbin's and its inputs', not the benchmark's numpy oracles'.
"""

import sys
import time
from array import array
from dataclasses import dataclass, field

from rows import WORKLOADS, dftbin_module

_now = time.perf_counter_ns
NAN = float("nan")

_REPORTED = set()


def report_once(message: str):
    if message not in _REPORTED:
        _REPORTED.add(message)
        print(f"# {message}", file=sys.stderr)


@dataclass
class PassRecord:
    lat: array = field(default_factory=lambda: array("d"))  # compact: one per call
    outputs: list = field(default_factory=list)
    failed: int = 0
    samples: int = 0
    errors: list = field(default_factory=list)  # (call, row, error) per failed call

    def call(self, speed, what: str, row: tuple, fn, *args, **kwargs):
        """(True, result) of fn(*args, **kwargs), its latency scaled by the host
        speed around it; (False, None) when it raised, recorded as a failure."""
        before = speed.factor()
        t0 = _now()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failed call is counted, not fatal
            self.fail(what, row, exc)
            return False, None
        ns = _now() - t0
        self.lat.append(ns * (before + speed.factor()) / 2)
        return True, result

    def fail(self, what: str, row: tuple, error):
        """Record a failed call; error is the exception, or a string."""
        if isinstance(error, BaseException):
            name, detail = type(error).__name__, f"{type(error).__name__}: {error}"
        else:
            name = detail = str(error)
        report_once(f"{what} {row} failed: {detail}")
        self.lat.append(NAN)
        self.failed += 1
        self.errors.append((what, tuple(row), name))


def bin_output(result):
    return (result.value, result.counts.real_mults, result.counts.real_adds)


def block_pass(inputs, state, speed) -> PassRecord:
    """inputs: [(N, k, v, ...)]; one measure(alg, v, k) per alg."""
    measure = dftbin_module("complexity").measure
    rec = PassRecord()
    for N, k, v, *_ in inputs:
        for alg in WORKLOADS["block"]["algs"]:
            ok, result = rec.call(speed, f"measure {alg}", (N, k), measure, alg, v, k)
            rec.outputs.append(bin_output(result) if ok else None)
            rec.samples += N if ok else 0
    return rec


def stream_pass(inputs, state, speed) -> PassRecord:
    """inputs: [(N, k, v, ...)]; push() per sample, then finalize. A row whose
    filter design failed in set-up is designed again, and that is a call."""
    streaming = dftbin_module("streaming")
    push, new_state = streaming.push, streaming.new_state
    rec = PassRecord()
    lat = rec.lat
    for N, k, v, *_ in inputs:
        spec = state["filters"][(N, k)]
        if spec is None:
            ok, spec = rec.call(speed, "design_filter", (N, k), streaming.design_filter, N, k)
            if not ok:
                rec.outputs.append(None)
                continue
        register = new_state(spec)
        for i, x in enumerate(v):
            if not i & 1023:
                scale = speed.factor()
            t0 = _now()
            try:
                push(register, x)
            except Exception as exc:  # a failed call is counted, not fatal
                rec.fail("push", (N, k), exc)
                continue
            lat.append((_now() - t0) * scale)
            rec.samples += 1
        ok, result = rec.call(speed, "finalize", (N, k), streaming.finalize, register, spec)
        rec.outputs.append(bin_output(result) if ok else None)
    return rec


def dtmf_pass(inputs, state, speed) -> PassRecord:
    """inputs: [(alg, block, ...)]; one detect(block, alg=alg) each. The output
    of a call is its digit and the (k, value, mults, adds) of every measure()
    it made, gathered by a wrapper around dftbin.dtmf.measure."""
    dtmf = dftbin_module("dtmf")
    detect, measure = dtmf.detect, dtmf.measure
    made = []

    def measured(alg, v, k):
        result = measure(alg, v, k)
        made.append((k, *bin_output(result)))
        return result

    rec = PassRecord()
    dtmf.measure = measured
    try:
        for alg, block, *_ in inputs:
            ok, digit = rec.call(speed, f"detect {alg}", (len(block),), detect, block, alg=alg)
            rec.outputs.append((digit, tuple(made)) if ok else None)
            rec.samples += len(block) if ok else 0
            made.clear()
    finally:
        dtmf.measure = measure
    return rec


PASSES = {"block": block_pass, "stream": stream_pass, "dtmf": dtmf_pass}
# How many leading fields of an input item the pass reads.
CALL_FIELDS = {"block": 3, "stream": 3, "dtmf": 2}


def peak_rss_kb() -> int:
    """Peak resident memory of this process since it started, in KiB.

    Read from VmHWM in /proc/self/status where that exists. On Linux,
    getrusage's ru_maxrss of a process started by fork and exec also
    covers the memory its parent had at the fork, because the high-water
    mark is carried across exec; VmHWM covers only the program exec started.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
