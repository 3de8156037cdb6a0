"""Host-speed probe for normalising latencies.

On a 2-vCPU virtual machine (Intel Xeon) shared with other tenants, the
speed of the whole virtual CPU was seen to change by up to 1.9x in phases
that last about ten seconds. That is longer than a pass and about as
long as a run, so no statistic over a single run's passes removes it. Every
latency is therefore multiplied by reference_ns / probe_ns, where probe_ns is
the time of a fixed probe loop measured close to the call. The times then
read as the time on a host where the probe takes reference_ns.

The probe loop belongs to the benchmark, so a change to dftbin does not
change it. It does what dftbin's kernels do: counting-recorder method calls,
complex arithmetic, a dict lookup per constant and a shift register.
"""

import subprocess
import sys
import time
from pathlib import Path

_now = time.perf_counter_ns
_DATA = [complex(((i * 7919) % 1000) / 1000 - 0.5, 0.0) for i in range(400)]


class _Recorder:
    __slots__ = ("mults", "adds", "costs")

    def __init__(self):
        self.mults = 0
        self.adds = 0
        self.costs = {}

    def mul(self, value, const):
        if value == 0:
            return value * const
        cost = self.costs.get(const)
        if cost is None:
            cost = self.costs[const] = 1
        self.mults += cost
        return value * const

    def sub(self, x, y):
        if x.real != 0 and y.real != 0:
            self.adds += 1
        if x.imag != 0 and y.imag != 0:
            self.adds += 1
        return x - y


def _probe_loop():
    rec = _Recorder()
    rem = list(_DATA)
    register = [0j] * 64
    s1 = s2 = 0j
    for i in range(len(rem) - 1, 8, -1):
        c = rem[i]
        s0 = rec.sub(rec.sub(c, rec.mul(s1, 1.9)), s2)
        s2, s1 = s1, s0
        rem[i - 8] = rec.sub(rem[i - 8], rec.mul(c, -1))
        register.pop(0)
        register.append(s0)
    return s1


def probe_ns(repeats: int = 3) -> int:
    """Fastest of a few runs of the probe loop, in ns."""
    best = None
    for _ in range(repeats):
        t0 = _now()
        _probe_loop()
        dt = _now() - t0
        best = dt if best is None or dt < best else best
    return best


_CHILD_PROBE = (f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); import speed\n"
                "for _ in range(30): speed._probe_loop()")


def child_probe_ns() -> int:
    """Wall time of a fresh interpreter that runs the probe loop 30 times.

    Work done in child processes includes process start, which slows less
    than the interpreter loop when the host is busy; this probe has both."""
    t0 = _now()
    subprocess.run([sys.executable, "-c", _CHILD_PROBE], check=True, timeout=60)
    return _now() - t0


class Speed:
    """factor() = reference_ns / probe(), probing again once interval_ns of
    wall time has passed. Call it outside the timed region."""

    def __init__(self, reference_ns: float, probe=probe_ns, interval_ns: float = 1e8):
        self.reference_ns = reference_ns
        self.probe = probe
        self.interval_ns = interval_ns
        self.probed_at = None
        self.current = 1.0

    def factor(self) -> float:
        now = _now()
        if self.probed_at is None or now - self.probed_at >= self.interval_ns:
            self.current = self.reference_ns / self.probe()
            self.probed_at = _now()
        return self.current
