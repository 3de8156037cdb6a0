"""The benchmark's tracer (perfbench/layers.py) wraps dftbin functions by the
module attribute their callers look up. A refactor that unbinds one of those
names, or calls a kernel through a reference taken at import, breaks the
traced benchmark run; these tests catch it in the main suite."""

import random
from pathlib import Path

import pytest

from dftbin import complexity

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layers import build_tracer

    t = build_tracer()
    try:
        t.install()  # raises AttributeError on an unbound name
        yield t
    finally:
        t.remove()


def test_tracer_installs_and_removes(tracer):
    wrapped = [(mod, attr, getattr(mod, attr), orig) for mod, attr, orig in tracer._originals]
    assert wrapped
    tracer.remove()
    for mod, attr, wrapper, orig in wrapped:
        assert getattr(mod, attr) is orig is not wrapper


def test_kernels_are_called_through_module_globals(tracer):
    rng = random.Random(3)
    v = [rng.uniform(-1, 1) for _ in range(48)]
    for alg in ("naive", "goertzel", "jco", "jco_goertzel", "stream"):
        complexity.measure(alg, v, 1)
    layers = tracer.layers
    # goertzel_bin, jco_bin, jco_goertzel_bin, and _eval_remainder inside jco_bin.
    assert layers["algorithms"].calls == 4
    assert layers["algorithms"].extra["eval_taps"] > 0
    # One cyclotomic stage per distinct prime of L = 48 = 2**4 * 3, per tag.
    assert layers["polynomial.reduce_by_intpoly"].calls == 4
    assert layers["polynomial.reduce_by_pk"].calls == 2
    assert layers["streaming.design_filter"].calls == 1
    assert layers["streaming.push"].calls == len(v)
    assert layers["streaming.finalize"].calls == 1
    assert layers["complexity.measure"].calls == 5
