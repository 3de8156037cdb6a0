"""Span recorder that wraps dftbin's functions from outside the package.

Each wrapped function is replaced, in the module whose code calls it, by a
wrapper that opens a span on entry and closes it on exit. Spans nest through
a stack, so a layer's self time is its span time minus the time its child
spans cover. Spans are aggregated per layer as they close (count, total,
self), because a streaming pass opens tens of thousands of them; the raw
span list is not kept. Optional post hooks stash details of a call for
analysis after the pass; their run time is charged to no layer.
"""

import importlib
import time
from dataclasses import dataclass, field

_now = time.perf_counter_ns


@dataclass
class LayerStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    extra: dict = field(default_factory=dict)

    def bump(self, key, amount=1):
        self.extra[key] = self.extra.get(key, 0) + amount


class _Frame:
    __slots__ = ("fn", "child_ns", "children", "dur", "token")

    def __init__(self, fn):
        self.fn = fn
        self.child_ns = 0
        self.children = 0
        self.dur = 0
        self.token = None


class Tracer:
    """Wraps module attributes with span recorders; install() / remove() toggle them."""

    def __init__(self):
        self.layers: dict[str, LayerStats] = {}
        self.stash: list = []
        self._stack: list[_Frame] = []
        self._plan: list = []
        self._originals: list = []

    def reset(self):
        self.layers = {}
        self.stash = []

    def stats(self, layer: str) -> LayerStats:
        st = self.layers.get(layer)
        if st is None:
            st = self.layers[layer] = LayerStats()
        return st

    def dump(self) -> dict:
        """JSON-ready copy of the aggregates, for a traced child process."""
        return {
            "layers": {name: [st.calls, st.total_ns, st.self_ns, st.extra]
                       for name, st in self.layers.items()},
            "stash": self.stash,
        }

    def merge(self, data: dict):
        """Add the aggregates of another tracer's dump()."""
        for name, (calls, total_ns, self_ns, extra) in data["layers"].items():
            st = self.stats(name)
            st.calls += calls
            st.total_ns += total_ns
            st.self_ns += self_ns
            for key, amount in extra.items():
                st.bump(key, amount)
        self.stash.extend(tuple(item) for item in data["stash"])

    def span(self, module: str, attr: str, layer: str, pre=None, post=None):
        """Plan a span around dftbin.<module>.<attr> as bound in that module.

        pre(args, kwargs) runs before the span opens and its value is kept in
        frame.token; post(tracer, parent_fn, args, kwargs, result, frame) runs
        after the span closes, only when the call returned.
        """
        self._plan.append((module, attr, layer, pre, post, False))

    def count(self, module: str, attr: str, layer: str):
        """Plan a call counter (no span) around dftbin.<module>.<attr>."""
        self._plan.append((module, attr, layer, None, None, True))

    def install(self):
        if self._originals:
            return
        # Import every module before wrapping anything, so that no module
        # imported late binds an already wrapped function.
        modules = {m: importlib.import_module(f"dftbin.{m}") for m, *_ in self._plan}
        for module, attr, layer, pre, post, count_only in self._plan:
            mod = modules[module]
            orig = getattr(mod, attr)
            wrapper = (self._counter(orig, layer) if count_only
                       else self._wrapper(orig, layer, attr, pre, post))
            setattr(mod, attr, wrapper)
            self._originals.append((mod, attr, orig))

    def remove(self):
        for mod, attr, orig in reversed(self._originals):
            setattr(mod, attr, orig)
        self._originals = []

    def _counter(self, orig, layer):
        def counted(*args, **kwargs):
            self.stats(layer).calls += 1
            return orig(*args, **kwargs)
        return counted

    def _wrapper(self, orig, layer, fn, pre, post):
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = _Frame(fn)
            t_pre = _now()
            if pre is not None:
                frame.token = pre(args, kwargs)
            stack.append(frame)
            t0 = _now()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = _now()
                stack.pop()
                frame.dur = dur = t1 - t0
                st = self.stats(layer)
                st.calls += 1
                st.total_ns += dur
                st.self_ns += dur - frame.child_ns
                if parent is not None:
                    parent.children += 1
                    parent.child_ns += t1 - t_pre
            if post is not None:
                post(self, parent.fn if parent else None, args, kwargs,
                     result, frame)
                if parent is not None:
                    parent.child_ns += _now() - t1
            return result
        return traced
