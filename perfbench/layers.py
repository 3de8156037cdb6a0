"""Which dftbin functions the traced run wraps, and the per-layer metrics
computed from the spans.

Every function is wrapped where its caller looks it up, e.g. reduce_by_intpoly
as dftbin.algorithms.reduce_by_intpoly and int_mul as dftbin.cyclotomic.int_mul,
so the spans sit at the layer boundaries the program really crosses.
"""

from tracing import Tracer

_NUMTHEORY = {
    "algorithms": ("bin_order", "totient"),
    "streaming": ("bin_order", "totient"),
    "cyclotomic": ("divisors", "mobius", "totient"),
    "complexity": ("bin_order", "totient"),
}


def _counter_of(args, kwargs, position):
    counter = kwargs.get("counter", args[position] if len(args) > position else None)
    return counter, (counter.mults, counter.adds) if counter is not None else (0, 0)


def _pre_kernel(args, kwargs):
    return _counter_of(args, kwargs, 2)


def _count_ops(st, frame):
    counter, (mults, adds) = frame.token
    if counter is not None:
        st.bump("mults", counter.mults - mults)
        st.bump("adds", counter.adds - adds)


def _post_intpoly(tracer, parent, args, kwargs, result, frame):
    st = tracer.stats("polynomial.reduce_by_intpoly")
    _count_ops(st, frame)
    signal, modulus = args[0], args[1]
    deg = len(result)
    taps = sum(1 for c in modulus[:deg] if c)
    st.bump("tap_steps", max(0, len(signal) - deg) * taps)


def _post_eval(tracer, parent, args, kwargs, result, frame):
    # The remainder's nonzero taps past the constant term: one multiply each.
    tracer.stats("algorithms").bump("eval_taps", sum(1 for c in args[0][1:] if c != 0))


def _post_pk(tracer, parent, args, kwargs, result, frame):
    st = tracer.stats("polynomial.reduce_by_pk")
    _count_ops(st, frame)
    st.bump("samples", len(args[0]))


def _post_design(tracer, parent, args, kwargs, result, frame):
    tracer.stash.append(("filter", result.N, result.k,
                         [[c.real, c.imag] for c in result.a], list(result.b)))


def _post_read_signal(tracer, parent, args, kwargs, result, frame):
    tracer.stats("cli.read_signal").bump("samples", len(result))


def build_tracer() -> Tracer:
    t = Tracer()
    seen_orders = set()
    useful_slots = {}  # id(FilterSpec) -> (spec, nonzero feedback taps)

    def post_cyclotomic(tracer, parent, args, kwargs, result, frame):
        st = tracer.stats("cyclotomic")
        if frame.children:  # a cached order calls nothing below it
            st.bump("misses")
            st.bump("build_ns", frame.dur)
        if args[0] not in seen_orders:
            seen_orders.add(args[0])
            tracer.stash.append(("cyclotomic", args[0], sum(1 for c in result if c),
                                 max(abs(c) for c in result)))

    def post_push(tracer, parent, args, kwargs, result, frame):
        spec = args[0].spec
        entry = useful_slots.get(id(spec))
        if entry is None:
            entry = useful_slots[id(spec)] = (spec, sum(1 for b in spec.b[1:] if b))
        st = tracer.stats("streaming.push")
        st.bump("slot_visits", len(spec.a))
        st.bump("useful_slots", entry[1])

    for fn in ("goertzel_bin", "jco_bin", "jco_goertzel_bin"):
        t.span("algorithms", fn, "algorithms")
    t.span("algorithms", "_eval_remainder", "algorithms", post=_post_eval)
    t.span("algorithms", "reduce_by_intpoly", "polynomial.reduce_by_intpoly",
           pre=_pre_kernel, post=_post_intpoly)
    t.span("algorithms", "reduce_by_pk", "polynomial.reduce_by_pk",
           pre=_pre_kernel, post=_post_pk)
    for module in ("cyclotomic", "algorithms", "streaming", "cli"):
        t.span(module, "cyclotomic", "cyclotomic", post=post_cyclotomic)
    t.span("cyclotomic", "int_mul", "polynomial.int_mul")
    t.span("cyclotomic", "int_exact_div", "polynomial.int_exact_div")
    for module, names in _NUMTHEORY.items():
        for name in names:
            t.span(module, name, "numtheory")
    t.count("algorithms", "root_power", "algorithms.root_power")
    t.count("streaming", "root_power", "algorithms.root_power")
    for module in ("streaming", "cli"):
        t.span(module, "design_filter", "streaming.design_filter", post=_post_design)
    t.span("streaming", "push", "streaming.push", post=post_push)
    t.span("streaming", "finalize", "streaming.finalize")
    for module in ("complexity", "dtmf", "cli"):
        t.span(module, "measure", "complexity.measure")
    for module in ("dtmf", "cli"):
        t.span(module, "detect", "dtmf.detect")
    t.span("cli", "read_signal", "cli.read_signal", post=_post_read_signal)
    t.span("cli", "main", "cli.main")
    return t


def per_layer(setup: Tracer, passes: Tracer, n_passes: int, extra: dict) -> dict:
    """Per-layer values by metric name: set-up spans once plus the traced
    passes' mean per pass.

    extra holds the values measured outside the spans: recorder overhead,
    mults over nominal, cli process start, plain Goertzel, tracing overhead.
    """
    import oracle  # numpy stays out of traced cli children

    n = max(n_passes, 1)

    def get(tracer, layer, key):
        st = tracer.layers.get(layer)
        if st is None:
            return 0
        if key in ("calls", "total_ns", "self_ns"):
            return getattr(st, key)
        return st.extra.get(key, 0)

    def per_pass(layer, key):
        return get(passes, layer, key) / n

    def both(layer, key):
        return get(setup, layer, key) + per_pass(layer, key)

    def ratio(a, b):
        return a / b if b else 0.0

    orders = {}
    residual = 0.0
    for tracer in (setup, passes):
        for item in tracer.stash:
            if item[0] == "cyclotomic":
                orders[item[1]] = item[2:]
            else:
                _, N, k, a, b = item
                a = [complex(re, im) for re, im in a]
                residual = max(residual, oracle.filter_residual(N, k, a, b))

    cyc_calls = both("cyclotomic", "calls")
    values = {
        "cyclotomic.build_s": both("cyclotomic", "build_ns") / 1e9,
        "cyclotomic.calls": cyc_calls,
        "cyclotomic.hit_ratio": ratio(cyc_calls - both("cyclotomic", "misses"), cyc_calls),
        "cyclotomic.nnz": sum(nnz for nnz, _ in orders.values()),
        "cyclotomic.max_abs_tap": max((m for _, m in orders.values()), default=0),
        "polynomial.int_mul.s": both("polynomial.int_mul", "total_ns") / 1e9,
        "polynomial.int_exact_div.s": both("polynomial.int_exact_div", "total_ns") / 1e9,
        "streaming.design_filter.s": both("streaming.design_filter", "total_ns") / 1e9,
        "streaming.design_residual": residual,
        "numtheory.self_s": both("numtheory", "self_ns") / 1e9,
    }
    ip, pk = "polynomial.reduce_by_intpoly", "polynomial.reduce_by_pk"
    values.update({
        f"{ip}.s": per_pass(ip, "total_ns") / 1e9,
        f"{ip}.tap_steps": per_pass(ip, "tap_steps"),
        f"{ip}.ns_per_tap_step": ratio(get(passes, ip, "total_ns"), get(passes, ip, "tap_steps")),
        f"{ip}.mults": per_pass(ip, "mults"),
        f"{ip}.adds": per_pass(ip, "adds"),
        f"{pk}.s": per_pass(pk, "total_ns") / 1e9,
        f"{pk}.ns_per_sample": ratio(get(passes, pk, "total_ns"), get(passes, pk, "samples")),
        f"{pk}.mults": per_pass(pk, "mults"),
        f"{pk}.adds": per_pass(pk, "adds"),
    })
    values.update({
        "algorithms.self_s": per_pass("algorithms", "self_ns") / 1e9,
        "algorithms.eval_taps": per_pass("algorithms", "eval_taps"),
        "algorithms.root_power.calls": per_pass("algorithms.root_power", "calls"),
        "streaming.push.ns_per_sample": ratio(get(passes, "streaming.push", "total_ns"),
                                              get(passes, "streaming.push", "calls")),
        "streaming.push.slot_visits": per_pass("streaming.push", "slot_visits"),
        "streaming.push.useful_slots": per_pass("streaming.push", "useful_slots"),
        "streaming.finalize.s": per_pass("streaming.finalize", "total_ns") / 1e9,
        "complexity.measure.self_s": per_pass("complexity.measure", "self_ns") / 1e9,
        "dtmf.detect.self_s": per_pass("dtmf.detect", "self_ns") / 1e9,
        "cli.read_signal.us_per_sample": ratio(get(passes, "cli.read_signal", "total_ns"),
                                               get(passes, "cli.read_signal", "samples")) / 1e3,
        "cli.main.s": per_pass("cli.main", "total_ns") / 1e9,
    })
    values.update(extra)
    return values
