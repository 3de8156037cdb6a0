"""dftbin benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload block --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; dftbin is imported from its src/ directory.
The last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, the per-layer metrics with --trace 1. Lines before it start with
'#' and explain the run. spec.json holds the rows, call units and tolerance.
"""

import time

STARTED_NS = time.monotonic_ns()  # a traced cli child's start, before imports

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import marshal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _probe_setup(workload: str) -> float:
    """Set-up time of a workload in a fresh interpreter (one child process)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--probe-setup", workload],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=True)
    return float(proc.stdout.split()[-1])


def _cli_child(stats_path: str, argv: list) -> int:
    """Run dftbin's CLI with spans installed; write the spans to stats_path."""
    from layers import build_tracer

    tracer = build_tracer()
    tracer.install()
    try:
        code = importlib.import_module("dftbin.cli").main(argv)
    finally:
        tracer.remove()
        data = tracer.dump()
        data["started_ns"] = STARTED_NS
        Path(stats_path).write_text(json.dumps(data))
    return code


def _rss_child(argv: list) -> int:
    """Print this process's peak memory after set-up and one pass of a
    workload over inputs written by the parent, or after one CLI call."""
    from passes import PASSES, peak_rss_kb

    if argv[0] == "cli":
        code = importlib.import_module("dftbin.cli").main(argv[argv.index("--") + 1:])
    else:
        from rows import setup
        from speed import Speed

        inputs = marshal.loads(Path(argv[1]).read_bytes())
        PASSES[argv[0]](inputs, setup(argv[0]), Speed(1.0))
        code = 0
    if "numpy" in sys.modules:
        raise SystemExit("numpy was imported: the peak would not be dftbin's")
    print(peak_rss_kb())
    return code


def _metrics(section: str, values: dict) -> dict:
    """values, by the names and units BENCHMARK.json lists under section."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in BENCHMARK[section]}


def _parse(argv):
    from rows import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run(args) -> dict:
    import dftbin

    if Path(dftbin.__file__).resolve().parent != SRC / "dftbin":
        raise SystemExit(f"dftbin imported from {dftbin.__file__}, not from {SRC}")

    import workload as wlmod
    from layers import build_tracer, per_layer
    from rows import SPEC
    from tracing import Tracer

    wl = wlmod.WORKLOAD_TYPES[args.workload](args.seed, ROOT)
    try:
        setup_s = statistics.median(
            _probe_setup(args.workload) for _ in range(SPEC["setup_probes"]))
        tracer = build_tracer() if args.trace else None
        if tracer:
            tracer.install()
        wl.setup()
        if tracer:
            tracer.remove()
            setup_spans = Tracer()
            setup_spans.layers, setup_spans.stash = tracer.layers, tracer.stash
            tracer.reset()
        # Untimed warm-up on the fixed accuracy set: fills dftbin's cost and
        # root caches, and gives max_rel_err.
        warm = [wl.run_pass(wl.accuracy)]
        timed, traced = [], []
        t_start = time.perf_counter()
        while not timed or time.perf_counter() - t_start < args.seconds:
            timed.append(wl.run_pass(wl.inputs))
            if tracer:
                tracer.install()
                traced.append(wl.run_pass(wl.inputs, tracer))
                tracer.remove()
        peak_rss_mb = wl.peak_rss_kb() / 1024
        acc = wl.check(wl.accuracy, warm)
        chk = wl.check(wl.inputs, timed + traced)
        if tracer:
            overhead, same_kernels = wlmod.recorder_overhead(wl.kernel_jobs())
            starts = getattr(wl, "process_start_ns", [])
            if not same_kernels:
                chk.wrong("OpRecorder and plain arithmetic disagree")
            extra = {
                "complexity.recorder_overhead_ratio": overhead,
                "complexity.mults_over_nominal": chk.mults_over_nominal,
                "reference.plain_goertzel.ns_per_sample":
                    wlmod.plain_goertzel_ns_per_sample(wl.plain_inputs()),
                "trace.overhead_ratio":
                    wlmod.slot_medians(traced).sum() / wlmod.slot_medians(timed).sum(),
                "cli.process_start_s": statistics.median(starts) / 1e9 if starts else 0.0,
            }
    finally:
        wl.finish()

    records = warm + timed + traced
    if any(r.outputs != timed[0].outputs for r in timed + traced):
        chk.wrong("passes over the same inputs disagree (traced or untraced)")
    attempted = sum(len(r.lat) for r in records)
    failed = min(attempted, sum(r.failed for r in records) + chk.failed + acc.failed)
    unexpected = wl.unexpected_failures(records)
    correct = chk.correct and acc.correct and not unexpected

    slots = wlmod.slot_medians(timed)
    wall_s = slots.sum() / 1e9
    tail_ns, tail_pct, tail_n = wlmod.tail(slots)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"timed_passes={len(timed)} traced_passes={len(traced)} (+1 warm-up)")
    print(f"# attempted={attempted} failed={failed} fail_ratio={failed / attempted:.6g}")
    print(f"# call_tail_ms is the p{tail_pct:.2f} slot of {tail_n} call slots")
    print(f"# max_rel_err on the seeded inputs: {chk.max_rel_err:.6g}"
          f" (reported: {acc.max_rel_err:.6g} on the fixed accuracy set)")
    for what, row, error in unexpected:
        print(f"# problem: {what} {row} failed with {error}, which spec.json does not expect")
    for problem in (acc.problems + chk.problems)[:20]:
        print(f"# problem: {problem}")
    if tracer:
        metrics = _metrics("per_layer", per_layer(setup_spans, tracer, len(traced), extra))
    else:
        metrics = _metrics("end_to_end", {
            "setup_s": setup_s,
            "samples_per_s": timed[0].samples / wall_s,
            "call_p50_ms": float(statistics.median(slots)) / 1e6,
            "call_tail_ms": tail_ns / 1e6,
            "mults_total": chk.mults,
            "adds_total": chk.adds,
            "max_rel_err": acc.max_rel_err,
            "ok_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": peak_rss_mb,
            "wall_s": wall_s,
        })
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (SRC / "dftbin" / "__init__.py").is_file():
        print(f"error: no dftbin sources under {SRC}; run from a dftbin checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if argv[:1] == ["--probe-setup"]:
        from rows import SPEC, setup
        from speed import probe_ns

        t0 = time.perf_counter()
        setup(argv[1])
        elapsed = time.perf_counter() - t0
        print(elapsed * SPEC["speed_probe_reference_ns"] / probe_ns())
        return 0
    if argv[:1] == ["--rss-child"]:
        return _rss_child(argv[1:])
    if argv[:1] == ["--cli-child"]:
        return _cli_child(argv[1], argv[argv.index("--") + 1:])
    result = _run(_parse(argv))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
