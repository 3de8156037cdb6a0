"""Workload rows (from spec.json) and the set-up each workload does before its
first timed call. Imports only the standard library and dftbin, so a set-up
probe in a fresh interpreter times dftbin and nothing else."""

import importlib
import json
from pathlib import Path

SPEC = json.loads((Path(__file__).with_name("spec.json")).read_text())
WORKLOADS = SPEC["workloads"]
TOLERANCE = SPEC["tolerance"]["max_rel_err"]


def dftbin_module(name: str):
    """A dftbin submodule, looked up at call time so installed spans are seen."""
    return importlib.import_module(f"dftbin.{name}")


def stream_rows():
    return [(N, k, kind == "complex") for N, k, kind in WORKLOADS["stream"]["rows"]]


def setup(workload: str) -> dict:
    """Set-up a workload pays once per process; returns what the passes reuse.

    block and dtmf: cold cyclotomic(L) and BinSpec for every (N, k).
    stream: the same, plus design_filter for every row; a row whose design
    raises is recorded as None (its failure is counted in the timed passes).
    cli: nothing beyond the import, which the caller times.
    """
    import dftbin  # noqa: F401  (the import is part of set-up)

    if workload == "cli":
        return {}
    algorithms = dftbin_module("algorithms")
    cyclo = dftbin_module("cyclotomic")
    if workload == "block":
        pairs = [tuple(r) for r in WORKLOADS["block"]["rows"]]
    elif workload == "stream":
        pairs = [(N, k) for N, k, _ in stream_rows()]
    elif workload == "dtmf":
        config = dftbin_module("dtmf").DEFAULT_CONFIG
        pairs = [(config.block_size, k)
                 for k in config.row_bins() + config.col_bins()]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for N, k in pairs:
        spec = algorithms.BinSpec.for_bin(N, k)
        cyclo.cyclotomic(spec.L)
    if workload != "stream":
        return {}
    streaming = dftbin_module("streaming")
    filters = {}
    for N, k in pairs:
        try:
            filters[(N, k)] = streaming.design_filter(N, k)
        except Exception:  # counted as a failed call in every pass
            filters[(N, k)] = None
    return {"filters": filters}
