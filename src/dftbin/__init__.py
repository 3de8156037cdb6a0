"""dftbin: compute a single DFT bin by one of five tags (naive, goertzel, jco,
jco_goertzel, stream), counting every real operation.

Block algorithms and the cost model live in dftbin.algorithms, the
sample-at-a-time filter in dftbin.streaming, the tag registry behind
measure() and the nominal costs in dftbin.complexity, and a DTMF demo in
dftbin.dtmf. The `dftbin` console script fronts all of it.
"""

from .algorithms import (BinResult, BinSpec, OpCounts, goertzel_bin, jco_bin,
                         jco_goertzel_bin, naive_bin)
from .complexity import measure, nominal_costs
from .cyclotomic import cyclotomic, is_ternary
from .dtmf import DtmfConfig, detect, synthesize
from .numtheory import bin_order, totient
from .streaming import FilterSpec, design_filter, finalize, new_state, push

__version__ = "0.1.0"

__all__ = [
    "BinResult",
    "BinSpec",
    "DtmfConfig",
    "FilterSpec",
    "OpCounts",
    "bin_order",
    "cyclotomic",
    "design_filter",
    "detect",
    "finalize",
    "goertzel_bin",
    "is_ternary",
    "jco_bin",
    "jco_goertzel_bin",
    "measure",
    "naive_bin",
    "new_state",
    "nominal_costs",
    "push",
    "synthesize",
    "totient",
    "__version__",
]
