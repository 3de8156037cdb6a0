"""Algorithm registry, nominal cost formulas and the reference table.

measure(tag, v, k) runs `<tag>_bin` from the module ALGORITHMS maps the tag
to. Measured counts follow the cost policy declared in dftbin.algorithms.

Nominal formulas (real input, N >= 2):

    goertzel     = 2 + (N - 2) * [A nontrivial]      A = 2 cos(2 pi k / N)
    jco          = 2 * (D - 1)                       L = N / gcd(N, k)
    jco_goertzel = D             if D > 2
                   2 * (D - 1)   otherwise (the two reduction stages coincide)

L comes from BinSpec.for_bin; A is trivial exactly when L is in
algorithms.TRIVIAL_A_ORDERS. D = algorithms.remainder_length(L) is the
length of the remainder the cyclotomic chain leaves: phi(L), except where
the chain stops before a stage with a tap above 2 in magnitude (30 orders
below 2500, the first 385, where D = 264 against phi(L) = 240). "stream"
runs jco's stages after an online fold, and its value and counts are
jco's, so every statement about jco here holds for stream. No stage of
the chain multiplies, and measured counts can come in under nominal
(final evaluation at special angles, trivial tap values). On real input,
measured counts stay at or under nominal, and jco_goertzel at or under
goertzel, at (L, 1) for every L < 2500 (a sweep of one uniform draw per
order) and at (46189, 1), whose Phi_L has taps up to 38.
"""

from . import algorithms, streaming
from .algorithms import TRIVIAL_A_ORDERS, BinSpec, OpCounts, OpRecorder, remainder_length
# totient is unused here, but perfbench/layers.py wraps it by this name.
from .numtheory import bin_order, totient  # noqa: F401

__all__ = [
    "OpCounts",
    "OpRecorder",
    "ALGORITHMS",
    "nominal_costs",
    "complexity_table",
    "REFERENCE_TABLE_SPECS",
    "format_table",
    "format_csv",
    "CSV_HEADER",
    "measure",
]

# Tag -> module defining <tag>_bin. Iteration order is the CLI's --alg order.
ALGORITHMS = {**dict.fromkeys(("naive", "goertzel", "jco", "jco_goertzel"), algorithms),
              "stream": streaming}


def nominal_costs(N: int, k: int) -> tuple[int, int, int]:
    """Closed-form real-multiplication counts (goertzel, jco, jco_goertzel).

    Real-input convention. N = 1 is below the classic formulas' scope and
    costs 0 everywhere (the bin value is just v_0).
    """
    L = BinSpec.for_bin(N, k).L
    D = remainder_length(L)
    jco = 2 * (D - 1)
    jcg = D if D > 2 else jco
    if N == 1:
        return (0, 0, 0)
    goertzel = 2 + (N - 2) * (0 if L in TRIVIAL_A_ORDERS else 1)
    return (goertzel, jco, jcg)


# The canonical reference rows: five lengths, bins 1..4 each.
REFERENCE_TABLE_SPECS: list[tuple[int, list[int]]] = [
    (12, [1, 2, 3, 4]),
    (32, [1, 2, 3, 4]),
    (48, [1, 2, 3, 4]),
    (83, [1, 2, 3, 4]),
    (120, [1, 2, 3, 4]),
]

CSV_HEADER = "N,k,goertzel,jco,jco_goertzel,L"


def complexity_table(specs: list[tuple[int, list[int]]]) -> list[tuple[int, int, int, int, int, int]]:
    """Rows (N, k, goertzel, jco, jco_goertzel, L) for each requested (N, k)."""
    rows = []
    for N, ks in specs:
        for k in ks:
            g, j, jg = nominal_costs(N, k)
            rows.append((N, k, g, j, jg, bin_order(N, k)))
    return rows


def format_table(rows: list[tuple[int, int, int, int, int, int]]) -> str:
    """Aligned text rendering of complexity_table rows."""
    header = ("N", "k", "goertzel", "jco", "jco_goertzel", "L")
    cells = [header] + [tuple(str(x) for x in row) for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    lines = ["  ".join(c.rjust(w) for c, w in zip(r, widths)) for r in cells]
    return "\n".join(lines)


def format_csv(rows: list[tuple[int, int, int, int, int, int]]) -> str:
    """CSV rendering with the fixed header line."""
    lines = [CSV_HEADER]
    lines += [",".join(str(x) for x in row) for row in rows]
    return "\n".join(lines)


def measure(alg: str, v, k: int):
    """Run the tagged algorithm on signal v, returning its BinResult.

    The counts in the result are measured under the cost policy; the value
    is identical to an uninstrumented run. The function is looked up on each
    call, so a rebinding of e.g. algorithms.jco_bin is honoured. Samples are
    trusted: none is checked for being finite, and a NaN or inf sample
    propagates to the value.

    Calls on the same sample objects share time, not counts: "jco" and
    "jco_goertzel" reuse the last signal's cyclotomic stage at an order
    already reduced (see dftbin.algorithms), and each result keeps the
    counts of a stand-alone call. So M bins of one signal take less time
    than M bins of M signals, but the sum of their counts still charges
    the shared stage M times.
    """
    module = ALGORITHMS.get(alg)
    if module is None:
        raise ValueError(f"unknown algorithm tag: {alg!r}")
    return getattr(module, f"{alg}_bin")(v, k)
