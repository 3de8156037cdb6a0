"""Algorithm registry, nominal cost formulas and the reference table.

measure(tag, v, k) runs `<tag>_bin` from the module ALGORITHMS maps the tag
to. Measured counts follow the cost policy declared in dftbin.algorithms.

Nominal formulas (real input, N >= 2):

    goertzel     = 2 + (N - 2) * [A nontrivial]      A = 2 cos(2 pi k / N)
    jco          = 2 * (phi(L) - 1)                  L = N / gcd(N, k)
    jco_goertzel = phi(L)        if phi(L) > 2
                   2*(phi(L)-1)  otherwise (the two reduction stages coincide)

L comes from BinSpec.for_bin; A is trivial exactly when L is in
algorithms.TRIVIAL_A_ORDERS. Measured counts can come in under nominal
(final evaluation at special angles, trivial tap values). They stay at or
under it while no cyclotomic stage has a tap above 2 in magnitude (every
L < 385): at (385, 1) jco measures 550 mults against 478 nominal. Over
(L, 1) on real input, jco_goertzel stays at or under goertzel for every
L < 665, and fails at 12 orders below 2500, first at (665, 1) with 720 to
goertzel's 665.
"""

from . import algorithms, streaming
from .algorithms import TRIVIAL_A_ORDERS, BinSpec, OpCounts, OpRecorder
from .numtheory import bin_order, totient

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
    phi = totient(L)
    jco = 2 * (phi - 1)
    jcg = phi if phi > 2 else jco
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
    call, so a rebinding of e.g. algorithms.jco_bin is honoured.
    """
    module = ALGORITHMS.get(alg)
    if module is None:
        raise ValueError(f"unknown algorithm tag: {alg!r}")
    return getattr(module, f"{alg}_bin")(v, k)
