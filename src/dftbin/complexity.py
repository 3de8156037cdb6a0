"""Operation cost model: triviality policy, counting recorder, nominal formulas.

Cost policy
-----------
A real multiplication by a constant c is *trivial* (free) when |c| is 0, 1,
or 2 (sign changes and one-bit shifts need no multiplier). Multiplying a real
value by a complex constant a+bj costs one real multiplication per *distinct*
nontrivial magnitude among {|a|, |b|}: when |a| == |b| the product is computed
once and reused for both components. Multiplying a complex value doubles the
per-constant cost. Classification depends only on the constant, never on the
data, except that an exactly-zero multiplicand performs no work at all (the
warm-up steps of a shift register).

Additions are counted per real component: an add whose operands are both
nonzero counts 1, so a full complex + complex add counts 2 and adds against
a still-zero register are free. A subtraction is an add of the negated
operand and counts the same. This is the declared convention for every
"measured adds" figure produced by this package.

Constants produced by cos/sin carry float roundoff, so magnitudes are snapped
to the trivial set with a 1e-12 tolerance. The nearest distinct bin constant
differs by far more than that for any DFT length this library targets.

Nominal formulas (real input, N >= 2):

    goertzel     = 2 + (N - 2) * [A nontrivial]      A = 2 cos(2 pi k / N)
    jco          = 2 * (phi(L) - 1)                  L = N / gcd(N, k)
    jco_goertzel = phi(L)        if phi(L) > 2
                   2*(phi(L)-1)  otherwise (the two reduction stages coincide)

A is trivial exactly when L is one of {1, 2, 3, 4, 6}, which is decided on
integers so the nominal table is exact. Measured counts can come in under
nominal (final evaluation at special angles, trivial tap values) but never
above it.
"""

from dataclasses import dataclass

from .numtheory import bin_order, totient

__all__ = [
    "OpCounts",
    "OpRecorder",
    "TRIVIAL_MAGNITUDES",
    "SNAP_TOLERANCE",
    "nominal_costs",
    "complexity_table",
    "REFERENCE_TABLE_SPECS",
    "format_table",
    "format_csv",
    "CSV_HEADER",
    "measure",
]

TRIVIAL_MAGNITUDES = (0.0, 1.0, 2.0)
SNAP_TOLERANCE = 1e-12

# Orders whose bin constant A = 2cos(2 pi k / N) lands in {0, +-1, +-2}.
_TRIVIAL_A_ORDERS = frozenset((1, 2, 3, 4, 6))


@dataclass
class OpCounts:
    """Tally of nontrivial real multiplications and real additions."""

    real_mults: int = 0
    real_adds: int = 0

    def __add__(self, other: "OpCounts") -> "OpCounts":
        return OpCounts(self.real_mults + other.real_mults,
                        self.real_adds + other.real_adds)


def _is_trivial_magnitude(m: float) -> bool:
    return any(abs(m - t) <= SNAP_TOLERANCE for t in TRIVIAL_MAGNITUDES)


def _const_cost(c) -> int:
    a = abs(c.real)
    b = abs(c.imag)
    cost = 0
    if not _is_trivial_magnitude(a):
        cost += 1
    if not _is_trivial_magnitude(b) and abs(a - b) > SNAP_TOLERANCE:
        cost += 1
    return cost


_COST_CACHE: dict[complex, int] = {}


class OpRecorder:
    """Counting recorder threaded through an algorithm run.

    Each run owns its recorder (no global state); the arithmetic performed
    is exactly what an uninstrumented run would do, so values are identical.
    """

    __slots__ = ("mults", "adds")

    def __init__(self):
        self.mults = 0
        self.adds = 0

    def mul(self, value, const):
        """value * const, charging the per-constant cost (doubled for complex data)."""
        if value == 0:
            return value * const
        cost = _COST_CACHE.get(const)
        if cost is None:
            cost = _COST_CACHE[const] = _const_cost(complex(const))
        if cost:
            self.mults += cost if value.imag == 0 else 2 * cost
        return value * const

    def add(self, x, y):
        if x.real != 0 and y.real != 0:
            self.adds += 1
        if x.imag != 0 and y.imag != 0:
            self.adds += 1
        return x + y

    def counts(self) -> OpCounts:
        return OpCounts(self.mults, self.adds)


def nominal_costs(N: int, k: int) -> tuple[int, int, int]:
    """Closed-form real-multiplication counts (goertzel, jco, jco_goertzel).

    Real-input convention. N = 1 is below the classic formulas' scope and
    costs 0 everywhere (the bin value is just v_0).
    """
    if N < 1:
        raise ValueError(f"nominal_costs expects N >= 1, got {N}")
    L = bin_order(N, k)
    phi = totient(L)
    jco = 2 * (phi - 1)
    jcg = phi if phi > 2 else jco
    if N == 1:
        return (0, 0, 0)
    goertzel = 2 + (N - 2) * (0 if L in _TRIVIAL_A_ORDERS else 1)
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

    Tags: naive, goertzel, jco, jco_goertzel, stream. The counts in the
    result are measured under the policy above; the value is identical to
    an uninstrumented run.
    """
    from . import algorithms, streaming

    if alg == "naive":
        return algorithms.naive_bin(v, k)
    if alg == "goertzel":
        return algorithms.goertzel_bin(v, k)
    if alg == "jco":
        return algorithms.jco_bin(v, k)
    if alg == "jco_goertzel":
        return algorithms.jco_goertzel_bin(v, k)
    if alg == "stream":
        spec = streaming.design_filter(len(v), k)
        state = streaming.new_state(spec)
        for sample in v:
            streaming.push(state, sample)
        return streaming.finalize(state, spec)
    raise ValueError(f"unknown algorithm tag: {alg!r}")
