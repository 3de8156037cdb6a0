"""Sample-at-a-time realization of the cyclotomic single-bin reduction.

The register is an online fold modulo x**L - 1: slot n mod L accumulates
every sample v_n, so it holds L values, and a push is one add (an append
for the first L samples) with no multiplication, whatever the taps of
Phi_L. This is the autoregressive filter 1/(1 - z**-L). Since x**L - 1 is
the product of Phi_d over d | L, it is a multiple of the paper's feedback
polynomial Phi_L, and the folded sum has the signal's remainder modulo
Phi_L. finalize then runs the tail of the block "jco" algorithm on the L
slots: the chain of sparse cyclotomic factors and the evaluation at W. The
slots are the sums jco's fold forms, added in the same order, so the value
and counts of "stream" are jco's, bit for bit.

design_filter still designs the paper's filter form, which `dftbin filter`
exports: the integer feedback taps of Phi_L and totient(L) numerator taps.
The numerator comes from synthetic division of the (sign-normalized)
cyclotomic polynomial by (1 - Wbar*u), Wbar = exp(+2j pi k / N): one exact
recurrence instead of the phi(L)-1 factor product, which is kept only as a
test oracle. The division residual is checked at design time, and a stream
starts from a designed FilterSpec. The bin's k and L come from
algorithms.BinSpec.for_bin, which validates (N, k).
"""

from dataclasses import dataclass, field

from . import algorithms
from .algorithms import BinResult, BinSpec, OpRecorder, root_power
from .cyclotomic import cyclotomic
# bin_order is unused here, but perfbench/layers.py wraps it by this name.
from .numtheory import bin_order, totient  # noqa: F401

__all__ = [
    "FilterSpec",
    "FilterState",
    "design_filter",
    "new_state",
    "push",
    "finalize",
    "stream_bin",
]

_RESIDUAL_LIMIT = 1e-10


def _snap(z: complex) -> complex:
    # Tidy roundoff on tap components that land within 1e-12 of an integer.
    re, im = z.real, z.imag
    if abs(re - round(re)) <= 1e-12:
        re = float(round(re))
    if abs(im - round(im)) <= 1e-12:
        im = float(round(im))
    return complex(re, im)


@dataclass(frozen=True)
class FilterSpec:
    """Designed taps for one (N, k) bin: immutable and shareable.

    a: complex numerator taps, a[0] = 1, length totient(L).
    b: integer feedback taps from the cyclotomic polynomial, b[0] = 1,
       length totient(L) + 1.
    """

    N: int
    k: int
    L: int
    a: tuple[complex, ...]
    b: tuple[int, ...]

    def as_json_dict(self) -> dict:
        return {
            "N": self.N,
            "k": self.k,
            "L": self.L,
            "a": [[c.real, c.imag] for c in self.a],
            "b": list(self.b),
        }


@dataclass
class FilterState:
    """Mutable run state: exclusively owned by one execution context.

    w holds the fold's slots in a list: w[i] is the sum, in arrival order,
    of the samples v_n with n mod L = i. It grows by one slot per push over
    the first L samples and then keeps its length L.
    """

    spec: FilterSpec
    w: list = field(default_factory=list)
    samples_consumed: int = 0
    rec: OpRecorder = field(default_factory=OpRecorder)


def design_filter(N: int, k: int) -> FilterSpec:
    """Design the streaming filter for bin k of an N-point transform."""
    bin_spec = BinSpec.for_bin(N, k)
    k, L = bin_spec.k, bin_spec.L
    deg = totient(L)
    den = cyclotomic(L)
    if den[0] == -1:  # only L = 1; normalize so the constant tap is 1
        den = [-c for c in den]
    wbar = root_power(N, -k)
    a = [complex(1.0)]
    for m in range(1, deg):
        a.append(_snap(wbar * a[m - 1] + den[m]))
    residual = den[deg] + wbar * a[deg - 1]
    if abs(residual) > _RESIDUAL_LIMIT:
        raise ArithmeticError(
            f"numerator design residual {abs(residual):.3e} for N={N}, k={k}")
    return FilterSpec(N, k, L, tuple(a), tuple(den))


def new_state(spec: FilterSpec) -> FilterState:
    return FilterState(spec)


def push(state: FilterState, sample) -> FilterState:
    """Feed one sample (arrival order) into slot n mod L: an append for the
    first L samples, then one add each. No multiplications."""
    n, N, L = state.samples_consumed, state.spec.N, state.spec.L
    if n >= N:  # finalize leaves n = N + 1
        raise ValueError("filter already finalized" if n > N
                         else f"filter already consumed {N} samples; call finalize")
    w = state.w
    if n < L:
        w.append(sample)
    else:
        i = n % L
        w[i] = state.rec.add(w[i], sample)
    state.samples_consumed = n + 1
    return state


def finalize(state: FilterState, spec: FilterSpec) -> BinResult:
    """Reduce the L slots by the chain of sparse cyclotomic factors, then
    evaluate the remainder at W, as "jco" does after its fold.

    The bin is read from state.spec; the spec argument must be state.spec
    or equal to it, else ValueError. Requires exactly N pushed samples, and
    a state finalizes once; returns the bin value with the counts
    accumulated over the whole run. The two stages are called as attributes
    of dftbin.algorithms, where perfbench/layers.py wraps them.
    """
    if spec != state.spec:
        raise ValueError(f"spec is not the state's (N={state.spec.N}, k={state.spec.k})")
    spec = state.spec
    n = state.samples_consumed
    if n != spec.N:
        raise ValueError("filter already finalized" if n > spec.N
                         else f"finalize needs exactly {spec.N} samples, got {n}")
    state.samples_consumed = n + 1
    bin_spec, rec = BinSpec.for_bin(spec.N, spec.k), state.rec
    R = algorithms._cyclo_reduce(state.w, bin_spec, rec)
    return BinResult(algorithms._eval_remainder(R, bin_spec, rec), rec.counts(), "stream")


def stream_bin(v, k: int) -> BinResult:
    """Bin k of v by design, push of every sample, finalize: the "stream" tag."""
    spec = design_filter(len(v), k)
    state = new_state(spec)
    for sample in v:
        push(state, sample)
    return finalize(state, spec)
