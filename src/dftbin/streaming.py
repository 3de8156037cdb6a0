"""Sample-at-a-time realization of the cyclotomic single-bin reduction.

The register is an online fold modulo x**L - 1: slot n mod L accumulates
every sample v_n, so it holds L values, and a push is one add (a store
for the first L samples) with no multiplication, whatever the taps of
Phi_L. This is the autoregressive filter 1/(1 - z**-L). Since x**L - 1 is
the product of Phi_d over d | L, it is a multiple of the paper's feedback
polynomial Phi_L, and the folded sum has the signal's remainder modulo
Phi_L. push does its add inline and tallies it on the state, with no call
on the state's recorder. finalize charges the tally to the recorder once,
then runs the tail of the block "jco" algorithm on the L slots: the chain
of sparse cyclotomic factors and the evaluation at W. So state.rec shows
no adds from pushes until finalize. The slots are the sums jco's fold
forms, added in the same order, and the tally follows OpRecorder.add's
rule, so the value and counts of "stream" are jco's, bit for bit.

design_filter still designs the paper's filter form, which `dftbin filter`
exports: the integer feedback taps of Phi_L and totient(L) numerator taps.
The numerator comes from synthetic division of the (sign-normalized)
cyclotomic polynomial by (1 - Wbar*u), Wbar = exp(+2j pi k / N): one exact
recurrence instead of the phi(L)-1 factor product, which is kept only as a
test oracle. The division residual is checked at design time, and a stream
starts from a designed FilterSpec. The bin's k and L come from
algorithms.BinSpec.for_bin, which validates (N, k).
"""

from collections import namedtuple

from . import algorithms, polynomial
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


class FilterSpec(namedtuple("FilterSpec", "N k L a b")):
    """Designed taps for one (N, k) bin: an immutable, shareable named tuple.

    a: complex numerator taps, a[0] = 1, length totient(L).
    b: integer feedback taps from the cyclotomic polynomial, b[0] = 1,
       length totient(L) + 1.
    """

    __slots__ = ()

    def as_json_dict(self) -> dict:
        return {**self._asdict(), "a": [[c.real, c.imag] for c in self.a],
                "b": list(self.b)}


class FilterState:
    """Mutable run state: exclusively owned by one execution context.

    slots holds the fold's L slots, made with the state so that no push
    grows a list: slots[i] is the sum, in arrival order, of the samples v_n
    with n mod L = i, and None before the first of them. (A growing list
    reallocates at a few sizes, and those pushes took as long as glibc's
    realloc did.) w is a copy of the filled part: one slot per push over
    the first L samples, then all L. adds is the pushes' tally of real
    adds, counted as OpRecorder.add would; finalize charges it to rec, so
    rec shows none of them before then, and push reads and writes nothing
    on rec. finalized is set by finalize, after which the state takes no
    more pushes. N and L are copied from spec, because push reads them per
    sample and a slot reads faster than a named tuple's field.
    """

    __slots__ = ("spec", "N", "L", "slots", "samples_consumed", "adds", "rec",
                 "finalized")

    def __init__(self, spec: FilterSpec):
        self.spec, self.N, self.L = spec, spec.N, spec.L
        self.slots = [None] * spec.L
        self.samples_consumed = self.adds = 0
        self.rec = OpRecorder()
        self.finalized = False

    @property
    def w(self) -> list:
        return self.slots[:self.samples_consumed]


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
    """Feed one sample (arrival order) into slot n mod L: a store for the
    first L samples, then one add each, tallied in state.adds as
    OpRecorder.add counts it (a pair of components counts when both are
    nonzero, NaN included). No multiplications and no recorder call."""
    n, N, L = state.samples_consumed, state.N, state.L
    if n >= N:
        raise ValueError("filter already finalized" if state.finalized
                         else f"filter already consumed {N} samples; call finalize")
    w = state.slots
    if n < L:
        w[n] = sample
    else:
        i = n % L
        s = w[i]
        w[i] = s + sample
        if type(s) is float and type(sample) is float:
            if s and sample:
                state.adds += 1
        elif s.real and sample.real:
            state.adds += 2 if s.imag and sample.imag else 1
        elif s.imag and sample.imag:
            state.adds += 1
    state.samples_consumed = n + 1
    return state


def finalize(state: FilterState, spec: FilterSpec) -> BinResult:
    """Reduce the L slots by the chain of sparse cyclotomic factors, then
    evaluate the remainder at W, as "jco" does after its fold.

    The bin is read from state.spec; the spec argument must be state.spec
    or equal to it, else ValueError. Requires exactly N pushed samples, and
    a state finalizes once; returns the bin value with the counts
    accumulated over the whole run: the pushes' tally is charged to
    state.rec first, in one bulk charge. The two stages are called as
    attributes of dftbin.algorithms, where perfbench/layers.py wraps them.
    """
    if spec != state.spec:
        raise ValueError(f"spec is not the state's (N={state.spec.N}, k={state.spec.k})")
    spec = state.spec
    if state.finalized:
        raise ValueError("filter already finalized")
    n = state.samples_consumed
    if n != spec.N:
        raise ValueError(f"finalize needs exactly {spec.N} samples, got {n}")
    state.finalized = True
    bin_spec, rec = BinSpec.for_bin(spec.N, spec.k), state.rec
    polynomial._charge(rec, state.adds, 1)
    R = algorithms._cyclo_reduce(state.slots, bin_spec, rec)
    return BinResult(algorithms._eval_remainder(R, bin_spec, rec), rec.counts(), "stream")


def stream_bin(v, k: int) -> BinResult:
    """Bin k of v by design, push of every sample, finalize: the "stream" tag."""
    spec = design_filter(len(v), k)
    state = new_state(spec)
    for sample in v:
        push(state, sample)
    return finalize(state, spec)
