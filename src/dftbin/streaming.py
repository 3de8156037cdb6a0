"""Sample-at-a-time filter realization of the cyclotomic single-bin reduction.

The filter is an autoregressive section whose feedback taps are the integer
coefficients of the order-L cyclotomic polynomial (trivial multiplications),
followed by a single final dot product against totient(L) numerator taps.
Samples are consumed in arrival order with no input buffering; the numerator
multiplications happen once, at finalize time.

The register is a fixed-length deque of totient(L) values, so the shift is
one append, and a push visits only the nonzero feedback taps, applying a
+-1 tap as an add: O(nnz(Phi_L)) work per sample, not O(totient(L)).

The numerator comes from synthetic division of the (sign-normalized)
cyclotomic polynomial by (1 - Wbar*u), Wbar = exp(+2j pi k / N): one exact
recurrence instead of the phi(L)-1 factor product, which is kept only as a
test oracle. The division residual is checked at design time. The bin's k
and L come from algorithms.BinSpec.for_bin, which validates (N, k).
"""

from collections import deque
from dataclasses import dataclass, field

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

    w is the shift register, a deque of fixed length totient(L) kept in
    arrival order (w[0] oldest, w[-1] newest): appending a value drops the
    oldest. taps holds the nonzero feedback taps as (register index, -b_j)
    pairs in ascending j, so a push costs O(nnz(Phi_L)).
    """

    spec: FilterSpec
    w: deque
    taps: tuple[tuple[int, int], ...]
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
    deg = len(spec.a)
    # Register values j back sit at w[-j]; ascending j keeps the float sum
    # in the order of the feedback polynomial.
    taps = tuple((-j, -bj) for j, bj in enumerate(spec.b) if j and bj)
    return FilterState(spec, deque([0j] * deg, maxlen=deg), taps)


def _ar_step(state: FilterState, sample) -> None:
    # acc = sample - sum(b_j * w_{n-j}) over the nonzero b_j.
    w = state.w
    rec = state.rec
    acc = sample
    for i, neg_bj in state.taps:
        if neg_bj == 1:
            acc = rec.add(acc, w[i])
        elif neg_bj == -1:
            acc = rec.add(acc, -w[i])
        else:
            acc = rec.add(acc, rec.mul(w[i], neg_bj))
    w.append(acc)


def push(state: FilterState, sample) -> FilterState:
    """Feed one sample (arrival order). Only trivial feedback taps are used,
    so a ternary cyclotomic costs no multiplications here."""
    if state.samples_consumed >= state.spec.N:
        raise ValueError(
            f"filter already consumed {state.spec.N} samples; call finalize")
    _ar_step(state, sample)
    state.samples_consumed += 1
    return state


def finalize(state: FilterState, spec: FilterSpec) -> BinResult:
    """One zero-input step, then the single numerator dot product.

    The taps are read from state.spec; the spec argument must be state.spec
    or equal to it, else ValueError. Requires exactly N pushed samples;
    returns the bin value with the counts accumulated over the whole run.
    The product starts from the newest register value, since a[0] = 1.
    """
    if spec != state.spec:
        raise ValueError(f"spec is not the state's (N={state.spec.N}, k={state.spec.k})")
    spec = state.spec
    if state.samples_consumed != spec.N:
        raise ValueError(
            f"finalize needs exactly {spec.N} samples, got {state.samples_consumed}")
    _ar_step(state, 0j)
    state.samples_consumed += 1
    rec = state.rec
    newest_first = reversed(state.w)
    value = next(newest_first)
    for wm, am in zip(newest_first, spec.a[1:]):
        value = rec.add(value, rec.mul(wm, am))
    return BinResult(value, rec.counts(), "stream")


def stream_bin(v, k: int) -> BinResult:
    """Bin k of v by design, push of every sample, finalize: the "stream" tag."""
    spec = design_filter(len(v), k)
    state = new_state(spec)
    for sample in v:
        push(state, sample)
    return finalize(state, spec)
