"""Sample-at-a-time filter realization of the cyclotomic single-bin reduction.

The filter is an autoregressive section whose feedback taps are the integer
coefficients of the order-L cyclotomic polynomial (trivial multiplications),
followed by a single final dot product against totient(L) numerator taps.
Samples are consumed in arrival order with no input buffering; the numerator
multiplications happen once, at finalize time.

The numerator comes from synthetic division of the (sign-normalized)
cyclotomic polynomial by (1 - Wbar*u), Wbar = exp(+2j pi k / N): one exact
recurrence instead of the phi(L)-1 factor product, which is kept only as a
test oracle. The division residual is checked at design time.
"""

from dataclasses import dataclass, field

from .algorithms import BinResult, root_power
from .complexity import OpRecorder
from .cyclotomic import cyclotomic
from .numtheory import bin_order, totient

__all__ = [
    "FilterSpec",
    "FilterState",
    "design_filter",
    "new_state",
    "push",
    "finalize",
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

    The shift register is kept in arrival order (w[0] oldest, w[-1] newest).
    """

    spec: FilterSpec
    w: list
    samples_consumed: int = 0
    rec: OpRecorder = field(default_factory=OpRecorder)


def design_filter(N: int, k: int) -> FilterSpec:
    """Design the streaming filter for bin k of an N-point transform."""
    if N < 1:
        raise ValueError(f"signal length must be >= 1, got {N}")
    k = k % N
    L = bin_order(N, k)
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
    return FilterState(spec, [0j] * len(spec.a))


def _ar_step(state: FilterState, sample) -> None:
    # acc = sample - sum(b_j * w_{n-j}); register values j back sit at w[-j].
    w = state.w
    b = state.spec.b
    rec = state.rec
    acc = sample
    deg = len(w)
    for j in range(1, deg + 1):
        bj = b[j]
        if bj:
            acc = rec.add(acc, rec.mul(w[deg - j], -bj))
    w.pop(0)
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

    Requires exactly N pushed samples; returns the bin value with the
    counts accumulated over the whole run.
    """
    if state.samples_consumed != spec.N:
        raise ValueError(
            f"finalize needs exactly {spec.N} samples, got {state.samples_consumed}")
    _ar_step(state, 0j)
    state.samples_consumed += 1
    rec = state.rec
    w = state.w
    top = len(w) - 1
    value = rec.mul(w[top], spec.a[0])
    for m in range(1, len(spec.a)):
        value = rec.add(value, rec.mul(w[top - m], spec.a[m]))
    return BinResult(value, rec.counts(), "stream")
