"""numpy oracles and seeded input generation. numpy is used by the benchmark
only; dftbin receives plain Python lists."""

import math

import numpy as np

from rows import TOLERANCE

SAMPLE_RATE = 8000.0
BLOCK = 205
ROW_FREQS = (697.0, 770.0, 852.0, 941.0)
COL_FREQS = (1209.0, 1336.0, 1477.0, 1633.0)
KEYPAD = ("123A", "456B", "789C", "*0#D")
DOMINANCE = 4.0


class BinOracle:
    """Reference bins of one signal: numpy.fft.fft and the rms bin magnitude."""

    def __init__(self, v):
        spectrum = np.fft.fft(np.asarray(v, dtype=complex))
        self.spectrum = spectrum
        self.scale = float(np.sqrt(np.mean(np.abs(spectrum) ** 2)))

    def rel_err(self, k: int, value: complex) -> float:
        ref = complex(self.spectrum[k % len(self.spectrum)])
        return abs(complex(value) - ref) / self.scale


def signal(rng, N: int, is_complex: bool) -> list:
    """Uniform samples in [-1, 1) (both parts for complex) as a Python list."""
    re = rng.uniform(-1.0, 1.0, N)
    if not is_complex:
        return re.tolist()
    return (re + 1j * rng.uniform(-1.0, 1.0, N)).tolist()


def totient(n: int) -> int:
    return sum(1 for m in range(1, n + 1) if math.gcd(m, n) == 1)


def filter_residual(N: int, k: int, a, b) -> float:
    """max |conv(a, [1, -Wbar]) - b| / rms(b): zero when a = b / (1 - Wbar u)."""
    wbar = np.exp(2j * np.pi * (k % N) / N)
    lhs = np.convolve(np.asarray(a, dtype=complex), [1.0, -wbar])
    b = np.asarray(b, dtype=float)
    if lhs.shape != b.shape:
        return math.inf
    return float(np.max(np.abs(lhs - b)) / np.sqrt(np.mean(b ** 2)))


def filter_ok(N: int, k: int, L: int, a, b) -> bool:
    """Taps of a streaming filter for bin k of N: order, shape and residual."""
    if L != N // math.gcd(N, k % N) or len(a) != totient(L):
        return False
    if any(c != int(c) for c in b) or b[0] != 1:
        return False
    return filter_residual(N, k, a, b) <= TOLERANCE


def _bins():
    def kbin(freq):
        return round(freq * BLOCK / SAMPLE_RATE)
    return [kbin(f) for f in ROW_FREQS], [kbin(f) for f in COL_FREQS]


ROW_BINS, COL_BINS = _bins()


def _group(powers, margin):
    """(winner index or None, True when the decision is clear of the threshold)."""
    order = np.argsort(powers)[::-1]
    ratio = powers[order[0]] / powers[order[1]]
    clear = ratio > DOMINANCE * (1 + margin) or ratio < DOMINANCE * (1 - margin)
    return (int(order[0]) if ratio > DOMINANCE else None), clear


def dtmf_decision(block, margin: float):
    """The detector's rule on numpy bins: (digit or None, clear of threshold)."""
    spectrum = np.fft.fft(np.asarray(block))
    row, row_clear = _group(np.abs(spectrum[ROW_BINS]) ** 2, margin)
    col, col_clear = _group(np.abs(spectrum[COL_BINS]) ** 2, margin)
    if row is None or col is None:
        clear = (row is None and row_clear) or (col is None and col_clear)
        return None, clear
    return KEYPAD[row][col], row_clear and col_clear


def dtmf_block(rng, digit, noise_rms: float, margin: float) -> list:
    """A seeded 205-sample block (tone pair with random phases plus Gaussian
    noise, or noise alone when digit is None) whose numpy decision is digit
    and clear of the dominance threshold; redrawn until it is."""
    n = np.arange(BLOCK)
    while True:
        block = rng.normal(0.0, noise_rms, BLOCK)
        if digit is not None:
            r = next(i for i, keys in enumerate(KEYPAD) if digit in keys)
            c = KEYPAD[r].index(digit)
            for freq in (ROW_FREQS[r], COL_FREQS[c]):
                phase = rng.uniform(0.0, 2 * np.pi)
                block = block + np.sin(2 * np.pi * freq * n / SAMPLE_RATE + phase)
        decided, clear = dtmf_decision(block, margin)
        if decided == digit and clear:
            return block.tolist()


def dtmf_corpus(rng, digits: str, noise_only: int, noise_rms: float,
                margin: float) -> list:
    """[(block, expected digit or None)]: each digit once, then noise-only blocks."""
    wanted = list(digits) + [None] * noise_only
    return [(dtmf_block(rng, d, noise_rms, margin), d) for d in wanted]


def plain_goertzel(v, k: int) -> complex:
    """Uncounted Goertzel in plain Python: the baseline the kernels are held to."""
    N = len(v)
    A = 2.0 * math.cos(2.0 * math.pi * k / N)
    s1 = s2 = 0.0
    for i in range(N - 1, 0, -1):
        s0 = v[i] + A * s1 - s2
        s2 = s1
        s1 = s0
    return (v[0] - s2) + s1 * complex(math.cos(2 * math.pi * k / N),
                                      -math.sin(2 * math.pi * k / N))
