"""DTMF synthesis and detection built on the single-bin algorithms.

Standard telephony block: 205 samples at 8 kHz, where all eight tone
frequencies land close to integer bins. Detection compares squared bin
magnitudes inside the row group and the column group; a digit is reported
only when both winners dominate their runner-up by the configured ratio.
This is a demo decoder, not a compliant one (no twist or second-harmonic
checks).

detect measures its eight bins one measure() call at a time on the one
block. Seven of the default bins have order 205 and one (k = 20) order 41,
so with "jco" or "jco_goertzel" the block is folded and chained once per
order, and the other bins of that order reuse the remainder
(dftbin.algorithms, shared stage); each bin still reports its stand-alone
counts.
"""

import functools
import math
import random
from collections import namedtuple

from .complexity import measure

__all__ = ["DtmfConfig", "DEFAULT_CONFIG", "DIGITS", "synthesize", "detect"]

ROW_FREQS = (697.0, 770.0, 852.0, 941.0)
COL_FREQS = (1209.0, 1336.0, 1477.0, 1633.0)

# DIGITS[row][col], rows 697..941 Hz, columns 1209..1633 Hz.
DIGITS = (
    ("1", "2", "3", "A"),
    ("4", "5", "6", "B"),
    ("7", "8", "9", "C"),
    ("*", "0", "#", "D"),
)

_DIGIT_POS = {DIGITS[r][c]: (r, c) for r in range(4) for c in range(4)}


class DtmfConfig(namedtuple("DtmfConfig",
                            "sample_rate block_size row_freqs col_freqs dominance_ratio",
                            defaults=(8000.0, 205, ROW_FREQS, COL_FREQS, 4.0))):
    """Block layout and thresholds. Construction, _replace's too, rejects
    colliding tone bins and stores the frequencies as tuples: a config hashes."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        rate, size, rows, cols, ratio = super().__new__(cls, *args, **kwargs)
        self = super().__new__(cls, rate, size, tuple(rows), tuple(cols), ratio)
        bins = self.row_bins() + self.col_bins()
        if len(set(bins)) != len(bins):
            raise ValueError(f"tone bins collide for N={self.block_size}: {bins}")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))

    def _bin(self, freq: float) -> int:
        return round(freq * self.block_size / self.sample_rate)

    def row_bins(self) -> tuple[int, ...]:
        return tuple(self._bin(f) for f in self.row_freqs)

    def col_bins(self) -> tuple[int, ...]:
        return tuple(self._bin(f) for f in self.col_freqs)


DEFAULT_CONFIG = DtmfConfig()


def synthesize(digit: str, config: DtmfConfig = DEFAULT_CONFIG,
               amplitude: float = 1.0, noise_rms: float = 0.0,
               seed: int = 0) -> list[float]:
    """One block of the digit's row + column tones plus seeded Gaussian noise."""
    pos = _DIGIT_POS.get(digit)
    if pos is None:
        raise ValueError(f"unknown DTMF digit {digit!r}")
    f_row = config.row_freqs[pos[0]]
    f_col = config.col_freqs[pos[1]]
    step_row = 2.0 * math.pi * f_row / config.sample_rate
    step_col = 2.0 * math.pi * f_col / config.sample_rate
    block = [amplitude * (math.sin(step_row * n) + math.sin(step_col * n))
             for n in range(config.block_size)]
    if noise_rms:
        rng = random.Random(seed)
        block = [s + rng.gauss(0.0, noise_rms) for s in block]
    return block


@functools.lru_cache(maxsize=64)
def _tone_bins(config: DtmfConfig) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return config.row_bins(), config.col_bins()


def _group_winner(powers: list[float], ratio: float) -> int | None:
    order = sorted(range(len(powers)), key=powers.__getitem__, reverse=True)
    best, runner = order[0], order[1]
    if powers[best] > ratio * powers[runner]:
        return best
    return None


def detect(block, config: DtmfConfig = DEFAULT_CONFIG,
           alg: str = "goertzel") -> str | None:
    """Digit for one sample block, or None when no pair of tones dominates."""
    if len(block) != config.block_size:
        raise ValueError(
            f"block must hold {config.block_size} samples, got {len(block)}")
    rows, cols = _tone_bins(config)
    row_powers = [abs(measure(alg, block, k).value) ** 2 for k in rows]
    col_powers = [abs(measure(alg, block, k).value) ** 2 for k in cols]
    row = _group_winner(row_powers, config.dominance_ratio)
    col = _group_winner(col_powers, config.dominance_ratio)
    if row is None or col is None:
        return None
    return DIGITS[row][col]
