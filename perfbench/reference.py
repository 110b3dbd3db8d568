"""Independent references for the outputs the benchmark checks.

- Subspace suppression: zero, in the DFT of each zero-padded block, every bin
  k whose period N/gcd(k, N) is the interferer's period.
- Notch: ``scipy.signal.lfilter`` on each zero-padded block, from a biquad
  designed here.
- Comparison grid and period spectra: recomputed from those two.

Differences are judged relative to the signal norm with the program's own
round-trip tolerance.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.signal import lfilter

TOL = 1e-9


def target_period(f0: float, fs: float, n: int) -> int:
    """Period of the subspace that holds f0 in a length-n block."""
    k = Fraction(f0) * n / Fraction(fs)
    if k.denominator != 1 or not 0 < k < Fraction(n, 2):
        raise ValueError(f"{f0} Hz is not an interior bin of a length-{n} block")
    return n // math.gcd(int(k), n)


def _blocks(x: np.ndarray, n: int) -> np.ndarray:
    padded = np.zeros(-(-len(x) // n) * n)
    padded[: len(x)] = x
    return padded.reshape(-1, n)


def bin_periods(n: int, count: int) -> np.ndarray:
    """N/gcd(k, N) for bins k = 0..count-1 (bin 0 has period 1)."""
    return n // np.gcd(np.arange(count), n)


def suppress(x: np.ndarray, n: int, f0: float, fs: float) -> np.ndarray:
    """Blockwise removal of the period subspace that holds f0."""
    spectra = np.fft.rfft(_blocks(x, n), axis=1)
    spectra[:, bin_periods(n, n // 2 + 1) == target_period(f0, fs, n)] = 0.0
    return np.fft.irfft(spectra, n=n, axis=1).reshape(-1)[: len(x)]


def notch_coeffs(f0: float, fs: float, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Biquad with an exact null at f0 and a -3 dB bandwidth of f0/q."""
    w0 = 2.0 * math.pi * f0 / fs
    alpha = math.tan(w0 / (2.0 * q))
    c = math.cos(w0)
    b = np.array([1.0, -2.0 * c, 1.0]) / (1.0 + alpha)
    a = np.array([1.0 + alpha, -2.0 * c, 1.0 - alpha]) / (1.0 + alpha)
    return b, a


def notch(x: np.ndarray, n: int, f0: float, fs: float, q: float) -> np.ndarray:
    """Notch each zero-padded block from zero state."""
    b, a = notch_coeffs(f0, fs, q)
    out = np.concatenate([lfilter(b, a, block) for block in _blocks(x, n)])
    return out[: len(x)]


def squared_error(clean: np.ndarray, recon: np.ndarray) -> float:
    d = clean - recon
    return float(d @ d)


def grid_totals(
    clean: np.ndarray, dirty: np.ndarray, sizes, f0: float, fs: float, q: float
) -> dict[tuple[int, str], float]:
    """Total squared error of each method at each block size."""
    out = {}
    for n in sizes:
        out[(n, "rpt")] = squared_error(clean, suppress(dirty, n, f0, fs))
        out[(n, "notch")] = squared_error(clean, notch(dirty, n, f0, fs, q))
    return out


def period_energies(block: np.ndarray) -> dict[int, float]:
    """Energy of the block in each periodic subspace, from its full DFT."""
    n = len(block)
    power = np.abs(np.fft.fft(block)) ** 2 / n
    periods = bin_periods(n, n)
    return {int(m): float(power[periods == m].sum()) for m in np.unique(periods)}


def close(actual: np.ndarray, expected: np.ndarray, scale: float) -> bool:
    """Same shape and within TOL of the signal norm ``scale``."""
    actual = np.asarray(actual, dtype=float)
    return (
        actual.shape == expected.shape
        and bool(np.all(np.isfinite(actual)))
        and float(np.linalg.norm(actual - expected)) <= TOL * scale
    )


def close_energy(actual: float, expected: float, scale: float) -> bool:
    """Squared norms agree when their square roots are within TOL * scale."""
    return (
        math.isfinite(actual)
        and actual >= 0
        and abs(math.sqrt(actual) - math.sqrt(expected)) <= TOL * scale
    )
