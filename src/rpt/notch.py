"""Second-order IIR notch baseline: constant-skirt-gain biquad design and
block-wise filtering with per-block state reset."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .io import blocks


@dataclass(frozen=True)
class BiquadCoeffs:
    """Normalized biquad (a0 = 1) with an exact magnitude null at f0."""

    b0: float
    b1: float
    b2: float
    a1: float
    a2: float
    f0: float
    fs: float
    q: float

    @property
    def b(self) -> np.ndarray:
        return np.array([self.b0, self.b1, self.b2])

    @property
    def a(self) -> np.ndarray:
        return np.array([1.0, self.a1, self.a2])

    def magnitude(self, f: float) -> float:
        """|H(e^{j 2 pi f / fs})|."""
        z = np.exp(-2j * np.pi * f / self.fs)
        num = self.b0 + self.b1 * z + self.b2 * z * z
        den = 1.0 + self.a1 * z + self.a2 * z * z
        return abs(num / den)


def design_notch(f0: float, fs: float, q: float) -> BiquadCoeffs:
    """Biquad notch with unity gain at DC and Nyquist, an exact null at f0,
    and a -3 dB bandwidth of f0/Q on the digital frequency axis.

    alpha = tan(w0 / (2Q)) places the half-power points so the measured
    digital bandwidth equals f0/Q (the sin-based variant undershoots it).
    """
    if not 0 < f0 < fs / 2:
        raise ValueError(f"notch frequency {f0} Hz outside (0, {fs / 2}) Hz")
    if not q > 0:
        raise ValueError(f"quality factor must be positive, got {q}")
    w0 = 2.0 * math.pi * f0 / fs
    if w0 / (2.0 * q) >= math.pi / 2:
        raise ValueError(f"bandwidth {f0 / q} Hz too wide for fs={fs}")
    alpha = math.tan(w0 / (2.0 * q))
    c = math.cos(w0)
    scale = 1.0 / (1.0 + alpha)
    return BiquadCoeffs(
        b0=scale,
        b1=-2.0 * c * scale,
        b2=scale,
        a1=-2.0 * c * scale,
        a2=(1.0 - alpha) * scale,
        f0=f0,
        fs=fs,
        q=q,
    )


def filter_block(coeffs: BiquadCoeffs, x: np.ndarray) -> np.ndarray:
    """Direct-form difference equation with zero initial state."""
    return lfilter(coeffs.b, coeffs.a, np.asarray(x, dtype=float))


def filter_blocked(coeffs: BiquadCoeffs, x: np.ndarray, block_size: int) -> np.ndarray:
    """Filter in consecutive blocks, resetting state at each block boundary.

    The final partial block is zero-padded, filtered, and trimmed, matching
    the subspace-suppression blocking.
    """
    out = lfilter(coeffs.b, coeffs.a, blocks(x, block_size), axis=1)
    return out.reshape(-1)[: len(x)].copy()
