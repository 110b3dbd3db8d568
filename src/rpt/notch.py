"""Second-order IIR notch baseline: constant-skirt-gain biquad design and
block-wise filtering with per-block state reset.

With the state reset at each block, the notch is a linear operator per block:
a causal convolution with the biquad's impulse response cut to the block
length. Each block is filtered as consecutive sub-blocks of min(N,
io.DENSE_BLOCK) samples, the last one shorter when io.DENSE_BLOCK does not
divide N: each sub-block's zero-state response is one matrix product with a
lower-triangular Toeplitz matrix, and the biquad's two-value state carries the
response from each sub-block into the next. Whole blocks are read as a view of
the input and the final partial block as it is, with no padding, since zeros
after the record's end cannot change a causal filter's output; every product
writes into a slice of the one output array. The sub-block matrices depend
only on the design and the sub-block length, so they are built once for each.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .io import _CACHE_SIZE, DENSE_BLOCK, blocks


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
    if q == math.inf:  # alpha = 0 would make b == a, an identity filter
        raise ValueError(f"quality factor must be finite, got {q}")
    w0 = 2.0 * math.pi * f0 / fs
    if w0 / (2.0 * q) >= math.pi / 2:
        raise ValueError(f"bandwidth {f0 / q} Hz too wide for fs={fs}")
    alpha = math.tan(w0 / (2.0 * q))
    c = math.cos(w0)
    scale = 1.0 / (1.0 + alpha)
    coeffs = BiquadCoeffs(
        b0=scale,
        b1=-2.0 * c * scale,
        b2=scale,
        a1=-2.0 * c * scale,
        a2=(1.0 - alpha) * scale,
        f0=f0,
        fs=fs,
        q=q,
    )
    if np.array_equal(coeffs.b, coeffs.a):  # 1 + alpha rounded to 1
        raise ValueError(f"notch at {f0} Hz with Q={q} rounds to an identity filter")
    return coeffs


def _impulse_response(b, a1: float, a2: float, length: int) -> np.ndarray:
    """First `length` output samples of the recursion
    y[n] = b0 x[n] + b1 x[n-1] + b2 x[n-2] - a1 y[n-1] - a2 y[n-2]
    driven by a unit impulse, run in transposed direct form II.

    The recursion, not a closed-form damped cosine: at low Q the poles are
    real and that form divides 0 by 0.
    """
    out = np.empty(length)
    x, z1, z2 = 1.0, 0.0, 0.0
    for i in range(length):
        y = b[0] * x + z1
        z1 = b[1] * x - a1 * y + z2
        z2 = b[2] * x - a2 * y
        out[i] = y
        x = 0.0
    return out


def filter_block(coeffs: BiquadCoeffs, x: np.ndarray) -> np.ndarray:
    """Direct-form difference equation with zero initial state."""
    x = np.asarray(x, dtype=float)
    return filter_blocked(coeffs, x, max(len(x), 1))  # empty x: no blocks


def filter_blocked(coeffs: BiquadCoeffs, x: np.ndarray, block_size: int) -> np.ndarray:
    """Filter in consecutive blocks, resetting state at each block boundary.

    The final partial block is filtered as it is. The filter is causal, so
    its output equals that of the block zero-padded to block_size and trimmed,
    the subspace-suppression blocking.
    """
    x = np.asarray(x, dtype=float)
    whole, _ = blocks(x, block_size)  # rejects block_size < 1
    s = min(block_size, DENSE_BLOCK)
    b0, b1, b2, a1, a2 = coeffs.b0, coeffs.b1, coeffs.b2, coeffs.a1, coeffs.a2
    ops = _sub_block_operators(b0, b1, b2, a1, a2, s)
    y = np.empty(len(x))
    for rows, out in (
        (whole, y[: whole.size].reshape(whole.shape)),
        (x[whole.size :][None], y[whole.size :][None]),
    ):
        _filter_rows(rows, out, *ops)
    return y


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _sub_block_operators(
    b0: float, b1: float, b2: float, a1: float, a2: float, s: int
) -> tuple[np.ndarray, ...]:
    """The read-only matrices that filter sub-blocks of s samples, shared by
    every call with the same design and s: the zero-state Toeplitz operator,
    the two maps from a sub-block's last inputs and outputs to the state it
    ends in, and the response to that state."""
    lag = np.arange(s) - np.arange(s)[:, None]
    h = _impulse_response((b0, b1, b2), a1, a2, s)  # floats: faster than an array
    # zero-state response of every sub-block: row @ op, op[j, i] = h[i - j]
    op = np.where(lag >= 0, h[lag], 0.0)
    # Sub-block j starts in the state (z1, z2) that sub-block j - 1 ends in.
    # Its zero-input response is z1 g[n + 1] + z2 g[n], with g the impulse
    # response of z^-1 / A(z) (so g[0] = 0).
    g = _impulse_response((0.0, 1.0, 0.0), a1, a2, s + 1)
    carry = np.stack((g[1:], g[:-1]))
    # The state a sub-block ends in, from its last two inputs x0, x1 and
    # outputs y0, y1: z1 = b2 x0 + b1 x1 - a2 y0 - a1 y1, z2 = b2 x1 - a2 y1.
    x_map = np.array([[b2, 0.0], [b1, b2]])
    y_map = np.array([[-a2, 0.0], [-a1, -a2]])
    for a in (op, x_map, y_map, carry):
        a.setflags(write=False)
    return op, x_map, y_map, carry


def _filter_rows(rows, out, op, x_map, y_map, carry) -> None:
    """Filter each row into the same row of out, as consecutive sub-blocks of
    len(op) samples, the last one shorter when len(op) does not divide the
    row: each sub-block's zero-state response, plus, after the first, the
    response to the state the sub-block before it ends in."""
    n, s = rows.shape[1], len(op)
    for j in range(0, n, s):
        w = min(s, n - j)
        np.matmul(rows[:, j : j + w], op[:w, :w], out=out[:, j : j + w])
        if j:
            state = rows[:, j - 2 : j] @ x_map + out[:, j - 2 : j] @ y_map
            out[:, j : j + w] += state @ carry[:, :w]
