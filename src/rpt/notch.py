"""Second-order IIR notch baseline: constant-skirt-gain biquad design and
block-wise filtering with per-block state reset.

With the state reset at each block, the notch is a linear operator per block: a
causal convolution with the biquad's impulse response cut to the block length.
It is applied one tile of io.tiles at a time, as suppress applies its operator:
a block of at most io.DENSE_BLOCK samples takes one product with the
lower-triangular Toeplitz matrix of that response, on two cores where io.halves
cuts the record, and a longer block is filtered as sub-blocks of
io.DENSE_BLOCK // 2 samples with the biquad's state carried across them
(Burrus's block realization, IEEE Trans. Audio Electroacoust. 20(4), 1972):
products on io's row counts give every sub-block's zero-state response and end
state, then every start state and the response to it. A final partial block
longer than io._TILE is read unpadded, unless the output holds its padded whole
block, as the comparison grid's does. The matrices are built once per design.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .io import _CACHE_SIZE, _TILE, DENSE_BLOCK, _product, _rows, halves, tiles

_GROUP = 64  # sub-blocks whose start states come from one product, for any N


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
    return filter_blocked(coeffs, x, max(len(x), 1))  # empty x: no blocks


def filter_blocked(coeffs: BiquadCoeffs, x: np.ndarray, block_size: int) -> np.ndarray:
    """Filter in consecutive blocks, resetting state at each block boundary.

    The filter is causal, so the final partial block's output equals that of
    the block zero-padded to block_size and trimmed, as in suppress.run.
    """
    x = np.asarray(x, dtype=float)
    y = np.empty(len(x))
    _filter_rows(x, y, coeffs, block_size)
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


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _state_maps(
    b0: float, b1: float, b2: float, a1: float, a2: float, s: int
) -> tuple[np.ndarray, np.ndarray]:
    """Two read-only maps for sub-blocks of s samples. The first takes a
    sub-block to the state e its zero-state response ends in. The second
    takes [c, e_0, ..., e_{G-1}] to [z_0, ..., z_G] for G = _GROUP
    consecutive sub-blocks, with z_t the state sub-block t starts in and
    c = z_0. A sub-block that starts in z ends in e + z Phi, with
    Phi = carry[:, -2:] @ y_map, so z_t = c Phi^t + the sum over i < t of
    e_i Phi^(t-1-i): block (j, t) of the map is Phi^(t-j) for j <= t, and its
    top-left corner is the map for fewer sub-blocks."""
    op, x_map, y_map, carry = _sub_block_operators(b0, b1, b2, a1, a2, s)
    end = op[:, -2:] @ y_map
    end[-2:] += x_map
    powers = [np.eye(2)]
    for _ in range(_GROUP):
        powers.append(powers[-1] @ carry[:, -2:] @ y_map)
    lag = np.arange(_GROUP + 1) - np.arange(_GROUP + 1)[:, None]
    grid = np.where((lag >= 0)[..., None, None], np.array(powers)[lag], 0.0)
    start = grid.transpose(0, 2, 1, 3).reshape(2 * _GROUP + 2, -1)
    for a in (end, start):
        a.setflags(write=False)
    return end, start


def _filter_rows(samples, out, coeffs: BiquadCoeffs, block_size: int) -> None:
    """Filter each block of samples into out, a 1-D array as long or rounded
    up to whole blocks, one tile of io.tiles at a time through io.halves. A
    final partial block longer than io._TILE that out does not hold whole goes
    after them, unpadded: padding it would cost a whole block."""
    # The zero-state product costs s multiply-adds a sample; 36 was among the
    # fastest of 24, 36, 48 and 72 at N = 360 to 1440.
    s = block_size if block_size <= DENSE_BLOCK else DENSE_BLOCK // 2
    design = (coeffs.b0, coeffs.b1, coeffs.b2, coeffs.a1, coeffs.a2, s)
    size = len(out) - len(out) % block_size if block_size > _TILE else len(out)
    halves(_filter_tiles, samples[:size], out[:size], block_size, design)
    if size < len(samples):
        _filter_sub_blocks(samples[size:][None], out[size:][None], design, block_size)


def _filter_tiles(samples, out, n: int, design: tuple) -> None:
    for x, y in tiles(samples, out, n):  # rejects N < 1
        if n <= DENSE_BLOCK:
            _product(x, _sub_block_operators(*design)[0], y)
        else:
            _filter_sub_blocks(x, y, design, n)


def _filter_sub_blocks(rows, out, design: tuple, n: int) -> None:
    """Filter each row, a length-n block or a final partial block, into the
    same row of out, as sub-blocks of s = design[-1] samples, with the state
    carried from span to span. A span is zero-padded to whole sub-blocks, and
    a partial block's last one to whole groups, up to its width in a block."""
    s = design[-1]
    op, _, _, carry = _sub_block_operators(*design)
    end_map, start_map = _state_maps(*design)
    b = len(rows)
    span = min(n, _TILE // (_GROUP * s) * _GROUP * s)  # samples of a row at a time
    for j in range(0, rows.shape[1], span):
        x, y = rows[:, j : j + span], out[:, j : j + span]
        w = x.shape[1]
        # sub-blocks per row of the span, in whole groups past the record's end
        k = min(-(-min(span, n - j) // s), -(-w // (_GROUP * s)) * _GROUP)
        if k * s != w:
            x = np.zeros((b, k * s))
            x[:, :w] = rows[:, j : j + span]
            y = np.empty_like(x)
        _product(x.reshape(-1, s), op, y.reshape(-1, s))
        # states[:, t + 1]: the state sub-block t ends in from a zero start
        states = _rows(b, k + 1, 2)
        if j:  # states[:, 0]: the state the span starts in, zero in the first
            states[:b, 0] = start
        np.matmul(x.reshape(b, k, s), end_map, out=states[:b, 1:])
        y3 = y.reshape(b, k, s)
        for g in range(0, k, _GROUP):
            size = min(_GROUP, k - g)
            group = states[:, g : g + size + 1].reshape(len(states), -1)
            group = group @ start_map[: 2 * size + 2, : 2 * size + 2]
            states[:, g : g + size + 1] = group.reshape(len(states), -1, 2)
            y3[:, g : g + size] += states[:b, g : g + size] @ carry
        start = states[:b, k]
        if k * s != w:
            out[:, j : j + span] = y[:, :w]
