"""Narrowband suppression: remove the interference-bearing periodic subspaces
from each block.

The coefficient view (`make_mask`, `suppress_block`) zeroes their coefficients
and reconstructs. `_suppress_rows` writes the same operator I - sum of P_m,
applied to each block of a record, into a given output, one tile of io.tiles
at a time: blocks of at most io.DENSE_BLOCK samples as one matrix product,
times 1/N in cache, with P_m = C_m / N, C_m the m x m circulant of the
integer Ramanujan sum s_m tiled N / m times each way, on two cores where
io.halves cuts the record; longer blocks as the input rows minus the period-m
part of their fold to length m, tiled. A projector reads a block only through
its fold (Vaidyanathan, IEEE TSP 62(16), 2014), so where a tile holds several
blocks the parts of periods up to io.DENSE_BLOCK are taken once per record,
the padded final block's included (transform.record_part), and a tile is one
broadcast copy and one subtract; a longer period's part, as long as the
block, and a one-block tile's are taken a tile at a time
(transform.period_part). `run` and metrics.compare_grid call it. The dense
operator depends only on N and the target periods, and both paths share one
float copy of each C_m: each is built once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .io import _CACHE_SIZE, DENSE_BLOCK, Signal, _product, halves, tiled_blocks, tiles
from .transform import (  # ConfigurationError and admissible_hint are re-exported
    CoefficientVector,
    ConfigurationError,
    TransformPlan,
    admissible_hint,
    float_circulant,
    forward,
    inverse,
    period_part,
    record_part,
    space_for_frequency,
)


@dataclass(frozen=True)
class WindowMask:
    """0/1 gains over coefficient indices; zeros annihilate target subspaces."""

    gains: np.ndarray

    def __post_init__(self):
        self.gains.setflags(write=False)


@dataclass(frozen=True)
class SuppressionConfig:
    """Block size and the interference frequencies to remove.

    The final partial block is zero-padded, processed, and trimmed.
    """

    block_size: int
    interference_freqs: tuple[float, ...]
    fs: float

    def target_spaces(self) -> frozenset[int]:
        """Periodic subspaces owning each interference frequency."""
        return frozenset(
            space_for_frequency(f, self.fs, self.block_size).space
            for f in self.interference_freqs
        )


def make_mask(plan: TransformPlan, targets: set[int] | frozenset[int]) -> WindowMask:
    """Mask with zeros on the coefficient ranges of the target subspaces."""
    gains = np.ones(plan.n)
    for m in targets:
        if m not in plan.layout:
            raise ValueError(f"{m} is not a divisor of block length {plan.n}")
        rng = plan.layout[m]
        gains[rng.start : rng.stop] = 0.0
    return WindowMask(gains=gains)


def suppress_block(plan: TransformPlan, mask: WindowMask, x: np.ndarray) -> np.ndarray:
    """Transform, zero masked coefficients, reconstruct.

    Equivalent to subtracting the projections onto the zeroed subspaces.
    """
    if len(mask.gains) != plan.n:
        raise ValueError(f"mask for n={len(mask.gains)} used with plan n={plan.n}")
    beta = forward(plan, x)
    masked = CoefficientVector(plan_n=plan.n, values=beta.values * mask.gains)
    return inverse(plan, masked)


def run(signal: Signal, config: SuppressionConfig) -> Signal:
    """Suppress interference over the whole signal in non-overlapping blocks."""
    if len(signal) == 0:
        raise ValueError("empty signal")
    if signal.fs != config.fs:
        raise ConfigurationError(
            f"signal fs={signal.fs} differs from configured fs={config.fs}"
        )
    targets = config.target_spaces()
    cleaned = np.empty(len(signal))
    _suppress_rows(signal.samples, cleaned, config.block_size, targets)
    return Signal(samples=cleaned, fs=signal.fs)


def _suppress_rows(samples, out, n: int, targets: frozenset[int]) -> None:
    """Write I - sum of P_m over the target periods m, applied to each length-n
    block of samples, the last one zero-padded, into out, a 1-D array as long
    that does not overlap samples, one tile of io.tiles at a time through
    io.halves. A long block's output is the sum of its target parts, tiled,
    subtracted from the block in one flat pass; the parts of periods up to
    io.DENSE_BLOCK come from one pass over the record before the tiles."""
    halves(_suppress_tiles, samples, out, n, targets)


def _suppress_tiles(samples, out, n: int, targets: frozenset[int]) -> None:
    """Write each length-n block's output into out, one tile of io.tiles at a
    time: one product a tile for n up to DENSE_BLOCK; past it, the target
    parts, a broadcast copy and a subtract a tile."""
    if n <= DENSE_BLOCK:
        op, scale = _dense_operator(n, targets), 1 / n  # halves rejects n < 1
        for x, y in tiles(samples, out, n):
            _product(x, op, y)  # the operator is symmetric
            y *= scale
        return
    # The part of every block of the record for each period up to DENSE_BLOCK,
    # where a tile holds several blocks; longer periods, whose part is as long
    # as the block, and one-block tiles take theirs a tile at a time.
    rows, count = tiled_blocks(len(samples), n)
    parts = {
        m: record_part(samples, n, m, count)
        for m in targets
        if m <= DENSE_BLOCK and rows > 1
    }
    for i, (x, y) in enumerate(tiles(samples, out, n)):
        first = min(i * rows, count - rows)
        for k, m in enumerate(targets):
            if m in parts:
                part = parts[m][first : first + rows]
            else:
                part = period_part(x, m)
            tiled = y.reshape(rows, n // m, m)
            if k:
                np.add(tiled, part[:, None], out=tiled)
            else:
                np.copyto(tiled, part[:, None])
        if targets:
            np.subtract(x, y, out=y)
        else:
            y[...] = x


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _dense_operator(n: int, targets: frozenset[int]) -> np.ndarray:
    """N (I - sum of P_m) over the target periods m, read-only and shared.

    Its entries are integers; scaling by 1/N after the product, not inside
    it, overflows on the inputs the FFT's forward pass does. Multiplying by
    1/N rounds twice where dividing by N rounds once: at most 2 ulp apart.
    """
    op = n * np.eye(n) - sum(
        np.tile(float_circulant(m), (n // m, n // m)) for m in targets
    )
    op.setflags(write=False)
    return op
