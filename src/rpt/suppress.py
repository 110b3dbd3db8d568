"""Narrowband suppression: remove the interference-bearing periodic subspaces
from each block.

The coefficient view (`make_mask`, `suppress_block`) zeroes their coefficients
and reconstructs. `_suppress_rows` writes the same operator I - sum of P_m,
applied to each block of a record, into a given output, one tile of io.tiles
at a time: blocks of at most io.DENSE_BLOCK samples as one matrix product,
divided by N in cache, with P_m = C_m / N, C_m the m x m circulant of the
integer Ramanujan sum s_m tiled N / m times each way; longer blocks as the
input rows minus the period-m part of their fold to length m
(transform.period_part), tiled. `run` and metrics.compare_grid call it. The
dense operator depends only on N and the target periods, and both paths share
one float copy of each C_m: each is built once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .io import _CACHE_SIZE, DENSE_BLOCK, Signal, _product, tiles
from .transform import (  # ConfigurationError and admissible_hint are re-exported
    CoefficientVector,
    ConfigurationError,
    TransformPlan,
    admissible_hint,
    float_circulant,
    forward,
    inverse,
    period_part,
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
    that does not overlap samples, one tile of io.tiles at a time. A long
    block's output is the sum of its target parts, tiled, subtracted from the
    block in one flat pass."""
    op = _dense_operator(n, targets) if 0 < n <= DENSE_BLOCK else None
    for x, y in tiles(samples, out, n):  # rejects n < 1
        if op is not None:
            _product(x, op, y)  # op is symmetric
            y /= n
        elif targets:
            for k, m in enumerate(targets):
                tiled, part = y.reshape(len(x), n // m, m), period_part(x, m)[:, None]
                if k:
                    np.add(tiled, part, out=tiled)
                else:
                    np.copyto(tiled, part)
            np.subtract(x, y, out=y)
        else:
            y[...] = x


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _dense_operator(n: int, targets: frozenset[int]) -> np.ndarray:
    """N (I - sum of P_m) over the target periods m, read-only and shared.

    Its entries are integers; dividing by N after the product, not inside it,
    overflows on the inputs the FFT's forward pass does.
    """
    op = n * np.eye(n) - sum(
        np.tile(float_circulant(m), (n // m, n // m)) for m in targets
    )
    op.setflags(write=False)
    return op
