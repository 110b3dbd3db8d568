"""Narrowband suppression: remove the interference-bearing periodic subspaces
from each block.

The coefficient view (`make_mask`, `suppress_block`) zeroes their coefficients
and reconstructs. `run` applies the same operator I - sum of P_m to every
block: blocks of at most io.DENSE_BLOCK samples as one matrix product with
P_m = C_m / N, C_m the m x m circulant of the integer Ramanujan sum s_m tiled
N / m times each way; longer blocks by subtracting the period-m part of their
fold to length m, tiled (transform.period_part). It views the whole blocks,
pads only the final partial block, and writes one output array. The dense
operator depends only on N and the target periods, so it is built once for
each pair.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .io import _CACHE_SIZE, DENSE_BLOCK, Signal, blocks
from .ramanujan import circulant
from .transform import (  # ConfigurationError and admissible_hint are re-exported
    CoefficientVector,
    ConfigurationError,
    TransformPlan,
    admissible_hint,
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
    n = config.block_size
    targets = config.target_spaces()
    whole, tail = blocks(signal.samples, n)
    if n <= DENSE_BLOCK:
        op = _dense_operator(n, targets)
        cleaned = np.empty(len(signal))
        body = cleaned[: whole.size].reshape(whole.shape)
        np.matmul(whole, op, out=body)  # op is symmetric
        body /= n
        tail = tail @ op / n
    else:
        # all parts first: the output is allocated after a period-N spectrum is freed
        parts = [(m, period_part(whole, m), period_part(tail, m)) for m in targets]
        cleaned = np.empty(len(signal))
        body = cleaned[: whole.size].reshape(whole.shape)
        body[...] = whole
        for m, of_whole, of_tail in parts:
            for rows, part in ((body, of_whole), (tail, of_tail)):
                periods = rows.reshape(len(rows), n // m, m)
                periods -= part[:, None]
    cleaned[whole.size :] = tail.reshape(-1)[: len(signal) - whole.size]
    return Signal(samples=cleaned, fs=signal.fs)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _dense_operator(n: int, targets: frozenset[int]) -> np.ndarray:
    """N (I - sum of P_m) over the target periods m, read-only and shared.

    Its entries are integers; dividing by N after the product, not inside it,
    overflows on the inputs the FFT's forward pass does.
    """
    op = n * np.eye(n) - sum(
        np.tile(circulant(m).entries, (n // m, n // m)) for m in targets
    )
    op.setflags(write=False)
    return op
