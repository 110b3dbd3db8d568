"""Narrowband suppression: zero the coefficients of interference-bearing
periodic subspaces block by block and reconstruct."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .io import Signal, blocks
from .transform import (  # ConfigurationError and admissible_hint are re-exported
    CoefficientVector,
    ConfigurationError,
    TransformPlan,
    admissible_hint,
    bin_periods,
    forward,
    inverse,
    space_for_frequency,
)


@dataclass(frozen=True)
class WindowMask:
    """0/1 gains over coefficient indices; zeros annihilate target subspaces."""

    plan_n: int
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
    return WindowMask(plan_n=plan.n, gains=gains)


def suppress_block(plan: TransformPlan, mask: WindowMask, x: np.ndarray) -> np.ndarray:
    """Transform, zero masked coefficients, reconstruct.

    Equivalent to subtracting the projections onto the zeroed subspaces.
    """
    if mask.plan_n != plan.n:
        raise ValueError(f"mask for n={mask.plan_n} used with plan n={plan.n}")
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
    # zeroing a subspace's coefficients zeroes its DFT bins, block by block
    spectra = np.fft.rfft(blocks(signal.samples, n), axis=1)
    spectra[:, np.isin(bin_periods(n)[: spectra.shape[1]], list(targets))] = 0.0
    cleaned = np.fft.irfft(spectra, n=n, axis=1)
    return Signal(samples=cleaned.reshape(-1)[: len(signal)].copy(), fs=signal.fs)
