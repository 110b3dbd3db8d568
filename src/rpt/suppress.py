"""Narrowband suppression: zero the coefficients of interference-bearing
periodic subspaces block by block and reconstruct."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .io import Signal, blocks
from .transform import (
    CoefficientVector,
    FrequencyNotRepresentable,
    TransformPlan,
    bin_periods,
    forward,
    inverse,
    space_for_frequency,
)


class ConfigurationError(ValueError):
    """Invalid suppression configuration (e.g. frequency/block-size mismatch)."""


@dataclass(frozen=True)
class WindowMask:
    """0/1 gains over coefficient indices; zeros annihilate target subspaces."""

    plan_n: int
    gains: np.ndarray
    zeroed_spaces: frozenset[int]

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
        try:
            return frozenset(
                space_for_frequency(f, self.fs, self.block_size).space
                for f in self.interference_freqs
            )
        except FrequencyNotRepresentable as exc:
            raise ConfigurationError(
                f"{exc}; admissible block sizes are {admissible_hint(exc.f0, self.fs)}"
            ) from exc


def admissible_hint(f0: float, fs: float) -> list[int]:
    """The five smallest block sizes at which f0 falls on an integer bin: the
    multiples of the reduced denominator of f0/fs."""
    step = (Fraction(str(f0)) / Fraction(str(fs))).denominator
    return [step * k for k in range(1, 6)]


def make_mask(plan: TransformPlan, targets: set[int] | frozenset[int]) -> WindowMask:
    """Mask with zeros on the coefficient ranges of the target subspaces."""
    gains = np.ones(plan.n)
    for m in targets:
        if m not in plan.layout:
            raise ValueError(f"{m} is not a divisor of block length {plan.n}")
        rng = plan.layout[m]
        gains[rng.start : rng.stop] = 0.0
    return WindowMask(plan_n=plan.n, gains=gains, zeroed_spaces=frozenset(targets))


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
