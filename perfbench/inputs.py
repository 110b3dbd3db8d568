"""Seeded inputs for the benchmark.

The workload seed picks the heart rate (60-90 bpm), the phase of the 50 Hz
interferer and the Gaussian noise. The program under test receives only what
this module produces: arrays for the in-process workloads, and CSV and
212-packed files for the CLI workload. The ECG model is the benchmark's own,
so that no input depends on code of the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

FS = 360.0
F0 = 50.0
Q = 1.0
TONE_AMPLITUDE = 0.5
NOISE_STD = 0.02

# 212 encoding used for the CLI workload (the CLI's defaults).
GAIN_212 = 200.0
BASELINE_212 = 1024

# Per-beat Gaussian bumps (P, Q, R, S, T): centre and width as fractions of
# the beat period, amplitude in mV.
_BUMPS = (
    (0.20, 0.08, 0.030),
    (0.36, -0.07, 0.010),
    (0.40, 0.60, 0.012),
    (0.44, -0.12, 0.010),
    (0.65, 0.20, 0.050),
)


@dataclass(frozen=True)
class Record:
    """One generated record: the signal without and with the interferer."""

    clean: np.ndarray
    dirty: np.ndarray
    heart_rate: float
    phase: float


def make_record(n_samples: int, *seed: int) -> Record:
    """ECG plus Gaussian noise (clean), and clean plus a 50 Hz tone (dirty)."""
    rng = np.random.default_rng(list(seed))
    heart_rate = rng.uniform(60.0, 90.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    t = np.arange(n_samples) / FS
    beat_phase = (t * heart_rate / 60.0) % 1.0
    ecg = np.zeros(n_samples)
    for centre, amp, width in _BUMPS:
        d = beat_phase - centre
        d -= np.rint(d)
        ecg += amp * np.exp(-0.5 * (d / width) ** 2)
    clean = ecg + rng.normal(0.0, NOISE_STD, n_samples)
    dirty = clean + TONE_AMPLITUDE * np.sin(2.0 * np.pi * F0 * t + phase)
    return Record(clean=clean, dirty=dirty, heart_rate=heart_rate, phase=phase)


def write_csv(samples: np.ndarray, path: Path) -> None:
    """One sample per line, 17 significant digits."""
    path.write_text("".join(f"{v:.17g}\n" for v in samples.tolist()))


def quantize_212(samples: np.ndarray) -> np.ndarray:
    """ADC units as the 212 file stores them, clipped to 12-bit range."""
    raw = np.rint(samples * GAIN_212) + BASELINE_212
    return np.clip(raw, -2048, 2047).astype(np.int64)


def write_212(ch0: np.ndarray, ch1: np.ndarray, path: Path) -> None:
    """Two channels of 12-bit ADC units packed as 212 frames of 3 bytes."""
    s1 = ch0 & 0xFFF
    s2 = ch1 & 0xFFF
    frames = np.empty((len(s1), 3), dtype=np.uint8)
    frames[:, 0] = s1 & 0xFF
    frames[:, 1] = ((s1 >> 8) & 0x0F) | ((s2 >> 4) & 0xF0)
    frames[:, 2] = s2 & 0xFF
    path.write_bytes(frames.tobytes())
