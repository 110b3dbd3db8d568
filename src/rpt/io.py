"""Signal ingestion and generation: CSV, MIT-BIH 212-packed binary, synthetic
ECG fixture, and sinusoidal contamination."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DataFormatError(ValueError):
    """Malformed or unreadable input data."""


@dataclass(frozen=True)
class Signal:
    """Uniformly sampled real signal with its sampling rate in Hz."""

    samples: np.ndarray
    fs: float

    def __post_init__(self):
        if not 0 < self.fs < np.inf:
            raise ValueError(f"sampling rate {self.fs} must be positive and finite")
        if not np.all(np.isfinite(self.samples)):
            raise DataFormatError("signal contains NaN or Inf samples")
        self.samples.setflags(write=False)

    def __len__(self) -> int:
        return len(self.samples)


def blocks(samples: np.ndarray, n: int) -> np.ndarray:
    """Consecutive length-n blocks of samples, one per row.

    The final partial block is zero-padded; callers trim outputs back to
    len(samples).
    """
    if n < 1:
        raise ValueError(f"block length must be positive, got {n}")
    total = len(samples)
    out = np.zeros((-(-total // n), n))
    out.reshape(-1)[:total] = samples
    return out


def read_csv(path: str | Path, column: int = 0, fs: float = 360.0) -> Signal:
    """Parse one column of a comma-separated numeric file.

    np.loadtxt parses the file in one pass. A file it rejects or finds empty
    is parsed again line by line: that parse accepts what float() accepts and
    names the line of the first error.
    """
    if column < 0:
        raise ValueError(f"column must be non-negative, got {column}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            with warnings.catch_warnings():
                # loadtxt warns, rather than raises, on a file with no rows
                warnings.simplefilter("error", UserWarning)
                values = np.loadtxt(
                    fh, delimiter=",", usecols=column, comments=None, ndmin=1
                )
        except (ValueError, IndexError, OverflowError, UserWarning):
            fh.seek(0)
            values = _parse_lines(fh, path, column)
    return Signal(samples=values, fs=fs)


def _parse_lines(lines, path: str | Path, column: int) -> np.ndarray:
    """Parse line by line; errors name the path and line number."""
    values = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if column >= len(fields):
            raise DataFormatError(
                f"{path}:{lineno}: column {column} missing ({len(fields)} fields)"
            )
        try:
            values.append(float(fields[column]))
        except ValueError:
            raise DataFormatError(
                f"{path}:{lineno}: cannot parse {fields[column]!r} as a number"
            ) from None
    if not values:
        raise DataFormatError(f"{path}: no samples found")
    return np.array(values)


def write_csv(signal: Signal, path: str | Path) -> None:
    """One sample per line, 17 significant digits (round-trip exact)."""
    if len(signal) == 0:
        raise ValueError("refusing to write an empty signal")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(("%.17g\n" * len(signal)) % tuple(signal.samples.tolist()))


def read_wfdb_212(
    path: str | Path,
    channels: int = 2,
    select: int = 0,
    gain: float = 200.0,
    baseline: int = 1024,
    fs: float = 360.0,
) -> Signal:
    """Decode 212-packed binary: two 12-bit two's-complement samples per 3 bytes.

    Frame [b0, b1, b2] holds s1 = ((b1 & 0x0F) << 8) | b0 and
    s2 = ((b1 & 0xF0) << 4) | b2. Physical units: (raw - baseline) / gain.
    """
    if channels not in (1, 2):
        raise ValueError(f"channels must be 1 or 2, got {channels}")
    if not 0 <= select < channels:
        raise ValueError(f"channel index {select} out of range for {channels} channels")
    if not (np.isfinite(gain) and gain != 0):
        raise ValueError(f"gain must be finite and non-zero, got {gain}")
    if not abs(baseline) < 2**53:
        raise ValueError(f"baseline {baseline} outside (-2**53, 2**53)")
    raw = np.frombuffer(Path(path).read_bytes(), dtype=np.uint8)
    if len(raw) == 0:
        raise DataFormatError(f"{path}: empty file")
    if len(raw) % 3 != 0:
        raise DataFormatError(
            f"{path}: length {len(raw)} is not a multiple of 3 (truncated frame)"
        )
    frames = raw.reshape(-1, 3).astype(np.int64)
    s1 = ((frames[:, 1] & 0x0F) << 8) | frames[:, 0]
    s2 = ((frames[:, 1] & 0xF0) << 4) | frames[:, 2]
    s1 = np.where(s1 >= 2048, s1 - 4096, s1)
    s2 = np.where(s2 >= 2048, s2 - 4096, s2)
    if channels == 1:
        samples = np.empty(2 * len(frames), dtype=np.int64)
        samples[0::2] = s1
        samples[1::2] = s2
    else:
        samples = s1 if select == 0 else s2
    with np.errstate(over="ignore"):  # a tiny gain overflows; Signal rejects inf
        physical = (samples - baseline) / gain
    return Signal(samples=physical, fs=fs)


def add_sinusoid(
    signal: Signal, f0: float, amplitude: float, phase: float = 0.0
) -> Signal:
    """Add amplitude * sin(2*pi*f0*n/fs + phase) to every sample."""
    if not abs(f0) < signal.fs / 2:
        raise ValueError(f"{f0} Hz aliases at fs={signal.fs} Hz")
    if not np.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite, got {amplitude}")
    if not np.isfinite(phase):
        raise ValueError(f"phase must be finite, got {phase}")
    if amplitude == 0.0:
        return signal
    n = np.arange(len(signal))
    with np.errstate(over="ignore", invalid="ignore"):
        tone = amplitude * np.sin(2.0 * np.pi * f0 * n / signal.fs + phase)
        if not np.all(np.isfinite(tone)):
            raise ValueError(f"tone at f0={f0} Hz, fs={signal.fs} Hz is not finite")
        # a sum past the float range is left to Signal's non-finite check
        samples = signal.samples + tone
    return Signal(samples=samples, fs=signal.fs)


# Per-beat Gaussian bumps: (center, amplitude, width), center and width as
# fractions of the beat period, amplitude in signal units. R peak is 0.5.
ECG_BUMPS = (
    (0.18, 0.075, 0.030),  # P
    (0.355, -0.06, 0.010),  # Q
    (0.40, 0.50, 0.010),  # R
    (0.445, -0.10, 0.010),  # S
    (0.62, 0.175, 0.045),  # T
)
ECG_R_AMPLITUDE = 0.5


def synth_ecg(duration: float, fs: float, heart_rate: float) -> Signal:
    """Deterministic periodic ECG-like waveform (five Gaussian bumps per beat).

    Fully seedless; serves as the offline stand-in for a database record.
    """
    if not 0 < duration < np.inf:
        raise ValueError(f"duration {duration} s must be positive and finite")
    if not 0 < fs < np.inf:
        raise ValueError(f"sampling rate {fs} must be positive and finite")
    if not duration * fs < np.inf:
        raise ValueError(f"duration {duration} s at {fs} Hz overflows the sample count")
    if not 20 <= heart_rate <= 240:
        raise ValueError(f"heart rate {heart_rate} bpm outside [20, 240]")
    n_samples = int(round(duration * fs))
    beat = 60.0 / heart_rate
    # beat-phase in [0, 1) of each sample
    phase = (np.arange(n_samples) / fs) % beat / beat
    out = np.zeros(n_samples)
    for center, amp, width in ECG_BUMPS:
        # nearest periodic image keeps bumps continuous across beat boundaries
        d = phase - center
        d -= np.rint(d)
        out += amp * np.exp(-0.5 * (d / width) ** 2)
    return Signal(samples=out, fs=fs)
