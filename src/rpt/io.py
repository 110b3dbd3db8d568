"""Signal ingestion and generation: CSV, MIT-BIH 212-packed binary, synthetic
ECG fixture, sinusoidal contamination, a record's blocks and tiles, the row
counts on which the block operators run their matrix products, and the cut
that runs a record's tiles on two cores."""

from __future__ import annotations

import contextvars
import ctypes
import functools
import os
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DataFormatError(ValueError):
    """Malformed or unreadable input data."""


@dataclass(frozen=True)
class Signal:
    """Uniformly sampled real signal with its sampling rate in Hz. `samples` is
    a read-only view of the array it is given, not a copy."""

    samples: np.ndarray
    fs: float

    def __post_init__(self):
        if not 0 < self.fs < np.inf:
            raise ValueError(f"sampling rate {self.fs} must be positive and finite")
        if not np.all(np.isfinite(self.samples)):
            raise DataFormatError("signal contains NaN or Inf samples")
        object.__setattr__(self, "samples", self.samples.view())
        self.samples.setflags(write=False)

    def __len__(self) -> int:
        return len(self.samples)


# The cut between applying a block operator as one dense N x N matrix product
# and its long-block path: suppression subtracts the period-m parts of a longer
# block's folds, and the notch filters it as sub-blocks of 72 // 2 = 36 samples
# with the biquad state carried across them. 72 covers the paper's block sizes
# 36 and 72 with one product per block.
DENSE_BLOCK = 72

# Entries kept by each cache of per-size constants (plans, bin periods, block
# operators), which depend only on the block size and the operator's design.
# It covers the CLI's default comparison grid and every benchmark workload; a
# sweep over more sizes evicts the least recently used instead of growing.
_CACHE_SIZE = 16

_TILE = 16_384  # samples in one tile of `tiles`: 128 KiB, which stays in cache

# Row multiple of every 2-D matrix product in a block operator, which _rows
# pads to and _product splits at. A BLAS kernel computes rows in groups of its
# row unroll and the rows left over by other code, which may round otherwise,
# so a block's bits would depend on its row. 16 held under OpenBLAS's SkylakeX,
# Haswell, SandyBridge, Nehalem and Prescott kernels; 4 and 8 did not.
_ROWS = 16


def _rows(b: int, *shape: int) -> np.ndarray:
    """Zeros of the given shape and b rows, for a product's input, rounded up
    to a multiple of _ROWS unless b is 1: one row is alone in every product."""
    return np.zeros((b if b == 1 else -(-b // _ROWS) * _ROWS, *shape))


def _product(x: np.ndarray, op: np.ndarray, out: np.ndarray) -> None:
    """Write x @ op into out, a different array: the rows up to the last
    multiple of _ROWS, then the last _ROWS rows again, in place, which gives
    the rows computed twice the same bits. Fewer rows take one product: only
    the notch's last span of a block longer than one span has them, in a
    one-row tile, and N fixes how many, so the block's bits do not depend on
    where it sits."""
    whole = len(x) // _ROWS * _ROWS
    np.matmul(x[:whole], op, out=out[:whole])
    if whole < len(x):
        np.matmul(x[-_ROWS:], op, out=out[-_ROWS:])


def blocks(samples: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The whole length-n blocks of samples, one per row, as a view of them,
    and the final partial block zero-padded to n, as a (0 or 1) x n array:
    only the partial block is copied."""
    if n < 1:
        raise ValueError(f"block length must be positive, got {n}")
    samples = np.asarray(samples, dtype=float)  # no copy of a float array
    whole = len(samples) // n * n
    tail = np.zeros((int(whole < len(samples)), n))
    tail.reshape(-1)[: len(samples) - whole] = samples[whole:]
    return samples[:whole].reshape(-1, n), tail


def _step(n: int) -> int:
    """Samples in one tile of `tiles` at block length n."""
    if n < 1:
        raise ValueError(f"block length must be positive, got {n}")
    rows = _TILE // n
    return max(rows // 64 * 64 if n <= DENSE_BLOCK else rows, 1) * n


def tiles(samples: np.ndarray, out: np.ndarray, n: int):
    """(x, y) pairs over the length-n blocks of samples, one per row of x,
    whose output goes into y. Every tile has the same row count, so that it
    stays in cache: _TILE // n, rounded down to a multiple of 64 for n up to
    DENSE_BLOCK, and at least one. Tiles are views of samples and of out, both
    C-contiguous, out as long as samples or rounded up to whole blocks; a
    record of whole blocks and at least a tile ends on the view of its last
    tile's worth, overlapping the one before. Otherwise the last tile holds
    the final partial tile, zero-padded, and when iteration ends its y is
    copied into out up to out's end: the padded final block's whole output
    where out has room for it."""
    step = _step(n)
    whole = len(samples) // step * step
    for i in range(0, whole, step):
        yield samples[i : i + step].reshape(-1, n), out[i : i + step].reshape(-1, n)
    if whole and whole < len(samples) and len(samples) % n == 0:
        yield samples[-step:].reshape(-1, n), out[-step:].reshape(-1, n)
    elif whole < len(samples):
        x, y = blocks(samples[whole:], step)[1], np.empty(step)
        yield x.reshape(-1, n), y.reshape(-1, n)
        out[whole:] = y[: len(out) - whole]


def halves(apply, samples: np.ndarray, out: np.ndarray, n: int, *args) -> None:
    """Run apply(samples, out, n, *args), a function that writes each length-n
    block of samples into out one tile of `tiles` at a time. For n up to
    DENSE_BLOCK, where a tile is one matrix product that releases the GIL, a
    record of at least two whole tiles is cut in two when _parallel() holds:
    cut is half its tiles, the last partial one counted, rounded down.
    samples[:cut], whole tiles only, which allocate nothing, so the helper
    holds no memory of its own, runs on a helper thread in this thread's
    context (numpy's error state), and samples[cut:] here. Both parts are
    tiled as the whole record is, so the output has the same bits. An
    exception in either part is raised here once both have finished."""
    step = _step(n) if n <= DENSE_BLOCK else 0  # _step rejects n < 1
    if not (step and len(samples) >= 2 * step and _parallel()):
        apply(samples, out, n, *args)
        return
    cut = -(-len(samples) // step) // 2 * step
    run = contextvars.copy_context().run
    done = _submit((run, apply, samples[:cut], out[:cut], n, *args))
    try:
        apply(samples[cut:], out[cut:], n, *args)
    finally:
        error = done.get()
    if error is not None:
        raise error


@functools.cache
def _openblas_threads():
    """The thread-count getter of numpy's bundled OpenBLAS (a Linux wheel's
    numpy.libs), or None where there is none."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        [name] = [f for f in os.listdir(libs) if f.startswith("libscipy_openblas64_")]
        getter = ctypes.CDLL(os.path.join(libs, name)).scipy_openblas_get_num_threads64_
    except (OSError, ValueError, AttributeError):
        return None
    getter.argtypes, getter.restype = [], ctypes.c_int
    return getter


def _parallel() -> bool:
    """Whether a second core is free for half a record: the process may run
    on two CPUs or more and numpy's OpenBLAS runs one thread, read per call
    because it can change at run time."""
    threads = _openblas_threads()
    return threads is not None and threads() == 1 and len(os.sched_getaffinity(0)) > 1


# The helper thread of `halves` and its queue of jobs, started on first use
_helper: threading.Thread | None = None
_jobs = None
_start = threading.Lock()


def _submit(job: tuple):
    """Put job, (function, *args), on the helper thread, started on first use
    and again in a forked child, which has lost it. Return the queue that then
    gets the exception the call raised, or None."""
    global _helper, _jobs
    from _queue import SimpleQueue  # `queue` and concurrent.futures cost ms

    done = SimpleQueue()
    with _start:
        if _helper is None or not _helper.is_alive():
            _jobs = SimpleQueue()
            _helper = threading.Thread(
                target=_serve, args=(_jobs,), name="rpt-halves", daemon=True
            )
            _helper.start()
        _jobs.put((job, done))
    return done


def _serve(jobs) -> None:
    while True:
        (fn, *args), done = jobs.get()
        try:
            fn(*args)
        except BaseException as exc:  # re-raised by the caller
            done.put(exc)
        else:
            done.put(None)


def read_csv(path: str | Path, column: int = 0, fs: float = 360.0) -> Signal:
    """Parse one column of a comma-separated numeric file.

    np.loadtxt parses the file in one pass. A file it rejects or finds empty
    is parsed again line by line: that parse accepts what float() accepts and
    names the line of the first error.
    """
    if column < 0:
        raise ValueError(f"column must be non-negative, got {column}")
    try:
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
    except UnicodeDecodeError as exc:
        # the decoder's offset counts from the start of a chunk, not the file
        raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
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


def table(header: str, row: str, values: list) -> str:
    """header, then row once per record, filled in one % call from flat values;
    row holds one % field per column and no literal %."""
    return header + (row * (len(values) // row.count("%"))) % tuple(values)


def write_csv(signal: Signal, path: str | Path) -> None:
    """One sample per line, 17 significant digits (round-trip exact)."""
    if len(signal) == 0:
        raise ValueError("refusing to write an empty signal")
    Path(path).write_text(table("", "%.17g\n", signal.samples.tolist()), "utf-8")


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
    # int16 holds every 12-bit field and moves a quarter of int64's bytes; the
    # baseline, up to 2**53, is subtracted in int64
    frames = raw.reshape(-1, 3).astype(np.int16)
    nibbles = frames[:, 1:2] & np.int16([0x0F, 0xF0])
    pair = frames[:, ::2] | (nibbles << np.int16([8, 4]))  # columns s1, s2
    samples = (((pair + 2048) & 4095) - 2048).reshape(-1)[select::channels]
    with np.errstate(over="ignore"):  # a tiny gain overflows; Signal rejects inf
        physical = (samples.astype(np.int64) - baseline) / gain
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
    n_samples = int(round(duration * fs))
    if n_samples == 0:
        raise ValueError(f"duration {duration} s at {fs} Hz gives no samples")
    if not 20 <= heart_rate <= 240:
        raise ValueError(f"heart rate {heart_rate} bpm outside [20, 240]")
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
