"""compare_grid scores both block operators straight from the padded rows:
the same per-block errors as running each operator on the padded record,
with one reused output buffer and no record-sized intermediates."""

import tracemalloc

import numpy as np
import pytest

from rpt.io import Signal, add_sinusoid
from rpt.metrics import compare_grid
from rpt.notch import design_notch, filter_blocked
from rpt.suppress import SuppressionConfig, run

FS = 360.0
Q = 1.0


def record(length, f0, seed=3):
    clean = Signal(samples=np.random.default_rng(seed).normal(size=length), fs=FS)
    return clean, add_sinusoid(clean, f0, 0.5, phase=0.3)


def padded_rows(x, n):
    padded = np.zeros(-(-len(x) // n) * n)
    padded[: len(x)] = x
    return padded.reshape(-1, n)


def composed_errors(clean, dirty, n, f0):
    """Per-block errors from run and filter_blocked on the flattened padded
    dirty record, minus the padded clean rows."""
    flat = padded_rows(dirty.samples, n).reshape(-1)
    cfg = SuppressionConfig(block_size=n, interference_freqs=(f0,), fs=FS)
    outputs = {
        "rpt": run(Signal(samples=flat, fs=FS), cfg).samples,
        "notch": filter_blocked(design_notch(f0, FS, Q), flat, n),
    }
    errors = {}
    for method, out in outputs.items():
        d = padded_rows(clean.samples, n) - out.reshape(-1, n)
        errors[method] = np.einsum("ij,ij->i", d, d)
    return errors


# 30 240 is a multiple of every N below; 30 239 pads the final block
@pytest.mark.parametrize("length", [30_240, 30_239])
@pytest.mark.parametrize(
    "n, f0", [(36, 50.0), (72, 50.0), (108, 50.0), (252, 50.0), (1440, 50.0), (4, 90.0)]
)
def test_per_block_errors_equal_the_operators_on_the_padded_record(n, f0, length):
    clean, dirty = record(length, f0)
    want = composed_errors(clean, dirty, n, f0)
    reports = compare_grid(clean, dirty, [n], f0, Q)
    assert [r.method for r in reports] == ["rpt", "notch"]
    for report in reports:
        assert len(report.per_block_errors) == -(-length // n)
        assert np.array_equal(report.per_block_errors, want[report.method])


@pytest.mark.parametrize(
    "length, n, records",
    [
        (108_000, 36, 2.2),
        (108_000, 108, 2.2),  # the fold, its spectrum and the part: a record
        (108_000, 360, 2.2),
        (108_000, 1440, 2.2),
        (107_999, 36, 3.5),  # plus the padded clean and dirty copies
        (107_999, 360, 3.5),
    ],
)
def test_compare_grid_peak_memory(length, n, records):
    """One output buffer shared by both methods, and the padded copies when
    N does not divide the record."""
    clean, dirty = record(length, 50.0)
    tracemalloc.start()
    try:
        compare_grid(clean, dirty, [n], 50.0, Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= records * clean.samples.nbytes


@pytest.mark.parametrize("n", (36, 360))
def test_compare_grid_copies_no_clean_record(n):
    """The padded dirty copy and the output buffer, and no padded clean copy."""
    test_compare_grid_peak_memory(107_999, n, 2.6)


def test_empty_record_is_rejected():
    empty = Signal(samples=np.zeros(0), fs=FS)
    with pytest.raises(ValueError, match="empty signal"):
        compare_grid(empty, empty, [36], 50.0, Q)


def test_per_block_errors_past_a_tile():
    """One-row tiles; the final partial block rides padded in the grid."""
    test_per_block_errors_equal_the_operators_on_the_padded_record(
        16_416, 50.0, 107_999
    )


@pytest.mark.parametrize("n", (36, 360, 16_416))
def test_compare_grid_copies_neither_record(n):
    """The output buffer, rounded up to whole blocks, and no padded copy of
    the contaminated record: io.tiles pads the final block in its last tile."""
    test_compare_grid_peak_memory(107_999, n, 1.8)


@pytest.mark.parametrize(
    "length, records",
    [
        (108_000, 1.3),  # warm: 1.22 records, the output buffer and long-path state
        (107_999, 1.6),  # warm: 1.51-1.53, plus the padded last tile's copies
    ],
)
@pytest.mark.parametrize("n", (360, 720, 1440))
def test_compare_grid_peak_memory_at_long_blocks(length, n, records):
    """Gates that bind at grid-long-n's block sizes. A first call builds the
    cached per-size constants, which outlive it, so the call measured is the
    second."""
    clean, dirty = record(length, 50.0)
    compare_grid(clean, dirty, [n], 50.0, Q)
    test_compare_grid_peak_memory(length, n, records)
