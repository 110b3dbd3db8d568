"""The long-block operators' per-record pass: past io.DENSE_BLOCK, where a
tile holds several blocks, suppression takes every block's target parts and
the notch the state every sub-block ends in once per record, before the
tiles. A block keeps one bit pattern wherever it sits and however long the
record is, the notch matches per-block lfilter, and the per-record arrays
line up with io.tiles."""

import numpy as np
import pytest

from rpt import io
from rpt.io import Signal, tiled_blocks, tiles
from rpt.notch import design_notch, filter_blocked
from rpt.suppress import SuppressionConfig, run
from rpt.transform import period_part, record_part

FS = 360.0
METHODS = ("rpt", "notch")


def operator(method, n, f0=50.0):
    """run or filter_blocked at block size n against f0 at 360 Hz."""
    if method == "rpt":
        cfg = SuppressionConfig(block_size=n, interference_freqs=(f0,), fs=FS)
        return lambda x: run(Signal(samples=x, fs=FS), cfg).samples
    coeffs = design_notch(f0, FS, 1.0)
    return lambda x: filter_blocked(coeffs, x, n)


def tile_rows(n):
    return tiled_blocks(n, n)[0]


def position_patterns(apply, n, count, extra):
    """The distinct bit patterns of one block's output placed at each of the
    count positions of a record of count blocks plus extra samples."""
    rng = np.random.default_rng(n)
    x = rng.normal(size=count * n + extra)
    block = rng.normal(size=n)
    patterns = set()
    for pos in range(count):
        y = x.copy()
        y[pos * n : (pos + 1) * n] = block
        patterns.add(apply(y)[pos * n : (pos + 1) * n].tobytes())
    return patterns


# 2340 and 7200 carry the notch's state from one group of sub-blocks to the
# next; 50 and 100 Hz bind to the periods 36 and 18 at every one of them
@pytest.mark.parametrize("extra", ["whole", "partial"])
@pytest.mark.parametrize("f0", [50.0, 100.0])
@pytest.mark.parametrize("n", [360, 1440, 2340, 7200])
@pytest.mark.parametrize("method", METHODS)
def test_block_at_any_position_across_tiles_has_one_bit_pattern(method, n, f0, extra):
    count = 2 * tile_rows(n) + 3
    samples = 0 if extra == "whole" else n // 3
    assert len(position_patterns(operator(method, n, f0), n, count, samples)) == 1


# Records from one block to past the size at which one product over every
# block's rows would leave OpenBLAS's small-matrix kernel on SkylakeX: the
# fold product at 108 (36 x 36), the notch's end-state product at 360
# (36 x 2) and its start-state product at 720 (40 x 40), 2340 and 7200
# (several groups of sub-blocks)
@pytest.mark.parametrize("n, most", [(108, 1000), (360, 1500), (720, 700),
                                     (2340, 150), (7200, 40)])
@pytest.mark.parametrize("method", METHODS)
def test_first_block_has_one_bit_pattern_for_any_record_length(method, n, most):
    apply, rows = operator(method, n), tile_rows(n)
    x = np.random.default_rng(n).normal(size=most * n + 1)
    patterns = {
        apply(x[: b * n + extra])[:n].tobytes()
        for b in (1, 2, rows, rows + 1, most // 2, most)
        for extra in (0, 1)
    }
    assert len(patterns) == 1


@pytest.mark.parametrize("length", [1024, 15 * 1025, 15 * 1025 + 1, 50 * 1025 + 512])
@pytest.mark.parametrize("q", [0.5, 1.0, 30.0, 1000.0])
def test_notch_at_1025_matches_lfilter(q, length):
    """Tiles of 15 blocks, a short last sub-block in each block, records of
    up to three tiles and a partial block."""
    lfilter = pytest.importorskip("scipy.signal").lfilter
    n = 1025
    assert tile_rows(n) == 15
    c = design_notch(50.0, FS, q)
    x = np.random.default_rng(length).normal(size=length)
    padded = np.zeros(-(-length // n) * n)
    padded[:length] = x
    want = lfilter(c.b, c.a, padded.reshape(-1, n), axis=1).reshape(-1)[:length]
    got = filter_blocked(c, x, n)
    assert np.abs(got - want).max() <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("n", [73, 360, 1025, 7200, 8192, 16_416])
def test_tiled_blocks_line_up_with_the_tiles(n):
    rows = tile_rows(n)
    for length in (1, n - 1, n, rows * n, rows * n + 1, 3 * rows * n - 1, 3 * rows * n):
        samples = np.arange(length, dtype=float) + 1.0
        padded = np.zeros((tiled_blocks(length, n)[1], n))
        padded.reshape(-1)[:length] = samples
        count = len(padded)
        assert tiled_blocks(length, n) == (rows, count)
        out = np.empty(length)
        for i, (x, _) in enumerate(tiles(samples, out, n)):
            first = min(i * rows, count - rows)
            assert np.array_equal(x, padded[first : first + rows]), (length, i)
        assert count >= -(-length // n)


@pytest.mark.parametrize("n, m", [(108, 36), (360, 36), (360, 6), (1440, 18)])
def test_record_parts_have_the_bits_of_tile_parts(n, m):
    """One record's parts, zero past its blocks, equal each tile's own."""
    rows = tile_rows(n)
    length = 3 * rows * n + n // 2
    samples = np.random.default_rng(n).normal(size=length)
    _, count = tiled_blocks(length, n)
    parts = record_part(samples, n, m, count)
    assert parts.shape == (count, m)
    assert not parts[-(-length // n) :].any()
    out = np.empty(length)
    for i, (x, _) in enumerate(tiles(samples, out, n)):
        first = min(i * rows, count - rows)
        assert np.array_equal(parts[first : first + rows], period_part(x, m))


@pytest.mark.parametrize("width", [2, 18, 36, 72])
def test_record_product_gives_every_row_the_bits_of_a_16_row_product(width):
    """At every length, past 10^6 multiply-adds too, and at chunk ends."""
    rng = np.random.default_rng(width)
    op = rng.normal(size=(36, width))
    x = rng.normal(size=(30_000, 36))  # past 10^6 multiply-adds at every width
    want = np.concatenate([x[i : i + 16] @ op for i in range(0, len(x) - 15, 16)])
    for rows in (16, 64, 512, 8192, len(x) // 16 * 16):
        out = np.empty((rows, width))
        io._record_product(x[:rows], op, out)
        assert np.array_equal(out, want[:rows]), rows


# Blocks of 8 193 to 16 384 samples, one to a tile, take the per-record pass
# too; longer ones go span by span
@pytest.mark.parametrize("n", [8193, 16_384])
def test_notch_one_block_tiles_keep_one_bit_pattern(n):
    apply = operator("notch", n)
    assert tile_rows(n) == 1
    assert len(position_patterns(apply, n, 5, n // 3)) == 1
    x = np.random.default_rng(n).normal(size=4 * n + 1)
    first = {apply(x[: b * n + e])[:n].tobytes() for b in (1, 2, 4) for e in (0, 1)}
    assert len(first) == 1
