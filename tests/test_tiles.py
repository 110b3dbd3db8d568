"""io.tiles and the bits it gives the block operators: for N up to
io.DENSE_BLOCK a block's output does not depend on where it sits in the
record or on how many blocks the record holds."""

import numpy as np
import pytest

from rpt.io import DENSE_BLOCK, Signal, tiles
from rpt.notch import design_notch, filter_blocked
from rpt.suppress import SuppressionConfig, run

# N = 35 and 36 share a tile of 448 rows; 72 takes 192
SMALL_N = (35, 36, DENSE_BLOCK)
# run's long path folds whole rows a tile at a time, which keeps a block's bits
FOLD_N = (108, 360)


def rpt_operator(n):
    """run at fs = 10 N, which puts 10 Hz on bin 1 for any N."""
    cfg = SuppressionConfig(block_size=n, interference_freqs=(10.0,), fs=10.0 * n)
    return lambda x: run(Signal(samples=x, fs=10.0 * n), cfg).samples


def notch_operator(n):
    coeffs = design_notch(50.0, 360.0, 1.0)
    return lambda x: filter_blocked(coeffs, x, n)


def first_block_patterns(apply, n, max_blocks=300):
    """The distinct bit patterns of the first block's output over records of
    1 ... max_blocks whole blocks plus 0 or 1 samples."""
    x = np.random.default_rng(n).normal(size=max_blocks * n + 1)
    return {
        apply(x[: b * n + extra])[:n].tobytes()
        for b in range(1, max_blocks + 1)
        for extra in (0, 1)
    }


@pytest.mark.parametrize("n, rows", [(1, 16_384), (35, 448), (36, 448), (72, 192)])
def test_every_tile_has_the_same_row_count(n, rows):
    for size in (1, n * rows - 1, n * rows, 2 * n * rows + n + 1):
        x = np.arange(float(size))
        out = np.full(size, np.nan)
        shapes = []
        for a, b in tiles(x, out, n):
            assert a.shape == b.shape
            shapes.append(a.shape)
            b[...] = 2 * a
        assert shapes == [(rows, n)] * -(-size // (n * rows))
        assert np.array_equal(out, 2 * x)


def test_whole_tiles_are_views_and_only_the_last_is_padded():
    x = np.random.default_rng(0).normal(size=448 * 36 * 2 + 40)
    out = np.empty_like(x)
    pairs = list(tiles(x, out, 36))
    for a, b in pairs[:2]:
        assert np.shares_memory(a, x) and np.shares_memory(b, out)
    a, b = pairs[2]
    assert not np.shares_memory(a, x) and not np.shares_memory(b, out)
    assert np.array_equal(a.reshape(-1)[:40], x[-40:])
    assert not a.reshape(-1)[40:].any()


def test_empty_record_has_no_tiles_and_zero_block_length_is_rejected():
    assert list(tiles(np.empty(0), np.empty(0), 36)) == []
    with pytest.raises(ValueError, match="block length must be positive"):
        list(tiles(np.ones(3), np.empty(3), 0))


@pytest.mark.parametrize("n", SMALL_N)
@pytest.mark.parametrize("make", [rpt_operator, notch_operator])
def test_first_block_has_one_bit_pattern_for_any_record_length(make, n):
    assert len(first_block_patterns(make(n), n)) == 1


@pytest.mark.parametrize("n", FOLD_N)
def test_fold_path_first_block_has_one_bit_pattern(n):
    assert len(first_block_patterns(rpt_operator(n), n)) == 1


@pytest.mark.parametrize(
    "make, n",
    [(make, n) for make in (rpt_operator, notch_operator) for n in SMALL_N]
    + [(rpt_operator, n) for n in FOLD_N],
)
def test_block_at_any_position_has_one_bit_pattern(make, n):
    """Every position of a record longer than a tile, or of 40 long blocks."""
    apply = make(n)
    rng = np.random.default_rng(n)
    count = 500 if n <= DENSE_BLOCK else 40
    x = rng.normal(size=count * n + 7)
    block = rng.normal(size=n)
    patterns = set()
    for pos in range(count):
        y = x.copy()
        y[pos * n : (pos + 1) * n] = block
        patterns.add(apply(y)[pos * n : (pos + 1) * n].tobytes())
    assert len(patterns) == 1


@pytest.mark.parametrize("n", SMALL_N)
@pytest.mark.parametrize("make", [rpt_operator, notch_operator])
def test_partial_block_equals_the_padded_record_trimmed(make, n):
    apply = make(n)
    for size in (n - 1, 448 * n + 1, 3 * 448 * n - 1):
        x = np.random.default_rng(size).normal(size=size)
        padded = np.zeros(-(-size // n) * n)
        padded[:size] = x
        assert np.array_equal(apply(x), apply(padded)[:size])


# 50 Hz at fs = 360 binds to the period m = 36 at these N, so the fold path
# projects a fold shorter than the block
SUB_PERIOD_N = (108, 360, 1440)


def rpt_50hz_operator(n):
    cfg = SuppressionConfig(block_size=n, interference_freqs=(50.0,), fs=360.0)
    return lambda x: run(Signal(samples=x, fs=360.0), cfg).samples


@pytest.mark.parametrize("n", SUB_PERIOD_N)
def test_fold_path_below_the_block_first_block_has_one_bit_pattern(n):
    assert len(first_block_patterns(rpt_50hz_operator(n), n)) == 1


@pytest.mark.parametrize("n", SUB_PERIOD_N)
def test_fold_path_below_the_block_block_at_any_position_has_one_bit_pattern(n):
    test_block_at_any_position_has_one_bit_pattern(rpt_50hz_operator, n)


@pytest.mark.parametrize(
    "n, rows", [(257, 63), (360, 45), (1440, 11), (7200, 2), (16_416, 1)]
)
def test_tiles_past_256_samples_hold_as_many_blocks_as_fit(n, rows):
    """io._TILE // n rows where fewer than 64 blocks fit, one past io._TILE."""
    test_every_tile_has_the_same_row_count(n, rows)


def rpt_360hz_operator(n, f0):
    cfg = SuppressionConfig(block_size=n, interference_freqs=(f0,), fs=360.0)
    return lambda x: run(Signal(samples=x, fs=360.0), cfg).samples


# 50.05 Hz binds to the period N = 7200 (the FFT branch of period_part); 50 Hz
# to the period 36 at N = 16 416, which takes one-row tiles
@pytest.mark.parametrize("n, f0", [(7200, 50.05), (16_416, 50.0)])
def test_long_block_first_block_has_one_bit_pattern(n, f0):
    apply = rpt_360hz_operator(n, f0)
    assert len(first_block_patterns(apply, n, max_blocks=20)) == 1


# Past io.DENSE_BLOCK a tile holds io._TILE // N blocks, not a multiple of 64
LONG_TILE_N = ((108, 151), (144, 113), (180, 91), (252, 65))


@pytest.mark.parametrize("n, rows", LONG_TILE_N)
def test_tiles_past_the_dense_block_hold_as_many_blocks_as_fit(n, rows):
    test_every_tile_has_the_same_row_count(n, rows)


def notch_360hz_operator(n, f0):
    coeffs = design_notch(f0, 360.0, 1.0)
    return lambda x: filter_blocked(coeffs, x, n)


def tile_rows(n):
    """The row count of every tile of length-n blocks."""
    return len(next(tiles(np.empty(n), np.empty(n), n))[0])


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


# 50, 60 and 90 Hz bind to the periods 36, 6 and 4 at fs = 360
@pytest.mark.parametrize("f0", [50.0, 60.0, 90.0])
@pytest.mark.parametrize("n", [n for n, _ in LONG_TILE_N])
@pytest.mark.parametrize("make", [rpt_360hz_operator, notch_360hz_operator])
def test_long_block_at_any_position_past_two_tiles_has_one_bit_pattern(make, n, f0):
    count = 2 * tile_rows(n) + 3
    assert len(position_patterns(make(n, f0), n, count, 7)) == 1


@pytest.mark.parametrize("n", [108, 360, 1440])
def test_notch_long_block_first_block_has_one_bit_pattern(n):
    assert len(first_block_patterns(notch_operator(n), n)) == 1


# 3276 takes two groups of sub-blocks in tiles of 5 rows
@pytest.mark.parametrize("n", [108, 360, 1440, 3276])
def test_notch_long_block_at_any_position_past_two_tiles_has_one_bit_pattern(n):
    count = 2 * tile_rows(n) + 3
    assert len(position_patterns(notch_operator(n), n, count, 7)) == 1


# N past io.DENSE_BLOCK up to io._TILE: a partial last sub-block (73, 145),
# several groups of sub-blocks (2340, 7200) and one-row tiles (16 384)
@pytest.mark.parametrize("n", [73, 108, 145, 360, 1440, 2340, 7200, 16_384])
def test_notch_partial_block_equals_the_padded_record_trimmed(n):
    apply, rows = notch_operator(n), tile_rows(n)
    for size in (n - 1, rows * n + 1, 3 * rows * n - 1):
        x = np.random.default_rng(size).normal(size=size)
        padded = np.zeros(-(-size // n) * n)
        padded[:size] = x
        assert np.array_equal(apply(x), apply(padded)[:size])


@pytest.mark.parametrize("n", SMALL_N)
@pytest.mark.parametrize("make", [rpt_operator, notch_operator])
def test_block_at_any_position_of_whole_blocks_past_a_tile_has_one_bit_pattern(
    make, n
):
    """The last tile overlaps the one before it and computes its rows again."""
    assert len(position_patterns(make(n), n, 1000, 0)) == 1


def test_a_whole_block_record_ends_with_an_overlapping_view():
    x = np.random.default_rng(0).normal(size=1000 * 36)
    out = np.empty_like(x)
    pairs = list(tiles(x, out, 36))
    assert [len(a) for a, _ in pairs] == [448, 448, 448]
    a, b = pairs[-1]
    assert np.shares_memory(a, x) and np.shares_memory(b, out)
    assert np.array_equal(a.reshape(-1), x[-448 * 36 :])


@pytest.mark.parametrize("n", [-1, -36, -360])
def test_negative_block_size_is_rejected_by_the_notch(n):
    with pytest.raises(ValueError, match="block length must be positive"):
        notch_operator(n)(np.ones(10))


# 100 Hz, the 50 Hz mains' second harmonic, binds to the period 18 at fs = 360
@pytest.mark.parametrize("n", [108, 144, 252, 360, 720, 1440])
@pytest.mark.parametrize("make", [rpt_360hz_operator, notch_360hz_operator])
def test_long_block_at_any_position_past_two_tiles_at_100_hz_has_one_bit_pattern(
    make, n
):
    count = 2 * tile_rows(n) + 3
    assert len(position_patterns(make(n, 100.0), n, count, 7)) == 1


# Past io._TILE the notch reads the final partial block unpadded: its last span
# is padded to whole groups of sub-blocks, up to that span's width in a block
@pytest.mark.parametrize("n", [16_416, 20_000, 50_000])
def test_notch_partial_block_past_a_tile_equals_the_padded_record_trimmed(n):
    apply = notch_operator(n)
    for size in (n - 1, n + 1, 2 * n + n // 3, 3 * n - 1):
        x = np.random.default_rng(size).normal(size=size)
        padded = np.zeros(-(-size // n) * n)
        padded[:size] = x
        assert np.array_equal(apply(x), apply(padded)[:size])
