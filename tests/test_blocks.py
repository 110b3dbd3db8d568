"""The whole-block view and padded tail of io.blocks, as both block operators
use them: one output array per call, and the same blocks as zero-padding the
whole record."""

import tracemalloc

import numpy as np
import pytest

from rpt.io import DENSE_BLOCK, Signal, blocks
from rpt.notch import design_notch, filter_blocked
from rpt.suppress import SuppressionConfig, make_mask, run, suppress_block
from rpt.transform import build_plan

EDGE_N = (36, DENSE_BLOCK, DENSE_BLOCK + 1, 360)


def edge_lengths(n):
    """An empty whole-block view (1, n - 1), an empty tail (n, 3n), both (3n + 1)."""
    return sorted({1, n - 1, n, 3 * n, 3 * n + 1})


def padded_blocks(x, n):
    padded = np.zeros(-(-len(x) // n) * n)
    padded[: len(x)] = x
    return padded.reshape(-1, n)


@pytest.mark.parametrize("n", EDGE_N)
def test_split_views_whole_blocks_and_pads_only_the_tail(n):
    for size in edge_lengths(n):
        x = np.random.default_rng(size).normal(size=size)
        whole, tail = blocks(x, n)
        assert np.shares_memory(whole, x) or whole.size == 0
        assert whole.shape == (size // n, n) and tail.shape == (int(size % n > 0), n)
        assert np.array_equal(np.concatenate((whole, tail)), padded_blocks(x, n))


@pytest.mark.parametrize("n", EDGE_N)
def test_run_matches_coefficient_view_at_edge_lengths(n):
    # fs = 10 N puts 10 Hz on bin 1: the whole period-N subspace
    fs = 10.0 * n
    cfg = SuppressionConfig(block_size=n, interference_freqs=(10.0,), fs=fs)
    plan = build_plan(n)
    mask = make_mask(plan, cfg.target_spaces())
    for size in edge_lengths(n):
        x = np.random.default_rng(size).normal(size=size)
        want = [suppress_block(plan, mask, b) for b in padded_blocks(x, n)]
        got = run(Signal(samples=x, fs=fs), cfg).samples
        assert got.shape == x.shape
        err = np.abs(got - np.concatenate(want)[:size]).max()
        assert err <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("n", EDGE_N)
def test_filter_blocked_matches_lfilter_at_edge_lengths(n):
    lfilter = pytest.importorskip("scipy.signal").lfilter
    c = design_notch(50.0, 360.0, 1.0)
    for size in edge_lengths(n):
        x = np.random.default_rng(size).normal(size=size)
        want = lfilter(c.b, c.a, padded_blocks(x, n), axis=1).reshape(-1)[:size]
        got = filter_blocked(c, x, n)
        assert got.shape == x.shape
        assert np.abs(got - want).max() <= 1e-12 * np.linalg.norm(x)


def test_block_size_zero_is_rejected_by_both_operators():
    x = np.ones(10)
    cfg = SuppressionConfig(block_size=0, interference_freqs=(50.0,), fs=360.0)
    with pytest.raises(ValueError, match="block length must be positive"):
        run(Signal(samples=x, fs=360.0), cfg)
    with pytest.raises(ValueError, match="block length must be positive"):
        filter_blocked(design_notch(50.0, 360.0, 1.0), x, 0)


@pytest.mark.parametrize("n", [36, 72])
@pytest.mark.parametrize("operator", ["run", "filter_blocked"])
def test_peak_memory_one_record(operator, n):
    """The output array alone: no padded copy of the input, no trimmed copy."""
    x = np.random.default_rng(17).normal(size=524_288)
    sig = Signal(samples=x, fs=360.0)
    cfg = SuppressionConfig(block_size=n, interference_freqs=(50.0,), fs=360.0)
    coeffs = design_notch(50.0, 360.0, 1.0)
    tracemalloc.start()
    try:
        if operator == "run":
            run(sig, cfg)
        else:
            filter_blocked(coeffs, x, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * x.nbytes


def test_filter_blocked_pads_no_final_block():
    """One whole block and a one-sample final block: the output alone, as
    for filter_block on the whole block."""
    x = np.random.default_rng(17).normal(size=524_288)
    coeffs = design_notch(50.0, 360.0, 1.0)
    tracemalloc.start()
    try:
        filter_blocked(coeffs, x, 524_287)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * x.nbytes


def test_split_takes_one_sample_blocks_and_rejects_shorter():
    whole, tail = blocks(np.arange(3.0), 1)
    assert whole.shape == (3, 1) and tail.shape == (0, 1)
    with pytest.raises(ValueError, match="block length must be positive"):
        blocks(np.arange(3.0), 0)


def test_split_gives_float_blocks_of_integer_samples():
    whole, tail = blocks([1, 2, 3], 2)
    assert whole.dtype == tail.dtype == float
    assert np.array_equal(whole, [[1.0, 2.0]]) and np.array_equal(tail, [[3.0, 0.0]])
