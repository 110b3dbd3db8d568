"""Biquad notch design and block-wise filtering."""

import tracemalloc

import numpy as np
import pytest

from rpt.notch import design_notch, filter_block, filter_blocked


@pytest.fixture(scope="module")
def coeffs():
    return design_notch(50.0, 360.0, 1.0)


class TestDesign:
    def test_null_at_f0(self, coeffs):
        assert coeffs.magnitude(50.0) < 1e-12

    def test_unity_at_dc_and_nyquist(self, coeffs):
        assert abs(coeffs.magnitude(0.0) - 1.0) < 1e-9
        assert abs(coeffs.magnitude(180.0) - 1.0) < 1e-9

    def test_stable(self, coeffs):
        assert -1.0 < coeffs.a2 < 1.0
        poles = np.roots(coeffs.a)
        assert np.abs(poles).max() < 1.0

    def test_bandwidth(self, coeffs):
        # dense sweep of the sampled magnitude response
        f = np.linspace(0.01, 179.99, 200001)
        mag = np.array([coeffs.magnitude(x) for x in f])
        below = f[mag < 1.0 / np.sqrt(2.0)]
        width = below.max() - below.min()
        assert abs(width - 50.0) <= 5.0
        assert below.min() < 50.0 < below.max()

    def test_rejects_bad_f0(self):
        with pytest.raises(ValueError):
            design_notch(0.0, 360.0, 1.0)
        with pytest.raises(ValueError):
            design_notch(180.0, 360.0, 1.0)
        with pytest.raises(ValueError):
            design_notch(50.0, 360.0, 0.0)
        with pytest.raises(ValueError, match="quality factor"):
            design_notch(50.0, 360.0, float("nan"))


class TestFilterBlock:
    def test_zero_in_zero_out(self, coeffs):
        assert not filter_block(coeffs, np.zeros(100)).any()

    def test_steady_state_tone_rejection(self, coeffs):
        fs = 360.0
        n = np.arange(int(40 * fs))
        x = np.sin(2 * np.pi * 50.0 * n / fs)
        y = filter_block(coeffs, x)
        tail = y[len(y) // 2 :]
        in_rms = np.sqrt(np.mean(x**2))
        assert np.sqrt(np.mean(tail**2)) < 1e-6 * in_rms

    def test_impulse_response_head(self, coeffs):
        y = filter_block(coeffs, np.array([1.0, 0.0, 0.0]))
        b0, b1, b2 = coeffs.b0, coeffs.b1, coeffs.b2
        a1, a2 = coeffs.a1, coeffs.a2
        want = [b0, b1 - b0 * a1, b2 - b1 * a1 - b0 * (a2 - a1 * a1)]
        assert np.abs(y - want).max() < 1e-12

    def test_linearity(self, coeffs):
        rng = np.random.default_rng(11)
        x = rng.normal(size=300)
        y = rng.normal(size=300)
        lhs = filter_block(coeffs, 2.0 * x - 3.0 * y)
        rhs = 2.0 * filter_block(coeffs, x) - 3.0 * filter_block(coeffs, y)
        assert np.abs(lhs - rhs).max() < 1e-12 * max(np.abs(rhs).max(), 1.0)

    def test_time_invariance(self, coeffs):
        rng = np.random.default_rng(12)
        x = rng.normal(size=200)
        delayed = np.concatenate([np.zeros(10), x])
        y = filter_block(coeffs, x)
        yd = filter_block(coeffs, delayed)
        assert np.abs(yd[10:] - y).max() < 1e-12


class TestFilterBlocked:
    def test_state_reset_differs_from_single_pass(self, coeffs):
        rng = np.random.default_rng(13)
        x = rng.normal(size=72)
        single = filter_block(coeffs, x)
        blocked = filter_blocked(coeffs, x, 36)
        assert np.abs(single - blocked).max() > 1e-6

    def test_blocked_equals_independent_blocks(self, coeffs):
        rng = np.random.default_rng(14)
        x = rng.normal(size=108)
        blocked = filter_blocked(coeffs, x, 36)
        for i in range(3):
            blk = filter_block(coeffs, x[i * 36 : (i + 1) * 36])
            assert np.abs(blocked[i * 36 : (i + 1) * 36] - blk).max() < 1e-12

    def test_partial_final_block(self, coeffs):
        rng = np.random.default_rng(15)
        x = rng.normal(size=50)
        out = filter_blocked(coeffs, x, 36)
        assert len(out) == 50
        tail = filter_block(coeffs, np.concatenate([x[36:], np.zeros(22)]))
        assert np.abs(out[36:] - tail[:14]).max() < 1e-12


QS = (0.1, 0.5, 1.0, 10.0, 100.0, 1000.0)
F0S = (1.0, 50.0, 179.0)
ORACLE_RECORD = np.random.default_rng(16).normal(size=3000)


def _designs():
    for q in QS:
        for f0 in F0S:
            try:
                yield design_notch(f0, 360.0, q)
            except ValueError:  # bandwidth too wide for this f0
                continue


class TestAgainstLfilter:
    """scipy's lfilter, run on each zero-padded block, is the oracle."""

    @pytest.mark.parametrize(
        "block_size", [1, 2, 3, 36, 71, 72, 73, 1440, len(ORACLE_RECORD)]
    )
    @pytest.mark.parametrize("c", list(_designs()), ids=lambda c: f"{c.f0}Hz-Q{c.q}")
    def test_filter_blocked(self, c, block_size):
        lfilter = pytest.importorskip("scipy.signal").lfilter
        x = ORACLE_RECORD
        padded = np.zeros(-(-len(x) // block_size) * block_size)
        padded[: len(x)] = x
        want = lfilter(c.b, c.a, padded.reshape(-1, block_size), axis=1)
        want = want.reshape(-1)[: len(x)]
        got = filter_blocked(c, x, block_size)
        assert got.shape == x.shape
        assert np.abs(got - want).max() <= 1e-12 * np.linalg.norm(x)

    @pytest.mark.parametrize("c", list(_designs()), ids=lambda c: f"{c.f0}Hz-Q{c.q}")
    def test_filter_block(self, c):
        lfilter = pytest.importorskip("scipy.signal").lfilter
        x = ORACLE_RECORD
        got = filter_block(c, x)
        assert np.abs(got - lfilter(c.b, c.a, x)).max() <= 1e-12 * np.linalg.norm(x)

    def test_empty_block(self, coeffs):
        assert filter_block(coeffs, np.zeros(0)).shape == (0,)
        assert filter_blocked(coeffs, np.zeros(0), 36).shape == (0,)


def test_peak_memory_two_records(coeffs):
    """Input blocks and output, as with lfilter; no third record-sized array."""
    x = np.random.default_rng(17).normal(size=524_288)
    tracemalloc.start()
    try:
        filter_blocked(coeffs, x, 36)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * x.nbytes


@pytest.mark.parametrize("block_size", [108, 144, 145, 180])  # last sub-block 36, 72, 1, 36
@pytest.mark.parametrize(
    "extra",
    [(0, 1), (1, -1), (1, 0), (3, 0), (3, 1)],
    ids=["1", "N-1", "N", "3N", "3N+1"],
)
@pytest.mark.parametrize("c", list(_designs()), ids=lambda c: f"{c.f0}Hz-Q{c.q}")
def test_short_last_sub_block_matches_lfilter(c, block_size, extra):
    """Blocks that io.DENSE_BLOCK does not divide, at record lengths that give
    every block, the partial final one included, a short last sub-block."""
    lfilter = pytest.importorskip("scipy.signal").lfilter
    length = extra[0] * block_size + extra[1]
    x = ORACLE_RECORD[:length]
    padded = np.zeros(-(-length // block_size) * block_size)
    padded[:length] = x
    want = lfilter(c.b, c.a, padded.reshape(-1, block_size), axis=1)
    got = filter_blocked(c, x, block_size)
    assert got.shape == x.shape
    assert np.abs(got - want.reshape(-1)[:length]).max() <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("block_size", [108, 180, 360, 1440])
def test_long_block_peak_memory(coeffs, block_size):
    """The output and one sub-block's carried-state term: no padded copy of
    the blocks and no second output for the partial final block."""
    x = np.random.default_rng(17).normal(size=524_288)
    tracemalloc.start()
    try:
        filter_blocked(coeffs, x, block_size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * x.nbytes


LONG_QS = (0.5, 1.0, 30.0, 1000.0)
LONG_RECORD = np.random.default_rng(18).normal(size=108_000)


@pytest.mark.parametrize("block_size", [2305, 2340, 7200])  # 2305 = 36 * 64 + 1
@pytest.mark.parametrize("tail", [0, 1037], ids=["whole", "partial"])
@pytest.mark.parametrize("q", LONG_QS)
def test_blocks_of_several_sub_block_groups_match_lfilter(q, block_size, tail):
    """Blocks whose sub-blocks take more than one product to get their start
    states, so the state is carried from one group of sub-blocks to the next."""
    lfilter = pytest.importorskip("scipy.signal").lfilter
    c = design_notch(50.0, 360.0, q)
    length = 3 * block_size + tail
    x = LONG_RECORD[:length]
    padded = np.zeros(-(-length // block_size) * block_size)
    padded[:length] = x
    want = lfilter(c.b, c.a, padded.reshape(-1, block_size), axis=1)
    got = filter_blocked(c, x, block_size)
    assert got.shape == x.shape
    assert np.abs(got - want.reshape(-1)[:length]).max() <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("length", [108_000, 107_999])  # the second one padded
@pytest.mark.parametrize("q", LONG_QS)
def test_filter_block_on_a_long_record_matches_lfilter(q, length):
    """One block longer than a tile, with the state carried between tiles."""
    lfilter = pytest.importorskip("scipy.signal").lfilter
    c = design_notch(50.0, 360.0, q)
    x = LONG_RECORD[:length]
    got = filter_block(c, x)
    assert np.abs(got - lfilter(c.b, c.a, x)).max() <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("block_size", [2340, 7200])
def test_several_group_block_peak_memory(coeffs, block_size):
    """Temporaries stay within one tile of whole blocks."""
    x = np.random.default_rng(17).normal(size=524_288)
    tracemalloc.start()
    try:
        filter_blocked(coeffs, x, block_size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * x.nbytes


def test_filter_block_peak_memory(coeffs):
    """A block longer than a tile is filtered a few groups of sub-blocks at a
    time, the last tile zero-padded: 36 does not divide the length."""
    x = np.random.default_rng(17).normal(size=524_287)
    tracemalloc.start()
    try:
        filter_block(coeffs, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * x.nbytes


@pytest.mark.parametrize("f0", [0.0, 180.0, 200.0])
def test_design_names_a_frequency_outside_the_band(f0):
    with pytest.raises(ValueError, match=f"notch frequency {f0} Hz outside"):
        design_notch(f0, 360.0, 1.0)


@pytest.mark.parametrize("f0", [0.5, 150.0])
def test_design_takes_a_frequency_below_1_hz_and_above_a_third_of_fs(f0):
    assert design_notch(f0, 360.0, 10.0).magnitude(f0) < 1e-9


# at 90 Hz and fs = 360 Hz, w0 / (2 Q) reaches pi / 2 exactly at Q = 0.5
@pytest.mark.parametrize("q", [0.4, 0.5])
def test_design_rejects_a_band_that_reaches_nyquist(q):
    with pytest.raises(ValueError, match="too wide"):
        design_notch(90.0, 360.0, q)


def test_design_takes_the_widest_band_below_nyquist():
    assert design_notch(90.0, 360.0, 0.6).magnitude(90.0) < 1e-9
