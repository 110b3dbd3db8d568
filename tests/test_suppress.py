"""Window masks, per-block suppression, and whole-signal runs."""

import numpy as np
import pytest

from rpt.io import Signal
from rpt.suppress import (
    ConfigurationError,
    SuppressionConfig,
    admissible_hint,
    make_mask,
    run,
    suppress_block,
)
from rpt.transform import build_plan, project
from rpt.ramanujan import euler_totient
from rpt.transform import bin_periods, space_for_frequency


@pytest.fixture(scope="module")
def plan36():
    return build_plan(36)


def tone(n_samples, f0=50.0, fs=360.0, amplitude=1.0, phase=0.0):
    n = np.arange(n_samples)
    return amplitude * np.sin(2 * np.pi * f0 * n / fs + phase)


class TestMakeMask:
    def test_n36_pattern(self, plan36):
        mask = make_mask(plan36, {36})
        assert mask.gains.tolist() == [1.0] * 24 + [0.0] * 12

    def test_empty_targets(self, plan36):
        assert make_mask(plan36, set()).gains.tolist() == [1.0] * 36

    def test_n72_target_36(self):
        plan = build_plan(72)
        mask = make_mask(plan, {36})
        rng = plan.layout[36]
        assert (mask.gains == 0).sum() == 12
        assert not mask.gains[rng.start : rng.stop].any()

    def test_rejects_non_divisor(self, plan36):
        with pytest.raises(ValueError):
            make_mask(plan36, {5})


class TestSuppressBlock:
    def test_removes_pure_tone(self, plan36):
        mask = make_mask(plan36, {36})
        for amplitude, phase in [(1.0, 0.0), (0.3, 1.1), (7.0, -2.0)]:
            x = tone(36, amplitude=amplitude, phase=phase)
            out = suppress_block(plan36, mask, x)
            assert np.linalg.norm(out) < 1e-9 * np.linalg.norm(x)

    def test_passes_untargeted_signal(self, plan36):
        mask = make_mask(plan36, {36})
        x = np.tile([1.0, -1.0, 0.5], 12)  # period 3, no V36 content
        x = project(plan36, x, 3)
        out = suppress_block(plan36, mask, x)
        assert np.abs(out - x).max() < 1e-9

    def test_all_ones_mask_round_trips(self, plan36):
        mask = make_mask(plan36, set())
        rng = np.random.default_rng(2)
        x = rng.normal(size=36)
        assert np.abs(suppress_block(plan36, mask, x) - x).max() < 1e-9

    def test_equals_projection_subtraction(self, plan36):
        mask = make_mask(plan36, {36, 4})
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(size=36)
            want = x - project(plan36, x, 36) - project(plan36, x, 4)
            got = suppress_block(plan36, mask, x)
            assert np.abs(got - want).max() < 1e-9

    def test_dimension_mismatch(self, plan36):
        mask = make_mask(build_plan(72), {36})
        with pytest.raises(ValueError):
            suppress_block(plan36, mask, np.zeros(36))


class TestRun:
    CFG = SuppressionConfig(block_size=36, interference_freqs=(50.0,), fs=360.0)

    def test_exact_removal_all_block_sizes(self):
        for n in [36, 72, 108, 144, 180]:
            x = tone(n * 20, amplitude=1.7, phase=0.9)
            cfg = SuppressionConfig(block_size=n, interference_freqs=(50.0,), fs=360.0)
            out = run(Signal(samples=x, fs=360.0), cfg)
            assert float(out.samples @ out.samples) <= 1e-12 * float(x @ x)

    def test_exact_length_no_padding_effect(self, plan36):
        rng = np.random.default_rng(4)
        x = rng.normal(size=36 * 5)
        out = run(Signal(samples=x, fs=360.0), self.CFG)
        mask = make_mask(plan36, {36})
        for i in range(5):
            blk = x[i * 36 : (i + 1) * 36]
            want = suppress_block(plan36, mask, blk)
            assert np.abs(out.samples[i * 36 : (i + 1) * 36] - want).max() < 1e-9

    def test_partial_final_block_trimmed(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=100)
        out = run(Signal(samples=x, fs=360.0), self.CFG)
        assert len(out) == 100

    def test_linearity(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=200)
        y = rng.normal(size=200)
        a, b = 2.5, -0.75
        combined = run(Signal(samples=a * x + b * y, fs=360.0), self.CFG).samples
        separate = (
            a * run(Signal(samples=x, fs=360.0), self.CFG).samples
            + b * run(Signal(samples=y, fs=360.0), self.CFG).samples
        )
        scale = np.linalg.norm(combined)
        assert np.linalg.norm(combined - separate) < 1e-9 * max(scale, 1.0)

    def test_idempotence(self):
        # whole-block lengths: suppression is a projection, so reapplying it
        # changes nothing; a trimmed partial tail re-pads differently and is
        # deliberately excluded here
        rng = np.random.default_rng(7)
        x = rng.normal(size=36 * 14)
        once = run(Signal(samples=x, fs=360.0), self.CFG)
        twice = run(once, self.CFG)
        assert np.abs(twice.samples - once.samples).max() < 1e-9

    def test_clean_plus_tone_equals_clean_minus_projection(self, plan36):
        rng = np.random.default_rng(8)
        clean = rng.normal(size=36 * 4)
        dirty = clean + tone(36 * 4, amplitude=0.8, phase=0.2)
        out = run(Signal(samples=dirty, fs=360.0), self.CFG).samples
        for i in range(4):
            blk = clean[i * 36 : (i + 1) * 36]
            want = blk - project(plan36, blk, 36)
            assert np.abs(out[i * 36 : (i + 1) * 36] - want).max() < 1e-9

    def test_unrepresentable_frequency(self):
        cfg = SuppressionConfig(block_size=35, interference_freqs=(50.0,), fs=360.0)
        with pytest.raises(ConfigurationError, match="36"):
            run(Signal(samples=np.zeros(100), fs=360.0), cfg)

    def test_fs_mismatch(self):
        with pytest.raises(ConfigurationError):
            run(Signal(samples=np.zeros(100), fs=250.0), self.CFG)

    def test_admissible_hint(self):
        assert admissible_hint(50.0, 360.0) == [36, 72, 108, 144, 180]
        assert admissible_hint(0.1, 360.0) == [3600, 7200, 10800, 14400, 18000]

    def test_multiple_frequencies(self):
        # 50 Hz and 10 Hz both live in period-36 subspaces at n=36
        cfg = SuppressionConfig(
            block_size=36, interference_freqs=(50.0, 90.0), fs=360.0
        )
        x = tone(360, f0=50.0) + tone(360, f0=90.0, amplitude=0.5)
        out = run(Signal(samples=x, fs=360.0), cfg)
        assert float(out.samples @ out.samples) <= 1e-12 * float(x @ x)


@pytest.mark.parametrize(
    "n, fs", [(35, 350.0), (45, 450.0), (360, 360.0), (720, 360.0)]
)
def test_spectral_path_matches_dense_reference(n, fs):
    # odd n has no Nyquist bin; n > 180 exercises long blocks
    plan = build_plan(n)
    rng = np.random.default_rng(n)
    x = rng.normal(size=3 * n + n // 3) + tone(3 * n + n // 3, fs=fs)
    cfg = SuppressionConfig(block_size=n, interference_freqs=(50.0,), fs=fs)
    mask = make_mask(plan, cfg.target_spaces())
    padded = np.zeros(4 * n)
    padded[: len(x)] = x
    want = np.concatenate(
        [suppress_block(plan, mask, b) for b in padded.reshape(4, n)]
    )
    out = run(Signal(samples=x, fs=fs), cfg).samples
    assert np.abs(out - want[: len(x)]).max() <= 1e-9

    blk = x[:n]
    for m, rng_m in plan.layout.items():
        cols = plan.basis[:, rng_m.start : rng_m.stop].astype(float)
        dense = cols @ np.linalg.solve(cols.T @ cols, cols.T @ blk)
        assert np.abs(project(plan, blk, m) - dense).max() <= 1e-9


class TestRemovalAt360:
    """What "remove f0" removes at fs = 360: the whole subspace f0 binds to."""

    @pytest.mark.parametrize("n", admissible_hint(50.0, 360.0))
    def test_50hz_removes_period_36(self, n):
        space = space_for_frequency(50.0, 360.0, n).space
        assert space == 36
        assert euler_totient(space) == int((bin_periods(n) == space).sum()) == 12
        bins = np.flatnonzero(bin_periods(n)[: n // 2 + 1] == space)
        assert (bins * 360.0 / n).tolist() == [10, 50, 70, 110, 130, 170]

    def test_run_removes_the_six_tones_and_passes_20hz(self):
        cfg = SuppressionConfig(block_size=36, interference_freqs=(50.0,), fs=360.0)
        six = sum(tone(360, f0=f) for f in (10.0, 50.0, 70.0, 110.0, 130.0, 170.0))
        assert np.abs(run(Signal(samples=six, fs=360.0), cfg).samples).max() < 1e-12
        x = tone(360, f0=20.0)
        out = run(Signal(samples=x, fs=360.0), cfg).samples
        assert np.abs(out - x).max() < 1e-9

    @pytest.mark.parametrize("n", admissible_hint(60.0, 360.0))
    def test_60hz_removes_period_6(self, n):
        space = space_for_frequency(60.0, 360.0, n).space
        assert space == 6
        assert euler_totient(space) == int((bin_periods(n) == space).sum()) == 2

    def test_drifted_tone_binds_at_7200(self):
        assert admissible_hint(50.05, 360.0)[0] == 7200
        space = space_for_frequency(50.05, 360.0, 7200).space
        assert space == 7200
        assert euler_totient(space) == int((bin_periods(7200) == space).sum()) == 1920
