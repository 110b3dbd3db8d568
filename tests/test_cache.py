"""The per-size constants (plans, bin periods, the dense RPT operator and the
notch's sub-block matrices) are built once per key and shared: a cached one
equals a fresh build, a warm call gives the same bits as a cold one, whatever
came before it, every shared array is read-only, and each cache is bounded."""

import dataclasses

import numpy as np
import pytest

from rpt.io import _CACHE_SIZE, Signal
from rpt.notch import _state_maps
from rpt.notch import _sub_block_operators, design_notch, filter_blocked
from rpt.suppress import SuppressionConfig, _dense_operator, run
from rpt.ramanujan import circulant
from rpt.transform import FrequencyNotRepresentable, bin_periods, build_plan
from rpt.transform import energy_spectrum, float_circulant, space_for_frequency

FS = 360.0
CACHES = (build_plan, bin_periods, _dense_operator, _sub_block_operators)
SIZES = (36, 72, 108, 360, 1440)


def clear_caches():
    for cache in CACHES:
        cache.cache_clear()


def record(length, seed=0):
    """Noise plus a 50 Hz and a 60 Hz tone."""
    t = np.arange(length) / FS
    noise = np.random.default_rng(seed).normal(size=length)
    return noise + 0.5 * np.sin(2 * np.pi * 50 * t) + 0.3 * np.cos(2 * np.pi * 60 * t)


# 7 whole blocks and a partial one at every size in SIZES
X = record(7 * 1440 + 13)


def outputs(n, freqs=(50.0,), q=1.0):
    """run, filter_blocked and energy_spectrum at block size n, as bytes."""
    cfg = SuppressionConfig(block_size=n, interference_freqs=freqs, fs=FS)
    cleaned = run(Signal(samples=X, fs=FS), cfg).samples
    notched = filter_blocked(design_notch(50.0, FS, q), X, n)
    spectrum = energy_spectrum(build_plan(n), X[n : 2 * n])
    return cleaned.tobytes(), notched.tobytes(), spectrum


@pytest.mark.parametrize("n", [*range(1, 201), 360, 720, 1440, 5040])
def test_cached_plan_and_bin_periods_equal_a_fresh_build(n):
    plan, fresh = build_plan(n), build_plan.__wrapped__(n)
    assert plan.n == fresh.n and plan.divisors == fresh.divisors
    assert dict(plan.layout) == dict(fresh.layout)
    assert plan.norm_scales.dtype == fresh.norm_scales.dtype
    assert np.array_equal(plan.norm_scales, fresh.norm_scales)
    periods, fresh_periods = bin_periods(n), bin_periods.__wrapped__(n)
    assert periods.dtype == fresh_periods.dtype
    assert np.array_equal(periods, fresh_periods)


def test_cold_warm_and_interleaved_calls_give_the_same_bits():
    cold = {}
    for n in SIZES:
        clear_caches()
        cold[n] = outputs(n)
    clear_caches()
    # each size after the others' entries, then again with its own
    for _ in range(2):
        for n in SIZES:
            assert outputs(n) == cold[n], n


@pytest.mark.parametrize("n", (36, 360))
def test_alternating_notch_designs_give_each_designs_bits(n):
    alone = {}
    for q in (1.0, 30.0):
        clear_caches()
        alone[q] = filter_blocked(design_notch(50.0, FS, q), X, n).tobytes()
    assert alone[1.0] != alone[30.0]
    for q in (1.0, 30.0, 1.0, 30.0):
        assert filter_blocked(design_notch(50.0, FS, q), X, n).tobytes() == alone[q]


@pytest.mark.parametrize("n", (36, 360))
def test_alternating_target_sets_give_each_sets_bits(n):
    alone = {}
    for freqs in ((50.0,), (50.0, 60.0)):
        clear_caches()
        alone[freqs] = outputs(n, freqs)[0]
    assert alone[(50.0,)] != alone[(50.0, 60.0)]
    for freqs in ((50.0,), (50.0, 60.0), (50.0,), (50.0, 60.0)):
        assert outputs(n, freqs)[0] == alone[freqs]


def cached_arrays():
    outputs(36)
    c = design_notch(50.0, FS, 1.0)
    return [
        build_plan(36).norm_scales,
        bin_periods(36),
        _dense_operator(36, frozenset({36})),
        *_sub_block_operators(c.b0, c.b1, c.b2, c.a1, c.a2, 36),
    ]


@pytest.mark.parametrize("index", range(7))
def test_writing_into_a_cached_array_raises(index):
    array = cached_arrays()[index]
    with pytest.raises(ValueError, match="read-only"):
        array[(0,) * array.ndim] = 1.0


def test_plan_layout_is_read_only():
    with pytest.raises(TypeError):
        build_plan(36).layout[36] = range(0)


def test_caches_stay_within_the_bound_after_100_sizes():
    clear_caches()
    x, coeffs = X[:250], design_notch(50.0, FS, 1.0)
    for n in range(1, 101):
        # 0 Hz binds at every block size, to the period-1 subspace
        cfg = SuppressionConfig(block_size=n, interference_freqs=(0.0,), fs=FS)
        run(Signal(samples=x, fs=FS), cfg)
        filter_blocked(coeffs, x, n)
        energy_spectrum(build_plan(n), x[:n])
    for cache in CACHES:
        info = cache.cache_info()
        assert info.maxsize == _CACHE_SIZE and info.currsize == _CACHE_SIZE
        assert info.misses >= 72  # sizes up to io.DENSE_BLOCK for the operators


def test_state_map_cache_stays_within_the_bound_after_100_designs():
    _state_maps.cache_clear()
    for q in np.linspace(0.5, 50.0, 100):
        filter_blocked(design_notch(50.0, FS, q), X[:800], 360)
    info = _state_maps.cache_info()
    assert info.maxsize == _CACHE_SIZE and info.currsize == _CACHE_SIZE


@pytest.mark.parametrize("index", range(2))
def test_writing_into_a_state_map_raises(index):
    c = design_notch(50.0, FS, 1.0)
    filter_blocked(c, X, 360)
    array = _state_maps(c.b0, c.b1, c.b2, c.a1, c.a2, 36)[index]
    with pytest.raises(ValueError, match="read-only"):
        array[(0,) * array.ndim] = 1.0


def test_binding_cache_stays_within_the_bound_and_equals_a_fresh_binding():
    space_for_frequency.cache_clear()
    for n in range(36, 36 * 101, 36):  # 50 Hz at 360 Hz binds at every n
        binding = space_for_frequency(50.0, FS, n)
        assert binding == space_for_frequency.__wrapped__(50.0, FS, n)
        assert space_for_frequency(50.0, FS, n) is binding
    info = space_for_frequency.cache_info()
    assert info.maxsize == _CACHE_SIZE and info.currsize == _CACHE_SIZE


def test_a_frequency_with_no_bin_raises_on_every_call():
    space_for_frequency.cache_clear()
    for _ in range(3):
        with pytest.raises(FrequencyNotRepresentable):
            space_for_frequency(50.0, FS, 35)
    assert space_for_frequency.cache_info().currsize == 0


@pytest.mark.parametrize("m", (1, 4, 36, 72))
def test_cached_circulant_is_read_only_and_equals_the_integer_one(m):
    entries = float_circulant(m)
    assert entries.dtype == float
    assert np.array_equal(entries, circulant(m).entries)
    with pytest.raises(ValueError, match="read-only"):
        entries[0, 0] = 1.0


@pytest.mark.parametrize("n", (36, 108, 360))
def test_cold_binding_and_circulant_give_the_warm_bits(n):
    """run with every cache cold, the frequency binding and the float circulant
    included, then warm."""
    cfg = SuppressionConfig(block_size=n, interference_freqs=(50.0,), fs=FS)
    for cache in (*CACHES, space_for_frequency, float_circulant):
        cache.cache_clear()
    cold = run(Signal(samples=X, fs=FS), cfg).samples.tobytes()
    assert space_for_frequency.cache_info().misses == 1
    assert float_circulant.cache_info().misses == 1  # C_36 on either path
    assert run(Signal(samples=X, fs=FS), cfg).samples.tobytes() == cold


def test_every_field_of_a_cached_plan_and_binding_is_frozen():
    """The caches hand one object to every caller."""
    for shared in (build_plan(36), space_for_frequency(50.0, FS, 36)):
        for field in dataclasses.fields(shared):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(shared, field.name, None)


def test_a_binding_is_cached_per_argument_type():
    """np.float32(50.1) reads as 50.1 and binds at N = 3600; the equal float
    50.099998474121094 has no bin there and must not get that binding."""
    space_for_frequency.cache_clear()
    single = np.float32(50.1)
    assert space_for_frequency(single, FS, 3600).bin == 501
    assert single == 50.099998474121094
    with pytest.raises(FrequencyNotRepresentable):
        space_for_frequency(50.099998474121094, FS, 3600)


def test_circulant_cache_stays_within_the_bound_after_more_periods():
    float_circulant.cache_clear()
    for m in range(1, 2 * _CACHE_SIZE + 1):
        float_circulant(m)
    info = float_circulant.cache_info()
    assert info.maxsize == _CACHE_SIZE and info.currsize <= _CACHE_SIZE


@pytest.mark.parametrize("n", (108, 360, 2340))
def test_cold_state_maps_give_the_warm_bits(n):
    """The notch's long path reads every map of _state_maps, the product of a
    sub-block and its start state included: filter_blocked with them cold,
    warm, and warm after another design's."""
    c, other = design_notch(50.0, FS, 1.0), design_notch(60.0, FS, 30.0)
    for cache in (*CACHES, _state_maps):
        cache.cache_clear()
    cold = filter_blocked(c, X, n).tobytes()
    assert _state_maps.cache_info().misses == 1
    assert filter_blocked(c, X, n).tobytes() == cold
    filter_blocked(other, X, n)
    assert filter_blocked(c, X, n).tobytes() == cold


def test_writing_into_the_sub_block_and_state_product_raises():
    c = design_notch(50.0, FS, 1.0)
    fused = _state_maps(c.b0, c.b1, c.b2, c.a1, c.a2, 36)[2]
    op, _, _, carry = _sub_block_operators(c.b0, c.b1, c.b2, c.a1, c.a2, 36)
    assert np.array_equal(fused, np.vstack((op, carry)))
    with pytest.raises(ValueError, match="read-only"):
        fused[0, 0] = 1.0


def test_cold_and_warm_notch_designs_give_the_same_bits():
    """outputs with the design cache cold too, then warm."""
    cold = {}
    for n in SIZES:
        clear_caches()
        design_notch.cache_clear()
        cold[n] = outputs(n)
    assert design_notch.cache_info().misses == 1
    for _ in range(2):
        for n in SIZES:
            assert outputs(n) == cold[n], n


def test_design_cache_stays_within_the_bound_and_equals_a_fresh_design():
    design_notch.cache_clear()
    for q in np.linspace(0.5, 50.0, 100):
        coeffs = design_notch(50.0, FS, q)
        assert coeffs == design_notch.__wrapped__(50.0, FS, q)
        assert design_notch(50.0, FS, q) is coeffs
    info = design_notch.cache_info()
    assert info.maxsize == _CACHE_SIZE and info.currsize == _CACHE_SIZE


def test_a_rejected_design_raises_on_every_call():
    design_notch.cache_clear()
    for _ in range(3):
        with pytest.raises(ValueError, match="identity filter"):
            design_notch(50.0, FS, 1e300)
    assert design_notch.cache_info().currsize == 0


def test_a_design_is_cached_per_argument_type():
    """design_notch(50, ...) keeps an int f0 after a float one, and back."""
    design_notch.cache_clear()
    for f0 in (50.0, 50, 50.0):
        assert type(design_notch(f0, FS, 1.0).f0) is type(f0)
