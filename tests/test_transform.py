"""Transform plans, analysis/synthesis, projections, energy spectra."""

import math
import tracemalloc

import numpy as np
import pytest

from rpt.transform import (
    CoefficientVector,
    ConfigurationError,
    FrequencyNotRepresentable,
    build_plan,
    energy_spectrum,
    forward,
    inverse,
    project,
    space_for_frequency,
)
from rpt.ramanujan import divisors, euler_totient, shift_basis
from rpt.transform import bin_periods

T4 = np.array(
    [
        [1, 1, 2, 0],
        [1, -1, 0, 2],
        [1, 1, -2, 0],
        [1, -1, 0, -2],
    ]
)


@pytest.fixture(scope="module")
def plan4():
    return build_plan(4)


@pytest.fixture(scope="module")
def plan36():
    return build_plan(36)


class TestBuildPlan:
    def test_t4_matrix(self, plan4):
        assert np.array_equal(plan4.basis, T4)
        assert not plan4.basis.flags.writeable

    def test_t4_gram_diagonal(self, plan4):
        assert np.array_equal(plan4.basis.T @ plan4.basis, np.diag([4, 4, 8, 8]))

    def test_t4_normalized_orthonormal(self, plan4):
        that = plan4.basis / plan4.norm_scales
        assert np.abs(that.T @ that - np.eye(4)).max() < 1e-9

    def test_norm_scales_closed_form(self):
        # sqrt(N * phi(m)) equals the numeric column norm bit for bit
        for n in [*range(1, 401), 1440]:
            plan = build_plan(n)
            numeric = np.linalg.norm(plan.basis.astype(float), axis=0)
            assert np.array_equal(plan.norm_scales, numeric), n

    def test_n1(self):
        plan = build_plan(1)
        assert plan.divisors == (1,)
        assert plan.basis.tolist() == [[1]]

    def test_n36_layout(self, plan36):
        sizes = [len(plan36.layout[m]) for m in plan36.divisors]
        assert sizes == [1, 1, 2, 2, 2, 6, 4, 6, 12]
        last = plan36.layout[36]
        assert (last.start, last.stop) == (24, 36)

    def test_layout_partitions(self):
        for n in [6, 12, 36, 48]:
            plan = build_plan(n)
            stops = [plan.layout[m] for m in plan.divisors]
            assert stops[0].start == 0 and stops[-1].stop == n
            for a, b in zip(stops, stops[1:]):
                assert a.stop == b.start

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            build_plan(0)


class TestForwardInverse:
    def test_constant_signal(self, plan4):
        beta = forward(plan4, [1.0, 1.0, 1.0, 1.0])
        assert np.abs(beta.values - [1, 0, 0, 0]).max() < 1e-12

    def test_basis_column(self, plan4):
        beta = forward(plan4, [2.0, 0.0, -2.0, 0.0])
        assert np.abs(beta.values - [0, 0, 1, 0]).max() < 1e-12

    def test_s3_tiling_lands_in_v3(self):
        plan = build_plan(6)
        beta = forward(plan, [2.0, -1.0, -1.0, 2.0, -1.0, -1.0])
        rng = plan.layout[3]
        outside = np.delete(beta.values, np.arange(rng.start, rng.stop))
        assert np.abs(outside).max() < 1e-9
        assert np.abs(beta.values[rng.start : rng.stop]).max() > 0.5

    def test_inverse_of_unit_coefficients(self, plan4):
        out = inverse(plan4, CoefficientVector(plan_n=4, values=np.eye(4)[0]))
        assert np.array_equal(out, [1, 1, 1, 1])
        out = inverse(plan4, CoefficientVector(plan_n=4, values=np.eye(4)[3]))
        assert np.array_equal(out, [0, 2, 0, -2])

    def test_length_mismatch(self, plan4):
        with pytest.raises(ValueError):
            forward(plan4, np.zeros(5))
        with pytest.raises(ValueError):
            inverse(plan4, CoefficientVector(plan_n=6, values=np.zeros(6)))

    def test_coefficient_length_must_match_plan(self):
        with pytest.raises(ValueError, match="coefficient length 3 != plan length 4"):
            CoefficientVector(plan_n=4, values=np.zeros(3))

    @pytest.mark.parametrize("n", list(range(1, 49)) + [72, 108, 144, 180])
    def test_round_trip(self, n):
        rng = np.random.default_rng(n)
        plan = build_plan(n)
        for _ in range(3):
            x = rng.normal(size=n)
            err = np.linalg.norm(inverse(plan, forward(plan, x)) - x)
            assert err <= 1e-9 * np.linalg.norm(x)

    @pytest.mark.parametrize("n", range(1, 49))
    def test_per_space_solve_equals_dense_inverse(self, n):
        plan = build_plan(n)
        dense = np.linalg.inv(plan.basis.astype(float))
        rng = np.random.default_rng(100 + n)
        x = rng.normal(size=n)
        assert np.abs(forward(plan, x).values - dense @ x).max() <= 1e-8

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_power_of_two_transpose(self, n):
        # with a column-normalized basis, analysis is just the transpose
        plan = build_plan(n)
        that = plan.basis / plan.norm_scales
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        normalized_beta = plan.norm_scales * forward(plan, x).values
        assert np.abs(normalized_beta - that.T @ x).max() <= 1e-9


class TestProject:
    def test_fixes_its_range(self, plan36):
        cols = shift_basis(9, 36).columns.astype(float)
        x = cols @ np.arange(1.0, cols.shape[1] + 1)
        assert np.abs(project(plan36, x, 9) - x).max() < 1e-9

    def test_annihilates_other_spaces(self, plan36):
        cols = shift_basis(4, 36).columns.astype(float)
        x = cols @ np.array([1.0, -2.0])
        assert np.abs(project(plan36, x, 9)).max() < 1e-9

    def test_completeness(self, plan36):
        rng = np.random.default_rng(7)
        x = rng.normal(size=36)
        total = sum(project(plan36, x, m) for m in plan36.divisors)
        assert np.abs(total - x).max() < 1e-9

    def test_projector_algebra(self, plan36):
        rng = np.random.default_rng(8)
        x = rng.normal(size=36)
        for m in plan36.divisors:
            pm = project(plan36, x, m)
            assert np.abs(project(plan36, pm, m) - pm).max() < 1e-9
        for m1 in plan36.divisors:
            for m2 in plan36.divisors:
                if m1 != m2:
                    assert np.abs(project(plan36, project(plan36, x, m1), m2)).max() < 1e-9

    def test_rejects_non_divisor(self, plan36):
        with pytest.raises(ValueError):
            project(plan36, np.zeros(36), 5)


class TestEnergySpectrum:
    def test_pure_tone_lands_in_v36(self, plan36):
        n = np.arange(36)
        x = np.sin(2 * np.pi * 50 * n / 360 + 0.3)
        spec = energy_spectrum(plan36, x)
        total = sum(spec.values())
        assert spec[36] / total > 1 - 1e-9
        for m in plan36.divisors[:-1]:
            assert spec[m] < 1e-9 * total

    def test_constant(self, plan36):
        spec = energy_spectrum(plan36, np.full(36, 2.5))
        total = sum(spec.values())
        assert spec[1] / total > 1 - 1e-12

    def test_s2_tiling(self, plan36):
        x = np.tile([1.0, -1.0], 18)
        spec = energy_spectrum(plan36, x)
        assert spec[2] / sum(spec.values()) > 1 - 1e-12

    def test_energy_partition(self, plan36):
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = rng.normal(size=36)
            spec = energy_spectrum(plan36, x)
            assert abs(sum(spec.values()) - x @ x) < 1e-9 * (x @ x)


def test_plan_memory_is_linear_in_n():
    """A plan holds only closed forms: no N x N array is built for it."""
    n = 5040
    tracemalloc.start()
    try:
        plan = build_plan(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    x = np.random.default_rng(10).normal(size=n)
    power = np.abs(np.fft.fft(x)) ** 2 / n
    spec = energy_spectrum(plan, x)
    assert list(spec) == divisors(n)
    for m in plan.divisors:
        bins = [k for k in range(n) if n // math.gcd(k, n) == m]
        assert abs(spec[m] - power[bins].sum()) <= 1e-9 * (x @ x), m


class TestSpaceForFrequency:
    def test_50hz_at_36(self):
        b = space_for_frequency(50, 360, 36)
        assert (b.bin, b.space) == (5, 36)

    def test_dc(self):
        b = space_for_frequency(0, 360, 36)
        assert (b.bin, b.space) == (0, 1)

    def test_50hz_at_72(self):
        b = space_for_frequency(50, 360, 72)
        assert (b.bin, b.space) == (10, 36)

    def test_not_representable(self):
        with pytest.raises(FrequencyNotRepresentable):
            space_for_frequency(50, 360, 35)
        with pytest.raises(FrequencyNotRepresentable):
            space_for_frequency(50.0000000001, 360, 36)
        with pytest.raises(FrequencyNotRepresentable) as info:
            space_for_frequency(50, 360, 35)
        assert isinstance(info.value, ConfigurationError)
        assert "[36, 72, 108, 144, 180]" in str(info.value)

    def test_decimal_binds_as_typed(self):
        b = space_for_frequency(0.1, 360.0, 3600)
        assert (b.bin, b.space) == (1, 3600)
        with pytest.raises(FrequencyNotRepresentable):
            space_for_frequency(0.1, 360.0, 1800)

    @pytest.mark.parametrize(
        "f0, fs, n, message",
        [
            (50.0, 360.0, 0, "block length must be positive"),
            (50.0, 360.0, -36, "block length must be positive"),
            (float("nan"), 360.0, 36, "frequency nan Hz"),
            (float("inf"), 360.0, 36, "frequency inf Hz"),
            (-10.0, 360.0, 36, "frequency -10.0 Hz"),
            (50.0, float("nan"), 36, "sampling rate"),
            (50.0, float("inf"), 36, "sampling rate"),
        ],
    )
    def test_rejects_bad_arguments(self, f0, fs, n, message):
        with pytest.raises(ValueError, match=message) as info:
            space_for_frequency(f0, fs, n)
        assert not isinstance(info.value, FrequencyNotRepresentable)

    def test_rejects_above_nyquist(self):
        with pytest.raises(ValueError):
            space_for_frequency(200, 360, 36)


def test_bin_periods_is_n_over_gcd():
    for n in [*range(1, 200), 360, 1440, 5040, 7200, 7919]:
        assert np.array_equal(bin_periods(n), n // np.gcd(np.arange(n), n)), n
