"""Integer-exact primitives: totient, divisors, Ramanujan sums, shift bases."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rpt.ramanujan import (
    CirculantDm,
    circulant,
    divisors,
    euler_totient,
    ramanujan_sum,
    shift_basis,
    verify_factorization,
)


def totient_oracle(m):
    return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


def complex_sum_oracle(m):
    """Direct complex-exponential summation, kept independent of the cosine path."""
    out = []
    for n in range(m):
        acc = 0j
        for k in range(1, m + 1):
            if math.gcd(k, m) == 1:
                acc += np.exp(2j * np.pi * k * n / m)
        out.append(acc)
    return np.array(out)


class TestEulerTotient:
    @pytest.mark.parametrize("m,expected", [(1, 1), (3, 2), (36, 12)])
    def test_known_values(self, m, expected):
        assert euler_totient(m) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            euler_totient(0)

    @given(st.integers(min_value=1, max_value=500))
    def test_matches_gcd_count(self, m):
        assert euler_totient(m) == totient_oracle(m)


class TestDivisors:
    @pytest.mark.parametrize(
        "n,expected",
        [(4, [1, 2, 4]), (1, [1]), (36, [1, 2, 3, 4, 6, 9, 12, 18, 36])],
    )
    def test_known_values(self, n, expected):
        assert divisors(n) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            divisors(0)

    @given(st.integers(min_value=1, max_value=2000))
    def test_matches_trial_division(self, n):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]

    def test_totient_sum_identity(self):
        for n in range(1, 65):
            assert sum(euler_totient(d) for d in divisors(n)) == n


class TestRamanujanSum:
    def test_s3(self):
        assert ramanujan_sum(3).values.tolist() == [2, -1, -1]

    def test_s1(self):
        assert ramanujan_sum(1).values.tolist() == [1]

    def test_s4(self):
        # complex summation over k in {1, 3}
        assert ramanujan_sum(4).values.tolist() == [2, 0, -2, 0]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            ramanujan_sum(0)

    def test_first_value_is_totient(self):
        for m in range(1, 65):
            assert ramanujan_sum(m).values[0] == euler_totient(m)

    def test_matches_complex_sum_oracle(self):
        for m in range(1, 65):
            got = ramanujan_sum(m).values
            want = complex_sum_oracle(m)
            assert np.abs(want.imag).max() < 1e-9
            assert np.abs(got - want.real).max() < 1e-9

    def test_period_sum(self):
        assert ramanujan_sum(1).values.sum() == 1
        for m in range(2, 65):
            assert ramanujan_sum(m).values.sum() == 0

    @pytest.mark.parametrize("m", [8000, 10007, 12000])
    def test_large_m_exact(self, m):
        values = ramanujan_sum(m).values
        assert values[0] == totient_oracle(m)
        assert values.sum() == 0
        ks = np.array([k for k in range(1, m + 1) if math.gcd(k, m) == 1])
        for n in (1, 2, 25, 100, m // 2, m - 1):
            assert values[n] == round(np.cos(2 * np.pi * ks * n / m).sum())

    @given(st.integers(min_value=1, max_value=64), st.integers(-200, 200))
    def test_periodic_extension(self, m, n):
        seq = ramanujan_sum(m)
        assert seq.at(n) == seq.at(n + m)

    def test_shift_orthogonality_exact(self):
        # sum over one lcm period of s_m1(n) * s_m2(n - k) vanishes exactly
        for m1 in range(1, 17):
            for m2 in range(m1 + 1, 17):
                l = math.lcm(m1, m2)
                a = np.array([ramanujan_sum(m1).at(n) for n in range(l)])
                b = ramanujan_sum(m2)
                for k in range(l):
                    shifted = np.array([b.at(n - k) for n in range(l)])
                    assert int(a @ shifted) == 0


class TestCirculant:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 12])
    def test_symmetric(self, m):
        d = circulant(m).entries
        assert np.array_equal(d, d.T)

    def test_d3_matches_shifted_columns(self):
        d = circulant(3).entries
        assert d.tolist() == [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]


class TestShiftBasis:
    def test_m4_over_4(self):
        cols = shift_basis(4, 4).columns
        assert cols[:, 0].tolist() == [2, 0, -2, 0]
        assert cols[:, 1].tolist() == [0, 2, 0, -2]

    def test_m1_over_4(self):
        assert shift_basis(1, 4).columns.tolist() == [[1], [1], [1], [1]]

    def test_m3_over_6_tile_and_shift(self):
        cols = shift_basis(3, 6).columns
        s3 = ramanujan_sum(3)
        for k in range(2):
            want = [s3.at(n - k) for n in range(6)]
            assert cols[:, k].tolist() == want

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            shift_basis(5, 12)

    def test_columns_have_period_m(self):
        for m, n in [(3, 12), (4, 8), (6, 36), (9, 36)]:
            cols = shift_basis(m, n).columns
            assert np.array_equal(cols[:m], cols[m : 2 * m])

    def test_cross_space_orthogonality_exact(self):
        n = 36
        for m1 in divisors(n):
            for m2 in divisors(n):
                if m1 >= m2:
                    continue
                g = shift_basis(m1, n).columns.T @ shift_basis(m2, n).columns
                assert not g.any()


class TestFactorization:
    @pytest.mark.parametrize("m", [1, 3, 12])
    def test_known_cases(self, m):
        assert verify_factorization(m, 1e-9)

    def test_all_small_m(self):
        for m in range(1, 33):
            assert verify_factorization(m, 1e-9)


def test_factorization_default_tolerance_notices_a_1e6_error(monkeypatch):
    import rpt.ramanujan

    true_circulant = rpt.ramanujan.circulant
    assert verify_factorization(12)
    monkeypatch.setattr(
        rpt.ramanujan,
        "circulant",
        lambda m: CirculantDm(entries=true_circulant(m).entries + 1e-6),
    )
    assert not verify_factorization(12)
    assert verify_factorization(12, tol=1e-3)
