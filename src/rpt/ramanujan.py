"""Number-theoretic primitives: Ramanujan sums, circulant matrices, shift bases.

Everything here is integer-exact for every m, so that orthogonality between
periodic subspaces can be tested with exact arithmetic downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _mobius(k: int) -> int:
    """Moebius function mu(k) by trial division."""
    mu, p = 1, 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if k > 1 else mu


def euler_totient(m: int) -> int:
    """Count of integers in [1, m] coprime to m: sum of mu(m/d) * d over d | m."""
    if m < 1:
        raise ValueError(f"totient undefined for m={m}")
    return sum(_mobius(m // d) * d for d in divisors(m))


def divisors(n: int) -> list[int]:
    """All divisors of n in ascending order, including 1 and n."""
    if n < 1:
        raise ValueError(f"divisors undefined for n={n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@dataclass(frozen=True)
class RamanujanSequence:
    """One period of the integer sequence s_m(n)."""

    values: np.ndarray  # int64, length m

    def __post_init__(self):
        self.values.setflags(write=False)

    def at(self, n: int) -> int:
        """Periodic extension: s_m(n) for any integer n."""
        return int(self.values[n % len(self.values)])


def ramanujan_sum(m: int) -> RamanujanSequence:
    """Sum of cos(2*pi*k*n/m) over k in [1, m] coprime to m, as exact integers.

    Closed form: s_m(n) = sum of mu(m/d) * d over the divisors d of gcd(n, m).
    """
    if m < 1:
        raise ValueError(f"ramanujan_sum undefined for m={m}")
    g = np.gcd(np.arange(m), m)
    values = np.zeros(m, dtype=np.int64)
    for d in divisors(m):
        values[g % d == 0] += _mobius(m // d) * d
    return RamanujanSequence(values=values)


@dataclass(frozen=True)
class CirculantDm:
    """m x m symmetric circulant whose first column is s_m(n)."""

    entries: np.ndarray  # int64, m x m

    def __post_init__(self):
        self.entries.setflags(write=False)


def circulant(m: int) -> CirculantDm:
    """Circulant matrix of s_m: each column a circular down-shift of the last."""
    seq = ramanujan_sum(m)
    idx = (np.arange(m)[:, None] - np.arange(m)[None, :]) % m
    return CirculantDm(entries=seq.values[idx])


@dataclass(frozen=True)
class ShiftBasis:
    """N x phi(m) integer basis of the period-m subspace inside length N.

    Column k is s_m(n - k) tiled periodically over the N samples,
    k = 0..phi(m)-1.
    """

    m: int
    columns: np.ndarray  # int64, N x phi(m)

    def __post_init__(self):
        self.columns.setflags(write=False)


def shift_basis(m: int, ambient_n: int) -> ShiftBasis:
    """Basis of phi(m) consecutive circular shifts of s_m over N samples."""
    if ambient_n % m != 0:
        raise ValueError(f"period m={m} does not divide block length {ambient_n}")
    seq = ramanujan_sum(m)
    phi = euler_totient(m)
    idx = (np.arange(ambient_n)[:, None] - np.arange(phi)[None, :]) % m
    return ShiftBasis(m=m, columns=seq.values[idx])


def verify_factorization(m: int, tol: float = 1e-9) -> bool:
    """Check D_m == W W^H where W keeps DFT columns with index coprime to m."""
    ks = np.array([k for k in range(1, m + 1) if math.gcd(k, m) == 1])
    n = np.arange(m)
    w = np.exp(2j * np.pi * np.outer(n, ks) / m)
    dm = circulant(m).entries
    return bool(np.abs(w @ w.conj().T - dm).max() < tol)
