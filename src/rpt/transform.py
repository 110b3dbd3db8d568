"""Block transform over periodic subspaces: plan construction, analysis,
synthesis, projections, per-period energy spectra, and the binding of an
interference frequency to its subspace (or the block sizes that would bind it).

The transform matrix concatenates the shift bases of every divisor of the block
length. The period-m subspace of a length-N block is exactly the span of the
DFT bins k with N / gcd(k, N) = m: energy spectra sum groups of DFT bins.
Projections read the block only through its fold to length m: for m up to
io.DENSE_BLOCK the period-m part is the fold times the integer circulant of the
Ramanujan sum s_m, divided by N, on io's row counts; longer periods filter the
fold's m-point DFT. The coefficient view (forward/inverse) solves each subspace
against its closed-form Gram matrix; distinct subspaces are mutually
orthogonal, so this equals the dense matrix inverse.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .io import _CACHE_SIZE, DENSE_BLOCK, _rows
from .ramanujan import circulant, divisors, euler_totient, shift_basis


@dataclass(frozen=True)
class TransformPlan:
    """Closed-form layout of the length-n transform: O(n) memory, immutable,
    so that build_plan can hand the same plan to every caller.

    `basis` is assembled from the shift bases on access, for the coefficient view.
    """

    n: int
    divisors: tuple[int, ...]
    layout: Mapping[int, range]  # divisor -> coefficient index range, read-only
    norm_scales: np.ndarray  # Euclidean norm of each column

    def __post_init__(self):
        self.norm_scales.setflags(write=False)

    @property
    def basis(self) -> np.ndarray:
        """int64, n x n, columns grouped by ascending divisor (read-only)."""
        basis = np.hstack([shift_basis(m, self.n).columns for m in self.divisors])
        basis.setflags(write=False)
        return basis


@dataclass(frozen=True)
class CoefficientVector:
    """Coefficients of one block, labeled by the owning plan's layout."""

    plan_n: int
    values: np.ndarray

    def __post_init__(self):
        if len(self.values) != self.plan_n:
            raise ValueError(
                f"coefficient length {len(self.values)} != plan length {self.plan_n}"
            )


class ConfigurationError(ValueError):
    """Invalid configuration (e.g. frequency/block-size mismatch)."""


@dataclass(frozen=True)
class FrequencyBinding:
    """A sinusoid frequency resolved to its DFT bin and periodic subspace."""

    bin: int
    space: int


class FrequencyNotRepresentable(ConfigurationError):
    """f0 does not fall on an integer bin for the given block length."""

    def __init__(self, f0: float, fs: float, n: int):
        super().__init__(
            f"{f0} Hz at fs={fs} Hz is not an integer bin for block length {n}; "
            f"choose a block length making f0*n/fs integral; "
            f"admissible block sizes are {admissible_hint(f0, fs)}"
        )


@functools.lru_cache(maxsize=_CACHE_SIZE)
def build_plan(n: int) -> TransformPlan:
    """Divisors, coefficient layout (phi(m) per divisor m) and column norms,
    built once per n and shared.

    No inverse is stored: the period-m Gram matrix has the closed form
    N * s_m(i - j), i, j < phi(m), which forward() reads off the shift basis.
    Its diagonal gives the column norms: a period-m column holds N/m periods
    of s_m, and the sum of s_m(n)^2 over one period is m * phi(m), so each of
    the phi(m) columns has norm sqrt(N * phi(m)).
    """
    if n < 1:
        raise ValueError(f"block length must be positive, got {n}")
    divs = tuple(divisors(n))
    phis = [euler_totient(m) for m in divs]
    starts = np.cumsum([0, *phis]).tolist()
    layout = MappingProxyType(
        {m: range(a, a + phi) for m, a, phi in zip(divs, starts, phis)}
    )
    norms = np.sqrt(n * np.array(phis))
    return TransformPlan(n, divs, layout, norm_scales=np.repeat(norms, phis))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def bin_periods(n: int) -> np.ndarray:
    """Period n // gcd(k, n) of the subspace holding DFT bin k, k = 0..n-1
    (read-only: built once per n and shared)."""
    periods = np.empty(n, dtype=np.int64)
    for d in divisors(n):  # ascending, so the last d written to k is gcd(k, n)
        periods[::d] = n // d
    periods.setflags(write=False)
    return periods


def _check_block(plan: TransformPlan, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (plan.n,):
        raise ValueError(f"expected length-{plan.n} vector, got shape {x.shape}")
    return x


def forward(plan: TransformPlan, x: np.ndarray) -> CoefficientVector:
    """Analysis: coefficients beta with x = basis @ beta.

    Each subspace's block solves G beta_m = R^T x, where R holds its shift
    columns and G = R^T R = N * s_m(i - j) is the leading phi(m) rows of R
    scaled by N (D_m^2 = m D_m). Distinct subspaces are mutually orthogonal,
    so the result equals the dense inverse action.
    """
    x = _check_block(plan, x)
    values = np.empty(plan.n)
    for m, rng in plan.layout.items():
        cols = shift_basis(m, plan.n).columns
        gram = plan.n * cols[: len(rng)]
        values[rng.start : rng.stop] = np.linalg.solve(gram, cols.T @ x)
    return CoefficientVector(plan_n=plan.n, values=values)


def inverse(plan: TransformPlan, beta: CoefficientVector) -> np.ndarray:
    """Synthesis: basis @ beta."""
    if beta.plan_n != plan.n:
        raise ValueError(f"coefficients for n={beta.plan_n} used with plan n={plan.n}")
    return plan.basis @ beta.values


@functools.lru_cache(maxsize=_CACHE_SIZE)
def float_circulant(m: int) -> np.ndarray:
    """ramanujan.circulant(m) as floats, read-only: built once per m and shared."""
    entries = circulant(m).entries.astype(float)
    entries.setflags(write=False)
    return entries


def period_part(rows: np.ndarray, m: int) -> np.ndarray:
    """One period (B x m) of each row's projection onto the period-m subspace,
    m | N. It reads a row only through its fold, the sum of its N / m length-m
    segments. For m <= io.DENSE_BLOCK the part is the fold, in io._rows, times
    the symmetric integer circulant C_m, divided by N after the product (which
    overflows where an FFT would). For longer m the fold's m-point DFT keeps
    its bins of period m: its bin j is the row's bin j N / m."""
    b, n = rows.shape
    segments = rows.reshape(b, n // m, m)
    if m <= DENSE_BLOCK:
        fold = _rows(b, m)
        np.einsum("ijk->ik", segments, out=fold[:b])
        return (fold @ float_circulant(m) / n)[:b]
    folded = rows if m == n else np.einsum("ijk->ik", segments)
    spectrum = np.fft.rfft(folded)
    spectrum *= (bin_periods(m)[: m // 2 + 1] == m) / (n // m)
    return np.fft.irfft(spectrum, n=m)


def project(plan: TransformPlan, x: np.ndarray, m: int) -> np.ndarray:
    """Orthogonal projection of x onto the period-m subspace: the period-m part
    of x's fold to length m, tiled."""
    if m not in plan.layout:
        raise ValueError(f"{m} is not a divisor of block length {plan.n}")
    return np.tile(period_part(_check_block(plan, x)[None], m)[0], plan.n // m)


def energy_spectrum(plan: TransformPlan, x: np.ndarray) -> dict[int, float]:
    """Squared norm of the projection onto each divisor's subspace.

    Each is the sum of |X_k|^2 / N over the DFT bins of that period; values
    sum to ||x||^2 (orthogonal decomposition).
    """
    power = np.abs(np.fft.fft(_check_block(plan, x))) ** 2 / plan.n
    sums = np.bincount(bin_periods(plan.n), weights=power)
    return {m: float(sums[m]) for m in plan.divisors}


@functools.lru_cache(maxsize=_CACHE_SIZE, typed=True)
def space_for_frequency(f0: float, fs: float, n: int) -> FrequencyBinding:
    """Map a sinusoid frequency to its periodic subspace within a block.

    The frequency must land on an integer bin k0 = f0*n/fs, exactly for the
    decimal values of f0 and fs; the owning subspace has period n / gcd(k0, n).
    Bindings are cached per (f0, fs, n) and their types; errors are not.
    """
    if n < 1:
        raise ValueError(f"block length must be positive, got {n}")
    if not 0 < fs < math.inf:
        raise ValueError(f"sampling rate {fs} must be positive and finite")
    if not 0 <= f0 < fs / 2:
        raise ValueError(f"frequency {f0} Hz outside [0, fs/2) for fs={fs}")
    ratio = Fraction(str(f0)) * n / Fraction(str(fs))
    if ratio.denominator != 1:
        raise FrequencyNotRepresentable(f0, fs, n)
    k0 = ratio.numerator
    return FrequencyBinding(bin=k0, space=n // math.gcd(k0, n))


def admissible_hint(f0: float, fs: float) -> list[int]:
    """The five smallest block sizes at which f0 falls on an integer bin: the
    multiples of the reduced denominator of f0/fs."""
    step = (Fraction(str(f0)) / Fraction(str(fs))).denominator
    return [step * k for k in range(1, 6)]
