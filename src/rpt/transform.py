"""Block transform over periodic subspaces: plan construction, analysis,
synthesis, projections, and per-period energy spectra.

The transform matrix concatenates the shift bases of every divisor of the
block length. The period-m subspace of a length-N block is exactly the span
of the DFT bins k with N / gcd(k, N) = m, so projections and energy spectra
act on groups of DFT bins. The coefficient view (forward/inverse) solves
each subspace against its closed-form Gram matrix; distinct subspaces are
mutually orthogonal, so this equals the dense matrix inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ramanujan import divisors, shift_basis


@dataclass(frozen=True)
class TransformPlan:
    """All per-N precomputation, immutable and shareable across workers."""

    n: int
    divisors: tuple[int, ...]
    layout: dict[int, range]  # divisor -> coefficient index range
    basis: np.ndarray  # int64, n x n, columns grouped by ascending divisor
    norm_scales: np.ndarray  # Euclidean norm of each column

    def __post_init__(self):
        for a in (self.basis, self.norm_scales):
            a.setflags(write=False)


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


@dataclass(frozen=True)
class FrequencyBinding:
    """A sinusoid frequency resolved to its DFT bin and periodic subspace."""

    f0: float
    fs: float
    n: int
    bin: int
    space: int


class FrequencyNotRepresentable(ValueError):
    """f0 does not fall on an integer bin for the given block length."""

    def __init__(self, f0: float, fs: float, n: int):
        self.f0, self.fs, self.n = f0, fs, n
        super().__init__(
            f"{f0} Hz at fs={fs} Hz is not an integer bin for block length {n}; "
            f"choose a block length making f0*n/fs integral"
        )


def build_plan(n: int) -> TransformPlan:
    """Integer shift basis, coefficient layout, and column norms for length n.

    No inverse is stored: the period-m Gram matrix has the closed form
    N * s_m(i - j), i, j < phi(m), which forward() reads off the basis. Its
    diagonal gives the column norms: a period-m column holds N/m periods of
    s_m, and the sum of s_m(n)^2 over one period is m * phi(m), so each of
    the phi(m) columns has norm sqrt(N * phi(m)).
    """
    if n < 1:
        raise ValueError(f"block length must be positive, got {n}")
    divs = divisors(n)
    layout: dict[int, range] = {}
    columns = []
    start = 0
    for m in divs:
        cols = shift_basis(m, n).columns
        layout[m] = range(start, start + cols.shape[1])
        start += cols.shape[1]
        columns.append(cols)
    basis = np.hstack(columns)
    phis = np.array([len(rng) for rng in layout.values()])
    return TransformPlan(
        n=n,
        divisors=tuple(divs),
        layout=layout,
        basis=basis,
        norm_scales=np.repeat(np.sqrt(n * phis), phis),
    )


def bin_periods(n: int) -> np.ndarray:
    """Period n // gcd(k, n) of the subspace holding DFT bin k, k = 0..n-1."""
    return n // np.gcd(np.arange(n), n)


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
    for rng in plan.layout.values():
        cols = plan.basis[:, rng.start : rng.stop]
        gram = plan.n * cols[: len(rng)]
        values[rng.start : rng.stop] = np.linalg.solve(gram, cols.T @ x)
    return CoefficientVector(plan_n=plan.n, values=values)


def inverse(plan: TransformPlan, beta: CoefficientVector) -> np.ndarray:
    """Synthesis: basis @ beta."""
    if beta.plan_n != plan.n:
        raise ValueError(f"coefficients for n={beta.plan_n} used with plan n={plan.n}")
    return plan.basis @ beta.values


def project(plan: TransformPlan, x: np.ndarray, m: int) -> np.ndarray:
    """Orthogonal projection of x onto the period-m subspace.

    Keeps the DFT bins of period m and zeroes the rest.
    """
    if m not in plan.layout:
        raise ValueError(f"{m} is not a divisor of block length {plan.n}")
    spectrum = np.fft.rfft(_check_block(plan, x))
    spectrum[bin_periods(plan.n)[: len(spectrum)] != m] = 0.0
    return np.fft.irfft(spectrum, n=plan.n)


def energy_spectrum(plan: TransformPlan, x: np.ndarray) -> dict[int, float]:
    """Squared norm of the projection onto each divisor's subspace.

    Each is the sum of |X_k|^2 / N over the DFT bins of that period; values
    sum to ||x||^2 (orthogonal decomposition).
    """
    power = np.abs(np.fft.fft(_check_block(plan, x))) ** 2 / plan.n
    sums = np.bincount(bin_periods(plan.n), weights=power, minlength=plan.n + 1)
    return {m: float(sums[m]) for m in plan.divisors}


def space_for_frequency(f0: float, fs: float, n: int) -> FrequencyBinding:
    """Map a sinusoid frequency to its periodic subspace within a block.

    The frequency must land on an integer bin k0 = f0*n/fs, exactly for the
    decimal values of f0 and fs; the owning subspace has period n / gcd(k0, n).
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
    return FrequencyBinding(f0=f0, fs=fs, n=n, bin=k0, space=n // math.gcd(k0, n))
