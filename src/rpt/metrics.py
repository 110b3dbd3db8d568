"""Per-block squared Euclidean error, total error, and the comparison grid
between subspace suppression and the notch baseline. The grid applies the
row functions that suppress.run and notch.filter_blocked call to the
contaminated record, into one buffer of whole blocks per block size, which
io.tiles fills with the padded final block's whole output, and scores each
output there against the clean record in place; neither record is copied."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .io import _TILE, DataFormatError, Signal, table
from .notch import _filter_rows, design_notch
from .suppress import SuppressionConfig, _suppress_rows


@dataclass(frozen=True)
class SuppressionReport:
    """Errors of one method at one block size over a whole record."""

    block_size: int
    method: str  # "rpt" | "notch"
    per_block_errors: np.ndarray

    def __post_init__(self):
        self.per_block_errors.setflags(write=False)

    @property
    def total(self) -> float:
        """E, the sum of the per-block errors e_i."""
        return total_error(self.per_block_errors)

    @property
    def fields(self) -> tuple:
        """The report's row: block size, method, total error, block count."""
        return (self.block_size, self.method, self.total, len(self.per_block_errors))


def block_error(clean_block: np.ndarray, recon_block: np.ndarray) -> float:
    """Sum of squared differences of two same-shaped inputs, io._TILE at a time."""
    clean = np.asarray(clean_block, dtype=float)
    recon = np.asarray(recon_block, dtype=float)
    if clean.shape != recon.shape:
        raise ValueError(f"block length mismatch: {clean.shape} vs {recon.shape}")
    clean, recon = clean.ravel(), recon.ravel()
    d, total = np.empty(_TILE), 0.0
    for i in range(0, clean.size, _TILE):
        a, b = clean[i : i + _TILE], recon[i : i + _TILE]
        chunk = np.subtract(a, b, out=d[: len(a)])
        total += chunk @ chunk
    return float(total)


def total_error(per_block: np.ndarray) -> float:
    """Arithmetic sum of per-block errors."""
    per_block = np.asarray(per_block, dtype=float)
    if per_block.size and per_block.min() < 0:
        raise ValueError("per-block errors must be nonnegative")
    return float(per_block.sum())


def compare_grid(
    clean: Signal,
    contaminated: Signal,
    block_sizes: list[int],
    f0: float,
    q: float,
) -> list[SuppressionReport]:
    """Run both suppression methods at each block size and score against clean.

    The final partial block is scored over its whole zero-padded block, as
    io.tiles writes it into a buffer of whole blocks, against a clean
    reference that is zero past the record's end: each method writes its
    output and then its error into the same buffer. A total error past the
    float range raises DataFormatError.
    """
    if len(clean) != len(contaminated) or clean.fs != contaminated.fs:
        raise ValueError("clean and contaminated signals must match in length and fs")
    if len(clean) == 0:
        raise ValueError("empty signal")
    reports = []
    for n in block_sizes:
        targets = SuppressionConfig(n, (f0,), clean.fs).target_spaces()
        coeffs = design_notch(f0, clean.fs, q)
        recon = np.empty((-(-len(clean) // n), n))  # each output, then its error
        flat = recon.reshape(-1)
        for method, apply in (
            ("rpt", lambda: _suppress_rows(contaminated.samples, flat, n, targets)),
            ("notch", lambda: _filter_rows(contaminated.samples, flat, coeffs, n)),
        ):
            apply()
            # past the record's end the error is -recon: the same square
            np.subtract(clean.samples, flat[: len(clean)], out=flat[: len(clean)])
            errors = np.einsum("ij,ij->i", recon, recon)
            if not np.isfinite(errors.sum()):  # einsum sets no overflow flag
                raise DataFormatError(
                    f"{method} total error at block size {n} overflows the float range"
                )
            reports.append(SuppressionReport(n, method, errors))
    return reports


def write_report_csv(reports: list[SuppressionReport], path: str | Path) -> None:
    """Summary CSV: one row per (block size, method)."""
    header = "block_size,method,total_error,num_blocks\n"
    values = [v for r in reports for v in r.fields]
    Path(path).write_text(table(header, "%d,%s,%.17g,%d\n", values), "utf-8")


def write_block_errors_csv(report: SuppressionReport, path: str | Path) -> None:
    """Per-block CSV: block index and its error."""
    errors = report.per_block_errors
    values = np.column_stack((np.arange(len(errors)), errors)).ravel().tolist()
    Path(path).write_text(table("block_index,e_i\n", "%d,%.17g\n", values), "utf-8")
