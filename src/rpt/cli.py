"""Command-line surface: synthesize, contaminate, inspect period spectra,
denoise, and produce the method-comparison grid.

Exit codes: 0 success, 1 usage error, 2 data/format error (including samples
whose transform or error overflows the float range), 3 configuration error
(e.g. interference frequency not representable at the block size).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .io import (
    DataFormatError,
    Signal,
    add_sinusoid,
    read_csv,
    read_wfdb_212,
    synth_ecg,
    table,
    write_csv,
)
from .metrics import compare_grid, write_block_errors_csv, write_report_csv
from .notch import design_notch, filter_blocked
from .suppress import ConfigurationError, SuppressionConfig, run
from .transform import build_plan, energy_spectrum

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CONFIG = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="input signal file")
    p.add_argument("--fs", type=float, default=360.0, help="sampling rate in Hz")
    p.add_argument(
        "--format",
        choices=["csv", "wfdb212"],
        default="csv",
        help="input file format",
    )
    p.add_argument("--column", type=int, default=0, help="CSV column (0-based)")
    p.add_argument(
        "--channels", type=int, default=2, help="channel count in a 212 file"
    )
    p.add_argument("--channel", type=int, default=0, help="212 channel to extract")
    p.add_argument("--gain", type=float, default=200.0, help="ADC units per mV")
    p.add_argument("--baseline", type=int, default=1024, help="ADC zero offset")


def _read_input(args) -> Signal:
    if args.format == "wfdb212":
        return read_wfdb_212(
            args.input,
            channels=args.channels,
            select=args.channel,
            gain=args.gain,
            baseline=args.baseline,
            fs=args.fs,
        )
    return read_csv(args.input, column=args.column, fs=args.fs)


def build_parser() -> _Parser:
    parser = _Parser(prog="rpt", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synth", help="write a synthetic ECG CSV")
    p.add_argument("--output", required=True)
    p.add_argument("--duration", type=float, default=300.0, help="seconds")
    p.add_argument("--fs", type=float, default=360.0)
    p.add_argument("--heart-rate", type=float, default=72.0, help="beats per minute")
    p.set_defaults(command=_cmd_synth)

    p = sub.add_parser("contaminate", help="add a sinusoidal interferer")
    _add_input_flags(p)
    p.add_argument("--output", required=True)
    p.add_argument("--f0", type=float, default=50.0, help="interference Hz")
    p.add_argument("--amplitude", type=float, default=0.5, help="signal units")
    p.add_argument("--phase", type=float, default=0.0, help="radians")
    p.set_defaults(command=_cmd_contaminate)

    p = sub.add_parser("spectrum", help="per-period projection energies of a block")
    _add_input_flags(p)
    p.add_argument("--block-size", type=int, required=True)
    p.add_argument("--block-index", type=int, default=0)
    p.set_defaults(command=_cmd_spectrum)

    p = sub.add_parser("denoise", help="suppress interference, write cleaned CSV")
    _add_input_flags(p)
    p.add_argument("--output", required=True)
    p.add_argument("--method", choices=["rpt", "notch"], default="rpt")
    p.add_argument("--block-size", type=int, required=True)
    p.add_argument("--f0", type=float, default=50.0)
    p.add_argument("--q", type=float, default=1.0, help="notch quality factor")
    p.add_argument(
        "--plot-csv",
        help="also write index,original,cleaned columns for external plotting",
    )
    p.set_defaults(command=_cmd_denoise)

    p = sub.add_parser("compare", help="error grid: rpt vs notch per block size")
    p.add_argument("--clean", required=True, help="clean reference CSV")
    p.add_argument("--dirty", required=True, help="contaminated CSV")
    p.add_argument("--fs", type=float, default=360.0)
    p.add_argument("--column", type=int, default=0)
    p.add_argument("--f0", type=float, default=50.0)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--block-sizes", default="36,72,108,144,180")
    p.add_argument("--output", required=True, help="report CSV path")
    p.add_argument(
        "--block-errors-dir",
        help="directory for per-block error CSVs (one file per grid cell)",
    )
    p.set_defaults(command=_cmd_compare)
    return parser


def _cmd_synth(args) -> None:
    write_csv(synth_ecg(args.duration, args.fs, args.heart_rate), args.output)


def _cmd_contaminate(args) -> None:
    sig = _read_input(args)
    write_csv(add_sinusoid(sig, args.f0, args.amplitude, args.phase), args.output)


def _cmd_spectrum(args) -> None:
    sig = _read_input(args)
    n = args.block_size
    start = args.block_index * n
    if args.block_index < 0 or start + n > len(sig):
        raise DataFormatError(
            f"block {args.block_index} of size {n} is outside the {len(sig)} samples"
        )
    plan = build_plan(n)
    spectrum = energy_spectrum(plan, sig.samples[start : start + n])
    total = sum(spectrum.values())
    rows = [(m, e, e / total if total > 0 else 0.0) for m, e in spectrum.items()]
    values = [v for row in rows for v in row]
    sys.stdout.write(table("period,energy,fraction\n", "%d,%.17g,%.17g\n", values))


def _cmd_denoise(args) -> None:
    sig = _read_input(args)
    if args.method == "rpt":
        cfg = SuppressionConfig(
            block_size=args.block_size, interference_freqs=(args.f0,), fs=args.fs
        )
        cleaned = run(sig, cfg)
    else:
        coeffs = design_notch(args.f0, args.fs, args.q)
        cleaned = Signal(
            samples=filter_blocked(coeffs, sig.samples, args.block_size), fs=args.fs
        )
    write_csv(cleaned, args.output)
    if args.plot_csv:
        columns = (np.arange(len(sig)), sig.samples, cleaned.samples)
        values = np.column_stack(columns).ravel().tolist()
        plot = table("index,original,cleaned\n", "%d,%.17g,%.17g\n", values)
        Path(args.plot_csv).write_text(plot, "utf-8")


def _cmd_compare(args) -> None:
    try:
        block_sizes = [int(s) for s in args.block_sizes.split(",") if s]
    except ValueError:
        raise ValueError("--block-sizes must be comma-separated integers") from None
    if not block_sizes:
        raise ValueError("--block-sizes is empty")
    clean = read_csv(args.clean, column=args.column, fs=args.fs)
    dirty = read_csv(args.dirty, column=args.column, fs=args.fs)
    if len(clean) != len(dirty):
        raise DataFormatError(
            f"{args.clean} has {len(clean)} samples but {args.dirty} has {len(dirty)}"
        )
    reports = compare_grid(clean, dirty, block_sizes, args.f0, args.q)
    write_report_csv(reports, args.output)
    if args.block_errors_dir:
        out_dir = Path(args.block_errors_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for r in reports:
            write_block_errors_csv(
                r, out_dir / f"errors_{r.method}_n{r.block_size}.csv"
            )
    row = "block_size=%d method=%s total_error=%.6g num_blocks=%d\n"
    sys.stdout.write(table("", row, [v for r in reports for v in r.fields]))


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        # underflow stays silent: synth_ecg's Gaussian tails underflow by design
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            args = parser.parse_args(argv)
            args.command(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataFormatError, OSError, FloatingPointError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, MemoryError) as exc:  # or a size too large to allocate
        print(f"usage error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
