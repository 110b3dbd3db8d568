"""End-to-end CLI behaviour and exit codes."""

import csv
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import rpt
from rpt.cli import dispatch
from rpt.io import read_csv, write_csv, Signal


def synth_file(tmp_path, name="clean.csv", duration="10"):
    path = tmp_path / name
    code = dispatch(
        ["synth", "--output", str(path), "--duration", duration, "--heart-rate", "72"]
    )
    assert code == 0
    return path


class TestSynth:
    def test_writes_csv(self, tmp_path):
        path = synth_file(tmp_path)
        sig = read_csv(path)
        assert len(sig) == 3600

    def test_deterministic_output(self, tmp_path):
        a = synth_file(tmp_path, "a.csv")
        b = synth_file(tmp_path, "b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_missing_output_flag(self):
        assert dispatch(["synth"]) == 1


class TestContaminate:
    def test_adds_tone(self, tmp_path):
        clean = synth_file(tmp_path)
        dirty = tmp_path / "dirty.csv"
        code = dispatch(
            [
                "contaminate",
                "--input",
                str(clean),
                "--output",
                str(dirty),
                "--f0",
                "50",
                "--amplitude",
                "0.5",
            ]
        )
        assert code == 0
        a = read_csv(clean).samples
        b = read_csv(dirty).samples
        n = np.arange(len(a))
        assert np.abs(b - a - 0.5 * np.sin(2 * np.pi * 50 * n / 360)).max() < 1e-9

    def test_missing_file_is_data_error(self, tmp_path):
        code = dispatch(
            [
                "contaminate",
                "--input",
                str(tmp_path / "absent.csv"),
                "--output",
                str(tmp_path / "out.csv"),
            ]
        )
        assert code == 2


class TestSpectrum:
    def test_pure_tone_block(self, tmp_path, capsys):
        n = np.arange(360)
        path = tmp_path / "tone.csv"
        write_csv(
            Signal(samples=np.sin(2 * np.pi * 50 * n / 360), fs=360.0), path
        )
        code = dispatch(
            ["spectrum", "--input", str(path), "--block-size", "36"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "period,energy,fraction"
        rows = {int(l.split(",")[0]): float(l.split(",")[2]) for l in lines[1:]}
        assert rows[36] > 0.99999

    def test_block_out_of_range(self, tmp_path):
        path = tmp_path / "short.csv"
        write_csv(Signal(samples=np.zeros(10) + 1.0, fs=360.0), path)
        code = dispatch(
            ["spectrum", "--input", str(path), "--block-size", "36"]
        )
        assert code == 2

    def test_negative_block_index(self, tmp_path, capsys):
        clean = synth_file(tmp_path)
        code = dispatch(
            [
                "spectrum",
                "--input",
                str(clean),
                "--block-size",
                "36",
                "--block-index",
                "-1",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "data error: block -1 of size 36 is outside the 3600 samples\n"
        )


class TestDenoise:
    def test_rpt_removes_tone(self, tmp_path):
        clean = synth_file(tmp_path)
        dirty = tmp_path / "dirty.csv"
        dispatch(
            ["contaminate", "--input", str(clean), "--output", str(dirty)]
        )
        out = tmp_path / "out.csv"
        code = dispatch(
            [
                "denoise",
                "--method",
                "rpt",
                "--input",
                str(dirty),
                "--output",
                str(out),
                "--block-size",
                "36",
            ]
        )
        assert code == 0
        cleaned = read_csv(out).samples
        ref = read_csv(clean).samples
        dirty_err = np.linalg.norm(read_csv(dirty).samples - ref)
        assert np.linalg.norm(cleaned - ref) < dirty_err

    def test_notch_method(self, tmp_path):
        clean = synth_file(tmp_path)
        out = tmp_path / "out.csv"
        code = dispatch(
            [
                "denoise",
                "--method",
                "notch",
                "--input",
                str(clean),
                "--output",
                str(out),
                "--block-size",
                "36",
            ]
        )
        assert code == 0
        assert len(read_csv(out)) == 3600

    def test_bad_block_size_names_admissible(self, tmp_path, capsys):
        clean = synth_file(tmp_path)
        code = dispatch(
            [
                "denoise",
                "--method",
                "rpt",
                "--input",
                str(clean),
                "--output",
                str(tmp_path / "o.csv"),
                "--block-size",
                "35",
            ]
        )
        assert code == 3
        assert "36" in capsys.readouterr().err

    def test_plot_csv(self, tmp_path):
        clean = synth_file(tmp_path)
        plot = tmp_path / "plot.csv"
        code = dispatch(
            [
                "denoise",
                "--method",
                "rpt",
                "--input",
                str(clean),
                "--output",
                str(tmp_path / "o.csv"),
                "--block-size",
                "36",
                "--plot-csv",
                str(plot),
            ]
        )
        assert code == 0
        with open(plot) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3600
        assert set(rows[0]) == {"index", "original", "cleaned"}

    def test_plot_csv_bytes(self, tmp_path):
        # -0.0, subnormals and +-1e308 survive a block size 1 notch (y = b0 x)
        samples = [0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1e308, 0.1, -7.0]
        dirty = tmp_path / "dirty.csv"
        write_csv(Signal(samples=np.array(samples), fs=360.0), dirty)
        out, plot = tmp_path / "o.csv", tmp_path / "plot.csv"
        code = dispatch(
            [
                "denoise",
                "--method",
                "notch",
                "--input",
                str(dirty),
                "--output",
                str(out),
                "--block-size",
                "1",
                "--plot-csv",
                str(plot),
            ]
        )
        assert code == 0
        original, cleaned = read_csv(dirty).samples, read_csv(out).samples
        assert np.signbit(original[1]) and cleaned[4] > 1e307
        rows = zip(original, cleaned)
        want = "index,original,cleaned\n" + "".join(
            f"{i},{o:.17g},{c:.17g}\n" for i, (o, c) in enumerate(rows)
        )
        assert plot.read_bytes() == want.encode()


class TestCompare:
    def test_full_grid(self, tmp_path, capsys):
        clean = synth_file(tmp_path, duration="30")
        dirty = tmp_path / "dirty.csv"
        dispatch(["contaminate", "--input", str(clean), "--output", str(dirty)])
        report = tmp_path / "report.csv"
        errdir = tmp_path / "errors"
        code = dispatch(
            [
                "compare",
                "--clean",
                str(clean),
                "--dirty",
                str(dirty),
                "--block-sizes",
                "36,72",
                "--output",
                str(report),
                "--block-errors-dir",
                str(errdir),
            ]
        )
        assert code == 0
        with open(report) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        totals = {(r["block_size"], r["method"]): float(r["total_error"]) for r in rows}
        for n in ("36", "72"):
            assert totals[(n, "rpt")] < totals[(n, "notch")]
        assert sorted(p.name for p in errdir.iterdir()) == [
            "errors_notch_n36.csv",
            "errors_notch_n72.csv",
            "errors_rpt_n36.csv",
            "errors_rpt_n72.csv",
        ]

    def test_bad_block_sizes_flag(self, tmp_path):
        clean = synth_file(tmp_path)
        code = dispatch(
            [
                "compare",
                "--clean",
                str(clean),
                "--dirty",
                str(clean),
                "--block-sizes",
                "36,oops",
                "--output",
                str(tmp_path / "r.csv"),
            ]
        )
        assert code == 1


class TestUsage:
    def test_unknown_subcommand(self):
        assert dispatch(["frobnicate"]) == 1

    def test_no_subcommand(self):
        assert dispatch([]) == 1


class TestZeroBlockSize:
    def test_notch_denoise(self, tmp_path, capsys):
        clean = synth_file(tmp_path)
        code = dispatch(
            [
                "denoise",
                "--method",
                "notch",
                "--input",
                str(clean),
                "--output",
                str(tmp_path / "o.csv"),
                "--block-size",
                "0",
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "usage error: block length must be positive, got 0\n"
        )

    def test_compare(self, tmp_path, capsys):
        clean = synth_file(tmp_path)
        code = dispatch(
            [
                "compare",
                "--clean",
                str(clean),
                "--dirty",
                str(clean),
                "--block-sizes",
                "0",
                "--output",
                str(tmp_path / "r.csv"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "usage error: block length must be positive, got 0\n"
        )

    def test_rpt_denoise(self, tmp_path, capsys):
        clean = synth_file(tmp_path)
        code = dispatch(
            [
                "denoise",
                "--method",
                "rpt",
                "--input",
                str(clean),
                "--output",
                str(tmp_path / "o.csv"),
                "--block-size",
                "0",
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "usage error: block length must be positive, got 0\n"
        )


@pytest.mark.parametrize(
    "method, flag, value, message",
    [
        ("rpt", "--f0", "nan", "frequency nan Hz outside"),
        ("notch", "--f0", "nan", "notch frequency nan Hz outside"),
        ("notch", "--q", "nan", "quality factor must be positive, got nan"),
        ("rpt", "--fs", "nan", "sampling rate nan must be positive and finite"),
        ("notch", "--fs", "nan", "sampling rate nan must be positive and finite"),
        ("notch", "--fs", "inf", "sampling rate inf must be positive and finite"),
        ("rpt", "--column", "-5", "column must be non-negative, got -5"),
    ],
)
def test_bad_flag_value_is_usage_error(
    tmp_path, capsys, method, flag, value, message
):
    clean = synth_file(tmp_path)
    capsys.readouterr()
    code = dispatch(
        [
            "denoise",
            "--method",
            method,
            "--input",
            str(clean),
            "--output",
            str(tmp_path / "o.csv"),
            "--block-size",
            "36",
            flag,
            value,
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: " + message) and err.count("\n") == 1


@pytest.mark.parametrize(
    "fmt, flags, code, message",
    [
        (
            "csv",
            ["--f0", "8e307", "--fs", "1.7e308"],
            1,
            "usage error: tone at f0=8e+307 Hz, fs=1.7e+308 Hz is not finite",
        ),
        ("csv", ["--amplitude", "nan"], 1, "usage error: amplitude must be finite"),
        ("csv", ["--amplitude=-inf"], 1, "usage error: amplitude must be finite"),
        ("csv", ["--phase", "inf"], 1, "usage error: phase must be finite, got inf"),
        ("wfdb212", ["--gain", "0"], 1, "usage error: gain must be finite and non-"),
        ("wfdb212", ["--gain", "nan"], 1, "usage error: gain must be finite"),
        ("wfdb212", ["--gain=-inf"], 1, "usage error: gain must be finite"),
        ("wfdb212", ["--gain", "1e-320"], 2, "data error: signal contains NaN or Inf"),
        ("wfdb212", ["--baseline", str(10**20)], 1, "usage error: baseline 10"),
    ],
)
def test_contaminate_bad_value_is_one_line(tmp_path, capsys, fmt, flags, code, message):
    """Non-finite or overflowing values end in one line, with no numpy warning."""
    if fmt == "csv":
        path = synth_file(tmp_path, duration="2")
    else:
        path = tmp_path / "r.dat"
        path.write_bytes(bytes(range(30)))
    capsys.readouterr()
    argv = ["contaminate", "--input", str(path), "--format", fmt]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = dispatch([*argv, "--output", str(tmp_path / "o.csv"), *flags])
    err = capsys.readouterr().err
    assert got == code
    assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--duration", "inf", "duration inf s must be positive and finite"),
        ("--duration", "nan", "duration nan s must be positive and finite"),
        ("--fs", "inf", "sampling rate inf must be positive and finite"),
        ("--fs", "nan", "sampling rate nan must be positive and finite"),
    ],
)
def test_synth_non_finite_names_the_flag(tmp_path, capsys, flag, value, message):
    code = dispatch(["synth", "--output", str(tmp_path / "x.csv"), flag, value])
    assert code == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_synth_overflowing_sample_count(tmp_path, capsys):
    argv = ["synth", "--output", str(tmp_path / "x.csv")]
    code = dispatch([*argv, "--duration", "1e200", "--fs", "1e200"])
    assert code == 1
    assert capsys.readouterr().err == (
        "usage error: duration 1e+200 s at 1e+200 Hz overflows the sample count\n"
    )


@pytest.mark.parametrize(
    "exc, message",
    [
        (MemoryError("Unable to allocate 2.56 PiB"), "Unable to allocate 2.56 PiB"),
        (MemoryError(), "out of memory"),
    ],
)
def test_memory_error_is_one_usage_line(tmp_path, capsys, monkeypatch, exc, message):
    def too_large(*args):
        raise exc

    monkeypatch.setattr("rpt.cli.synth_ecg", too_large)
    code = dispatch(["synth", "--output", str(tmp_path / "x.csv")])
    assert code == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not (tmp_path / "x.csv").exists()


def test_import_leaves_scipy_out():
    src = str(Path(rpt.__file__).parents[1])
    code = (
        "import sys, rpt, rpt.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout == "[]\n"
