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
from rpt.cli import build_parser
from rpt.io import add_sinusoid, synth_ecg
from rpt.metrics import compare_grid
from test_io import pack_frames


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

    def test_zero_block_prints_zero_fractions(self, tmp_path, capsys):
        path = tmp_path / "zero.csv"
        write_csv(Signal(samples=np.zeros(72), fs=360.0), path)
        code = dispatch(["spectrum", "--input", str(path), "--block-size", "36"])
        assert code == 0
        assert capsys.readouterr().out == "period,energy,fraction\n" + "".join(
            f"{m},0,0\n" for m in (1, 2, 3, 4, 6, 9, 12, 18, 36)
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

    def test_length_mismatch_names_both_files(self, tmp_path, capsys):
        clean = synth_file(tmp_path)
        dirty = synth_file(tmp_path, name="short.csv", duration="9")
        argv = ["compare", "--clean", str(clean), "--dirty", str(dirty)]
        code = dispatch([*argv, "--output", str(tmp_path / "r.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"data error: {clean} has 3600 samples but {dirty} has 3240\n"
        )
        assert not (tmp_path / "r.csv").exists()


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
        ("notch", "--q", "inf", "quality factor must be finite, got inf"),
        ("notch", "--q", "1e300", "notch at 50.0 Hz with Q=1e+300 rounds to an"),
        ("notch", "--f0", "1e-300", "notch at 1e-300 Hz with Q=1.0 rounds to an"),
        ("rpt", "--f0", "inf", "frequency inf Hz outside"),
        ("notch", "--f0", "inf", "notch frequency inf Hz outside"),
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
        ("csv", ["--amplitude", "inf"], 1, "usage error: amplitude must be finite"),
        ("csv", ["--phase", "nan"], 1, "usage error: phase must be finite, got nan"),
        ("wfdb212", ["--gain", "inf"], 1, "usage error: gain must be finite"),
        ("wfdb212", ["--channels", "3"], 1, "usage error: channels must be 1 or 2, got 3"),
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


def test_synth_of_no_samples_names_the_duration(tmp_path, capsys):
    argv = ["synth", "--output", str(tmp_path / "x.csv"), "--duration", "1e-9"]
    assert dispatch(argv) == 1
    assert capsys.readouterr().err == (
        "usage error: duration 1e-09 s at 360.0 Hz gives no samples\n"
    )
    assert not (tmp_path / "x.csv").exists()


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


def test_process_exit_status_is_dispatch_result(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(rpt.__file__).parents[1])}
    clean = tmp_path / "clean.csv"

    def rpt_process(*argv):
        cmd = [sys.executable, "-m", "rpt.cli", *argv]
        return subprocess.run(cmd, capture_output=True, text=True, env=env)

    out = rpt_process("synth", "--output", str(clean), "--duration", "2")
    assert (out.returncode, out.stderr) == (0, "")
    argv = ["--input", str(clean), "--output", str(tmp_path / "o.csv")]
    out = rpt_process("denoise", *argv, "--block-size", "35")
    assert out.returncode == 3
    assert out.stderr.startswith("configuration error: ")
    assert out.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--input", "BIG", "--block-size=4"],
        ["denoise", "--input", "BIG", "--output", "OUT", "--block-size=4", "--f0=90"],
        ["compare", "--clean", "BIG", "--dirty", "BIG", "--output", "OUT"]
        + ["--block-sizes=4", "--f0=90"],
    ],
    ids=["spectrum", "denoise", "compare"],
)
def test_overflow_is_one_data_error_line(tmp_path, capsys, argv):
    """Finite samples whose transform overflows end in one line, exit 2."""
    big = tmp_path / "big.csv"
    write_csv(Signal(samples=np.tile([1e308, -1e308], 18), fs=360.0), big)
    out = tmp_path / "out.csv"
    code = dispatch([{"BIG": str(big), "OUT": str(out)}.get(a, a) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("data error:") and err.count("\n") == 1, err
    assert not out.exists()


def test_compare_overflowing_total_is_one_data_error_line(tmp_path, capsys):
    rng = np.random.default_rng(0)
    record = tmp_path / "e306.csv"
    write_csv(Signal(samples=rng.standard_normal(3600) * 1e306, fs=360.0), record)
    report = tmp_path / "r.csv"
    argv = ["compare", "--clean", str(record), "--dirty", str(record)]
    code = dispatch([*argv, "--block-sizes", "36", "--output", str(report)])
    assert code == 2
    assert capsys.readouterr() == (
        "",
        "data error: rpt total error at block size 36 overflows the float range\n",
    )
    assert not report.exists()


@pytest.mark.parametrize(
    "value, message",
    [
        ("36,x", "--block-sizes must be comma-separated integers"),
        (",", "--block-sizes is empty"),
    ],
)
def test_bad_block_sizes_message(tmp_path, capsys, value, message):
    clean = synth_file(tmp_path, duration="1")
    capsys.readouterr()
    argv = ["compare", "--clean", str(clean), "--dirty", str(clean)]
    code = dispatch([*argv, f"--block-sizes={value}", "--output", str(tmp_path / "r")])
    assert code == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["denoise", "--input", "BAD", "--output", "OUT", "--block-size", "36"],
        ["compare", "--clean", "CLEAN", "--dirty", "BAD", "--output", "OUT"],
    ],
    ids=["denoise", "compare"],
)
def test_non_utf8_csv_is_one_data_error_line(tmp_path, capsys, argv):
    """A CSV that is not UTF-8 is a data error naming the file, not a usage error."""
    clean = synth_file(tmp_path, duration="1")
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"1.0\n\xff\n2.0\n")
    out = tmp_path / "out.csv"
    capsys.readouterr()
    names = {"BAD": str(bad), "CLEAN": str(clean), "OUT": str(out)}
    code = dispatch([names.get(a, a) for a in argv])
    assert code == 2
    assert capsys.readouterr() == (
        "",
        f"data error: {bad}: not UTF-8 text (invalid start byte)\n",
    )
    assert not out.exists()


def test_empty_wfdb212_is_one_data_error_line(tmp_path, capsys):
    path = tmp_path / "r.dat"
    path.write_bytes(b"")
    argv = ["denoise", "--input", str(path), "--format", "wfdb212", "--block-size=36"]
    code = dispatch([*argv, "--output", str(tmp_path / "o.csv")])
    assert code == 2
    assert capsys.readouterr().err == f"data error: {path}: empty file\n"


def test_csv_comment_is_not_a_number(tmp_path, capsys):
    """`#` starts no comment in a CSV: the line is a parse error naming it."""
    path = tmp_path / "note.csv"
    path.write_text("0.25\n0.5 # note\n0.75\n", encoding="utf-8")
    argv = ["denoise", "--input", str(path), "--output", str(tmp_path / "o.csv")]
    assert dispatch([*argv, "--block-size", "36"]) == 2
    assert capsys.readouterr() == (
        "",
        f"data error: {path}:2: cannot parse '0.5 # note' as a number\n",
    )


def test_contaminate_212_defaults_read_channel_0_of_record_100(tmp_path):
    """Default --channels, --channel, --gain and --baseline are MIT-BIH 100's."""
    raw0 = [1024, 1224, 824, 2047, -2048, 0, 1000]
    raw1 = [0, -1, 5, 100, 1023, -7, 2000]
    path = tmp_path / "100.dat"
    path.write_bytes(pack_frames(raw0, raw1))
    out = tmp_path / "o.csv"
    argv = ["contaminate", "--input", str(path), "--format", "wfdb212"]
    assert dispatch([*argv, "--amplitude", "0", "--output", str(out)]) == 0
    want = (np.array(raw0) - 1024) / 200
    assert read_csv(out).samples.tolist() == want.tolist()


@pytest.mark.parametrize("n, f0", [(144, 90.0), (360, 50.0)], ids=["m4", "m36"])
def test_long_block_overflow_is_one_data_error_line(tmp_path, capsys, n, f0):
    """Past io.DENSE_BLOCK, a block whose fold to the target period m (4 or 36)
    overflows ends in one line, exit 2, as on short blocks."""
    big = tmp_path / "big.csv"
    write_csv(Signal(samples=np.tile([1e308, -1e308], 720), fs=360.0), big)
    out = tmp_path / "out.csv"
    argv = ["denoise", "--input", str(big), "--output", str(out)]
    code = dispatch([*argv, f"--block-size={n}", f"--f0={f0}"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("data error:") and err.count("\n") == 1, err
    assert not out.exists()


def test_parser_defaults():
    """The defaults the README documents: a 300 s record at 72 bpm and 360 Hz,
    a 0.5 tone at 50 Hz, block 0, Q = 1 and the paper's block sizes."""
    parse = build_parser().parse_args
    args = vars(parse(["synth", "--output", "o"]))
    assert (args["duration"], args["fs"], args["heart_rate"]) == (300.0, 360.0, 72.0)
    args = vars(parse(["contaminate", "--input", "i", "--output", "o"]))
    assert (args["f0"], args["amplitude"], args["phase"]) == (50.0, 0.5, 0.0)
    assert args["format"] == "csv" and args["column"] == 0
    args = vars(parse(["spectrum", "--input", "i", "--block-size", "36"]))
    assert args["block_index"] == 0
    args = vars(parse(["compare", "--clean", "c", "--dirty", "d", "--output", "o"]))
    assert (args["fs"], args["column"], args["f0"], args["q"]) == (360.0, 0, 50.0, 1.0)
    assert args["block_sizes"] == "36,72,108,144,180"


CONTAMINATE = ["contaminate", "--input", "IN", "--output", "OUT"]
SPECTRUM = ["spectrum", "--input", "IN", "--block-size", "36"]
DENOISE = ["denoise", "--input", "IN", "--output", "OUT", "--block-size", "36"]
COMPARE = ["compare", "--clean", "IN", "--dirty", "IN", "--output", "OUT"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (CONTAMINATE, "--input"),
        (CONTAMINATE, "--output"),
        (SPECTRUM, "--block-size"),
        (DENOISE, "--output"),
        (DENOISE, "--block-size"),
        (COMPARE, "--clean"),
        (COMPARE, "--dirty"),
        (COMPARE, "--output"),
    ],
)
def test_a_missing_required_flag_is_one_usage_line(tmp_path, capsys, argv, flag):
    paths = {"IN": str(synth_file(tmp_path)), "OUT": str(tmp_path / "o.csv")}
    argv = [paths.get(a, a) for a in argv]
    del argv[argv.index(flag) : argv.index(flag) + 2]
    assert dispatch(argv) == 1
    assert capsys.readouterr() == (
        "",
        f"usage error: the following arguments are required: {flag}\n",
    )


@pytest.mark.parametrize("flag", ["--method", "--format"])
def test_an_unknown_choice_is_one_usage_line(tmp_path, capsys, flag):
    argv = ["denoise", "--input", str(synth_file(tmp_path)), "--block-size", "36"]
    assert dispatch([*argv, "--output", str(tmp_path / "o.csv"), flag, "foo"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: argument {flag}: invalid choice: 'foo'"), err


def test_contaminate_212_reads_the_channel_and_rate_given(tmp_path):
    raw0, raw1 = [1024, 1224, 824], [-5, 7, 2000]
    path = tmp_path / "r.dat"
    path.write_bytes(pack_frames(raw0, raw1))
    out = tmp_path / "o.csv"
    argv = ["contaminate", "--input", str(path), "--format", "wfdb212", "--gain", "1"]
    argv += ["--channels", "2", "--channel", "1", "--baseline", "0", "--fs", "500"]
    argv += ["--f0", "200", "--amplitude", "0", "--output", str(out)]
    assert dispatch(argv) == 0
    assert read_csv(out).samples.tolist() == [-5.0, 7.0, 2000.0]


def test_spectrum_takes_the_last_whole_block(tmp_path, capsys):
    clean = synth_file(tmp_path)  # 3600 samples: blocks 0 to 99 of 36
    argv = ["spectrum", "--input", str(clean), "--block-size", "36"]
    assert dispatch([*argv, "--block-index", "99"]) == 0
    assert capsys.readouterr().out.startswith("period,energy,fraction\n1,")


def test_spectrum_fractions_of_a_block_with_energy_below_one(tmp_path, capsys):
    path = tmp_path / "small.csv"
    write_csv(Signal(samples=np.full(4, 0.1), fs=360.0), path)
    assert dispatch(["spectrum", "--input", str(path), "--block-size", "4"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [float(r["fraction"]) for r in rows] == [1.0, 0.0, 0.0]


def test_compare_reads_the_column_and_rate_given(tmp_path, capsys):
    """Column 1 of both files at 350 Hz, where 50 Hz has an integer bin at
    N = 35 and 360 Hz has none; column 0 holds the other file's record, so
    reading it from either file would change the errors."""
    clean = synth_ecg(2.0, 350.0, 72.0)
    dirty = add_sinusoid(clean, 50.0, 0.5)
    paths = []
    for name, sig, other in (("clean", clean, dirty), ("dirty", dirty, clean)):
        path = tmp_path / f"{name}.csv"
        pairs = zip(other.samples.tolist(), sig.samples.tolist())
        path.write_text("".join(f"{u!r},{v!r}\n" for u, v in pairs), "utf-8")
        paths += [f"--{name}", str(path)]
    argv = ["compare", *paths, "--column", "1", "--fs", "350", "--block-sizes", "35"]
    assert dispatch([*argv, "--output", str(tmp_path / "r.csv")]) == 0
    rows = list(csv.DictReader((tmp_path / "r.csv").read_text().splitlines()))
    want = compare_grid(clean, dirty, [35], 50.0, 1.0)
    assert [float(r["total_error"]) for r in rows] == [r.total for r in want]
    assert [r["num_blocks"] for r in rows] == ["20", "20"]


def test_no_subcommand_is_named_in_one_usage_line(capsys):
    assert dispatch([]) == 1
    assert capsys.readouterr() == (
        "",
        "usage error: the following arguments are required: subcommand\n",
    )


def test_compare_makes_the_block_errors_dir_and_reuses_it(tmp_path):
    clean = synth_file(tmp_path)
    argv = ["compare", "--clean", str(clean), "--dirty", str(clean)]
    argv += ["--block-sizes", "36", "--output", str(tmp_path / "r.csv")]
    errors = tmp_path / "a" / "b"
    for _ in range(2):
        assert dispatch([*argv, "--block-errors-dir", str(errors)]) == 0
    assert sorted(p.name for p in errors.iterdir()) == [
        "errors_notch_n36.csv",
        "errors_rpt_n36.csv",
    ]
