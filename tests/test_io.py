"""Readers, writers, contamination, and the synthetic ECG fixture."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rpt.io import (
    DataFormatError,
    ECG_R_AMPLITUDE,
    Signal,
    add_sinusoid,
    read_csv,
    read_wfdb_212,
    synth_ecg,
    write_csv,
)
from rpt.transform import build_plan, energy_spectrum


class TestCsv:
    def test_single_column(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1.0\n2.0\n")
        sig = read_csv(p, column=0, fs=360.0)
        assert sig.samples.tolist() == [1.0, 2.0]
        assert sig.fs == 360.0

    def test_column_select(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("0,5.5\n1,6.5\n")
        assert read_csv(p, column=1).samples.tolist() == [5.5, 6.5]

    def test_unparsable_line_reports_number(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("1.0\nbogus\n")
        with pytest.raises(DataFormatError, match=":2"):
            read_csv(p)

    def test_missing_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0\n")
        with pytest.raises(DataFormatError):
            read_csv(p, column=3)

    @pytest.mark.parametrize("column", [-1, -5])
    def test_rejects_negative_column(self, tmp_path, column):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0\n")
        with pytest.raises(ValueError, match="column must be non-negative"):
            read_csv(p, column=column)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        with pytest.raises(DataFormatError):
            read_csv(p)

    def test_rejects_nan(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("nan\n")
        with pytest.raises(DataFormatError):
            read_csv(p)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(20)
        x = rng.normal(scale=1e3, size=1000)
        p = tmp_path / "g.csv"
        write_csv(Signal(samples=x, fs=360.0), p)
        back = read_csv(p)
        assert np.array_equal(back.samples, x)

    @pytest.mark.parametrize("text", ["", "\n\n", "\r\n"])
    def test_no_rows_raise_without_warning(self, tmp_path, text):
        p = tmp_path / "e.csv"
        p.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError, match="no samples found"):
                read_csv(p)

    @pytest.mark.parametrize(
        "values",
        [
            [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308],
            [1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3, 1e-5],
            np.random.default_rng(21).normal(scale=1e3, size=1000).tolist(),
        ],
    )
    def test_write_matches_per_sample_format(self, tmp_path, values):
        p = tmp_path / "w.csv"
        write_csv(Signal(samples=np.array(values), fs=360.0), p)
        want = "".join(f"{v:.17g}\n" for v in np.array(values))
        assert p.read_bytes() == want.encode("utf-8")

    def test_refuses_empty_write(self, tmp_path):
        sig = Signal(samples=np.zeros(1), fs=360.0)
        write_csv(sig, tmp_path / "ok.csv")
        with pytest.raises(ValueError):
            write_csv(
                Signal(samples=np.zeros(0), fs=360.0), tmp_path / "nope.csv"
            )


def _read_csv_by_lines(path, column, fs=360.0):
    """The line-by-line parser read_csv falls back to, as the reference."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if column >= len(fields):
                raise DataFormatError(
                    f"{path}:{lineno}: column {column} missing ({len(fields)} fields)"
                )
            try:
                values.append(float(fields[column]))
            except ValueError:
                raise DataFormatError(
                    f"{path}:{lineno}: cannot parse {fields[column]!r} as a number"
                ) from None
    if not values:
        raise DataFormatError(f"{path}: no samples found")
    return Signal(samples=np.array(values), fs=fs)


FIELD_TOKENS = [*"0123456789+-.eE_ \t", "\ufeff", "nan", "inf", "\u0661", "1.5", "-0"]
FIELD_TOKENS += ["1e308", "9e999"]
CSV_TOKENS = [*FIELD_TOKENS, ",", "\n", "\r", "\r\n", "  \n"]


def _outcome(read, path, column):
    try:
        return read(path, column=column).samples.tobytes()
    except (DataFormatError, ValueError) as exc:
        return type(exc), str(exc)


# Token soup, mostly malformed, and rows of numbers loadtxt parses as well.
token_soup = st.lists(st.sampled_from(CSV_TOKENS), max_size=40).map("".join)
csv_field = st.one_of(
    st.floats().map(repr),
    st.floats().map(lambda v: f" {v:.6e} "),
    st.lists(st.sampled_from(FIELD_TOKENS), max_size=4).map("".join),
)
csv_rows = st.builds(
    lambda rows, newline: "".join(row + newline for row in rows),
    st.lists(st.lists(csv_field, min_size=1, max_size=3).map(",".join), max_size=8),
    st.sampled_from(["\n", "\r\n", "\r"]),
)


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(token_soup, csv_rows), column=st.integers(0, 2))
@example(text="1_0\n", column=0)
@example(text="\u0661\n", column=0)
@example(text="1\n \n2\n", column=0)
@example(text="\ufeff1\n", column=0)
@example(text="1,2\n3\n", column=1)
@example(text="1,2\r\n3,4\r\n", column=1)
def test_read_csv_matches_line_parser(tmp_path_factory, text, column):
    p = tmp_path_factory.mktemp("csv") / "x.csv"
    p.write_bytes(text.encode("utf-8"))
    assert _outcome(read_csv, p, column) == _outcome(_read_csv_by_lines, p, column)


def test_read_csv_huge_column_names_line(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("1,2\n")
    with pytest.raises(DataFormatError, match=f"x.csv:1: column {2**70} missing"):
        read_csv(p, column=2**70)


def pack_frames(samples1, samples2):
    """Independent bit-packing oracle: two 12-bit values into three bytes."""
    out = bytearray()
    for s1, s2 in zip(samples1, samples2):
        u1, u2 = s1 & 0xFFF, s2 & 0xFFF
        out.append(u1 & 0xFF)
        out.append((u1 >> 8) | ((u2 >> 8) << 4))
        out.append(u2 & 0xFF)
    return bytes(out)


class TestWfdb212:
    def test_zero_frame(self, tmp_path):
        p = tmp_path / "z.dat"
        p.write_bytes(bytes([0x00, 0x00, 0x00]))
        sig = read_wfdb_212(p, channels=2, select=0, gain=1.0, baseline=0)
        assert sig.samples.tolist() == [0.0]

    def test_sign_extension_frame(self, tmp_path):
        # bytes [0xFF, 0x3F, 0xFF] decode to raw (-1, 1023)
        p = tmp_path / "s.dat"
        p.write_bytes(bytes([0xFF, 0x3F, 0xFF]))
        a = read_wfdb_212(p, channels=2, select=0, gain=1.0, baseline=0)
        b = read_wfdb_212(p, channels=2, select=1, gain=1.0, baseline=0)
        assert a.samples.tolist() == [-1.0]
        assert b.samples.tolist() == [1023.0]

    def test_gain_baseline(self, tmp_path):
        p = tmp_path / "g.dat"
        p.write_bytes(pack_frames([1224], [0]))
        sig = read_wfdb_212(p, channels=2, select=0, gain=200.0, baseline=1024)
        assert sig.samples.tolist() == [1.0]

    def test_matches_packing_oracle(self, tmp_path):
        rng = np.random.default_rng(21)
        s1 = rng.integers(-2048, 2048, size=10_000)
        s2 = rng.integers(-2048, 2048, size=10_000)
        p = tmp_path / "r.dat"
        p.write_bytes(pack_frames(s1.tolist(), s2.tolist()))
        a = read_wfdb_212(p, channels=2, select=0, gain=1.0, baseline=0)
        b = read_wfdb_212(p, channels=2, select=1, gain=1.0, baseline=0)
        assert np.array_equal(a.samples, s1.astype(float))
        assert np.array_equal(b.samples, s2.astype(float))

    def test_single_channel_interleaves(self, tmp_path):
        p = tmp_path / "m.dat"
        p.write_bytes(pack_frames([10, 30], [20, 40]))
        sig = read_wfdb_212(p, channels=1, select=0, gain=1.0, baseline=0)
        assert sig.samples.tolist() == [10.0, 20.0, 30.0, 40.0]

    def test_truncated_frame(self, tmp_path):
        p = tmp_path / "t.dat"
        p.write_bytes(bytes([0x01, 0x02]))
        with pytest.raises(DataFormatError):
            read_wfdb_212(p)

    def test_bad_channel(self, tmp_path):
        p = tmp_path / "c.dat"
        p.write_bytes(bytes(3))
        with pytest.raises(ValueError):
            read_wfdb_212(p, channels=2, select=2)


class TestAddSinusoid:
    def test_zero_amplitude_identity(self):
        sig = Signal(samples=np.arange(10.0), fs=360.0)
        out = add_sinusoid(sig, 50.0, 0.0)
        assert np.array_equal(out.samples, sig.samples)

    def test_closed_form(self):
        sig = Signal(samples=np.zeros(36), fs=360.0)
        out = add_sinusoid(sig, 50.0, 1.0, 0.0)
        assert out.samples[0] == 0.0
        assert abs(out.samples[9] - 1.0) < 1e-12  # sin(5*pi/2)
        n = np.arange(36)
        assert np.abs(out.samples - np.sin(2 * np.pi * 5 * n / 36)).max() < 1e-12

    def test_energy_over_full_periods(self):
        sig = Signal(samples=np.zeros(36), fs=360.0)
        for amplitude in [1.0, 0.5, 3.0]:
            out = add_sinusoid(sig, 50.0, amplitude, 0.7)
            energy = float(out.samples @ out.samples)
            assert abs(energy - amplitude**2 * 18.0) < 1e-9

    def test_invertible(self):
        rng = np.random.default_rng(22)
        sig = Signal(samples=rng.normal(size=500), fs=360.0)
        out = add_sinusoid(sig, 50.0, 0.8, 0.3)
        back = add_sinusoid(out, 50.0, -0.8, 0.3)
        assert np.abs(back.samples - sig.samples).max() < 1e-12

    def test_rejects_aliased(self):
        sig = Signal(samples=np.zeros(10), fs=360.0)
        with pytest.raises(ValueError):
            add_sinusoid(sig, 180.0, 1.0)
        for f0 in (-180.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="aliases"):
                add_sinusoid(sig, f0, 1.0)


class TestSynthEcg:
    def test_one_beat(self):
        sig = synth_ecg(1.0, 360.0, 60.0)
        assert len(sig) == 360
        peaks = np.where(sig.samples > 0.9 * ECG_R_AMPLITUDE)[0]
        assert len(peaks) >= 1
        assert abs(sig.samples.max() - ECG_R_AMPLITUDE) < 1e-3
        assert sig.samples.argmax() == 144  # R center at 0.4 of the beat

    def test_two_beats_at_120(self):
        sig = synth_ecg(1.0, 360.0, 120.0)
        peaks = np.where(sig.samples > 0.9 * ECG_R_AMPLITUDE)[0]
        # two R peaks spaced half a second apart
        clusters = np.split(peaks, np.where(np.diff(peaks) > 1)[0] + 1)
        assert len(clusters) == 2
        assert clusters[1][0] - clusters[0][0] == 180

    def test_deterministic(self):
        a = synth_ecg(3.0, 360.0, 72.0)
        b = synth_ecg(3.0, 360.0, 72.0)
        assert np.array_equal(a.samples, b.samples)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            synth_ecg(0.0, 360.0, 72.0)
        with pytest.raises(ValueError):
            synth_ecg(1.0, 360.0, 300.0)

    def test_quiet_block_has_little_v36_energy(self):
        # baseline block between beats: bounded leakage into the period-36
        # subspace (QRS-bearing blocks legitimately exceed this bound)
        sig = synth_ecg(300.0, 360.0, 72.0)
        plan = build_plan(36)
        block = sig.samples[13 * 36 : 14 * 36]
        spec = energy_spectrum(plan, block)
        assert spec[36] / sum(spec.values()) < 0.20


def test_signal_views_the_callers_array_without_freezing_it():
    x = np.ones(3)
    s = Signal(samples=x, fs=360.0)
    x[0] = 2
    assert not s.samples.flags.writeable
    assert np.shares_memory(s.samples, x)  # a view, not a copy


@pytest.mark.parametrize("fs", [0.0, -360.0])
def test_signal_rejects_a_sampling_rate_that_is_not_positive(fs):
    with pytest.raises(ValueError, match="must be positive and finite"):
        Signal(samples=np.zeros(3), fs=fs)


def test_signal_takes_a_sampling_rate_below_one_hz():
    assert Signal(samples=np.zeros(3), fs=0.5).fs == 0.5


def test_readers_default_to_record_100(tmp_path):
    """360 Hz for both readers; channel 0 of two, gain 200 and baseline 1024
    for the 212 reader."""
    text = tmp_path / "x.csv"
    text.write_text("1\n2\n", encoding="utf-8")
    assert read_csv(text).fs == 360.0
    binary = tmp_path / "x.dat"
    binary.write_bytes(pack_frames([1224, 624], [0, 0]))
    sig = read_wfdb_212(binary)
    assert sig.fs == 360.0 and sig.samples.tolist() == [1.0, -2.0]


@pytest.mark.parametrize("baseline", [2**53, -(2**53)])
def test_wfdb_212_rejects_a_baseline_of_2_to_the_53(tmp_path, baseline):
    path = tmp_path / "b.dat"
    path.write_bytes(bytes(3))
    with pytest.raises(ValueError, match=rf"baseline {baseline} outside"):
        read_wfdb_212(path, baseline=baseline)


def test_add_sinusoid_starts_at_phase_zero():
    sig = Signal(samples=np.zeros(36), fs=360.0)
    want = add_sinusoid(sig, 50.0, 1.0, 0.0).samples
    assert np.array_equal(add_sinusoid(sig, 50.0, 1.0).samples, want)


def test_add_sinusoid_past_the_float_range_is_a_data_error_without_warning():
    sig = Signal(samples=np.full(4, 1.5e308), fs=360.0)
    with pytest.raises(DataFormatError, match="NaN or Inf"):
        add_sinusoid(sig, 50.0, 1e308, 0.5)


@pytest.mark.parametrize(
    "duration, fs, message",
    [(0.0, 360.0, "duration 0.0 s must be positive"), (1.0, 0.0, "sampling rate 0.0")],
)
def test_synth_ecg_names_a_duration_or_rate_that_is_not_positive(duration, fs, message):
    with pytest.raises(ValueError, match=message):
        synth_ecg(duration, fs, 72.0)


def test_synth_ecg_takes_a_sampling_rate_below_one_hz():
    assert len(synth_ecg(10.0, 0.5, 72.0)) == 5


@pytest.mark.parametrize("heart_rate", [20.0, 240.0])
def test_synth_ecg_takes_the_heart_rate_bounds(heart_rate):
    assert len(synth_ecg(3.0, 360.0, heart_rate)) == 1080


@pytest.mark.parametrize("heart_rate", [19.5, 240.5])
def test_synth_ecg_rejects_a_heart_rate_past_its_bounds(heart_rate):
    with pytest.raises(ValueError, match=f"heart rate {heart_rate} bpm outside"):
        synth_ecg(3.0, 360.0, heart_rate)


BIG = np.finfo(float).max


@pytest.mark.parametrize(
    "samples",
    [[1e200, -1e200], [BIG, -BIG], [-BIG] * 3, [1e-200, 5e-324], [1e200, 1e-200]],
)
def test_signal_takes_finite_samples_whose_sum_of_squares_leaves_the_float_range(
    samples,
):
    x = np.array(samples)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        sig = Signal(samples=x, fs=360.0)
    assert np.array_equal(sig.samples, x)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 500, -1], ids=["first", "middle", "last"])
@pytest.mark.parametrize("scale", [1.0, 1e200], ids=["small", "overflowing"])
def test_signal_rejects_a_non_finite_sample_anywhere(bad, where, scale):
    """Also where the finite samples' own sum of squares overflows."""
    x = scale * np.random.default_rng(5).normal(size=1001)
    x[where] = bad
    with np.errstate(all="raise"), pytest.raises(DataFormatError, match="NaN or Inf"):
        Signal(samples=x, fs=360.0)


def test_signal_takes_an_int_array_as_a_view():
    x = np.arange(-3, 4)
    sig = Signal(samples=x, fs=360.0)
    assert sig.samples.dtype == x.dtype and np.shares_memory(sig.samples, x)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_signal_checks_a_2d_array_sample_by_sample(dtype):
    x = np.ones((3, 4), dtype=dtype)
    assert Signal(samples=x, fs=360.0).samples.shape == (3, 4)
    x[2, 1] = np.nan
    with pytest.raises(DataFormatError, match="NaN or Inf"):
        Signal(samples=x, fs=360.0)


def test_signal_checks_a_float32_array_sample_by_sample():
    """Its sum of squares would overflow float32 at 1e30."""
    x = np.array([1e30, -1e30], dtype=np.float32)
    assert Signal(samples=x, fs=360.0).samples.dtype == np.float32
    x[1] = np.inf
    with pytest.raises(DataFormatError, match="NaN or Inf"):
        Signal(samples=x, fs=360.0)


@pytest.mark.parametrize(
    "view, finite",
    [
        (np.s_[::2], True),
        (np.s_[1::2], False),
        (np.s_[::-1], False),
        (np.s_[::-5], True),
    ],
)
def test_signal_checks_only_the_samples_of_a_strided_view(view, finite):
    x = np.random.default_rng(6).normal(size=100)
    x[51] = np.inf  # on the odd and reversed views; ::-5 reads 99, 94, ..., 4
    if finite:
        sig = Signal(samples=x[view], fs=360.0)
        assert np.shares_memory(sig.samples, x)
        assert np.array_equal(sig.samples, x[view])
    else:
        with pytest.raises(DataFormatError, match="NaN or Inf"):
            Signal(samples=x[view], fs=360.0)
