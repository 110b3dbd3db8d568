"""CLI contract: every flag value ends in exit 0-3 and, on failure, one line.

Block sizes stay within a few times the fixture length: a size near 1e9 is a
valid request that pads the record to gigabytes, not a contract failure.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rpt.cli import dispatch
from rpt.io import add_sinusoid, synth_ecg, write_csv
from rpt.io import Signal

LENGTH = 360

sizes = st.integers(-4 * LENGTH, 4 * LENGTH)
reals = st.one_of(
    st.sampled_from([0.0, 0.1, 50.0, 60.0, 180.0, 250.0, 360.0]), st.floats()
)
# bounded, so that no drawn synth record holds more than a few thousand samples
durations = st.one_of(st.sampled_from([1.0, 2.0]), st.floats(max_value=2.0))
rates = st.one_of(st.sampled_from([250.0, 360.0]), st.floats(max_value=1000.0))
block_sizes = st.one_of(
    st.lists(sizes, max_size=3).map(lambda ns: ",".join(map(str, ns))),
    st.sampled_from(["36,oops", ",", " 36"]),
)
inputs = st.one_of(
    st.just(["--input", "CLEAN"]),
    st.just(["--input", "REC212", "--format", "wfdb212"]),
    st.just(["--input", "REC212", "--format", "wfdb212", "--channels", "1"]),
)


def flags(**strategies):
    """Each flag either absent or given a drawn value."""
    return st.tuples(
        *(
            st.one_of(st.just([]), s.map(lambda v, f=f: [f"--{f}={v}"]))
            for f, s in strategies.items()
        )
    ).map(lambda parts: [a for part in parts for a in part])


common = dict(fs=reals, column=st.integers())
commands = st.one_of(
    st.tuples(
        st.just(["spectrum"]),
        inputs,
        st.builds(lambda n: [f"--block-size={n}"], sizes),
        flags(**{"block-index": st.integers()}, **common),
    ),
    st.tuples(
        st.just(["denoise", "--output", "OUT"]),
        inputs,
        st.builds(lambda n: [f"--block-size={n}"], sizes),
        flags(method=st.sampled_from(["rpt", "notch"]), f0=reals, q=reals, **common),
    ),
    st.tuples(
        st.just(
            ["compare", "--clean", "CLEAN", "--dirty", "DIRTY", "--output", "OUT"]
        ),
        flags(**{"block-sizes": block_sizes}, f0=reals, q=reals, **common),
    ),
    st.tuples(
        st.just(["contaminate", "--output", "OUT"]),
        inputs,
        flags(f0=reals, **common),
    ),
    st.tuples(
        st.just(["synth", "--output", "OUT"]),
        flags(duration=durations, fs=rates, **{"heart-rate": reals}),
    ),
).map(lambda parts: [a for part in parts for a in part])


DENOISE = ["denoise", "--output", "OUT", "--input", "CLEAN"]


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    clean = synth_ecg(LENGTH / 360.0, 360.0, 72.0)
    write_csv(clean, root / "clean.csv")
    write_csv(add_sinusoid(clean, 50.0, 0.5), root / "dirty.csv")
    rng = np.random.default_rng(0)
    frames = rng.integers(0, 256, size=3 * LENGTH // 2, dtype=np.uint8)
    (root / "rec.dat").write_bytes(frames.tobytes())
    return {
        "CLEAN": str(root / "clean.csv"),
        "DIRTY": str(root / "dirty.csv"),
        "REC212": str(root / "rec.dat"),
        "OUT": str(root / "out.csv"),
    }


@settings(max_examples=200, deadline=None)
@given(argv=commands)
@example(argv=[*DENOISE, "--block-size=36", "--column=-5"])
@example(argv=[*DENOISE, "--block-size=0"])
@example(argv=[*DENOISE, "--block-size=36", "--f0=nan"])
@example(argv=["spectrum", "--input", "CLEAN", "--block-size=36", "--block-index=-1"])
@example(argv=["synth", "--output", "OUT", "--fs=inf"])
@example(argv=["synth", "--output", "OUT", "--fs=nan"])
@example(argv=["synth", "--output", "OUT", "--duration=inf"])
@example(argv=["synth", "--output", "OUT", "--duration=nan"])
@example(argv=["synth", "--output", "OUT", "--duration=1e200", "--fs=1e200"])
def test_exit_code_and_one_line(paths, argv):
    argv = [paths.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    assert code in (0, 1, 2, 3)
    if code:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()


EXTREMES = [1e308, -1e308, np.finfo(float).max, -np.finfo(float).max, 5e-324, -5e-324]
extreme_records = st.lists(
    st.one_of(
        st.sampled_from(EXTREMES), st.floats(allow_nan=False, allow_infinity=False)
    ),
    min_size=1,
    max_size=72,
)


@settings(max_examples=100, deadline=None)
@given(samples=extreme_records, n=st.sampled_from([1, 2, 4, 36]))
def test_extreme_samples_exit_code_and_one_line(tmp_path_factory, samples, n):
    """Finite samples up to the float range end in exit 0-3 and, on failure, one
    line; a success prints and writes no nan or inf."""
    root = tmp_path_factory.mktemp("extreme")
    clean, dirty, out = root / "clean.csv", root / "dirty.csv", root / "out.csv"
    write_csv(Signal(samples=np.array(samples), fs=360.0), clean)
    write_csv(Signal(samples=np.array(samples[::-1]), fs=360.0), dirty)
    denoise = ["denoise", "--input", str(dirty), "--output", str(out), "--f0=90"]
    compare = ["compare", "--clean", str(clean), "--dirty", str(dirty), "--f0=90"]
    for argv in (
        ["spectrum", "--input", str(clean), f"--block-size={n}"],
        [*denoise, f"--block-size={n}"],
        [*denoise, f"--block-size={n}", "--method=notch"],
        [*compare, f"--block-sizes={n}", "--output", str(out)],
    ):
        out.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = dispatch(argv)
        assert code in (0, 1, 2, 3)
        if code:
            assert len(stderr.getvalue().splitlines()) == 1, stderr.getvalue()
        else:
            written = out.read_text() if out.exists() else ""
            for text in (stdout.getvalue(), written):
                assert "nan" not in text and "inf" not in text, (argv, text)
