"""io.halves: the block operators for N up to io.DENSE_BLOCK cut a record of
at least two tiles in two at a tile boundary and run the first part on a
helper thread. The output has the bits of the one-part output, an error in
either part reaches the caller, and the cut runs only where a second core is
free."""

import ctypes
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from rpt import io
from rpt.cli import dispatch
from rpt.metrics import compare_grid
from rpt.notch import design_notch, filter_blocked
from rpt.suppress import SuppressionConfig, run

SRC = Path(__file__).resolve().parents[1] / "src"

# (N, interference Hz, fs): a frequency on a bin of N at fs
BINS = [(1, 0.0, 360.0), (4, 90.0, 360.0), (35, 50.0, 350.0), (36, 50.0, 360.0),
        (72, 50.0, 360.0)]


def lengths(n):
    """Exactly two tiles, two tiles and one sample, the acceptance record, and
    a record of whole blocks that ends on the overlapping last tile."""
    step = io._step(n)
    return [2 * step, 2 * step + 1, 524_288, (5 * step // 2) // n * n]


@pytest.fixture
def cuts(monkeypatch):
    """Counts the parts handed to the helper thread."""
    submitted = []
    submit = io._submit

    def spy(job):
        submitted.append(job)
        return submit(job)

    monkeypatch.setattr(io, "_submit", spy)
    return submitted


def split_and_whole(monkeypatch, compute):
    """compute() with the cut forced off, then forced on."""
    monkeypatch.setattr(io, "_parallel", lambda: False)
    whole = compute()
    monkeypatch.setattr(io, "_parallel", lambda: True)
    return compute(), whole


@pytest.mark.parametrize("n, f0, fs", BINS)
def test_run_has_the_one_part_bits(monkeypatch, cuts, n, f0, fs):
    cfg = SuppressionConfig(block_size=n, interference_freqs=(f0,), fs=fs)
    for size in lengths(n):
        x = np.random.default_rng(size).normal(size=size)
        split, whole = split_and_whole(
            monkeypatch, lambda: run(io.Signal(samples=x, fs=fs), cfg).samples
        )
        assert np.array_equal(split, whole), size
    assert len(cuts) == len(lengths(n))


@pytest.mark.parametrize("n", [n for n, _, _ in BINS])
@pytest.mark.parametrize("q", [1.0, 30.0])
def test_filter_blocked_has_the_one_part_bits(monkeypatch, cuts, n, q):
    coeffs = design_notch(50.0, 360.0, q)
    for size in lengths(n):
        x = np.random.default_rng(size).normal(size=size)
        split, whole = split_and_whole(
            monkeypatch, lambda: filter_blocked(coeffs, x, n)
        )
        assert np.array_equal(split, whole), size
    assert len(cuts) == len(lengths(n))


# N = 1 has only the DC bin, which the notch cannot take
@pytest.mark.parametrize("n, f0, fs", BINS[1:])
def test_compare_grid_has_the_one_part_bits(monkeypatch, cuts, n, f0, fs):
    for size in lengths(n):
        rng = np.random.default_rng(size)
        clean = io.Signal(samples=rng.normal(size=size), fs=fs)
        dirty = io.add_sinusoid(clean, f0, 0.5, 0.3)
        split, whole = split_and_whole(
            monkeypatch, lambda: compare_grid(clean, dirty, [n], f0, 1.0)
        )
        assert [r.method for r in split] == ["rpt", "notch"]
        for a, b in zip(split, whole):
            assert np.array_equal(a.per_block_errors, b.per_block_errors), size
    assert len(cuts) == 2 * len(lengths(n))


def test_the_helper_takes_whole_tiles_up_to_the_middle(cuts, monkeypatch):
    monkeypatch.setattr(io, "_parallel", lambda: True)
    step = io._step(36)
    for size, cut in [(2 * step, 1), (2 * step + 7, 1), (3 * step, 1),
                      (3 * step + 7, 2), (4 * step + 7, 2), (5 * step + 7, 3)]:
        x = np.arange(float(size))
        out = np.empty_like(x)
        io.halves(lambda a, b, n: np.copyto(b, a), x, out, 36)
        part = cuts[-1][2]
        assert part.base is x and len(part) == cut * step
        assert np.array_equal(out, x)


@pytest.mark.parametrize("n", [73, 1440])
def test_blocks_past_the_dense_cut_run_in_one_part(monkeypatch, cuts, n):
    monkeypatch.setattr(io, "_parallel", lambda: True)
    x = np.random.default_rng(n).normal(size=524_288)
    cfg = SuppressionConfig(block_size=n, interference_freqs=(10.0,), fs=10.0 * n)
    run(io.Signal(samples=x, fs=10.0 * n), cfg)
    filter_blocked(design_notch(50.0, 360.0, 1.0), x, n)
    assert cuts == []


@pytest.mark.parametrize("n", [1, 36, 72])
def test_fewer_than_two_tiles_run_in_one_part(monkeypatch, cuts, n):
    monkeypatch.setattr(io, "_parallel", lambda: True)
    coeffs = design_notch(50.0, 360.0, 1.0)
    for size in (1, n, io._step(n), 2 * io._step(n) - 1):
        filter_blocked(coeffs, np.ones(size), n)
    assert cuts == []


def gate(monkeypatch, cpus, threads):
    monkeypatch.setattr(io.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    getter = None if threads is None else lambda: threads
    monkeypatch.setattr(io, "_openblas_threads", lambda: getter)
    return io._parallel()


def test_gate_needs_two_cpus_and_one_blas_thread(monkeypatch):
    assert gate(monkeypatch, cpus=2, threads=1)
    assert gate(monkeypatch, cpus=8, threads=1)
    assert not gate(monkeypatch, cpus=1, threads=1)
    assert not gate(monkeypatch, cpus=2, threads=2)
    assert not gate(monkeypatch, cpus=2, threads=None)  # no OpenBLAS found


def test_gate_is_off_when_the_openblas_lookup_fails(monkeypatch, tmp_path):
    lookup = io._openblas_threads.__wrapped__  # past the cache
    (tmp_path / "numpy").mkdir()
    monkeypatch.setattr(io.np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    assert lookup() is None  # no numpy.libs
    (tmp_path / "numpy.libs").mkdir()
    assert lookup() is None  # no OpenBLAS in it
    (tmp_path / "numpy.libs" / "libscipy_openblas64_-0.so").write_bytes(b"")
    assert lookup() is None  # not a library


def test_gate_reads_the_blas_thread_count_on_every_call():
    if io._openblas_threads() is None:
        pytest.skip("numpy's BLAS is not a bundled OpenBLAS")
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU")
    libs = Path(io.np.__file__).parent.parent / "numpy.libs"
    [path] = libs.glob("libscipy_openblas64_*.so")
    lib = ctypes.CDLL(str(path))
    before = lib.scipy_openblas_get_num_threads64_()
    try:
        lib.scipy_openblas_set_num_threads64_(1)
        assert io._parallel()
        lib.scipy_openblas_set_num_threads64_(2)
        assert not io._parallel()
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


def parts(monkeypatch, fail):
    """io.halves over four tiles with a row function that raises in the part
    named by fail; the other part sleeps first, then writes its output."""
    monkeypatch.setattr(io, "_parallel", lambda: True)
    x = np.arange(4.0 * io._step(36))
    out = np.zeros_like(x)
    threads = set()

    def apply(a, b, n):
        threads.add(threading.get_ident())
        mine = "caller" if a[0] else "helper"
        if mine == fail:
            raise ValueError(f"{mine} failed")
        time.sleep(0.05)
        b[...] = a

    return x, out, threads, lambda: io.halves(apply, x, out, 36)


@pytest.mark.parametrize("fail", ["helper", "caller"])
def test_an_error_in_either_part_is_raised_after_both_finish(monkeypatch, fail):
    x, out, threads, call = parts(monkeypatch, fail)
    with pytest.raises(ValueError, match=f"{fail} failed"):
        call()
    other = slice(None, len(x) // 2) if fail == "caller" else slice(len(x) // 2, None)
    assert np.array_equal(out[other], x[other])
    # the next call still splits, on the same helper thread
    x, out, threads, call = parts(monkeypatch, fail=None)
    call()
    assert len(threads) == 2 and np.array_equal(out, x)


def test_the_helper_part_runs_in_the_callers_numpy_error_state(monkeypatch):
    monkeypatch.setattr(io, "_parallel", lambda: True)
    step = io._step(36)
    x = np.zeros(2 * step)
    x[:36] = np.tile([1e308, -1e308], 18)  # overflows only in the helper's part
    cfg = SuppressionConfig(block_size=36, interference_freqs=(50.0,), fs=360.0)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        run(io.Signal(samples=x, fs=360.0), cfg)


@pytest.mark.parametrize("start", [0, 36_000])  # the helper's part, the caller's
def test_cli_overflow_in_either_part_is_one_data_error(
    monkeypatch, cuts, tmp_path, capsys, recwarn, start
):
    monkeypatch.setattr(io, "_parallel", lambda: True)
    x = np.zeros(40_000)  # two tiles and a partial one at N = 36
    x[start : start + 36] = np.tile([1e308, -1e308], 18)
    np.savetxt(tmp_path / "in.csv", x, fmt="%.17g")
    argv = ["denoise", "--input", str(tmp_path / "in.csv"),
            "--output", str(tmp_path / "out.csv"), "--method", "rpt",
            "--block-size", "36"]
    assert dispatch(argv) == 2
    assert capsys.readouterr().err == "data error: overflow encountered in matmul\n"
    assert len(recwarn) == 0
    [(run_, apply, part, *_)] = cuts
    assert (start < len(part)) == (start == 0)


def test_cli_import_and_a_split_load_no_python_queue():
    code = (
        "import sys, numpy as np\n"
        "import rpt.cli\n"
        "from rpt import io, notch\n"
        "python_queues = {'concurrent.futures', 'queue'}\n"
        "loaded = sorted(python_queues & set(sys.modules))\n"
        "io._parallel = lambda: True\n"
        "coeffs = notch.design_notch(50.0, 360.0, 1.0)\n"
        "notch.filter_blocked(coeffs, np.ones(99_999), 36)\n"
        "now = sorted(python_queues & set(sys.modules))\n"
        "print(loaded, now, '_queue' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", code]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[] [] True\n"  # the split ran, on the C queue


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
def test_a_forked_child_gets_its_own_helper(monkeypatch):
    x, out, threads, call = parts(monkeypatch, fail=None)
    call()  # the helper runs in this process
    with warnings.catch_warnings():  # newer Pythons warn on fork with threads
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # the child has lost the helper thread; a hang ends in SIGALRM
        signal.alarm(10)
        try:
            x, out, threads, call = parts(monkeypatch, fail=None)
            call()
            os._exit(0 if len(threads) == 2 and np.array_equal(out, x) else 1)
        finally:
            os._exit(2)
    assert os.waitpid(pid, 0)[1] == 0


def test_callers_on_many_threads_share_one_helper(monkeypatch):
    """Eight threads split at once, the first calls racing to start the
    helper; every output keeps its bits and one helper thread serves them."""
    monkeypatch.setattr(io, "_helper", None)
    monkeypatch.setattr(io, "_jobs", None)
    before = set(threading.enumerate())
    coeffs = design_notch(50.0, 360.0, 1.0)
    records = [np.random.default_rng(k).normal(size=99_999) for k in range(8)]
    expected = [filter_blocked(coeffs, x, 36) for x in records]
    monkeypatch.setattr(io, "_parallel", lambda: True)
    got = [None] * len(records)
    start = threading.Barrier(len(records))

    def work(k):
        start.wait(timeout=60)
        for _ in range(20):
            got[k] = filter_blocked(coeffs, records[k], 36)

    workers = [threading.Thread(target=work, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert all(np.array_equal(a, b) for a, b in zip(got, expected))
    helpers = [t for t in threading.enumerate() if t not in before]
    assert [t.name for t in helpers] == ["rpt-halves"]
