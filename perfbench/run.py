"""Benchmark of the rpt package: seeded inputs, three workloads, checked outputs.

Run from the root of a checkout that holds ``src/rpt``:

    python3 perfbench/run.py --workload grid-long-n --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py          # every workload, one after the other

Each workload runs one client in a closed loop: the next request starts when
the previous one returns.

- ``cli-300s``: one fresh ``python -m rpt.cli`` process per request on a 300 s
  record at 360 Hz, cycling through denoise (rpt, CSV), denoise (notch, from a
  212 file), spectrum and compare. Interpreter start, imports and CSV parsing
  and writing dominate, which is what a CLI user waits for.
- ``batch-small-n``: in-process ``suppress.run`` and ``notch.filter_blocked``
  at N=36 and N=72 on a 524 288-sample record, then scoring. The per-block
  operator and the padding dominate; plan building is a few percent.
- ``grid-long-n``: in-process ``metrics.compare_grid`` over N in {360, 720,
  1440} plus one period spectrum per N, on a fresh record per request. Plan
  building (``ramanujan`` and ``transform.build_plan``) dominates.

With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics, with in-process request times in host-neutral
seconds (see ``hostspeed.py``; the raw wall-clock values are printed above
it); with ``--trace 1`` it holds the per-layer metrics of a
separate traced run, in which spans around calls into each module of
``src/rpt`` are recorded from the benchmark's own files. Scratch files go to
``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads, here and in every child process. One
# client uses one core; on a shared 2-core virtual machine a second BLAS
# thread made request times less steady and no faster.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
from inputs import F0, FS, Q  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("cli-300s", "batch-small-n", "grid-long-n")
# Fresh processes timed for set-up in every run; the reported value is their median.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0
SPAWNED = "{spawned}"

END_TO_END = {
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_samples_per_s": "samples/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metric -> (unit, key in the span sums). Times and counts are per
# traced request. Which end-to-end metric each should move:
# - cli.*: setup_s everywhere, and latency on cli-300s;
# - io.*: latency on cli-300s only;
# - ramanujan.*, transform.build_plan.*, transform.plan_bytes: latency, setup_s
#   and peak_rss_mb on grid-long-n, barely batch-small-n;
# - transform.energy_spectrum: the spectrum share of cli-300s, part of
#   grid-long-n;
# - suppress.run, notch.filter_blocked, metrics.*: throughput on
#   batch-small-n; compare_grid also latency on grid-long-n.
# A module a workload never calls reads 0 there.
PER_LAYER = {
    "cli.interpreter_start_s": ("s", None),
    "cli.import_s": ("s", None),
    "cli.dispatch.self_s": ("s", "cli.dispatch.self_s"),
    "io.read_csv.total_s": ("s", "io.read_csv.total_s"),
    "io.read_csv.bytes": ("bytes", "io.read_csv.bytes"),
    "io.read_wfdb_212.total_s": ("s", "io.read_wfdb_212.total_s"),
    "io.read_wfdb_212.bytes": ("bytes", "io.read_wfdb_212.bytes"),
    "io.write_csv.total_s": ("s", "io.write_csv.total_s"),
    "io.write_csv.bytes": ("bytes", "io.write_csv.bytes"),
    "ramanujan.ramanujan_sum.calls": ("count", "ramanujan.ramanujan_sum.calls"),
    "ramanujan.ramanujan_sum.total_s": ("s", "ramanujan.ramanujan_sum.total_s"),
    "ramanujan.euler_totient.total_s": ("s", "ramanujan.euler_totient.total_s"),
    "ramanujan.shift_basis.self_s": ("s", "ramanujan.shift_basis.self_s"),
    "transform.build_plan.calls": ("count", "transform.build_plan.calls"),
    "transform.build_plan.self_s": ("s", "transform.build_plan.self_s"),
    "transform.plan_bytes": ("bytes", "transform.build_plan.plan_bytes"),
    "transform.energy_spectrum.total_s": ("s", "transform.energy_spectrum.total_s"),
    "suppress.run.calls": ("count", "suppress.run.calls"),
    "suppress.run.self_s": ("s", "suppress.run.self_s"),
    "notch.filter_blocked.total_s": ("s", "notch.filter_blocked.total_s"),
    "metrics.block_error.total_s": ("s", "metrics.block_error.total_s"),
    "metrics.compare_grid.self_s": ("s", "metrics.compare_grid.self_s"),
    "trace.request_s": ("s", None),
    "trace.overhead_ratio": ("ratio", None),
}


class BenchError(Exception):
    """The benchmark could not run (as opposed to a request that failed)."""


@dataclass
class Finished:
    """A child process that has ended."""

    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    return env


def spawn(argv: list[str], timeout: float = CHILD_TIMEOUT_S) -> Finished:
    """Run argv to completion; wall time from spawn to exit, and its peak RSS.

    An argument equal to ``SPAWNED`` is replaced by the CLOCK_MONOTONIC time
    at which the child was started.
    """
    out_path, err_path = WORK / "child.out", WORK / "child.err"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        t0 = time.monotonic()
        argv = [repr(t0) if a == SPAWNED else a for a in argv]
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=child_env()
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Finished(
            code=proc.returncode,
            wall_s=wall,
            rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out.read().decode("utf-8", "replace"),
            stderr=err.read().decode("utf-8", "replace"),
        )


@dataclass
class Measurement:
    """Raw observations of one run of one workload."""

    latencies: list[float] = field(default_factory=list)  # untraced, after the first
    samples: list[int] = field(default_factory=list)  # input samples of each of those
    neutral: list[float] = field(default_factory=list)  # host-neutral, if measured
    kernel_s: list[float] = field(default_factory=list)  # host-speed kernel timings
    setup_s: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    traced: list[float] = field(default_factory=list)
    span_sums: dict[str, float] = field(default_factory=dict)
    interpreter_start_s: list[float] = field(default_factory=list)
    import_s: list[float] = field(default_factory=list)
    missing_wraps: set[str] = field(default_factory=set)

    def add_spans(self, report: dict) -> None:
        for key, value in report["span_sums"].items():
            self.span_sums[key] = self.span_sums.get(key, 0) + value
        self.missing_wraps.update(report["missing_wraps"])


# ---------------------------------------------------------------- cli-300s


@dataclass(frozen=True)
class CliRequest:
    name: str
    args: list[str]
    samples: int
    check: Callable[[Finished], bool]
    outputs: tuple[Path, ...] = ()


def _read_column(path: Path) -> np.ndarray | None:
    try:
        return np.array([float(v) for v in path.read_text().split()])
    except (OSError, ValueError):
        return None


def _csv_matches(path: Path, expected: np.ndarray, scale: float) -> bool:
    values = _read_column(path)
    return values is not None and reference.close(values, expected, scale)


def _spectrum_matches(stdout: str, block: np.ndarray) -> bool:
    lines = stdout.strip().splitlines()
    if not lines or lines[0] != "period,energy,fraction":
        return False
    try:
        got = {int(p): float(e) for p, e, _ in (ln.split(",") for ln in lines[1:])}
    except ValueError:
        return False
    expected = reference.period_energies(block)
    scale = float(np.linalg.norm(block))
    return got.keys() == expected.keys() and all(
        reference.close_energy(got[m], e, scale) for m, e in expected.items()
    )


def _report_matches(path: Path, totals: dict, n_samples: int, scale: float) -> bool:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        got = {(int(r[0]), r[1]): (float(r[2]), int(r[3])) for r in rows}
    except (OSError, ValueError, IndexError):
        return False
    return (
        header == ["block_size", "method", "total_error", "num_blocks"]
        and len(rows) == len(totals)
        and got.keys() == totals.keys()
        and all(
            got[key][1] == -(-n_samples // key[0])
            and reference.close_energy(got[key][0], total, scale)
            for key, total in totals.items()
        )
    )


def cli_requests(seed: int) -> list[CliRequest]:
    """Write the seeded input files and build the four request kinds."""
    rec = inputs.make_record(108_000, seed, 0)
    n = 36
    grid = (36, 72, 108, 144, 180)  # the CLI's default --block-sizes
    clean_csv, dirty_csv, dirty_212 = (
        WORK / "clean.csv", WORK / "dirty.csv", WORK / "dirty.dat"
    )
    inputs.write_csv(rec.clean, clean_csv)
    inputs.write_csv(rec.dirty, dirty_csv)
    raw = inputs.quantize_212(rec.dirty)
    inputs.write_212(raw, inputs.quantize_212(rec.clean), dirty_212)
    from_212 = (raw - inputs.BASELINE_212) / inputs.GAIN_212

    scale = float(np.linalg.norm(rec.dirty))
    rpt_expected = reference.suppress(rec.dirty, n, F0, FS)
    notch_expected = reference.notch(from_212, n, F0, FS, Q)
    totals = reference.grid_totals(rec.clean, rec.dirty, grid, F0, FS, Q)
    rpt_out, notch_out, report = (
        WORK / "rpt_out.csv", WORK / "notch_out.csv", WORK / "report.csv"
    )
    samples = len(rec.dirty)
    return [
        CliRequest(
            "denoise-rpt",
            ["denoise", "--method", "rpt", "--block-size", str(n),
             "--input", str(dirty_csv), "--output", str(rpt_out)],
            samples,
            lambda run: _csv_matches(rpt_out, rpt_expected, scale),
            (rpt_out,),
        ),
        CliRequest(
            "denoise-notch-212",
            ["denoise", "--method", "notch", "--block-size", str(n),
             "--format", "wfdb212", "--input", str(dirty_212),
             "--output", str(notch_out)],
            samples,
            lambda run: _csv_matches(
                notch_out, notch_expected, float(np.linalg.norm(from_212))
            ),
            (notch_out,),
        ),
        CliRequest(
            "spectrum",
            ["spectrum", "--block-size", str(n), "--input", str(dirty_csv)],
            samples,
            lambda run: _spectrum_matches(run.stdout, rec.dirty[:n]),
        ),
        CliRequest(
            "compare",
            ["compare", "--clean", str(clean_csv), "--dirty", str(dirty_csv),
             "--output", str(report)],
            2 * samples,
            lambda run: _report_matches(report, totals, samples, scale),
            (report,),
        ),
    ]


def measure_cli(seed: int, seconds: float, trace: bool) -> Measurement:
    """Whole cycles of the four commands; with tracing, untraced and traced
    cycles alternate and end on a traced one."""
    m = Measurement()
    requests = cli_requests(seed)
    for _ in range(SETUP_SAMPLES):
        run = spawn([sys.executable, "-c", "import rpt.cli"])
        if run.code != 0:
            raise BenchError(f"import rpt.cli failed:\n{run.stderr}")
        m.setup_s.append(run.wall_s)

    cycle = 0
    start = time.monotonic()
    while time.monotonic() - start < seconds or (trace and cycle % 2):
        traced = trace and cycle % 2 == 1
        for req in requests:
            for path in req.outputs:
                path.unlink(missing_ok=True)
            if traced:
                spans_file = WORK / f"spans-cli-{m.attempted}.json"
                argv = [sys.executable, str(HERE / "cli_runner.py"), SPAWNED,
                        str(spans_file), "--", *req.args]
            else:
                argv = [sys.executable, "-m", "rpt.cli", *req.args]
            run = spawn(argv)
            ok = run.code == 0 and req.check(run)
            if not ok:
                print(f"# {req.name} failed (exit {run.code}):\n{run.stderr}",
                      file=sys.stderr)
            m.attempted += 1
            m.failed += not ok
            if traced:
                m.traced.append(run.wall_s)
                if spans_file.exists():  # not when the process was killed
                    report = json.loads(spans_file.read_text())
                    m.add_spans(report)
                    m.interpreter_start_s.append(report["interpreter_start_s"])
                    m.import_s.append(report["import_s"])
            else:
                m.latencies.append(run.wall_s)
                m.samples.append(req.samples)
                m.rss_mb.append(run.rss_mb)
        cycle += 1
    return m


# ------------------------------------------------------ in-process workloads


def measure_inprocess(workload: str, seed: int, seconds: float, trace: bool) -> Measurement:
    """Set-up-only workers, then one worker that runs the closed loop."""
    m = Measurement()
    spans_file = WORK / f"spans-{workload}.json"
    for secs in [0.0] * (SETUP_SAMPLES - 1) + [seconds]:
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", repr(secs), "--trace", str(int(trace)),
                "--spawned", SPAWNED, "--spans", str(spans_file)]
        run = spawn(argv, timeout=secs + CHILD_TIMEOUT_S)
        if run.stderr:
            print(run.stderr, file=sys.stderr, end="")
        if run.code != 0:
            raise BenchError(f"worker for {workload} exited with {run.code}")
        report = json.loads(run.stdout.splitlines()[-1])
        m.setup_s.append(report["setup_s"])
        m.interpreter_start_s.append(report["interpreter_start_s"])
        m.import_s.append(report["import_s"])
        m.attempted += report["attempted"]
        m.failed += report["failed"]
    m.latencies = report["latencies"]
    m.neutral = report["neutral_latencies"]
    m.kernel_s = report["kernel_s"]
    m.samples = [report["samples_per_request"]] * len(m.latencies)
    m.rss_mb = [run.rss_mb]
    m.traced = report["traced_latencies"]
    if trace:
        m.add_spans(report)
    return m


# ------------------------------------------------------------------ metrics


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile up to p90 with at least ten samples beyond it, never
    below the median: (value, percentile, samples beyond).

    The cap matters only above 100 samples. Uncapped, batch-small-n reported
    its p98, which on a shared host follows host stalls more than the program:
    its quartile spread over ten runs reached 0.24.
    """
    s = sorted(latencies)
    rank = max(min(len(s) - 11, math.ceil(0.9 * len(s)) - 1), len(s) // 2)
    return s[rank], 100.0 * (rank + 1) / len(s), len(s) - rank - 1


def end_to_end(m: Measurement, host_neutral: bool = True) -> dict[str, float]:
    """The end-to-end metrics, request times host-neutral (where measured) or raw.

    ``setup_s``, and request times on cli-300s, are always raw: they are mostly
    process start and imports, which the host-speed kernel does not track
    (normalized by it, they spread more than raw ones).
    """
    latencies = m.neutral if host_neutral and m.neutral else m.latencies
    return {
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail(latencies)[0],
        "throughput_samples_per_s": sum(m.samples) / sum(latencies),
        "peak_rss_mb": max(m.rss_mb),
        "setup_s": statistics.median(m.setup_s),
    }


def per_layer(m: Measurement) -> dict[str, float]:
    requests = len(m.traced)
    out = {
        name: m.span_sums.get(key, 0) / requests
        for name, (_, key) in PER_LAYER.items()
        if key is not None
    }
    out["cli.interpreter_start_s"] = statistics.median(m.interpreter_start_s)
    out["cli.import_s"] = statistics.median(m.import_s)
    out["trace.request_s"] = statistics.fmean(m.traced)
    out["trace.overhead_ratio"] = statistics.median(m.traced) / statistics.median(
        m.latencies
    )
    return {name: out[name] for name in PER_LAYER}


def module_shares(m: Measurement, cli: bool) -> dict[str, float]:
    """Share of a traced request spent in each module's own code."""
    request_s = statistics.fmean(m.traced)
    shares: dict[str, float] = {}
    for key, value in m.span_sums.items():
        if key.endswith(".self_s"):
            module = key.split(".")[0]
            shares[module] = shares.get(module, 0) + value / len(m.traced) / request_s
    if cli:
        shares["interpreter start"] = statistics.fmean(m.interpreter_start_s) / request_s
        shares["imports"] = statistics.fmean(m.import_s) / request_s
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    if workload == "cli-300s":
        m = measure_cli(seed, seconds, trace)
    else:
        m = measure_inprocess(workload, seed, seconds, trace)

    print(f"# {workload}: environment {json.dumps(environment(seed))}")
    if trace:
        values = per_layer(m)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        shares = module_shares(m, workload == "cli-300s")
        print(f"# {workload}: {len(m.traced)} traced and {len(m.latencies)} "
              f"untraced requests; share of a traced request by module: "
              + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
        if m.missing_wraps:
            print(f"# {workload}: not found, not traced: {sorted(m.missing_wraps)}")
    else:
        values = end_to_end(m)
        units = END_TO_END
        _, pct, beyond = tail(m.latencies)
        print(f"# {workload}: {len(m.latencies)} timed requests; "
              f"latency_tail_s is p{pct:.1f} with {beyond} samples beyond it")
        if m.neutral:
            kernel = statistics.median(m.kernel_s)
            print(f"# {workload}: host-speed kernel median {kernel:.6g} s "
                  f"(reference {hostspeed.REF_S} s); raw wall-clock: " + ", ".join(
                      f"{name} = {value:.6g} {units[name]}"
                      for name, value in end_to_end(m, host_neutral=False).items()))
    for name, value in values.items():
        print(f"# {workload}: {name} = {value:.6g} {units[name]}")
    print(f"# {workload}: error_rate = {m.failed / m.attempted:.6g} "
          f"({m.failed} of {m.attempted} attempted)")
    return {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main() -> int:
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument("--workload", choices=WORKLOADS, default=None,
                   help="workload to run (default: all of them)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "rpt" / "cli.py").is_file():
        print(f"error: {ROOT} holds no src/rpt; run from the root of a checkout",
              file=sys.stderr)
        return 2
    try:
        if args.workload is not None:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            result = {
                w: run_workload(w, args.seed, args.seconds, bool(args.trace))
                for w in WORKLOADS
            }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
