"""One in-process workload in a fresh interpreter, driven by ``run.py``.

The worker imports the program, runs a first request (its set-up), then runs
requests in a closed loop with one client until ``--seconds`` have passed.
A request is one or more steps; the host-speed kernel of ``hostspeed.py`` is
timed before each step and after the last one, outside the request's time,
so each step's time can be made host-neutral. Every output is checked against
``reference.py`` outside the timed region.
With ``--trace 1`` odd requests run with spans installed and even requests
without, so both halves see the same conditions. The result is one JSON
object on standard output.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

T_IMPORT = time.monotonic()
import numpy as np  # noqa: E402
from rpt import io, metrics, notch, suppress, transform  # noqa: E402

IMPORT_S = time.monotonic() - T_IMPORT

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
from inputs import F0, FS, Q  # noqa: E402


class BatchSmallN:
    """Both methods at the paper's block sizes on one long record, then scoring.

    524 288 is a multiple of neither 36 nor 72, so the padding path runs.
    """

    SIZES = (36, 72)
    LENGTH = 524_288

    def __init__(self, seed: int):
        self.record = inputs.make_record(self.LENGTH, seed, 1)
        self.expected = None

    def prepare(self, index: int):
        return self.record

    def steps(self, rec):
        return [lambda: self._run(rec)]

    def _run(self, rec):
        sig = io.Signal(samples=rec.dirty, fs=FS)
        coeffs = notch.design_notch(F0, FS, Q)
        out = {}
        for n in self.SIZES:
            cfg = suppress.SuppressionConfig(
                block_size=n, interference_freqs=(F0,), fs=FS
            )
            out[("rpt", n)] = suppress.run(sig, cfg).samples
            out[("notch", n)] = notch.filter_blocked(coeffs, rec.dirty, n)
        scores = {key: metrics.block_error(rec.clean, y) for key, y in out.items()}
        return out, scores

    def check(self, rec, outputs) -> bool:
        [result] = outputs
        if self.expected is None:
            self.expected = {}
            for n in self.SIZES:
                self.expected[("rpt", n)] = reference.suppress(rec.dirty, n, F0, FS)
                self.expected[("notch", n)] = reference.notch(rec.dirty, n, F0, FS, Q)
        out, scores = result
        scale = float(np.linalg.norm(rec.dirty))
        return out.keys() == self.expected.keys() and all(
            reference.close(out[key], y, scale)
            and reference.close_energy(
                scores[key], reference.squared_error(rec.clean, y), scale
            )
            for key, y in self.expected.items()
        )


class GridLongN:
    """The comparison grid and one period spectrum per N at long blocks.

    Each request gets a fresh record; N is the same in every request.
    ``compare_grid`` is called once per N, the same work as one call over the
    three (it treats each N on its own), so that the host speed is sampled
    between them: a request takes seconds.
    """

    SIZES = (360, 720, 1440)
    LENGTH = 108_000

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self, index: int):
        return inputs.make_record(self.LENGTH, self.seed, 2, index)

    def steps(self, rec):
        clean = io.Signal(samples=rec.clean, fs=FS)
        dirty = io.Signal(samples=rec.dirty, fs=FS)
        grid = [
            lambda n=n: metrics.compare_grid(clean, dirty, [n], F0, Q)
            for n in self.SIZES
        ]
        return [*grid, lambda: self._spectra(rec)]

    def _spectra(self, rec):
        return {
            n: transform.energy_spectrum(transform.build_plan(n), rec.dirty[:n])
            for n in self.SIZES
        }

    def check(self, rec, outputs) -> bool:
        *grid, spectra = outputs
        reports = [report for reports in grid for report in reports]
        totals = reference.grid_totals(rec.clean, rec.dirty, self.SIZES, F0, FS, Q)
        scale = float(np.linalg.norm(rec.dirty))
        got = {(r.block_size, r.method): r for r in reports}
        if got.keys() != totals.keys() or len(reports) != len(totals):
            return False
        for key, total in totals.items():
            report = got[key]
            if len(report.per_block_errors) != -(-self.LENGTH // report.block_size):
                return False
            if not reference.close_energy(report.total, total, scale):
                return False
        for n, spectrum in spectra.items():
            block = rec.dirty[:n]
            expected = reference.period_energies(block)
            block_scale = float(np.linalg.norm(block))
            if spectrum.keys() != expected.keys() or not all(
                reference.close_energy(spectrum[m], e, block_scale)
                for m, e in expected.items()
            ):
                return False
        return True


WORKLOADS = {"batch-small-n": BatchSmallN, "grid-long-n": GridLongN}


class Timer:
    """Times request steps; with a kernel, also the host speed around each."""

    def __init__(self, kernel=None):
        self.kernel = kernel
        self.kernel_s = []  # before each step, then after the last one

    def step(self, fn):
        """Run fn; return its result and its (time, index of the kernel time before it)."""
        if self.kernel is not None:
            self.kernel_s.append(self.kernel.measure())
        t0 = time.perf_counter()
        result = fn()
        return result, (time.perf_counter() - t0, len(self.kernel_s) - 1)

    def finish(self):
        if self.kernel is not None:
            self.kernel_s.append(self.kernel.measure())

    def neutral(self, timed) -> float:
        """Host-neutral time of a request from its steps' (time, index) pairs."""
        return sum(
            hostspeed.neutral(t, self.kernel_s[i], self.kernel_s[i + 1])
            for t, i in timed
        )


def _attempt(workload, rec, timer, tracer=None):
    """Run and time one request step by step, then check it.

    Returns ([(time, kernel index)] of the steps run, ok)."""
    if tracer is not None:
        tracer.install()
    outputs, timed = [], []
    try:
        for fn in workload.steps(rec):
            output, t = timer.step(fn)
            outputs.append(output)
            timed.append(t)
    except Exception:
        traceback.print_exc()
        outputs = None
    if tracer is not None:
        tracer.uninstall()
    if outputs is None:
        return timed, False
    try:
        return timed, workload.check(rec, outputs)
    except Exception:
        traceback.print_exc()
        return timed, False


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned", type=float, required=True,
                   help="CLOCK_MONOTONIC time at which the parent started us")
    p.add_argument("--spans", default=None, help="file for the recorded spans")
    args = p.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    timed, ok = _attempt(workload, workload.prepare(0), Timer())
    # Interpreter start, imports and the first request; input generation and
    # the harness's own imports are left out.
    setup_s = (T_START - args.spawned) + IMPORT_S + sum(t for t, _ in timed)
    attempted, failed = 1, int(not ok)

    tracer = spans.Tracer() if args.trace else None
    timer = Timer(hostspeed.Kernel() if args.seconds > 0 else None)
    untraced, traced = [], []
    index = 0
    loop_start = time.monotonic()
    while time.monotonic() - loop_start < args.seconds:
        index += 1
        rec = workload.prepare(index)
        if tracer is not None and index % 2:
            tracer.request = index
            timed, ok = _attempt(workload, rec, timer, tracer)
            traced.append(sum(t for t, _ in timed))
        else:
            timed, ok = _attempt(workload, rec, timer)
            untraced.append(timed)
        attempted += 1
        failed += not ok
    timer.finish()

    out = {
        "setup_s": setup_s,
        "interpreter_start_s": T_START - args.spawned,
        "import_s": IMPORT_S,
        "samples_per_request": workload.LENGTH,
        "latencies": [sum(t for t, _ in timed) for timed in untraced],
        "neutral_latencies": [timer.neutral(timed) for timed in untraced],
        "kernel_s": timer.kernel_s,
        "traced_latencies": traced,
        "attempted": attempted,
        "failed": failed,
    }
    if tracer is not None:
        out["span_sums"] = spans.summarize(tracer.spans)
        out["missing_wraps"] = sorted(tracer.missing)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
