"""Error measures and the method-comparison grid."""

import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rpt.io import Signal, add_sinusoid, synth_ecg
from rpt.metrics import (
    SuppressionReport,
    block_error,
    compare_grid,
    total_error,
    write_block_errors_csv,
    write_report_csv,
)
from rpt.transform import build_plan, project


class TestBlockError:
    def test_identical_blocks(self):
        assert block_error([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_difference(self):
        assert block_error([1.0, 0.0], [0.0, 0.0]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            block_error([1.0], [1.0, 2.0])

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
    )
    def test_symmetric_nonnegative(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        e = block_error(a, b)
        assert e >= 0.0
        assert e == block_error(b, a)
        if a == b:
            assert e == 0.0

    def test_sums_over_every_sample_of_any_shape(self):
        assert block_error(np.ones((2, 2)), np.zeros((2, 2))) == 4.0
        assert block_error(np.arange(6.0).reshape(2, 3), np.zeros((2, 3))) == 55.0
        assert block_error(3.0, 1.0) == 4.0
        assert block_error([], []) == 0.0

    def test_shape_mismatch_of_same_size(self):
        with pytest.raises(ValueError, match="block length mismatch"):
            block_error(np.ones((2, 2)), np.ones(4))

    def test_chunked_sum_equals_one_difference(self):
        # three chunks, the last one partial
        rng = np.random.default_rng(9)
        a, b = rng.normal(size=(2, 2 * 16_384 + 5))
        d = a - b
        assert abs(block_error(a, b) - d @ d) <= 1e-12 * (d @ d)

    def test_peak_memory_is_one_chunk(self):
        """No difference of the record's size: a twentieth of a record at most."""
        clean, recon = np.random.default_rng(17).normal(size=(2, 524_288))
        tracemalloc.start()
        try:
            block_error(clean, recon)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.05 * clean.nbytes


class TestTotalError:
    def test_empty(self):
        assert total_error([]) == 0.0

    def test_sum(self):
        assert total_error([1.0, 2.0, 3.0]) == 6.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            total_error([1.0, -0.5])

    def test_monotone_aggregation(self):
        base = [0.5, 1.5]
        assert total_error(base + [0.25]) > total_error(base)


@pytest.fixture(scope="module")
def signals():
    clean = synth_ecg(30.0, 360.0, 72.0)
    dirty = add_sinusoid(clean, 50.0, 0.5)
    return clean, dirty


class TestCompareGrid:
    def test_zero_signal(self):
        zero = Signal(samples=np.zeros(360), fs=360.0)
        # a strictly zero signal is rejected by the CSV writer but fine here
        reports = compare_grid(zero, zero, [36], 50.0, 1.0)
        assert all(r.total == 0.0 for r in reports)

    def test_no_interference_error_is_projection_leakage(self, signals):
        clean, _ = signals
        reports = compare_grid(clean, clean, [36], 50.0, 1.0)
        rpt_report = next(r for r in reports if r.method == "rpt")
        plan = build_plan(36)
        blocks = clean.samples[: len(clean) // 36 * 36].reshape(-1, 36)
        for i in range(10):
            leak = project(plan, blocks[i], 36)
            assert abs(rpt_report.per_block_errors[i] - leak @ leak) < 1e-9

    def test_grid_shape_and_totals(self, signals):
        clean, dirty = signals
        reports = compare_grid(clean, dirty, [36, 72], 50.0, 1.0)
        assert len(reports) == 4
        for r in reports:
            assert len(r.per_block_errors) == -(-len(clean) // r.block_size)
            assert abs(r.total - r.per_block_errors.sum()) <= 1e-9 * max(r.total, 1.0)

    def test_rpt_beats_notch(self, signals):
        clean, dirty = signals
        reports = compare_grid(clean, dirty, [36, 72, 108], 50.0, 1.0)
        d = {(r.block_size, r.method): r.total for r in reports}
        for n in [36, 72, 108]:
            assert d[(n, "rpt")] < d[(n, "notch")]

    def test_length_mismatch(self):
        a = Signal(samples=np.zeros(100), fs=360.0)
        b = Signal(samples=np.zeros(99), fs=360.0)
        with pytest.raises(ValueError):
            compare_grid(a, b, [36], 50.0, 1.0)


def test_report_total_is_the_sum_of_block_errors():
    report = SuppressionReport(36, "rpt", np.array([1.0, 2.0]))
    assert report.fields == (36, "rpt", 3.0, 2)
    with pytest.raises(TypeError):  # E is not stored beside the e_i
        SuppressionReport(36, "rpt", np.array([1.0, 2.0]), total=10.0)


class TestReportCsv:
    def test_round_trip(self, tmp_path):
        clean = synth_ecg(5.0, 360.0, 72.0)
        dirty = add_sinusoid(clean, 50.0, 0.5)
        reports = compare_grid(clean, dirty, [36], 50.0, 1.0)
        path = tmp_path / "report.csv"
        write_report_csv(reports, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["block_size"] == "36"
        assert {r["method"] for r in rows} == {"rpt", "notch"}
        for row, rep in zip(rows, reports):
            assert float(row["total_error"]) == rep.total
            assert int(row["num_blocks"]) == len(rep.per_block_errors)

    def test_block_errors_csv(self, tmp_path):
        clean = synth_ecg(2.0, 360.0, 72.0)
        dirty = add_sinusoid(clean, 50.0, 0.5)
        report = compare_grid(clean, dirty, [36], 50.0, 1.0)[0]
        path = tmp_path / "blocks.csv"
        write_block_errors_csv(report, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(report.per_block_errors)
        assert float(rows[3]["e_i"]) == report.per_block_errors[3]

    def test_exact_bytes(self, tmp_path):
        clean = synth_ecg(2.0, 360.0, 72.0)
        dirty = add_sinusoid(clean, 50.0, 0.5)
        reports = compare_grid(clean, dirty, [36, 72], 50.0, 1.0)
        path = tmp_path / "report.csv"
        write_report_csv(reports, path)
        want = "block_size,method,total_error,num_blocks\n" + "".join(
            f"{r.block_size},{r.method},{r.total:.17g},{len(r.per_block_errors)}\n"
            for r in reports
        )
        assert path.read_bytes() == want.encode()
        write_block_errors_csv(reports[1], path)
        want = "block_index,e_i\n" + "".join(
            f"{i},{e:.17g}\n" for i, e in enumerate(reports[1].per_block_errors)
        )
        assert path.read_bytes() == want.encode()
