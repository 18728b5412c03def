"""Metric container semantics."""

import numpy as np
import pytest

from repro.engine.metrics import (
    GenerationResult,
    RequestRecord,
    ServingReport,
    StepMetrics,
    latency_percentiles,
)
from repro.errors import SimulationError


def _step(stage="decode", start=0.0, end=1.0, hits=3, misses=1):
    return StepMetrics(
        stage=stage,
        n_tokens=1,
        start=start,
        end=end,
        hits=hits,
        misses=misses,
        utilization={"gpu": 0.5, "cpu": 0.25, "pcie": 0.0},
    )


class TestStepMetrics:
    def test_duration(self):
        assert _step(start=1.0, end=3.5).duration == pytest.approx(2.5)

    def test_hit_rate(self):
        assert _step(hits=3, misses=1).hit_rate == pytest.approx(0.75)

    def test_hit_rate_no_accesses(self):
        assert _step(hits=0, misses=0).hit_rate == 0.0


class TestGenerationResult:
    def _result(self):
        return GenerationResult(
            model_name="tiny",
            strategy_name="hybrimoe",
            cache_ratio=0.5,
            prefill=_step(stage="prefill", start=0.0, end=2.0),
            decode_steps=[
                _step(start=2.0, end=2.5),
                _step(start=2.5, end=3.5),
            ],
            total_hits=9,
            total_misses=3,
        )

    def test_ttft(self):
        assert self._result().ttft == pytest.approx(2.0)

    def test_mean_tbt(self):
        assert self._result().mean_tbt == pytest.approx(0.75)

    def test_throughput_inverse_of_tbt(self):
        result = self._result()
        assert result.decode_throughput == pytest.approx(1.0 / result.mean_tbt)

    def test_hit_rates(self):
        result = self._result()
        assert result.hit_rate == pytest.approx(0.75)
        assert result.decode_hit_rate() == pytest.approx(0.75)

    def test_missing_prefill_raises(self):
        result = GenerationResult("t", "s", 0.5, prefill=None)
        with pytest.raises(SimulationError):
            _ = result.ttft

    def test_missing_decode_raises(self):
        result = GenerationResult("t", "s", 0.5, prefill=_step("prefill"))
        with pytest.raises(SimulationError):
            _ = result.mean_tbt

    def test_mean_utilization(self):
        util = self._result().mean_utilization("decode")
        assert util["gpu"] == pytest.approx(0.5)

    def test_summary_fields(self):
        summary = self._result().summary()
        assert summary["model"] == "tiny"
        assert "ttft" in summary and "mean_tbt" in summary

    def test_tbt_percentiles(self):
        result = self._result()
        values = result.tbt_values
        assert result.p50_tbt == pytest.approx(float(np.percentile(values, 50)))
        assert result.p95_tbt == pytest.approx(float(np.percentile(values, 95)))
        assert result.p99_tbt == pytest.approx(float(np.percentile(values, 99)))
        assert result.p50_tbt <= result.p95_tbt <= result.p99_tbt

    def test_tbt_percentiles_without_decode_raise(self):
        result = GenerationResult("t", "s", 0.5, prefill=_step("prefill"))
        with pytest.raises(SimulationError):
            _ = result.p99_tbt

    def test_summary_includes_percentiles(self):
        summary = self._result().summary()
        assert {"p50_tbt", "p95_tbt", "p99_tbt"} <= set(summary)

    def test_step_batch_size_defaults_to_one(self):
        assert _step().batch_size == 1


class TestLatencyPercentiles:
    def test_values(self):
        sample = [1.0, 2.0, 3.0, 4.0]
        result = latency_percentiles(sample)
        assert set(result) == {"p50", "p95", "p99"}
        assert result["p50"] == pytest.approx(2.5)

    def test_empty_sample_raises(self):
        with pytest.raises(SimulationError):
            latency_percentiles([])


def _record(
    request_id=0,
    arrival=1.0,
    prefill_start=1.5,
    first_token=2.0,
    finish=3.0,
    priority="batch",
    tbt_deadline=None,
    num_preemptions=0,
):
    return RequestRecord(
        request_id=request_id,
        prompt_len=16,
        decode_tokens=2,
        arrival_time=arrival,
        prefill_start=prefill_start,
        first_token_time=first_token,
        finish_time=finish,
        tbt_values=(0.4, 0.6),
        priority=priority,
        tbt_deadline=tbt_deadline,
        num_preemptions=num_preemptions,
    )


class TestServingReport:
    def _report(self):
        return ServingReport(
            model_name="tiny",
            strategy_name="hybrimoe",
            cache_ratio=0.5,
            max_batch_size=4,
            requests=[
                _record(0, arrival=0.0, prefill_start=0.0, first_token=1.0, finish=2.0),
                _record(1, arrival=1.0, prefill_start=2.0, first_token=2.5, finish=5.0),
            ],
            total_hits=6,
            total_misses=2,
        )

    def test_window_and_goodput(self):
        report = self._report()
        assert report.makespan == pytest.approx(5.0)
        assert report.goodput == pytest.approx(2 / 5.0)
        assert report.token_throughput == pytest.approx(4 / 5.0)

    def test_queueing_and_ttft(self):
        report = self._report()
        assert report.mean_queueing_delay == pytest.approx(0.5)
        assert report.ttft_percentiles()["p50"] == pytest.approx(1.25)

    def test_summary_fields(self):
        summary = self._report().summary()
        assert summary["hit_rate"] == pytest.approx(0.75)
        assert {
            "goodput_rps",
            "mean_queue_delay_s",
            "p50_ttft_s",
            "p99_tbt_s",
        } <= set(summary)

    def test_per_request_rows_sorted(self):
        rows = self._report().per_request_rows()
        assert [row["request"] for row in rows] == [0, 1]

    def test_empty_report_raises(self):
        empty = ServingReport("t", "s", 0.5, max_batch_size=1)
        with pytest.raises(SimulationError):
            _ = empty.makespan

    def test_empty_report_summary_is_total(self):
        """A fleet replica that received no request still summarises:
        the fixed key set, NaN window metrics, zero counts."""
        summary = ServingReport("t", "s", 0.5, max_batch_size=1).summary()
        assert list(summary) == list(self._report().summary())
        for key in ("makespan_s", "goodput_rps", "token_throughput",
                    "mean_queue_delay_s", "p50_ttft_s", "p99_tbt_s"):
            assert np.isnan(summary[key]), key
        assert (summary["requests"], summary["completed"], summary["hit_rate"]) == (
            0, 0, 0.0,
        )

    def test_zero_width_window_summary_has_nan_rates(self):
        """A lone request shed at its arrival instant spans no time:
        makespan 0, rates NaN rather than a division error."""
        shed = RequestRecord(
            request_id=0, prompt_len=4, decode_tokens=0, arrival_time=1.0,
            prefill_start=None, first_token_time=None, finish_time=1.0,
            tbt_values=(), status="shed",
        )
        report = ServingReport("t", "s", 0.5, max_batch_size=1, requests=[shed])
        summary = report.summary()
        assert summary["makespan_s"] == 0.0
        assert np.isnan(summary["goodput_rps"])
        assert np.isnan(summary["token_throughput"])


class TestDeadlines:
    def test_no_deadline_is_unscored(self):
        assert _record().meets_tbt_deadline is None

    def test_met_and_missed_deadlines(self):
        assert _record(tbt_deadline=10.0).meets_tbt_deadline is True
        # p99 of (0.4, 0.6) is ~0.598 > 0.5.
        assert _record(tbt_deadline=0.5).meets_tbt_deadline is False

    def test_prefill_only_request_meets_trivially(self):
        record = RequestRecord(
            request_id=0,
            prompt_len=8,
            decode_tokens=0,
            arrival_time=0.0,
            prefill_start=0.0,
            first_token_time=1.0,
            finish_time=1.0,
            tbt_values=(),
            tbt_deadline=0.01,
        )
        assert record.meets_tbt_deadline is True


class TestClassSummary:
    def _report(self):
        return ServingReport(
            model_name="tiny",
            strategy_name="hybrimoe",
            cache_ratio=0.5,
            max_batch_size=4,
            requests=[
                _record(0, arrival=0.0, prefill_start=0.0, first_token=1.0,
                        finish=2.0, priority="batch", num_preemptions=1),
                _record(1, arrival=1.0, prefill_start=2.0, first_token=2.5,
                        finish=5.0, priority="interactive", tbt_deadline=10.0),
                _record(2, arrival=1.0, prefill_start=2.0, first_token=2.5,
                        finish=4.0, priority="interactive", tbt_deadline=0.5),
            ],
            total_hits=6,
            total_misses=2,
            preemptions=1,
        )

    def test_classes_and_goodput_partition(self):
        report = self._report()
        assert report.priority_classes() == ["batch", "interactive"]
        assert report.class_goodput("batch") == pytest.approx(1 / 5.0)
        assert report.class_goodput("interactive") == pytest.approx(2 / 5.0)
        assert sum(
            report.class_goodput(c) for c in report.priority_classes()
        ) == pytest.approx(report.goodput)

    def test_class_rows(self):
        rows = {row["class"]: row for row in self._report().class_summary()}
        assert rows["batch"]["requests"] == 1
        assert rows["batch"]["preemptions"] == 1
        assert rows["interactive"]["requests"] == 2
        # One of the two interactive deadlines (10.0) is met, one (0.5)
        # is missed by the ~0.598 p99.
        assert rows["interactive"]["slo_attainment"] == pytest.approx(0.5)
        assert rows["batch"]["slo_attainment"] != rows["batch"]["slo_attainment"]  # NaN
        assert {"p50_ttft_s", "p99_tbt_s", "goodput_rps"} <= set(rows["batch"])

    def test_summary_carries_preemptions(self):
        assert self._report().summary()["preemptions"] == 1

    def test_per_request_rows_carry_class(self):
        rows = self._report().per_request_rows()
        assert rows[0]["class"] == "batch"
        assert rows[0]["preemptions"] == 1
