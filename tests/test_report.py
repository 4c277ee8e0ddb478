"""Tests for the run report and renderers (repro.observe.report).

build_run_report is exercised both against a real engine run (phase
presence, coverage, roofline join, JSON round-trip) and against
synthetic recorder/timeline inputs that trigger each anomaly rule; the
renderers are checked over every schema repro report claims to handle.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.engine import EngineReport, run_engine
from repro.core.streaming import NpyMemmapSink
from repro.observe import MetricsRecorder, SpanProfiler, profiling
from repro.observe.modelcheck import compare_phases_to_model
from repro.observe.report import (
    WorkerTimeline,
    build_run_report,
    find_anomalies,
    load_report_payload,
    render_file,
    render_report,
)


@pytest.fixture
def panel(rng):
    return rng.integers(0, 2, size=(60, 29)).astype(np.uint8)


def _profiled_run(panel, tmp_path, **kwargs):
    recorder = MetricsRecorder(run_id="test-run")
    timeline = WorkerTimeline()
    recorder.sinks.append(timeline)
    profiler = SpanProfiler()
    with NpyMemmapSink(tmp_path / "ld.npy", panel.shape[1]) as sink, \
            profiling(profiler):
        report = run_engine(
            panel, sink, block_snps=8,
            manifest_path=tmp_path / "ld.manifest",
            recorder=recorder, **kwargs,
        )
    return build_run_report(
        recorder=recorder, profiler=profiler, timeline=timeline,
        report=report,
        wall_seconds=recorder.timers["engine.run_seconds"].total,
        stat="r2", n_snps=panel.shape[1], n_samples=panel.shape[0],
        k_words=(panel.shape[0] + 63) // 64, block_snps=8,
    )


class TestBuildProfilePayload:
    """The profile sections of the run report (phase table, coverage,
    roofline, worker timeline), built by build_run_report."""

    def test_real_run_produces_complete_payload(self, panel, tmp_path):
        payload = _profiled_run(panel, tmp_path, engine="serial")
        assert payload["schema"] == "repro-ld-metrics/1"
        assert payload["run_id"] == "test-run"
        phases = payload["phases"]
        assert {"pack_a", "pack_b", "plane_matmul", "mirror", "stat",
                "driver.deliver", "driver.manifest_append"} <= set(phases)
        assert all(row["seconds"] >= 0 for row in phases.values())
        assert sum(row["share"] for row in phases.values()) == (
            pytest.approx(1.0)
        )
        # Spans attribute (nearly) all of the measured tile compute time.
        assert payload["phase_coverage"] > 0.9
        # Every phase got a roofline row with a classification.
        roofline_names = {row["name"] for row in payload["roofline"]}
        assert set(phases) <= roofline_names
        assert all(row["kind"] in ("compute", "memory", "overhead")
                   for row in payload["roofline"])
        assert "model" in payload  # complete un-resumed run
        # The recorder summary rides along in the same artifact.
        assert payload["counters"]["engine.tiles_computed"] == 10
        json.dumps(payload)  # must be serializable as-is

    def test_threads_run_has_dispatch_phases_and_timeline(
        self, panel, tmp_path
    ):
        payload = _profiled_run(
            panel, tmp_path, engine="threads", n_workers=2
        )
        assert {"driver.dispatch", "driver.wait"} <= set(payload["phases"])
        timeline = payload["timeline"]
        assert timeline["workers"]
        assert sum(r["n_tiles"] for r in timeline["workers"]) == 10
        assert 0 < timeline["utilization"] <= 1.0
        assert timeline["imbalance"] >= 1.0

    def test_validation(self, panel, tmp_path):
        report = EngineReport("serial", 1, 1, 1, 0, 0)
        shape = dict(stat="r2", n_snps=4, n_samples=8, k_words=1,
                     block_snps=4)
        recorder = MetricsRecorder()
        recorder.observe_time("engine.run_seconds", 1.0)
        with pytest.raises(ValueError, match="wall_seconds"):
            build_run_report(
                recorder=recorder, profiler=SpanProfiler(),
                timeline=WorkerTimeline(), report=report,
                wall_seconds=0.0, **shape,
            )
        with pytest.raises(ValueError, match="engine.run_seconds"):
            build_run_report(
                recorder=MetricsRecorder(), profiler=SpanProfiler(),
                timeline=WorkerTimeline(), report=report,
                wall_seconds=1.0, **shape,
            )


def _tile(worker: str, ts: float, compute_s: float) -> dict:
    return {"kind": "tile_computed", "ts": ts, "compute_s": compute_s,
            "worker": worker}


class TestAnomalies:
    def _kinds(self, recorder=None, seconds=1.0):
        return {
            a["kind"] for a in find_anomalies(
                recorder or MetricsRecorder(), seconds
            )
        }

    def test_clean_synthetic_run_has_no_anomalies(self):
        assert self._kinds() == set()

    def test_idle_workers_are_not_flagged(self):
        # Healthy pool workers on a host with no spare core read well
        # over a tenth idle (spawn, dispatch, the driver's sink writes):
        # the report shows idleness in its timeline, not as an anomaly.
        recorder = MetricsRecorder()
        recorder.observe_time("engine.run_seconds", 1.0)
        timeline = WorkerTimeline()
        timeline.write(_tile("w0", 0.95, 0.9))
        timeline.write(_tile("w1", 0.2, 0.1))
        payload = build_run_report(
            recorder=recorder, profiler=SpanProfiler(), timeline=timeline,
            report=EngineReport("threads", 2, 2, 2, 0, 0),
            wall_seconds=1.0, stat="r2", n_snps=4, n_samples=8, k_words=1,
            block_snps=4,
        )
        idle = {
            row["worker"]: row["idle_fraction"]
            for row in payload["timeline"]["workers"]
        }
        assert idle["w1"] > 0.5
        assert payload["anomalies"] == []

    def test_single_worker_idle_is_not_flagged(self):
        # A serial run's one "worker" is idle whenever the driver works;
        # that is not imbalance.
        recorder = MetricsRecorder()
        recorder.observe_time("engine.run_seconds", 1.0)
        timeline = WorkerTimeline()
        timeline.write(_tile("driver", 0.5, 0.3))
        payload = build_run_report(
            recorder=recorder, profiler=SpanProfiler(), timeline=timeline,
            report=EngineReport("serial", 1, 1, 1, 0, 0),
            wall_seconds=1.0, stat="r2", n_snps=4, n_samples=8, k_words=1,
            block_snps=4,
        )
        (row,) = payload["timeline"]["workers"]
        assert row["worker"] == "driver" and row["idle_fraction"] > 0.5
        assert payload["anomalies"] == []

    def test_low_span_coverage_flagged(self):
        recorder = MetricsRecorder()
        recorder.observe_time("engine.tile_compute_seconds", 1.0)
        recorder.observe_time("phase.plane_matmul", 0.5)
        # The pool worker's wait between batches is not tile compute.
        recorder.observe_time("phase.worker.idle", 0.5)
        assert "span_coverage_low" in self._kinds(recorder, seconds=2.0)
        # Without any phase timers (profiling off) there is nothing to
        # attribute, which is not an attribution gap.
        unprofiled = MetricsRecorder()
        unprofiled.observe_time("engine.tile_compute_seconds", 1.0)
        assert "span_coverage_low" not in self._kinds(unprofiled)

    def test_fault_path_outcomes_flagged(self):
        recorder = MetricsRecorder()
        recorder.inc("engine.retries", 5)
        recorder.inc("engine.tiles_quarantined")
        recorder.inc("engine.degradations")
        assert {"tile_retries", "tiles_quarantined",
                "executor_degraded"} <= self._kinds(recorder)

    def test_band_covering_whole_triangle_flagged(self):
        # A band that prunes nothing: the banded run does dense work
        # plus masking overhead, which the operator should know about.
        recorder = MetricsRecorder()
        recorder.inc("engine.tiles_pruned", 0)
        anomalies = find_anomalies(recorder, 1.0)
        wasteful = [a for a in anomalies if a["kind"] == "band_wasteful"]
        assert wasteful
        assert "no tiles can be pruned" in wasteful[0]["detail"]

    def test_narrow_band_is_not_flagged(self):
        recorder = MetricsRecorder()
        recorder.inc("engine.tiles_pruned", 12)
        assert "band_wasteful" not in self._kinds(recorder)
        # Dense runs never count pruned tiles.
        assert "band_wasteful" not in self._kinds()


class TestRenderReport:
    def test_renders_profile_payload(self, panel, tmp_path):
        payload = _profiled_run(panel, tmp_path, engine="serial")
        text = render_report(payload)
        assert "repro-ld-metrics/1" in text and "run test-run" in text
        assert "plane_matmul" in text and "roofline" in text
        assert "workers:" in text and "model:" in text
        assert "anomalies" in text
        # A retired repro-profile/1 file is an unknown schema.
        with pytest.raises(ValueError, match="unknown schema"):
            render_report({**payload, "schema": "repro-profile/1"})

    def test_renders_metrics_payload(self, tmp_path):
        recorder = MetricsRecorder()
        recorder.observe_time("engine.tile_compute_seconds", 0.25)
        recorder.inc("events.tile_computed", 4)
        path = tmp_path / "metrics.json"
        recorder.write_json(path, extra={
            "schema": "repro-ld-metrics/1", "engine": "serial",
            "workers": 1, "stat": "r2", "n_snps": 64, "n_samples": 32,
            "wall_seconds": 0.5, "n_tiles": 4, "n_computed": 4,
            "pairs_per_second": 1000.0,
        })
        text = render_file(path)
        assert "repro-ld-metrics/1" in text
        assert "engine.tile_compute_seconds" in text
        assert "tile_computed" in text

    def test_renders_trace_jsonl_with_fault_events(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        records = [
            {"schema": "repro-trace/1", "seq": 0, "kind": "run_start",
             "ts": 0.0},
            {"schema": "repro-trace/1", "seq": 1, "kind": "tile_retry",
             "ts": 0.1, "tile": [8, 0], "error": "RuntimeError('x')"},
            {"schema": "repro-trace/1", "seq": 2, "kind": "run_end",
             "ts": 0.2},
        ]
        path.write_text(
            "\n".join(json.dumps(r) for r in records) + "\n"
        )
        text = render_file(path)
        assert "3 events" in text
        assert "tile_retry" in text and "fault-path" in text
        assert "WARNING" not in text  # monotonic seq

    def test_trace_seq_gap_warns(self):
        text = render_report([
            {"schema": "repro-trace/1", "seq": 0, "kind": "a", "ts": 0.0},
            {"schema": "repro-trace/1", "seq": 5, "kind": "b", "ts": 0.1},
        ])
        assert "WARNING" in text and "seq" in text

    def test_renders_pre_schema_trace(self):
        # PR-2 traces had no schema tag; records carrying "kind" still
        # render as a trace.
        text = render_report([
            {"kind": "tile_computed", "ts": 0.1, "worker": "w0"},
        ])
        assert "pre-schema" in text and "tile_computed" in text

    def test_renders_bench_payloads_and_history(self, tmp_path):
        engine_payload = {
            "schema": "repro-bench-engine/1", "model": "m",
            "results": [{"n_snps": 220, "engine": "serial", "workers": 1,
                         "seconds": 0.01, "pairs_per_second": 2e6,
                         "measured_percent_of_peak": 0.5}],
        }
        gemm_payload = {
            "schema": "repro-bench-gemm/1", "model": "m",
            "results": [{"m": 512, "n": 512, "k_words": 8,
                         "kernel": "fused", "seconds": 0.1,
                         "words_per_second": 1e9,
                         "measured_percent_of_peak": 1.0}],
        }
        banded_payload = {
            "schema": "repro-bench-banded/1", "model": "m",
            "results": [
                {"n_snps": 2048, "window": 256, "mode": "dense",
                 "seconds": 0.4, "words_per_second": 5e8, "n_tiles": 2080,
                 "tiles_pruned": 0, "speedup_vs_dense": None},
                {"n_snps": 2048, "window": 256, "mode": "banded",
                 "seconds": 0.1, "words_per_second": 1e9, "n_tiles": 540,
                 "tiles_pruned": 1540, "speedup_vs_dense": 3.5},
            ],
        }
        assert "serial" in render_report(engine_payload)
        assert "fused" in render_report(gemm_payload)
        banded_text = render_report(banded_payload)
        assert "banded" in banded_text
        assert "1540" in banded_text and "3.50x" in banded_text
        assert "--" in banded_text  # the dense row has no speedup
        history = tmp_path / "BENCH_history.jsonl"
        with history.open("w") as fh:
            for _ in range(2):
                fh.write(json.dumps(
                    {**engine_payload, "timestamp": 1700000000.0}
                ) + "\n")
        text = render_file(history)
        assert "history: 2 entries" in text

    def test_unknown_schema_and_empty_inputs_fail_loudly(self, tmp_path):
        with pytest.raises(ValueError, match="unknown schema"):
            render_report({"schema": "repro-nope/9"})
        with pytest.raises(ValueError, match="empty"):
            render_report([])
        with pytest.raises(ValueError, match="cannot render"):
            render_report("just a string")
        bad = tmp_path / "bad.txt"
        bad.write_text("not json at all\n")
        with pytest.raises(ValueError, match="line 1"):
            load_report_payload(bad)

    def test_load_sniffs_json_vs_jsonl(self, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"schema": "repro-bench-gemm/1",
                                   "results": []}, indent=2))
        assert isinstance(load_report_payload(doc), dict)
        lines = tmp_path / "doc.jsonl"
        lines.write_text('{"kind": "a", "ts": 0}\n{"kind": "b", "ts": 1}\n')
        assert isinstance(load_report_payload(lines), list)


class TestComparePhasesValidation:
    def test_rejects_negative_measurements(self):
        with pytest.raises(ValueError, match="non-negative"):
            compare_phases_to_model({"pack_a": -1.0}, 64, 64, 1)

    def test_unmodelled_phase_carried_as_overhead(self):
        rows = compare_phases_to_model(
            {"driver.dispatch": 0.5, "plane_matmul": 1.0}, 64, 64, 1
        )
        extra = [r for r in rows if r.name == "driver.dispatch"]
        assert extra and extra[0].kind == "overhead"
        assert extra[0].modeled_seconds == 0.0
        assert extra[0].measured_vs_modeled is None
