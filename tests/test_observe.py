"""Tests for the observability layer (repro.observe) and its hot-path hooks."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.core.engine import run_engine
from repro.core.executors import stop_pools
from repro.core.streaming import stream_ld_blocks
from repro.faults import FaultPlan, FaultSpec, InjectedCrash
from repro.io.msformat import write_ms
from repro.machine.cpu import HASWELL
from repro.machine.perfmodel import (
    estimate_gemm_performance,
    measured_ops_per_cycle,
    measured_percent_of_peak,
)
from repro.observe import (
    Histogram,
    JsonlTraceSink,
    MetricsRecorder,
    ProgressReporter,
    compare_to_model,
)
from repro.observe.live import read_snapshot


@pytest.fixture
def panel(rng):
    return rng.integers(0, 2, size=(64, 33)).astype(np.uint8)


class TestHistogram:
    def test_accumulates_summary_stats(self):
        hist = Histogram()
        for value in (3.0, 1.0, 2.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == 6.0
        assert hist.mean == 2.0
        assert hist.min == 1.0 and hist.max == 3.0

    def test_streaming_quantiles_on_known_distribution(self, rng):
        hist = Histogram()
        values = rng.permutation(np.arange(1, 10_001, dtype=np.float64))
        for value in values:
            hist.observe(value)
        # P² estimates over a uniform stream land close to the exact
        # order statistics (well within a few percent at n=10k).
        assert hist.quantile(0.50) == pytest.approx(5000, rel=0.05)
        assert hist.quantile(0.95) == pytest.approx(9500, rel=0.05)
        assert hist.quantile(0.99) == pytest.approx(9900, rel=0.05)

    def test_small_sample_quantiles_are_exact(self):
        hist = Histogram()
        for value in (3.0, 1.0, 2.0):
            hist.observe(value)
        assert hist.quantile(0.50) == 2.0
        assert hist.quantile(0.95) == 3.0
        summary = hist.summary()
        assert summary["p50"] == 2.0 and summary["p99"] == 3.0

    def test_untracked_quantile_raises(self):
        with pytest.raises(KeyError, match="not tracked"):
            Histogram().quantile(0.42)

    def test_empty_quantiles_are_none(self):
        hist = Histogram()
        assert hist.quantile(0.5) is None
        summary = hist.summary()
        assert summary["p50"] is None and summary["p95"] is None

    def test_empty_summary_is_json_safe(self):
        summary = Histogram().summary()
        assert summary["count"] == 0
        assert summary["min"] is None and summary["max"] is None
        json.dumps(summary)  # must not contain inf


class TestMetricsRecorder:
    def test_counters_and_timers(self):
        rec = MetricsRecorder()
        rec.inc("a")
        rec.inc("a", 4)
        with rec.time("t"):
            pass
        rec.observe("h", 2.5)
        assert rec.counters["a"] == 5
        assert rec.timers["t"].count == 1
        assert rec.histograms["h"].max == 2.5

    def test_events_bump_counters_and_are_kept_on_request(self):
        rec = MetricsRecorder(keep_events=True)
        rec.event("tile_computed", tile=[0, 0])
        rec.event("tile_computed", tile=[8, 0])
        rec.event("tile_retry", tile=[8, 0])
        assert rec.event_count("tile_computed") == 2
        assert rec.event_count("tile_retry") == 1
        assert rec.event_count("missing") == 0
        kinds = [e["kind"] for e in rec.events]
        assert kinds == ["tile_computed", "tile_computed", "tile_retry"]
        assert all("ts" in e for e in rec.events)

    def test_events_not_retained_by_default(self):
        rec = MetricsRecorder()
        rec.event("x")
        assert rec.events == []
        assert rec.event_count("x") == 1

    def test_write_json_with_extra(self, tmp_path):
        rec = MetricsRecorder()
        rec.inc("n", 3)
        out = tmp_path / "m.json"
        rec.write_json(out, extra={"schema": "test/1"})
        payload = json.loads(out.read_text())
        assert payload["schema"] == "test/1"
        assert payload["counters"]["n"] == 3
        assert set(payload) >= {"counters", "timers", "histograms"}

    def test_trace_sink_receives_events(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with MetricsRecorder(sinks=[JsonlTraceSink(path)]) as rec:
            rec.event("a", x=1)
            rec.event("b", y=[2, 3])
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["kind"] for l in lines] == ["a", "b"]
        assert lines[1]["y"] == [2, 3]


class TestJsonlTraceSink:
    def test_write_after_close_fails(self, tmp_path):
        sink = JsonlTraceSink(tmp_path / "t.jsonl")
        sink.write({"kind": "x"})
        sink.close()
        sink.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            sink.write({"kind": "y"})
        assert sink.n_written == 1

    def test_every_line_carries_schema_and_monotonic_seq(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlTraceSink(path) as sink:
            for i in range(5):
                sink.write({"kind": "tick", "i": i})
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert all(l["schema"] == "repro-trace/1" for l in lines)
        assert [l["seq"] for l in lines] == [0, 1, 2, 3, 4]
        assert [l["i"] for l in lines] == [0, 1, 2, 3, 4]

    def test_non_serializable_values_coerced_via_repr(self, tmp_path):
        # A retry event may carry an exception object; the sink must not
        # crash the run over it.
        path = tmp_path / "t.jsonl"
        with JsonlTraceSink(path) as sink:
            sink.write({"kind": "tile_retry", "error": RuntimeError("boom"),
                        "where": {1, 2}})
        record = json.loads(path.read_text())
        assert record["error"] == repr(RuntimeError("boom"))
        assert "1" in record["where"] and "2" in record["where"]

    def test_flush_on_write_makes_lines_visible_immediately(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlTraceSink(path, flush_on_write=True)
        try:
            sink.write({"kind": "tick"})
            # Visible to a concurrent reader before close: the flush
            # happened at write time, not at close.
            lines = path.read_text().splitlines()
            assert len(lines) == 1
            assert json.loads(lines[0])["kind"] == "tick"
        finally:
            sink.close()

    def test_buffered_by_default_but_durable_on_close(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlTraceSink(path)
        sink.write({"kind": "tick", "pad": "x" * 64})
        buffered = path.read_text()
        sink.close()
        # close() flushes + fsyncs whatever write() buffered.
        final = path.read_text().splitlines()
        assert len(final) == 1
        assert len(buffered.splitlines()) <= 1
        assert json.loads(final[0])["kind"] == "tick"


def fed_progress(n_tiles, pairs_total, **kwargs):
    """A reporter attached to a recorder that has emitted run_start."""
    progress = ProgressReporter(**kwargs)
    rec = MetricsRecorder(sinks=[progress])
    rec.event("run_start", n_tiles=n_tiles, pairs_total=pairs_total)
    return rec, progress


def tile_done(rec, pairs, *, skipped=False):
    kind = "tile_skipped" if skipped else "tile_computed"
    rec.event(kind, tile=[0, 0], pairs=pairs)


class TestProgressReporter:
    def test_accounting_and_snapshot(self):
        rec, progress = fed_progress(4, 100, stream=None)
        tile_done(rec, 30)
        tile_done(rec, 20, skipped=True)
        snap = progress.snapshot()
        assert snap.tiles_done == 2 and snap.pairs_done == 50
        assert snap.fraction == 0.5
        assert snap.pairs_per_second > 0
        assert 0 < snap.eta_seconds < float("inf")

    def test_eta_edge_cases(self):
        rec, progress = fed_progress(2, 10, stream=None)
        assert progress.snapshot().eta_seconds == float("inf")  # no rate yet
        tile_done(rec, 10)
        assert progress.snapshot().eta_seconds == 0.0

    def test_renders_single_overwriting_line(self):
        buf = io.StringIO()
        rec, _ = fed_progress(2, 20, stream=buf, min_interval=0.0)
        with rec:
            tile_done(rec, 10)
            tile_done(rec, 10)
        text = buf.getvalue()
        assert text.count("\r") >= 2
        assert text.endswith("\n")
        assert "2/2 tiles" in text and "100.0%" in text

    def test_rate_limited_rendering(self):
        buf = io.StringIO()
        rec, _ = fed_progress(100, 100, stream=buf, min_interval=3600.0)
        for _ in range(50):
            tile_done(rec, 1)
        # First render goes through; the rest are inside the interval.
        assert buf.getvalue().count("\r") == 1

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError, match="window_seconds"):
            ProgressReporter(stream=None, window_seconds=0.0)

    def test_eta_text_never_renders_zero_seconds(self):
        # Before any progress the ETA is unknown; once done it is moot.
        # Both render "--", never a misleading "eta 0s".
        rec, progress = fed_progress(2, 10, stream=None)
        assert "eta --" in progress.format_line()
        tile_done(rec, 5)
        line = progress.format_line()
        assert "eta" in line and "eta 0s" not in line
        tile_done(rec, 5)
        assert "eta --" in progress.format_line()

    def test_window_rates_reflect_recent_throughput(self):
        _, progress = fed_progress(100, 1000, stream=None,
                                   window_seconds=60.0)
        # Inject a controlled sample history: 100 pairs/s long ago, then
        # a 10x faster recent burst inside the window.
        progress.tiles_done, progress.pairs_done = 4, 400
        progress._window.clear()
        progress._window.extend([
            (0.0, 0, 0), (100.0, 1, 100), (100.1, 2, 200),
            (100.2, 3, 300), (100.3, 4, 400),
        ])
        # The anchor sample (100.0) has aged out for a "now" of 170.
        horizon_now = 170.0
        while (len(progress._window) > 2
               and progress._window[1][0] <= horizon_now - 60.0):
            progress._window.popleft()
        tiles_rate, pairs_rate = progress._window_rates()
        # Cumulative rate would be ~4 pairs/s; the window sees the burst.
        assert pairs_rate == pytest.approx(300 / 0.3, rel=1e-6)
        assert tiles_rate == pytest.approx(3 / 0.3, rel=1e-6)
        snap = progress.snapshot()
        assert snap.window_pairs_per_second == pytest.approx(1000, rel=1e-6)
        # The ETA uses the windowed rate: 600 remaining at 1000/s.
        assert snap.eta_seconds == pytest.approx(0.6, rel=1e-6)

    def test_window_warmup_falls_back_to_cumulative(self):
        _, progress = fed_progress(4, 100, stream=None)
        progress._window.clear()
        progress._window.append((progress._start, 0, 0))
        snap = progress.snapshot()
        assert snap.window_pairs_per_second == 0.0
        # eta_seconds falls back to the cumulative pairs_per_second.
        assert snap.eta_seconds == float("inf")  # no progress yet at all


class TestMeasuredPerf:
    def test_measured_ops_per_cycle_units(self):
        # 3.5e9 ops in one second on a 3.5 GHz machine = 1 op/cycle.
        assert measured_ops_per_cycle(
            int(HASWELL.frequency_hz), 1.0, machine=HASWELL
        ) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="seconds"):
            measured_ops_per_cycle(10, 0.0)
        with pytest.raises(ValueError, match="total_ops"):
            measured_ops_per_cycle(-1, 1.0)
        with pytest.raises(ValueError, match="measured_seconds"):
            compare_to_model(10, 10, 1, 0.0)

    def test_measured_matches_model_at_predicted_seconds(self):
        est = estimate_gemm_performance(100, 100, 2)
        pct = measured_percent_of_peak(est.total_ops, est.seconds)
        assert pct == pytest.approx(est.percent_of_peak)

    def test_compare_to_model_consistency(self):
        cmp = compare_to_model(120, 120, 2, measured_seconds=0.05,
                               symmetric=True)
        est = estimate_gemm_performance(120, 120, 2, symmetric=True)
        assert cmp.modeled_percent_of_peak == pytest.approx(
            est.percent_of_peak
        )
        assert cmp.measured_vs_modeled == pytest.approx(
            cmp.measured_percent_of_peak / cmp.modeled_percent_of_peak
        )
        # Running exactly as fast as the model predicts → ratio 1.
        honest = compare_to_model(120, 120, 2, est.seconds, symmetric=True)
        assert honest.measured_vs_modeled == pytest.approx(1.0)

    def test_as_dict_round_trips_through_json(self):
        cmp = compare_to_model(64, 64, 1, measured_seconds=0.01)
        payload = json.loads(json.dumps(cmp.as_dict()))
        assert payload["m"] == 64
        assert payload["measured_percent_of_peak"] > 0


class TestStreamingRecorder:
    def test_per_tile_events_and_counters(self, panel):
        buf = io.StringIO()
        progress = ProgressReporter(stream=buf, min_interval=0.0)
        rec = MetricsRecorder(sinks=[progress], keep_events=True)
        n_blocks = stream_ld_blocks(
            panel, lambda *a: None, block_snps=9, recorder=rec,
        )
        assert rec.event_count("tile_computed") == n_blocks
        assert rec.counters["engine.tiles_computed"] == n_blocks
        assert rec.timers["engine.tile_compute_seconds"].count == n_blocks
        assert rec.event_count("run_start") == rec.event_count("run_end") == 1
        assert progress.tiles_done == n_blocks
        assert buf.getvalue().count("\r") == n_blocks


class TestEngineRecorder:
    @pytest.mark.parametrize("engine", ["serial", "threads", "persistent"])
    def test_tile_events_agree_with_report(self, panel, engine):
        rec = MetricsRecorder(keep_events=True)
        report = run_engine(
            panel, lambda *a: None, engine=engine, block_snps=9,
            n_workers=2, recorder=rec,
        )
        assert rec.event_count("tile_computed") == report.n_computed
        assert rec.event_count("run_start") == rec.event_count("run_end") == 1
        assert rec.counters["engine.tiles_computed"] == report.n_computed
        assert rec.counters["engine.pairs_computed"] == sum(
            e["pairs"] for e in rec.events if e["kind"] == "tile_computed"
        )
        computed = [e for e in rec.events if e["kind"] == "tile_computed"]
        for event in computed:
            assert event["compute_s"] >= 0.0
            assert event["deliver_s"] >= 0.0
            assert event["bytes"] > 0
            assert event["worker"]

    def test_resume_emits_skipped_events(self, panel, tmp_path):
        manifest = tmp_path / "run.manifest"
        first = run_engine(
            panel, lambda *a: None, block_snps=9, manifest_path=manifest
        )
        progress = ProgressReporter(stream=None)
        rec = MetricsRecorder(sinks=[progress], keep_events=True)
        second = run_engine(
            panel, lambda *a: None, block_snps=9, manifest_path=manifest,
            resume=True, recorder=rec,
        )
        assert second.n_skipped == first.n_tiles
        assert rec.event_count("tile_skipped") == second.n_skipped
        assert rec.event_count("tile_computed") == 0
        assert rec.counters["engine.tiles_skipped"] == second.n_skipped
        assert progress.tiles_done == second.n_skipped

    def test_trace_jsonl_written_through_engine(self, panel, tmp_path):
        path = tmp_path / "trace.jsonl"
        with MetricsRecorder(sinks=[JsonlTraceSink(path)]) as rec:
            report = run_engine(
                panel, lambda *a: None, block_snps=16, recorder=rec
            )
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        kinds = [l["kind"] for l in lines]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        assert kinds.count("tile_computed") == report.n_computed

    def test_results_identical_with_and_without_recorder(self, panel):
        def collect(with_recorder):
            blocks = {}
            run_engine(
                panel,
                lambda i0, j0, b: blocks.__setitem__((i0, j0), b.copy()),
                block_snps=9,
                recorder=MetricsRecorder() if with_recorder else None,
            )
            return blocks

        plain, recorded = collect(False), collect(True)
        assert plain.keys() == recorded.keys()
        for key in plain:
            np.testing.assert_array_equal(plain[key], recorded[key])


@pytest.mark.usefixtures("instant_retries")
class TestFaultEventTrace:
    """Fault-path events must reach both the JSONL trace and the metrics
    payload, so post-mortem artifacts agree with each other."""

    @staticmethod
    def _run(panel, trace_path, **kwargs):
        recorder = MetricsRecorder(
            sinks=[JsonlTraceSink(trace_path)], keep_events=True
        )
        with recorder:
            report = run_engine(
                panel, lambda *a: None, block_snps=8, n_workers=2,
                max_retries=kwargs.pop("max_retries", 2),
                recorder=recorder, **kwargs,
            )
        lines = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        return report, recorder, lines

    def test_retry_and_quarantine_reach_trace_and_payload(
        self, panel, tmp_path
    ):
        plan = FaultPlan(seed=3, specs=(
            # One transient crash: retried once, then succeeds.
            FaultSpec(site="tile_compute", tile=(8, 0), attempts_below=1),
            # One persistent corruption: exhausts the retry budget and
            # lands in quarantine.
            FaultSpec(site="tile_deliver", action="bitflip", tile=(16, 0)),
        ))
        report, recorder, lines = self._run(
            panel, tmp_path / "trace.jsonl", engine="serial",
            max_retries=1, allow_quarantine=True, faults=plan,
        )
        assert report.n_retries >= 1 and report.n_quarantined == 1
        kinds = [l["kind"] for l in lines]
        assert {"tile_retry", "tile_corrupt", "tile_quarantined"} <= (
            set(kinds)
        )
        # Every trace line is schema-tagged with a gap-free seq.
        assert all(l["schema"] == "repro-trace/1" for l in lines)
        assert [l["seq"] for l in lines] == list(range(len(lines)))
        # The metrics payload tells the same story as the trace.
        payload = recorder.summary()
        for kind in ("tile_retry", "tile_corrupt", "tile_quarantined"):
            assert payload["counters"][f"events.{kind}"] == (
                kinds.count(kind)
            )

    def test_degradation_reaches_trace_and_payload(self, panel, tmp_path):
        stop_pools()  # the pool_spawn site fires only when a pool is built
        plan = FaultPlan(specs=(FaultSpec(site="pool_spawn"),))
        report, recorder, lines = self._run(
            panel, tmp_path / "trace.jsonl", engine="persistent",
            faults=plan,
        )
        assert report.complete and report.engine_used == "threads"
        kinds = [l["kind"] for l in lines]
        assert "pool_spawn_failed" in kinds
        assert "executor_degraded" in kinds
        degraded = next(
            l for l in lines if l["kind"] == "executor_degraded"
        )
        assert degraded["from_engine"] == "persistent"
        assert degraded["to_engine"] == "threads"
        payload = recorder.summary()
        assert payload["counters"]["engine.degradations"] == 1
        assert payload["counters"]["events.executor_degraded"] == 1


class TestProjectionsAgree:
    """One run, every projection: metrics, trace, live snapshot, progress
    line and registry record all count the recorder's one event stream."""

    def test_resumed_faulty_cli_run(self, tmp_path, rng, monkeypatch):
        from repro import cli

        haps = rng.integers(0, 2, size=(40, 60)).astype(np.uint8)
        panel = tmp_path / "panel.ms"
        write_ms(panel, [(haps, np.sort(rng.random(60)))])
        args = [
            "ld", str(panel), "--engine", "persistent", "--workers", "2",
            "--block-snps", "8", "--out", str(tmp_path / "ld.npy"),
        ]
        # Stopped by a torn journal append; the resume then loses the
        # torn tile's worker to a kill and the tile's retry to a raise.
        torn = tmp_path / "torn.json"
        torn.write_text(json.dumps({"specs": [
            {"site": "manifest_append", "action": "torn", "tile": [32, 16]},
        ]}))
        with pytest.raises(InjectedCrash):
            cli.main(args + ["--fault-plan", str(torn)])
        faults = tmp_path / "faults.json"
        faults.write_text(json.dumps({"specs": [
            {"site": "tile_compute", "action": "kill", "tile": [32, 16],
             "attempts_below": 1},
            {"site": "tile_compute", "action": "raise", "tile": [32, 16],
             "attempts_below": 2},
        ]}))
        buf = io.StringIO()
        reporters: list[ProgressReporter] = []

        def reporter(**kwargs):
            reporters.append(ProgressReporter(stream=buf, **kwargs))
            return reporters[-1]

        monkeypatch.setattr(cli, "ProgressReporter", reporter)
        metrics = tmp_path / "m.json"
        trace = tmp_path / "t.jsonl"
        live = tmp_path / "live.json"
        assert cli.main(args + [
            "--resume", "--fault-plan", str(faults), "--max-retries", "3",
            "--metrics-out", str(metrics), "--trace-out", str(trace),
            "--live", str(live), "--progress",
        ]) == 0

        counters = json.loads(metrics.read_text())["counters"]
        computed = counters["engine.tiles_computed"]
        skipped = counters["engine.tiles_skipped"]
        pairs = counters["engine.pairs_computed"]
        retries = counters["engine.retries"]
        respawns = counters["engine.worker_respawns"]
        assert computed and skipped and retries and respawns

        events = [json.loads(line) for line in trace.read_text().splitlines()]
        kinds = [e["kind"] for e in events]
        assert kinds.count("tile_computed") == computed
        assert kinds.count("tile_skipped") == skipped
        assert sum(
            e["pairs"] for e in events if e["kind"] == "tile_computed"
        ) == pairs
        assert kinds.count("tile_retry") == retries
        assert kinds.count("worker_respawn") == respawns

        snapshot = read_snapshot(live)
        assert snapshot["phase"] == "done"
        assert snapshot["tiles"]["done"] == computed
        assert snapshot["tiles"]["skipped"] == skipped
        assert snapshot["pairs"]["done"] == pairs
        assert snapshot["retries"] == retries
        assert snapshot["worker_respawns"] == respawns

        (progress,) = reporters
        assert progress.tiles_done == computed + skipped
        assert progress.pairs_done == pairs + counters["engine.pairs_skipped"]
        final_line = buf.getvalue().rsplit("\r", 1)[-1]
        assert f" {computed + skipped}/{progress.tiles_total} tiles" in (
            final_line
        )

        record = json.loads(
            (tmp_path / "runs.jsonl").read_text().splitlines()[-1]
        )
        assert record["tiles"]["computed"] == computed
        assert record["tiles"]["skipped"] == skipped
        assert record["pairs_computed"] == pairs
        assert record["tiles"]["retries"] == retries
        assert record["run_id"] == snapshot["run_id"]
