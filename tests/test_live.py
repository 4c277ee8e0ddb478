"""Tests for the live run-status bus (repro.observe.live)."""

from __future__ import annotations

import json
import threading
import urllib.request

import numpy as np
import pytest

from repro.core.engine import run_engine
from repro.faults import FaultPlan, FaultSpec, InjectedFault
from repro.observe import MetricsRecorder
from repro.observe.live import (
    LIVE_SCHEMA,
    LivePublisher,
    new_run_id,
    prometheus_text,
    read_snapshot,
    render_top,
    serve_prometheus,
    sparkline,
)
from repro.observe.report import WorkerTimeline


@pytest.fixture
def panel(rng):
    return rng.integers(0, 2, size=(60, 33)).astype(np.uint8)


def attach(
    path, run_id: str | None = None, **kwargs
) -> tuple[MetricsRecorder, LivePublisher]:
    """A publisher attached, after its timeline, as a sink of a fresh
    recorder."""
    recorder = MetricsRecorder(run_id=run_id)
    timeline = WorkerTimeline()
    pub = LivePublisher(path, recorder=recorder, timeline=timeline, **kwargs)
    recorder.sinks.extend([timeline, pub])
    return recorder, pub


# The engine's emissions, as the publisher sees them: counters bumped
# first, then the event.


def run_start(rec, n_tiles, pairs_total):
    rec.event("run_start", n_tiles=n_tiles, pairs_total=pairs_total)


def tile_computed(rec, worker, pairs, compute_s=0.0):
    rec.inc("engine.tiles_computed")
    rec.inc("engine.pairs_computed", pairs)
    rec.event("tile_computed", tile=[0, 0], pairs=pairs,
              compute_s=compute_s, worker=worker)


class TestLivePublisher:
    def test_begin_publishes_first_snapshot(self, tmp_path):
        path = tmp_path / "live.json"
        rec, pub = attach(path, config={"engine": "serial", "stat": "r2"})
        assert not path.exists()
        run_start(rec, 10, 1000)
        snapshot = read_snapshot(path)
        assert snapshot["schema"] == LIVE_SCHEMA
        assert snapshot["phase"] == "running"
        assert snapshot["tiles"]["total"] == 10
        assert snapshot["pairs"]["total"] == 1000
        assert snapshot["config"]["engine"] == "serial"

    def test_progress_and_worker_heartbeats(self, tmp_path):
        rec, pub = attach(tmp_path / "live.json")
        run_start(rec, 4, 400)
        tile_computed(rec, "pid-1", 100, 0.01)
        tile_computed(rec, "pid-1", 100, 0.01)
        tile_computed(rec, "pid-2", 100, 0.02)
        pub.publish()
        snapshot = read_snapshot(pub.path)
        assert snapshot["tiles"]["done"] == 3
        assert snapshot["pairs"]["done"] == 300
        rows = {r["worker"]: r for r in snapshot["workers"]}
        assert rows["pid-1"]["n_tiles"] == 2
        assert rows["pid-2"]["n_tiles"] == 1
        assert all(r["state"] == "busy" for r in snapshot["workers"])

    def test_fault_accounting(self, tmp_path):
        rec, pub = attach(tmp_path / "live.json")
        run_start(rec, 2, 20)
        rec.inc("engine.retries")
        rec.event("tile_retry", tile=[0, 0], error="boom")
        rec.inc("engine.tiles_quarantined")
        rec.event("tile_quarantined", tile=[0, 0], error="boom")
        rec.inc("engine.worker_respawns")
        rec.event("worker_respawn", worker=1)
        pub.publish()
        snapshot = read_snapshot(pub.path)
        assert snapshot["retries"] == 1
        assert snapshot["tiles"]["quarantined"] == 1
        assert snapshot["worker_respawns"] == 1
        assert snapshot["recent_respawns"][0]["worker"] == 1

    def test_finish_marks_done(self, tmp_path):
        rec, pub = attach(tmp_path / "live.json")
        run_start(rec, 1, 1)
        rec.event("run_end")
        assert read_snapshot(pub.path)["phase"] == "done"

    def test_maybe_publish_throttles(self, tmp_path):
        _, pub = attach(tmp_path / "live.json", interval=60.0)
        assert pub.maybe_publish() is True  # first call always fires
        assert pub.maybe_publish() is False  # throttled for 60 s
        assert pub.n_published == 1

    def test_seq_monotone_and_atomic_tmp_cleanup(self, tmp_path):
        rec, pub = attach(tmp_path / "live.json")
        run_start(rec, 1, 1)
        for _ in range(3):
            pub.publish()
        snapshot = read_snapshot(pub.path)
        assert snapshot["seq"] == 3
        assert not (tmp_path / "live.json.tmp").exists()

    def test_interval_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="interval"):
            LivePublisher(
                tmp_path / "live.json", recorder=MetricsRecorder(),
                timeline=WorkerTimeline(), interval=0.0,
            )

    def test_percent_of_peak_needs_shape_and_dense(self, tmp_path):
        rec, pub = attach(tmp_path / "live.json")  # no shape in config
        run_start(rec, 1, 100)
        tile_computed(rec, "w", 50)
        pub.publish()
        assert read_snapshot(pub.path)["percent_of_peak"] is None
        banded_rec, banded = attach(
            tmp_path / "banded.json",
            config={"n_snps": 64, "k_words": 2, "band": "window 8"},
        )
        run_start(banded_rec, 1, 100)
        tile_computed(banded_rec, "w", 50)
        banded.publish()
        assert read_snapshot(banded.path)["percent_of_peak"] is None

    def test_percent_of_peak_on_dense_shape(self, tmp_path):
        rec, pub = attach(
            tmp_path / "live.json", config={"n_snps": 64, "k_words": 2}
        )
        run_start(rec, 1, 100)
        tile_computed(rec, "w", 50)
        pub.publish()
        peak = read_snapshot(pub.path)["percent_of_peak"]
        assert peak is not None and 0.0 <= peak <= 100.0
        # The run report's model rule: a quarantined tile leaves the run
        # incomplete, and an incomplete run is not priced.
        rec.inc("engine.tiles_quarantined")
        pub.publish()
        assert read_snapshot(pub.path)["percent_of_peak"] is None

    def test_io_bound_anomaly_from_recorder(self, tmp_path):
        recorder, pub = attach(tmp_path / "live.json")
        run_start(recorder, 1, 10)
        # Stall far beyond STALL_THRESHOLD of any sane elapsed time.
        recorder.observe_time("prefetch.stall_seconds", 1e6)
        recorder.inc("prefetch.bytes_read", 4096)
        pub.publish()
        snapshot = read_snapshot(pub.path)
        kinds = {a["kind"] for a in snapshot["anomalies"]}
        assert "io_bound" in kinds
        assert snapshot["prefetch"]["bytes_read"] == 4096
        recorder.close()

    def test_read_snapshot_missing_and_wrong_schema(self, tmp_path):
        assert read_snapshot(tmp_path / "absent.json") is None
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"schema": "repro-profile/1"}')
        with pytest.raises(ValueError, match="repro-live/1"):
            read_snapshot(bogus)

    def test_run_ids_are_unique(self):
        assert new_run_id() != new_run_id()


class TestConcurrentReaders:
    def test_reader_never_sees_torn_json(self, tmp_path):
        """A polling reader racing the writer always parses a full doc."""
        path = tmp_path / "live.json"
        rec, pub = attach(path)
        run_start(rec, 1, 1)
        errors: list[Exception] = []
        stop = threading.Event()

        def poll() -> None:
            while not stop.is_set():
                try:
                    snapshot = read_snapshot(path)
                    assert snapshot is not None
                    assert snapshot["schema"] == LIVE_SCHEMA
                except Exception as exc:  # noqa: BLE001 - collected
                    errors.append(exc)
                    return

        readers = [threading.Thread(target=poll) for _ in range(4)]
        for t in readers:
            t.start()
        # Big config payload makes the serialized blob non-trivial so a
        # non-atomic write would actually tear.
        pub.config["pad"] = "x" * 4096
        for i in range(300):
            tile_computed(rec, f"w{i % 3}", 1)
            pub.publish()
        stop.set()
        for t in readers:
            t.join()
        assert not errors


class TestEngineIntegration:
    def test_engine_run_feeds_publisher(self, panel, tmp_path):
        path = tmp_path / "live.json"
        rec, _ = attach(path, config={"engine": "serial", "stat": "r2"})
        report = run_engine(
            panel, lambda *a: None, engine="serial", block_snps=8,
            recorder=rec,
        )
        snapshot = read_snapshot(path)
        assert snapshot["phase"] == "done"
        assert snapshot["tiles"]["done"] == report.n_computed > 0
        assert snapshot["tiles"]["total"] == report.n_tiles
        assert snapshot["pairs"]["done"] > 0
        assert snapshot["workers"], "at least one worker heartbeat"

    def test_resumed_run_reports_skips(self, panel, tmp_path):
        manifest = tmp_path / "run.manifest"
        run_engine(
            panel, lambda *a: None, block_snps=8, manifest_path=manifest
        )
        rec, pub = attach(tmp_path / "live.json")
        run_engine(
            panel, lambda *a: None, block_snps=8, manifest_path=manifest,
            resume=True, recorder=rec,
        )
        snapshot = read_snapshot(pub.path)
        assert snapshot["tiles"]["skipped"] == snapshot["tiles"]["total"] > 0
        assert snapshot["tiles"]["done"] == 0

    @pytest.mark.usefixtures("instant_retries")
    def test_raising_run_ends_at_failed(self, panel, tmp_path):
        """A run that raises never emits run_end; closing the recorder
        must still take the snapshot out of phase "running"."""
        plan = FaultPlan(specs=(FaultSpec(site="tile_compute", tile=(8, 0)),))
        rec, pub = attach(tmp_path / "live.json", run_id="dead")
        with pytest.raises(InjectedFault), rec:
            run_engine(
                panel, lambda *a: None, engine="serial", block_snps=8,
                max_retries=1, faults=plan, recorder=rec,
            )
        snapshot = read_snapshot(pub.path)
        assert snapshot["phase"] == "failed"
        assert 'repro_live_up{run_id="dead"} 0' in prometheus_text(snapshot)


class TestRenderTop:
    def _snapshot(self, tmp_path) -> dict:
        rec, pub = attach(
            tmp_path / "live.json",
            config={
                "engine": "threads", "workers": 2, "stat": "r2",
                "n_snps": 60, "n_samples": 33,
            },
        )
        run_start(rec, 4, 400)
        tile_computed(rec, "pid-7", 100, 0.01)
        rec.inc("engine.worker_respawns")
        rec.event("worker_respawn", worker=0)
        pub.publish()
        return read_snapshot(pub.path)

    def test_dashboard_has_progress_workers_and_respawns(self, tmp_path):
        text = render_top(self._snapshot(tmp_path))
        assert "engine=threads" in text
        assert "tiles 1/4 done" in text
        assert "pid-7" in text
        assert "1 respawns" in text
        assert "respawned worker slot 0" in text
        assert "rate " in text

    def test_sparkline_shapes(self):
        assert sparkline([]) == ""
        assert sparkline([0.0, 0.0]) == "▁▁"
        line = sparkline([0.0, 5.0, 10.0])
        assert len(line) == 3 and line[-1] == "█"


class TestPrometheus:
    def test_text_format_core_series(self, tmp_path):
        rec, pub = attach(tmp_path / "live.json", run_id="test-run")
        run_start(rec, 4, 400)
        tile_computed(rec, "pid-1", 100)
        pub.publish()
        text = prometheus_text(read_snapshot(pub.path))
        assert 'repro_live_up{run_id="test-run"} 1' in text
        assert 'repro_tiles_done{run_id="test-run"} 1' in text
        assert 'repro_pairs_done{run_id="test-run"} 100' in text
        assert 'repro_worker_busy{run_id="test-run",worker="pid-1"} 1' in text
        assert 'repro_percent_of_peak{run_id="test-run"} NaN' in text
        assert '# TYPE repro_retries_total counter' in text
        assert text.endswith("\n")

    def test_anomaly_series_and_label_escaping(self, tmp_path):
        rec, pub = attach(tmp_path / "live.json", run_id='od"d\\run')
        run_start(rec, 1, 1)
        pub.publish()
        text = prometheus_text(read_snapshot(pub.path))
        assert r'run_id="od\"d\\run"' in text
        assert 'kind="none"' in text

    def test_serve_prometheus_scrape(self, tmp_path):
        rec, pub = attach(tmp_path / "live.json", run_id="served")
        run_start(rec, 2, 20)
        pub.publish()
        server = serve_prometheus(pub.path, 0)  # port 0: pick a free one
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics", timeout=10
            ) as resp:
                assert resp.status == 200
                body = resp.read().decode()
            assert 'repro_tiles_total{run_id="served"} 2' in body
            # The exporter re-reads per scrape: later publishes show up.
            tile_computed(rec, "w", 10)
            pub.publish()
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics", timeout=10
            ) as resp:
                assert 'repro_tiles_done{run_id="served"} 1' in (
                    resp.read().decode()
                )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/nope", timeout=10
                )
            assert excinfo.value.code == 404
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_serve_503_without_snapshot(self, tmp_path):
        server = serve_prometheus(tmp_path / "absent.json", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/metrics", timeout=10
                )
            assert excinfo.value.code == 503
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
