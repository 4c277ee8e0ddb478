"""Tests for the sharded tiled execution engine (repro.core.engine)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import (
    ENGINES,
    TileManifest,
    TileTask,
    enumerate_tiles,
    input_fingerprint,
    run_engine,
)
from repro.core.executors import stop_pools
from repro.core.ldmatrix import as_bitmatrix, ld_matrix
from repro.core.streaming import NpyMemmapSink
from repro.faults import FaultPlan, FaultSpec, InjectedFault
from repro.observe import MetricsRecorder

@pytest.fixture
def panel(rng):
    return rng.integers(0, 2, size=(75, 37)).astype(np.uint8)


class TestEnumerateTiles:
    @settings(deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=150),
        block=st.integers(min_value=1, max_value=64),
    )
    def test_tiles_partition_lower_triangle_exactly(self, n, block):
        covered = np.zeros((n, n), dtype=np.int64)
        for t in enumerate_tiles(n, block):
            assert 0 <= t.j0 <= t.i0 and t.i0 < t.i1 <= n and t.j0 < t.j1 <= n
            covered[t.i0 : t.i1, t.j0 : t.j1] += 1
        il = np.tril_indices(n)
        # Every lower-triangle cell exactly once; diagonal blocks spill
        # above the diagonal (block-granular delivery), never twice.
        assert np.all(covered[il] == 1)
        assert np.all(covered <= 1)

    @settings(deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=300),
        block=st.integers(min_value=1, max_value=64),
    )
    def test_block_count(self, n, block):
        n_blocks = -(-n // block)
        assert len(enumerate_tiles(n, block)) == n_blocks * (n_blocks + 1) // 2

    def test_order_matches_streaming_convention(self):
        keys = [t.key for t in enumerate_tiles(20, 8)]
        assert keys == [(0, 0), (8, 0), (8, 8), (16, 0), (16, 8), (16, 16)]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError, match="block_snps"):
            enumerate_tiles(10, 0)
        with pytest.raises(ValueError, match="n_snps"):
            enumerate_tiles(-1, 4)


class TestTileManifest:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.manifest"
        with TileManifest.open(path, "fp-1") as manifest:
            manifest.record(TileTask(0, 8, 0, 8))
            manifest.record(TileTask(8, 16, 0, 8))
        with TileManifest.open(path, "fp-1", resume=True) as reopened:
            assert reopened.completed == {(0, 0), (8, 0)}

    def test_fingerprint_mismatch_refuses_resume(self, tmp_path):
        path = tmp_path / "run.manifest"
        TileManifest.open(path, "fp-1").close()
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            TileManifest.open(path, "fp-2", resume=True)

    def test_without_resume_truncates(self, tmp_path):
        path = tmp_path / "run.manifest"
        with TileManifest.open(path, "fp-1") as manifest:
            manifest.record(TileTask(0, 8, 0, 8))
        with TileManifest.open(path, "fp-1") as manifest:
            assert manifest.completed == set()
        with TileManifest.open(path, "fp-1", resume=True) as manifest:
            assert manifest.completed == set()

    def test_torn_tail_line_is_ignored(self, tmp_path):
        path = tmp_path / "run.manifest"
        with TileManifest.open(path, "fp-1") as manifest:
            manifest.record(TileTask(0, 8, 0, 8))
        with path.open("a") as fh:
            fh.write('{"tile": [8,')  # crash mid-append
        with TileManifest.open(path, "fp-1", resume=True) as manifest:
            assert manifest.completed == {(0, 0)}

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "run.manifest"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="corrupt"):
            TileManifest.open(path, "fp-1", resume=True)

    def test_fingerprint_sensitivity(self, rng):
        dense = rng.integers(0, 2, size=(40, 11)).astype(np.uint8)
        matrix = as_bitmatrix(dense)
        base = input_fingerprint(matrix, stat="r2", block_snps=8)
        assert base == input_fingerprint(matrix, stat="r2", block_snps=8)
        assert base != input_fingerprint(matrix, stat="D", block_snps=8)
        assert base != input_fingerprint(matrix, stat="r2", block_snps=16)
        flipped = dense.copy()
        flipped[0, 0] ^= 1
        assert base != input_fingerprint(
            as_bitmatrix(flipped), stat="r2", block_snps=8
        )


class _AssemblingSink:
    """Collects delivered lower-triangle blocks into a dense matrix."""

    def __init__(self, n: int) -> None:
        self.matrix = np.full((n, n), np.nan)
        self.calls: list[tuple[int, int]] = []

    def __call__(self, i0: int, j0: int, block: np.ndarray) -> None:
        self.calls.append((i0, j0))
        self.matrix[i0 : i0 + block.shape[0], j0 : j0 + block.shape[1]] = block


class TestRunEngine:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("stat", ["r2", "D", "H"])
    def test_matches_in_memory_pipeline(self, panel, engine, stat):
        n = panel.shape[1]
        sink = _AssemblingSink(n)
        report = run_engine(
            panel, sink, stat=stat, engine=engine, block_snps=9, n_workers=2
        )
        il = np.tril_indices(n)
        expected = ld_matrix(panel, stat=stat)
        np.testing.assert_array_equal(sink.matrix[il], expected[il])
        assert report.n_tiles == len(sink.calls) == report.n_computed
        assert report.n_skipped == 0 and report.complete

    def test_manifest_written_and_resume_skips_everything(self, panel, tmp_path):
        manifest = tmp_path / "run.manifest"
        sink = _AssemblingSink(panel.shape[1])
        first = run_engine(
            panel, sink, block_snps=10, manifest_path=manifest
        )
        assert first.n_computed == first.n_tiles > 0
        again = _AssemblingSink(panel.shape[1])
        second = run_engine(
            panel, again, block_snps=10, manifest_path=manifest, resume=True
        )
        assert second.n_computed == 0
        assert second.n_skipped == second.n_tiles == first.n_tiles
        assert again.calls == []

    def test_resume_requires_manifest(self, panel):
        with pytest.raises(ValueError, match="manifest_path"):
            run_engine(panel, lambda *a: None, resume=True)

    def test_validation(self, panel):
        with pytest.raises(ValueError, match="unknown engine"):
            run_engine(panel, lambda *a: None, engine="gpu")
        with pytest.raises(ValueError, match="unknown LD statistic"):
            run_engine(panel, lambda *a: None, stat="Dprime")
        with pytest.raises(ValueError, match="n_workers"):
            run_engine(panel, lambda *a: None, engine="threads", n_workers=0)
        with pytest.raises(ValueError, match="max_retries"):
            run_engine(panel, lambda *a: None, max_retries=-1)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_memmap_sink_round_trip(self, panel, tmp_path, engine):
        path = tmp_path / "ld.npy"
        n = panel.shape[1]
        with NpyMemmapSink(path, n) as sink:
            run_engine(
                panel, sink, engine=engine, block_snps=8, n_workers=2,
                undefined=0.0,
            )
        np.testing.assert_array_equal(np.load(path), ld_matrix(panel, undefined=0.0))


class TestRetries:
    """Retry behaviour, driven deterministically through FaultPlan.

    The plans key every decision on (tile, attempt), so these tests see
    the exact same failure schedule on every run and every executor — no
    real worker crashes, no counter files, no flakiness.
    """

    @pytest.mark.parametrize("engine", ENGINES)
    def test_transient_failures_are_retried(self, panel, engine):
        plan = FaultPlan(seed=11, specs=(
            FaultSpec(site="tile_compute", tile=(10, 10), attempts_below=2),
        ))
        sink = _AssemblingSink(panel.shape[1])
        recorder = MetricsRecorder(keep_events=True)
        report = run_engine(
            panel, sink, engine=engine, block_snps=10, n_workers=2,
            max_retries=2, retry_backoff=0.0, faults=plan, recorder=recorder,
        )
        assert report.n_retries == 2
        assert report.n_computed == report.n_tiles
        assert report.n_quarantined == 0
        # The recorder sees every retry the report counts, attributed to
        # the injected tile.
        assert recorder.counters["engine.retries"] == report.n_retries
        retry_events = [
            e for e in recorder.events if e["kind"] == "tile_retry"
        ]
        assert len(retry_events) == 2
        assert all(e["tile"] == [10, 10] for e in retry_events)
        assert recorder.event_count("tile_computed") == report.n_computed
        il = np.tril_indices(panel.shape[1])
        np.testing.assert_array_equal(
            sink.matrix[il], ld_matrix(panel)[il]
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_persistent_failure_raises_after_retries(self, panel, engine):
        plan = FaultPlan(specs=(
            FaultSpec(site="tile_compute", tile=(0, 0)),
        ))
        with pytest.raises(InjectedFault, match="injected raise"):
            run_engine(
                panel, _AssemblingSink(panel.shape[1]), engine=engine,
                block_snps=10, n_workers=2, max_retries=1,
                retry_backoff=0.0, faults=plan,
            )


class _CrashingSink:
    """Wraps a sink and kills the run after *n_before_crash* deliveries."""

    def __init__(self, inner, n_before_crash: int) -> None:
        self.inner = inner
        self.n_before_crash = n_before_crash
        self.delivered = 0

    def __call__(self, i0: int, j0: int, block: np.ndarray) -> None:
        if self.delivered >= self.n_before_crash:
            raise KeyboardInterrupt("simulated mid-run crash")
        self.inner(i0, j0, block)
        self.delivered += 1

    def flush(self) -> None:
        flush = getattr(self.inner, "flush", None)
        if callable(flush):
            flush()


class TestCrashResume:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_interrupted_run_resumes_bit_identically(
        self, panel, tmp_path, engine
    ):
        """Kill the engine mid-run, restart with resume, compare to clean."""
        n = panel.shape[1]
        clean_path = tmp_path / "clean.npy"
        with NpyMemmapSink(clean_path, n) as sink:
            clean_report = run_engine(
                panel, sink, engine=engine, block_snps=9, n_workers=2
            )
        assert clean_report.n_tiles > 4

        crash_path = tmp_path / "crashy.npy"
        manifest = tmp_path / "crashy.manifest"
        with NpyMemmapSink(crash_path, n) as inner:
            crashing = _CrashingSink(inner, n_before_crash=3)
            with pytest.raises(KeyboardInterrupt):
                run_engine(
                    panel, crashing, engine=engine, block_snps=9,
                    n_workers=2, manifest_path=manifest,
                )
        # The journal holds exactly the tiles delivered before the crash.
        with TileManifest.open(
            manifest,
            input_fingerprint(
                as_bitmatrix(panel), stat="r2", block_snps=9
            ),
            resume=True,
        ) as journal:
            assert len(journal.completed) == 3

        with NpyMemmapSink(crash_path, n, mode="r+") as sink:
            resumed = run_engine(
                panel, sink, engine=engine, block_snps=9, n_workers=2,
                manifest_path=manifest, resume=True,
            )
        assert resumed.n_skipped == 3
        assert resumed.n_computed == clean_report.n_tiles - 3
        clean = np.load(clean_path)
        restarted = np.load(crash_path)
        np.testing.assert_array_equal(restarted, clean)

    def test_resume_after_input_change_is_refused(self, panel, tmp_path):
        manifest = tmp_path / "run.manifest"
        run_engine(panel, lambda *a: None, block_snps=10, manifest_path=manifest)
        changed = panel.copy()
        changed[0, 0] ^= 1
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            run_engine(
                changed, lambda *a: None, block_snps=10,
                manifest_path=manifest, resume=True,
            )


class TestBatchedDispatch:
    """Batched tile units and the shared-memory result arena."""

    @pytest.mark.parametrize("engine", ["threads", "persistent"])
    @pytest.mark.parametrize("batch", [1, 2, 3, 100])
    def test_batched_matrix_is_bit_identical(self, panel, engine, batch):
        n = panel.shape[1]
        sink = _AssemblingSink(n)
        report = run_engine(
            panel, sink, engine=engine, block_snps=10, n_workers=2,
            batch_tiles=batch,
        )
        assert report.complete
        n_units = -(-report.n_tiles // batch)
        assert report.n_batches == n_units
        il = np.tril_indices(n)
        np.testing.assert_array_equal(sink.matrix[il], ld_matrix(panel)[il])

    def test_serial_ignores_batching(self, panel):
        report = run_engine(
            panel, _AssemblingSink(panel.shape[1]), engine="serial",
            block_snps=10, batch_tiles=4,
        )
        assert report.complete and report.n_batches == 0

    def test_rejects_nonpositive_batch(self, panel):
        with pytest.raises(ValueError, match="batch_tiles"):
            run_engine(
                panel, lambda *a: None, engine="threads", batch_tiles=0
            )

    @pytest.mark.parametrize("engine", ["threads", "persistent"])
    def test_batch_accounting_in_recorder(self, panel, engine):
        # The arena is counted when its pool is built, so start cold.
        stop_pools()
        recorder = MetricsRecorder()
        report = run_engine(
            panel, _AssemblingSink(panel.shape[1]), engine=engine,
            block_snps=10, n_workers=2, batch_tiles=2, recorder=recorder,
        )
        assert recorder.counters["engine.batches_dispatched"] == report.n_batches
        if engine == "persistent":
            # The result arena's footprint is reported once per pool.
            assert recorder.counters["engine.arena_bytes"] > 0
        else:
            assert "engine.arena_bytes" not in recorder.counters

    @pytest.mark.parametrize("engine", ["threads", "persistent"])
    def test_tile_timeout_forces_singleton_batches(self, panel, engine):
        report = run_engine(
            panel, _AssemblingSink(panel.shape[1]), engine=engine,
            block_snps=10, n_workers=2, batch_tiles=5, tile_timeout=60.0,
        )
        # The per-tile watchdog budget only makes sense with one tile per
        # future, so the requested batch size is overridden.
        assert report.complete
        assert report.n_batches == report.n_tiles

    @pytest.mark.parametrize("engine", ["threads", "persistent"])
    def test_transient_failure_inside_batch_retries_only_that_tile(
        self, panel, engine
    ):
        plan = FaultPlan(specs=(
            FaultSpec(site="tile_compute", tile=(10, 10), attempts_below=2),
        ))
        n = panel.shape[1]
        sink = _AssemblingSink(n)
        recorder = MetricsRecorder()
        report = run_engine(
            panel, sink, engine=engine, block_snps=10, n_workers=2,
            batch_tiles=3, max_retries=2, retry_backoff=0.0, faults=plan,
            recorder=recorder,
        )
        assert report.complete
        assert report.n_retries == 2
        retry_events = [e for e in recorder.events if e["event"] == "tile_retry"]
        assert all(e["tile"] == [10, 10] for e in retry_events)
        il = np.tril_indices(n)
        np.testing.assert_array_equal(sink.matrix[il], ld_matrix(panel)[il])

    def test_persistent_failure_in_batch_raises_original_type(self, panel):
        plan = FaultPlan(specs=(
            FaultSpec(site="tile_compute", tile=(0, 0)),
        ))
        with pytest.raises(InjectedFault, match="injected raise"):
            run_engine(
                panel, _AssemblingSink(panel.shape[1]), engine="persistent",
                block_snps=10, n_workers=2, batch_tiles=4, max_retries=1,
                retry_backoff=0.0, faults=plan,
            )
