"""Out-of-core panel streaming: store format, prefetcher, crash/resume.

The acceptance property of the out-of-core mode: an LD sweep over a
packed panel several times larger than the configured memory budget
completes within that budget, produces a bit-identical r² matrix to the
in-core engine, resumes after a mid-sweep crash from the manifest, and
attributes its disk time (``io.prefetch`` / ``io.wait`` spans,
``prefetch.*`` metrics) instead of hiding it inside "compute".
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.engine import TileTask, enumerate_tiles, run_engine
from repro.core.prefetch import (
    PanelPrefetcher,
    WarmReader,
    min_memory_budget,
    order_panel_major,
    plan_windows,
)
from repro.core.streaming import NpyMemmapSink, stream_ld_blocks
from repro.encoding.bitmatrix import BitMatrix
from repro.faults import FaultPlan, FaultSpec, InjectedCrash
from repro.io.panelstore import PANEL_MAGIC, PanelStore, pack_panel
from repro.observe import MetricsRecorder, SpanProfiler, profiling

BLOCK = 64


@pytest.fixture(scope="module")
def dense_panel():
    rng = np.random.default_rng(0x00C)
    return (rng.random((96, 700)) < 0.3).astype(np.uint8)


@pytest.fixture(scope="module")
def packed(dense_panel):
    return BitMatrix.from_dense(dense_panel)


@pytest.fixture(scope="module")
def store_path(packed, tmp_path_factory):
    path = tmp_path_factory.mktemp("panelstore") / "panel.pnl"
    pack_panel(path, packed).close()
    return path


@pytest.fixture(scope="module")
def clean_matrix(packed, tmp_path_factory):
    path = tmp_path_factory.mktemp("ooc-ref") / "clean.npy"
    with NpyMemmapSink(path, packed.n_snps) as sink:
        report = run_engine(packed, sink, engine="serial", block_snps=BLOCK)
    assert report.complete
    return np.load(path)


def _quarter_budget(path) -> int:
    """A budget ~4x smaller than the panel (never below the floor)."""
    with PanelStore.open(path) as store:
        return max(
            min_memory_budget(BLOCK, store.row_nbytes), store.nbytes // 4
        )


class TestPanelStore:
    def test_round_trip(self, packed, tmp_path):
        path = tmp_path / "p.pnl"
        with pack_panel(path, packed) as store:
            assert store.n_snps == packed.n_snps
            assert store.n_words == packed.n_words
            assert store.n_samples == packed.n_samples
            np.testing.assert_array_equal(store.words, packed.words)
            np.testing.assert_array_equal(
                store.freqs, packed.allele_frequencies()
            )
            np.testing.assert_array_equal(
                store.to_bitmatrix().words, packed.words
            )
            assert store.verify()

    def test_read_rows_copies(self, packed, tmp_path):
        with pack_panel(tmp_path / "p.pnl", packed) as store:
            rows = store.read_rows(10, 74)
            np.testing.assert_array_equal(rows, packed.words[10:74])
            assert rows.base is None or rows.base is not store.words
            out = np.empty((64, store.n_words), dtype=np.uint64)
            got = store.read_rows(10, 74, out=out)
            np.testing.assert_array_equal(got, packed.words[10:74])

    def test_digest_is_content_addressed(self, packed, tmp_path):
        with pack_panel(tmp_path / "a.pnl", packed) as a, \
                pack_panel(tmp_path / "b.pnl", packed) as b:
            assert a.content_digest == b.content_digest
        other = BitMatrix.from_dense(
            np.zeros((4, 8), dtype=np.uint8) + np.eye(4, 8, dtype=np.uint8)
        )
        with pack_panel(tmp_path / "c.pnl", other) as c:
            assert c.content_digest != a.content_digest

    def test_open_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pnl"
        path.write_bytes(b"NOTAPANEL" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            PanelStore.open(path)

    def test_open_rejects_truncated_words(self, packed, tmp_path):
        path = tmp_path / "trunc.pnl"
        pack_panel(path, packed).close()
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 16])
        with pytest.raises(ValueError, match="truncated|size"):
            PanelStore.open(path)

    def test_verify_catches_corruption(self, packed, tmp_path):
        path = tmp_path / "corrupt.pnl"
        pack_panel(path, packed).close()
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip bits in the last words byte
        path.write_bytes(bytes(data))
        with PanelStore.open(path) as store:
            assert not store.verify()

    def test_pack_is_atomic(self, packed, tmp_path):
        path = tmp_path / "atomic.pnl"
        pack_panel(path, packed).close()
        assert not (tmp_path / "atomic.pnl.packing").exists()
        assert path.read_bytes()[: len(PANEL_MAGIC)] == PANEL_MAGIC

    def test_create_rejects_zero_samples(self, tmp_path):
        empty = BitMatrix.zeros(0, 4)
        with pytest.raises(ValueError, match="zero samples"):
            pack_panel(tmp_path / "z.pnl", empty)


class TestWindowPlanning:
    def test_budget_floor_raises(self):
        floor = min_memory_budget(BLOCK, 16)
        with pytest.raises(ValueError, match="memory budget"):
            plan_windows(700, BLOCK, row_nbytes=16, memory_budget=floor - 1)
        plan_windows(700, BLOCK, row_nbytes=16, memory_budget=floor)

    def test_windows_tile_the_panel(self):
        windows, window_rows = plan_windows(
            700, BLOCK, row_nbytes=16, memory_budget=4096
        )
        assert window_rows % BLOCK == 0
        assert windows[0].start == 0
        assert windows[-1].stop == 700
        for prev, cur in zip(windows, windows[1:]):
            assert cur.start == prev.stop
        # Target-resident windows fit the budget.
        assert 4 * window_rows * 16 <= 4096 or window_rows == BLOCK

    def test_panel_major_order_consumes_window_pairs(self):
        tiles = enumerate_tiles(512, BLOCK)
        ordered = order_panel_major(tiles, 2 * BLOCK)
        pairs = [
            (t.i0 // (2 * BLOCK), t.j0 // (2 * BLOCK)) for t in ordered
        ]
        # Each window pair appears as one contiguous run.
        seen: list[tuple[int, int]] = []
        for pair in pairs:
            if not seen or seen[-1] != pair:
                assert pair not in seen, f"window pair {pair} revisited"
                seen.append(pair)

    def test_order_rejects_straddling_tiles(self):
        bad = [TileTask(i0=96, i1=160, j0=0, j1=64)]
        with pytest.raises(ValueError, match="straddles"):
            order_panel_major(bad, 128)


class TestPrefetcherDirect:
    def test_budget_is_respected_and_views_are_exact(self, store_path):
        budget = _quarter_budget(store_path)
        with PanelStore.open(store_path) as store:
            tiles = enumerate_tiles(store.n_snps, BLOCK)
            ref = np.array(store.words)
            with PanelPrefetcher(
                store, tiles, block_snps=BLOCK, memory_budget=budget
            ) as pf:
                for tile in pf.order:
                    view = pf.acquire(tile)
                    np.testing.assert_array_equal(
                        view[tile.i0 : tile.i1], ref[tile.i0 : tile.i1]
                    )
                    np.testing.assert_array_equal(
                        view[tile.j0 : tile.j1], ref[tile.j0 : tile.j1]
                    )
                    pf.release(tile)
                assert pf.peak_resident_bytes <= budget
                assert pf.bytes_read >= store.nbytes  # every window read
                assert pf.peak_resident_bytes < store.nbytes

    def test_concurrent_consumers_finish_at_the_budget_floor(self, store_path):
        """Four consumers, three windows of budget, failing and slow reads.

        The earliest blocked tile must always complete. If consumers
        instead evict each other's loads forever, the watchdog closes the
        prefetcher, so the test fails rather than hangs.
        """
        plan = FaultPlan(
            seed=11,
            specs=(
                FaultSpec(site="prefetch", action="raise", rate=0.3,
                          attempts_below=2),
                FaultSpec(site="prefetch", action="delay", rate=0.3,
                          delay_seconds=0.005),
            ),
        )
        with PanelStore.open(store_path) as store:
            tiles = enumerate_tiles(store.n_snps, BLOCK)
            budget = min_memory_budget(BLOCK, store.row_nbytes)
            for _ in range(5):
                with PanelPrefetcher(
                    store, tiles, block_snps=BLOCK, memory_budget=budget,
                    faults=plan,
                ) as pf:
                    # Runs of consecutive tiles, as the threads executor
                    # dispatches them.
                    batches = iter(
                        [pf.order[i : i + 5] for i in range(0, len(pf.order), 5)]
                    )
                    lock = threading.Lock()
                    errors: list[BaseException] = []

                    def consume() -> None:
                        try:
                            while True:
                                with lock:
                                    batch = next(batches, None)
                                if batch is None:
                                    return
                                for tile in batch:
                                    pf.acquire(tile)
                                    time.sleep(0.0005)  # compute, pinned
                                    pf.release(tile)
                        except RuntimeError as exc:
                            errors.append(exc)

                    threads = [threading.Thread(target=consume) for _ in range(4)]
                    for thread in threads:
                        thread.start()
                    deadline = time.monotonic() + 30.0
                    for thread in threads:
                        thread.join(max(0.0, deadline - time.monotonic()))
                    stuck = any(thread.is_alive() for thread in threads)
                    if stuck:
                        pf.close()  # every blocked acquire now raises
                        for thread in threads:
                            thread.join(5.0)
                    assert not stuck, "consumers livelocked at the budget floor"
                    assert not errors, errors

    def test_view_rejects_nonresident_rows(self, store_path):
        budget = _quarter_budget(store_path)
        with PanelStore.open(store_path) as store:
            tiles = enumerate_tiles(store.n_snps, BLOCK)
            with PanelPrefetcher(
                store, tiles, block_snps=BLOCK, memory_budget=budget
            ) as pf:
                tile = pf.order[0]
                view = pf.acquire(tile)
                with pytest.raises(IndexError, match="not resident"):
                    view[store.n_snps - 1 : store.n_snps]
                pf.release(tile)

    def test_acquire_after_close_raises(self, store_path):
        with PanelStore.open(store_path) as store:
            tiles = enumerate_tiles(store.n_snps, BLOCK)
            pf = PanelPrefetcher(
                store,
                tiles,
                block_snps=BLOCK,
                memory_budget=_quarter_budget(store_path),
            )
            pf.close()
            with pytest.raises(RuntimeError, match="closed"):
                pf.acquire(tiles[0])

    def test_warm_reader_reads_every_window_once(self, store_path):
        with PanelStore.open(store_path) as store:
            tiles = enumerate_tiles(store.n_snps, BLOCK)
            with WarmReader(
                store,
                tiles,
                block_snps=BLOCK,
                memory_budget=_quarter_budget(store_path),
            ) as warm:
                for _ in warm.order:
                    warm.advance()
                deadline = 200
                while warm.bytes_read < store.nbytes and deadline:
                    deadline -= 1
                    import time

                    time.sleep(0.01)
            assert warm.bytes_read == store.nbytes


class TestOutOfCoreEngines:
    @pytest.mark.parametrize("engine", ["serial", "threads"])
    def test_pull_mode_is_bit_identical(
        self, engine, store_path, clean_matrix, tmp_path
    ):
        budget = _quarter_budget(store_path)
        out = tmp_path / "ooc.npy"
        with NpyMemmapSink(out, clean_matrix.shape[0]) as sink:
            report = run_engine(
                str(store_path), sink, engine=engine, block_snps=BLOCK,
                n_workers=3, manifest_path=tmp_path / "ooc.manifest",
                memory_budget=budget,
            )
        assert report.complete
        np.testing.assert_array_equal(np.load(out), clean_matrix)

    def test_processes_mode_is_bit_identical(
        self, store_path, clean_matrix, tmp_path
    ):
        out = tmp_path / "ooc.npy"
        with NpyMemmapSink(out, clean_matrix.shape[0]) as sink:
            report = run_engine(
                str(store_path), sink, engine="persistent", block_snps=BLOCK,
                n_workers=2, manifest_path=tmp_path / "ooc.manifest",
                memory_budget=_quarter_budget(store_path),
            )
        assert report.complete
        assert not report.degraded
        np.testing.assert_array_equal(np.load(out), clean_matrix)

    def test_store_instance_and_unbudgeted_store_work(
        self, store_path, clean_matrix, tmp_path
    ):
        with PanelStore.open(store_path) as store:
            out = tmp_path / "inst.npy"
            with NpyMemmapSink(out, clean_matrix.shape[0]) as sink:
                run_engine(
                    store, sink, engine="serial", block_snps=BLOCK,
                    manifest_path=tmp_path / "inst.manifest",
                )
            np.testing.assert_array_equal(np.load(out), clean_matrix)
            # The caller-supplied store must survive run_engine.
            assert store.words is not None

    def test_budget_requires_store(self, packed, tmp_path):
        with NpyMemmapSink(tmp_path / "x.npy", packed.n_snps) as sink:
            with pytest.raises(ValueError, match="panel-store|panel store"):
                run_engine(
                    packed, sink, engine="serial", block_snps=BLOCK,
                    memory_budget=1 << 20,
                )

    def test_stream_ld_blocks_over_store(self, store_path, clean_matrix):
        n = clean_matrix.shape[0]
        assembled = np.array(clean_matrix)  # start from mirrored oracle
        assembled[np.tril_indices(n)] = np.nan

        def sink(i0, j0, block):
            assembled[i0 : i0 + block.shape[0], j0 : j0 + block.shape[1]] = (
                block
            )

        stream_ld_blocks(
            str(store_path), sink, block_snps=BLOCK,
            memory_budget=_quarter_budget(store_path),
        )
        il = np.tril_indices(n)
        np.testing.assert_array_equal(
            np.nan_to_num(assembled[il]), np.nan_to_num(clean_matrix[il])
        )

    def test_stream_budget_requires_store(self, packed):
        with pytest.raises(ValueError, match="memory_budget"):
            stream_ld_blocks(
                packed, lambda *a: None, block_snps=BLOCK,
                memory_budget=1 << 20,
            )


class TestCrashResume:
    def test_mid_panel_crash_resumes_bit_identically(
        self, store_path, clean_matrix, tmp_path
    ):
        """Kill the sweep mid-panel (torn manifest append), resume from
        the journal, and require bit-identity with the in-core oracle."""
        n = clean_matrix.shape[0]
        tiles = enumerate_tiles(n, BLOCK)
        victim = tiles[len(tiles) // 2].key
        plan = FaultPlan(
            seed=7,
            specs=(
                FaultSpec(site="manifest_append", action="torn", tile=victim),
            ),
        )
        out = tmp_path / "crash.npy"
        manifest = tmp_path / "crash.manifest"
        budget = _quarter_budget(store_path)
        with pytest.raises(InjectedCrash):
            with NpyMemmapSink(out, n) as sink:
                run_engine(
                    str(store_path), sink, engine="serial", block_snps=BLOCK,
                    manifest_path=manifest, memory_budget=budget, faults=plan,
                )
        # Resume fault-free: journaled tiles skip, the rest recompute.
        with NpyMemmapSink(out, n, mode="r+") as sink:
            report = run_engine(
                str(store_path), sink, engine="serial", block_snps=BLOCK,
                manifest_path=manifest, resume=True, memory_budget=budget,
            )
        assert report.complete
        assert report.n_skipped > 0
        np.testing.assert_array_equal(np.load(out), clean_matrix)

    def test_prefetch_chaos_is_bit_identical(
        self, store_path, clean_matrix, tmp_path
    ):
        """Transient prefetch failures and slow reads never change r²."""
        plan = FaultPlan(
            seed=11,
            specs=(
                FaultSpec(site="prefetch", action="raise", rate=0.3,
                          attempts_below=2),
                FaultSpec(site="prefetch", action="delay", rate=0.3,
                          delay_seconds=0.005),
            ),
        )
        out = tmp_path / "chaos.npy"
        n = clean_matrix.shape[0]
        with NpyMemmapSink(out, n) as sink:
            report = run_engine(
                str(store_path), sink, engine="threads", block_snps=BLOCK,
                n_workers=3, manifest_path=tmp_path / "chaos.manifest",
                memory_budget=_quarter_budget(store_path), faults=plan,
            )
        assert report.complete
        np.testing.assert_array_equal(np.load(out), clean_matrix)

    def test_manifest_rejects_different_store(
        self, store_path, packed, tmp_path, dense_panel
    ):
        """A store manifest must not resume against different panel bytes."""
        other = BitMatrix.from_dense(dense_panel[:, ::-1].copy())
        other_path = tmp_path / "other.pnl"
        pack_panel(other_path, other).close()
        out = tmp_path / "m.npy"
        manifest = tmp_path / "m.manifest"
        with NpyMemmapSink(out, packed.n_snps) as sink:
            run_engine(
                str(store_path), sink, engine="serial", block_snps=BLOCK,
                manifest_path=manifest,
            )
        with NpyMemmapSink(out, packed.n_snps, mode="r+") as sink:
            with pytest.raises(ValueError, match="fingerprint"):
                run_engine(
                    str(other_path), sink, engine="serial", block_snps=BLOCK,
                    manifest_path=manifest, resume=True,
                )


class TestPrefetchAttribution:
    def test_spans_and_metrics_attribute_io(self, store_path, tmp_path):
        prefetch_threads: set[str] = set()

        class _ThreadNoting(SpanProfiler):
            def span(self, name):
                if name == "io.prefetch":
                    prefetch_threads.add(threading.current_thread().name)
                return super().span(name)

        recorder = MetricsRecorder()
        profiler = _ThreadNoting()
        out = tmp_path / "attr.npy"
        with PanelStore.open(store_path) as store:
            n = store.n_snps
        with NpyMemmapSink(out, n) as sink, profiling(profiler):
            run_engine(
                str(store_path), sink, engine="threads", block_snps=BLOCK,
                n_workers=2, manifest_path=tmp_path / "attr.manifest",
                memory_budget=_quarter_budget(store_path),
                recorder=recorder,
            )
        totals = profiler.totals()
        assert "io.prefetch" in totals and totals["io.prefetch"]["count"] > 0
        assert recorder.counters.get("prefetch.bytes_read", 0) > 0
        # The prefetch reads must run on the loader thread — that is the
        # overlap mechanism: disk time on repro-prefetch while the worker
        # threads run gemm spans concurrently.
        assert any(t.startswith("repro-prefetch") for t in prefetch_threads)

    def test_profile_payload_reports_io_phase(self, store_path, tmp_path):
        from repro.observe.report import WorkerTimeline, build_run_report

        recorder = MetricsRecorder()
        timeline = WorkerTimeline()
        recorder.sinks.append(timeline)
        profiler = SpanProfiler()
        out = tmp_path / "prof.npy"
        with PanelStore.open(store_path) as store:
            n, n_samples = store.n_snps, store.n_samples
            k_words = store.n_words
        import time as _time

        start = _time.perf_counter()
        with NpyMemmapSink(out, n) as sink, profiling(profiler):
            report = run_engine(
                str(store_path), sink, engine="serial", block_snps=BLOCK,
                manifest_path=tmp_path / "prof.manifest",
                memory_budget=_quarter_budget(store_path),
                recorder=recorder,
            )
        wall = _time.perf_counter() - start
        payload = build_run_report(
            recorder=recorder, profiler=profiler, timeline=timeline,
            report=report, wall_seconds=wall, stat="r2", n_snps=n,
            n_samples=n_samples, k_words=k_words,
            block_snps=BLOCK,
        )
        assert any(name.startswith("io.") for name in payload["phases"])

    def test_io_bound_anomaly_fires_on_heavy_stall(self):
        from repro.observe.report import WorkerTimeline, find_anomalies

        def kinds(stall_seconds: float) -> set[str]:
            recorder = MetricsRecorder()
            recorder.observe_time("prefetch.stall_seconds", stall_seconds)
            return {
                a["kind"]
                for a in find_anomalies(recorder, WorkerTimeline(), 1.0)
            }

        assert "io_bound" in kinds(0.5)
        assert "io_bound" not in kinds(0.001)
