"""Tests for the hierarchical span profiler and its hot-path hooks.

Covers repro.observe.spans itself (self/inclusive accounting, per-thread
running totals, the per-tile mark/collect window, the null singleton,
install/restore) and the
instrumentation wired through the kernels and the engine: phase spans in
popcount_gemm/popcount_gram, per-tile phase_seconds shipped back through
TileResult, the driver.* spans, and composition with fault injection and
batched dispatch.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.engine import run_engine
from repro.core.executors import RETRY_BACKOFF_BASE
from repro.core.gemm import popcount_gemm, popcount_gram
from repro.core.ldmatrix import ld_matrix
from repro.core.streaming import NpyMemmapSink
from repro.faults import FaultPlan, FaultSpec
from repro.observe import MetricsRecorder
from repro.observe.spans import (
    NULL_PROFILER,
    SpanProfiler,
    current_profiler,
    install_profiler,
    profiling,
    span,
)


@pytest.fixture
def panel(rng):
    return rng.integers(0, 2, size=(60, 29)).astype(np.uint8)


def _phases_of(recorder: MetricsRecorder) -> dict[str, float]:
    return {
        key[len("phase."):]: hist.total
        for key, hist in recorder.timers.items()
        if key.startswith("phase.")
    }


class TestSpanProfiler:
    def test_self_time_excludes_children(self):
        profiler = SpanProfiler()
        with profiler.span("parent"):
            time.sleep(0.01)
            with profiler.span("child"):
                time.sleep(0.02)
        totals = profiler.totals()
        assert set(totals) == {"parent", "child"}
        parent, child = totals["parent"], totals["child"]
        assert child["seconds"] >= 0.015
        assert parent["inclusive_seconds"] >= (
            parent["seconds"] + child["seconds"]
        ) * 0.99
        # Self times are disjoint: they sum to the root's inclusive time.
        assert parent["seconds"] + child["seconds"] == pytest.approx(
            parent["inclusive_seconds"], rel=0.02
        )

    def test_mark_collect_window_is_per_thread_and_disjoint(self):
        profiler = SpanProfiler()
        with profiler.span("before"):
            pass
        mark = profiler.mark()
        with profiler.span("a"):
            with profiler.span("b"):
                pass
        with profiler.span("a"):
            pass
        window = profiler.collect(mark)
        assert set(window) == {"a", "b"}
        assert window["a"] >= 0 and window["b"] >= 0
        # Both "a" spans land in the window; "before" stays outside it.
        totals = profiler.totals()
        assert window["a"] == pytest.approx(totals["a"]["seconds"])
        # A later mark starts an empty window.
        assert profiler.collect(profiler.mark()) == {}
        # Another thread's spans never enter this thread's window.
        def elsewhere() -> None:
            with profiler.span("elsewhere"):
                pass

        mark = profiler.mark()
        other = threading.Thread(target=elsewhere)
        other.start()
        other.join()
        assert profiler.collect(mark) == {}
        assert profiler.totals()["elsewhere"]["count"] == 1

    def test_threads_record_into_separate_buffers(self):
        profiler = SpanProfiler()

        def work(name: str) -> None:
            for _ in range(5):
                with profiler.span(name):
                    pass

        threads = [threading.Thread(target=work, args=(f"t{i}",))
                   for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        totals = profiler.totals()
        assert {f"t{i}" for i in range(3)} <= set(totals)
        assert all(totals[f"t{i}"]["count"] == 5 for i in range(3))

    def test_span_closes_on_exception(self):
        profiler = SpanProfiler()
        with pytest.raises(RuntimeError):
            with profiler.span("boom"):
                raise RuntimeError("injected")
        assert profiler.totals()["boom"]["count"] == 1


class TestNullProfilerAndInstall:
    def test_default_is_null_and_noop(self):
        assert current_profiler() is NULL_PROFILER
        assert not NULL_PROFILER.enabled
        with span("anything"):
            pass
        assert NULL_PROFILER.totals() == {}
        assert NULL_PROFILER.collect(NULL_PROFILER.mark()) == {}

    def test_null_span_is_one_shared_object(self):
        assert NULL_PROFILER.span("a") is NULL_PROFILER.span("b")

    def test_install_returns_previous_and_none_means_off(self):
        profiler = SpanProfiler()
        previous = install_profiler(profiler)
        try:
            assert previous is NULL_PROFILER
            assert current_profiler() is profiler
        finally:
            assert install_profiler(None) is profiler
        assert current_profiler() is NULL_PROFILER

    def test_profiling_context_installs_and_restores(self):
        with profiling() as profiler:
            assert current_profiler() is profiler
            with span("inside"):
                pass
        assert current_profiler() is NULL_PROFILER
        assert profiler.totals()["inside"]["count"] == 1


class TestKernelSpans:
    def test_gram_records_all_kernel_phases(self, rng):
        a = rng.integers(0, 2**60, size=(96, 3), dtype=np.uint64)
        with profiling() as profiler:
            popcount_gram(a)
        totals = profiler.totals()
        assert {"gram", "pack_a", "pack_b", "plane_matmul", "copy_out",
                "mirror"} <= set(totals)
        # Self times are disjoint, so the children cannot exceed the root.
        children = sum(
            entry["seconds"] for name, entry in totals.items()
            if name != "gram"
        )
        root = totals["gram"]
        assert children <= root["inclusive_seconds"] * 1.01
        assert root["inclusive_seconds"] == pytest.approx(
            root["seconds"] + children, rel=0.02
        )

    def test_gemm_records_under_gemm_root(self, rng):
        a = rng.integers(0, 2**60, size=(40, 2), dtype=np.uint64)
        b = rng.integers(0, 2**60, size=(30, 2), dtype=np.uint64)
        with profiling() as profiler:
            popcount_gemm(a, b)
        totals = profiler.totals()
        assert "gemm" in totals and "mirror" not in totals
        assert {"pack_a", "pack_b", "plane_matmul", "copy_out"} <= set(totals)

    def test_results_identical_with_and_without_profiling(self, rng):
        a = rng.integers(0, 2**60, size=(50, 3), dtype=np.uint64)
        bare = popcount_gram(a)
        with profiling():
            profiled = popcount_gram(a)
        np.testing.assert_array_equal(bare, profiled)


class TestEngineSpans:
    @pytest.mark.parametrize("engine", ["serial", "threads", "persistent"])
    def test_phase_seconds_ship_back_from_every_engine(self, panel, engine):
        recorder = MetricsRecorder(keep_events=True)
        with profiling(SpanProfiler()):
            report = run_engine(
                panel, lambda i, j, b: None, engine=engine, block_snps=8,
                n_workers=2, recorder=recorder,
            )
        assert report.complete
        phases = _phases_of(recorder)
        assert {"tile", "stat", "gemm", "pack_a", "pack_b",
                "plane_matmul", "copy_out"} <= set(phases)
        # The caller's profiler is uninstalled again after the run.
        assert current_profiler() is NULL_PROFILER

    def test_per_tile_phases_sum_to_compute_seconds(self, panel):
        # Acceptance bar: the per-tile phase breakdown attributes the
        # tile's measured wall-clock to within 10%.
        recorder = MetricsRecorder(keep_events=True)
        with profiling(SpanProfiler()):
            report = run_engine(
                panel, lambda i, j, b: None, engine="serial", block_snps=8,
                recorder=recorder,
            )
        assert report.complete
        events = [e for e in recorder.events if e["kind"] == "tile_computed"]
        assert events
        for event in events:
            assert "phases" in event
            attributed = sum(event["phases"].values())
            assert attributed == pytest.approx(
                event["compute_s"], rel=0.10
            )

    def test_no_phases_lost_on_a_long_run(self):
        # 7,875 tiles of ~9 spans each, all on one thread: far more spans
        # than any fixed per-thread store of records would hold, and every
        # tile must still ship its phase breakdown.
        from repro.simulate.datasets import simulate_sfs_panel

        panel = simulate_sfs_panel(64, 2000, rng=np.random.default_rng(1))
        recorder = MetricsRecorder()
        with profiling(SpanProfiler()):
            report = run_engine(
                panel, lambda i, j, b: None, engine="serial", block_snps=16,
                recorder=recorder,
            )
        assert report.n_computed == 7875
        assert recorder.timers["phase.tile"].count == report.n_computed
        assert recorder.timers["phase.plane_matmul"].count == report.n_computed

    def test_driver_spans_and_sink_mirror(self, panel, tmp_path):
        recorder = MetricsRecorder()
        profiler = SpanProfiler()
        with NpyMemmapSink(tmp_path / "ld.npy", panel.shape[1]) as sink, \
                profiling(profiler):
            report = run_engine(
                panel, sink, engine="threads", block_snps=8, n_workers=2,
                manifest_path=tmp_path / "ld.manifest", recorder=recorder,
            )
        assert report.complete
        totals = profiler.totals()
        assert {"driver.dispatch", "driver.wait", "driver.deliver",
                "driver.manifest_append", "mirror"} <= set(totals)
        assert totals["driver.deliver"]["count"] == report.n_computed
        matrix = np.load(tmp_path / "ld.npy")
        np.testing.assert_array_equal(matrix, ld_matrix(panel))

    def test_no_phases_attached_when_profiling_off(self, panel):
        recorder = MetricsRecorder(keep_events=True)
        report = run_engine(
            panel, lambda i, j, b: None, engine="serial", block_snps=8,
            recorder=recorder,
        )
        assert report.complete
        assert not any(
            "phases" in e for e in recorder.events
            if e["kind"] == "tile_computed"
        )
        assert not _phases_of(recorder)

    @pytest.mark.usefixtures("instant_retries")
    def test_spans_compose_with_faults_and_batched_dispatch(self, panel):
        # Satellite: spans must survive fault injection (retries, backoff)
        # and pool dispatch without losing attribution or correctness.
        plan = FaultPlan(seed=11, specs=(
            FaultSpec(site="tile_compute", tile=(8, 0), attempts_below=1),
        ))
        recorder = MetricsRecorder(keep_events=True)
        profiler = SpanProfiler()
        blocks: dict[tuple[int, int], np.ndarray] = {}
        with profiling(profiler):
            report = run_engine(
                panel, lambda i, j, b: blocks.__setitem__((i, j), b.copy()),
                engine="threads", block_snps=8, n_workers=2,
                max_retries=2, faults=plan,
                recorder=recorder,
            )
        assert report.complete and report.n_retries == 1
        assert report.n_batches == report.n_tiles + report.n_retries
        assert recorder.event_count("tile_retry") == 1
        phases = _phases_of(recorder)
        assert {"tile", "plane_matmul", "stat"} <= set(phases)
        # Every computed tile shipped its phase breakdown, retried or not.
        events = [e for e in recorder.events if e["kind"] == "tile_computed"]
        assert len(events) == report.n_computed
        assert all("phases" in e for e in events)
        expected = ld_matrix(panel)
        for (i, j), block in blocks.items():
            np.testing.assert_array_equal(
                block, expected[i:i + block.shape[0], j:j + block.shape[1]]
            )

    def test_retry_sleeps_under_a_backoff_span(self, panel):
        """At the default base, the wait before a retry is one
        ``driver.backoff`` span of at least half the base (the jitter's
        floor)."""
        plan = FaultPlan(seed=11, specs=(
            FaultSpec(site="tile_compute", tile=(8, 0), attempts_below=1),
        ))
        profiler = SpanProfiler()
        with profiling(profiler):
            report = run_engine(
                panel, lambda *a: None, engine="serial", block_snps=8,
                faults=plan,
            )
        assert report.complete and report.n_retries == 1
        backoff = profiler.totals()["driver.backoff"]
        assert backoff["count"] == 1
        assert backoff["seconds"] >= 0.5 * RETRY_BACKOFF_BASE > 0
