"""Executor-conformance battery (repro.core.executors).

One parametrized suite run against every backend — ``serial``,
``threads``, ``persistent`` — so any future execution strategy gets
conformance for free: bit-identical r² versus the serial oracle,
crash/resume to identical manifests, exact retry accounting, and CRC
verification of the shared-memory result arena. Persistent-pool
specifics ride along: warm reuse with zero pool spawns (the whole
point of the backend), registry lifecycle (stop, idle reap, LRU cap),
the shared-memory leak detector for ``run_engine`` exception paths,
and the arena-slot accounting that lets one warm pool outlive failing
runs.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro.core import executors as executors_mod
from repro.core.engine import (
    ENGINES,
    TileManifest,
    input_fingerprint,
    run_engine,
)
from repro.core.executors import (
    _ResultArena,
    panel_fingerprint,
    reap_idle_pools,
    stop_pools,
)
from repro.core.ldmatrix import as_bitmatrix, ld_matrix
from repro.core.streaming import NpyMemmapSink
from repro.faults import FaultPlan, FaultSpec, InjectedFault
from repro.observe import MetricsRecorder, SpanProfiler, profiling

#: Awkward differential shapes: word-aligned, fringe bits, wide panels.
CONFORMANCE_SHAPES = [(64, 20), (65, 24), (90, 41), (31, 90)]

@pytest.fixture(autouse=True)
def fresh_pools():
    """Each test starts and ends with no warm pools registered."""
    stop_pools()
    yield
    stop_pools()


@pytest.fixture
def panel(rng):
    return rng.integers(0, 2, size=(75, 37)).astype(np.uint8)


def _assemble(panel, **kwargs):
    """Run the engine into a dense matrix; returns (matrix, report)."""
    n = panel.shape[1]
    out = np.full((n, n), np.nan)

    def sink(i0, j0, block):
        out[i0 : i0 + block.shape[0], j0 : j0 + block.shape[1]] = block

    report = run_engine(panel, sink, **kwargs)
    return out, report


class _CrashAfter:
    """Sink wrapper that raises after a fixed number of deliveries."""

    def __init__(self, inner, n_before_crash: int) -> None:
        self.inner = inner
        self.remaining = n_before_crash

    def __call__(self, i0: int, j0: int, block: np.ndarray) -> None:
        if self.remaining == 0:
            raise KeyboardInterrupt("injected crash")
        self.remaining -= 1
        self.inner(i0, j0, block)

    def flush(self) -> None:
        flush = getattr(self.inner, "flush", None)
        if callable(flush):
            flush()


class TestConformance:
    """The battery every backend must pass identically."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("shape", CONFORMANCE_SHAPES)
    def test_bit_identical_r2_vs_oracle(self, engine, shape):
        # The oracle is an in-process single-threaded run; every other
        # backend must reproduce it bit for bit. (No engine name in this
        # test's own name: CI's executor-matrix selects by `-k <backend>`
        # and must only match the parametrized ids.)
        rng = np.random.default_rng(0xE5EC + shape[0])
        panel = rng.integers(0, 2, size=shape).astype(np.uint8)
        panel[:, 0] = 0  # monomorphic column: NaN row every path must share
        oracle, _ = _assemble(panel, engine="serial", block_snps=13)
        got, report = _assemble(
            panel, engine=engine, block_snps=13, n_workers=2
        )
        assert report.complete and not report.degraded
        tri = np.tril_indices(shape[1])
        np.testing.assert_array_equal(got[tri], oracle[tri])

    @pytest.mark.parametrize("engine", ENGINES)
    def test_d_matches_the_four_gamete_identity(self, engine):
        """D from the engine equals ``p_AB·p_ab − p_Ab·p_aB`` over the
        four gamete frequencies (SNIPPETS.md, snippet 2), a closed form
        independent of the kernel's ``H − p pᵀ``."""
        rng = np.random.default_rng(0x4CA7)
        panel = rng.integers(0, 2, size=(65, 24)).astype(np.uint8)
        panel[:, 0] = 0
        got, report = _assemble(
            panel, engine=engine, stat="D", block_snps=13, n_workers=2
        )
        assert report.complete
        derived = panel.astype(np.float64)
        ancestral = 1.0 - derived
        n = panel.shape[0]
        p_AB = derived.T @ derived / n
        p_Ab = derived.T @ ancestral / n
        p_aB = ancestral.T @ derived / n
        p_ab = ancestral.T @ ancestral / n
        tri = np.tril_indices(panel.shape[1])
        np.testing.assert_allclose(
            got[tri], (p_AB * p_ab - p_Ab * p_aB)[tri], rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_crash_resume_to_identical_manifest_and_matrix(
        self, engine, panel, tmp_path
    ):
        n = panel.shape[1]
        clean_path = tmp_path / "clean.npy"
        with NpyMemmapSink(clean_path, n) as sink:
            clean = run_engine(
                panel, sink, engine=engine, block_snps=9, n_workers=2
            )
        crash_path = tmp_path / "crash.npy"
        manifest = tmp_path / "crash.manifest"
        with NpyMemmapSink(crash_path, n) as inner:
            with pytest.raises(KeyboardInterrupt):
                run_engine(
                    panel, _CrashAfter(inner, 3), engine=engine,
                    block_snps=9, n_workers=2, manifest_path=manifest,
                )
        fingerprint = input_fingerprint(
            as_bitmatrix(panel), stat="r2", block_snps=9
        )
        with TileManifest.open(manifest, fingerprint, resume=True) as journal:
            # The journal holds exactly the tiles delivered pre-crash.
            assert len(journal.completed) == 3
        with NpyMemmapSink(crash_path, n, mode="r+") as sink:
            resumed = run_engine(
                panel, sink, engine=engine, block_snps=9, n_workers=2,
                manifest_path=manifest, resume=True,
            )
        assert resumed.n_skipped == 3
        assert resumed.n_computed == clean.n_tiles - 3
        np.testing.assert_array_equal(
            np.load(crash_path), np.load(clean_path)
        )

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.usefixtures("instant_retries")
    def test_retry_count_is_exact(self, engine, panel):
        plan = FaultPlan(seed=3, specs=(
            FaultSpec(site="tile_compute", tile=(9, 9), attempts_below=2),
        ))
        recorder = MetricsRecorder(keep_events=True)
        got, report = _assemble(
            panel, engine=engine, block_snps=9, n_workers=2,
            max_retries=2, faults=plan, recorder=recorder,
        )
        assert report.complete
        assert report.n_retries == 2
        assert recorder.counters["engine.retries"] == 2
        events = [e for e in recorder.events if e["kind"] == "tile_retry"]
        assert len(events) == 2
        assert all(e["tile"] == [9, 9] for e in events)
        expected = ld_matrix(panel)
        tri = np.tril_indices(panel.shape[1])
        np.testing.assert_array_equal(got[tri], expected[tri])

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.usefixtures("instant_retries")
    def test_arena_crc_catches_bitflip_and_recomputes(self, engine, panel):
        plan = FaultPlan(seed=5, specs=(
            FaultSpec(site="tile_deliver", tile=(18, 9), attempts_below=1,
                      action="bitflip"),
        ))
        recorder = MetricsRecorder(keep_events=True)
        got, report = _assemble(
            panel, engine=engine, block_snps=9, n_workers=2,
            max_retries=2, faults=plan, recorder=recorder,
        )
        assert report.complete
        assert recorder.counters["engine.corruptions"] == 1
        assert recorder.event_count("tile_corrupt") == 1
        # The corrupted handoff was recomputed, not delivered.
        expected = ld_matrix(panel)
        tri = np.tril_indices(panel.shape[1])
        np.testing.assert_array_equal(got[tri], expected[tri])

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.usefixtures("instant_retries")
    def test_exhausted_retries_raise_original_error(self, engine, panel):
        plan = FaultPlan(seed=1, specs=(
            FaultSpec(site="tile_compute", tile=(0, 0)),
        ))
        with pytest.raises(InjectedFault, match="injected raise"):
            run_engine(
                panel, lambda *a: None, engine=engine, block_snps=9,
                n_workers=2, max_retries=1, faults=plan,
            )


class TestBoundedDispatch:
    def test_threads_keep_at_most_two_units_per_worker_in_flight(
        self, panel, monkeypatch
    ):
        # Every tile submitted up front would make each drain wait on
        # the whole run's futures: O(tiles) driver work per completion.
        in_flight: list[int] = []
        real_drain = executors_mod.ThreadsBackend.drain

        def counting_drain(self, timeout):
            in_flight.append(len(self._futures))
            return real_drain(self, timeout)

        monkeypatch.setattr(
            executors_mod.ThreadsBackend, "drain", counting_drain
        )
        _, report = _assemble(
            panel, engine="threads", block_snps=4, n_workers=2
        )
        assert report.complete and report.n_tiles >= 40
        assert in_flight and max(in_flight) <= 4


class TestWarmReuse:
    """The point of the persistent backend: the second run is free."""

    def test_second_run_performs_zero_pool_spawns(self, panel):
        cold_rec = MetricsRecorder()
        _, cold = _assemble(
            panel, engine="persistent", block_snps=9, n_workers=2,
            recorder=cold_rec,
        )
        assert cold.complete
        assert cold.n_pool_spawns == 1
        assert cold_rec.counters["engine.pool_spawns"] == 1

        warm_rec = MetricsRecorder()
        profiler = SpanProfiler()
        with profiling(profiler):
            _, warm = _assemble(
                panel, engine="persistent", block_snps=9, n_workers=2,
                recorder=warm_rec,
            )
        assert warm.complete
        assert warm.n_pool_spawns == 0
        assert warm.n_worker_respawns == 0
        assert "engine.pool_spawns" not in warm_rec.counters
        # The span profile must show zero spawn cost on the warm path.
        assert "driver.pool_spawn" not in profiler.totals()
        assert "driver.enqueue" in profiler.totals()

    def test_warm_pool_serves_different_stats_and_blockings(self, panel):
        for stat, block in (("r2", 9), ("D", 9), ("H", 12)):
            got, report = _assemble(
                panel, engine="persistent", stat=stat, block_snps=block,
                n_workers=2,
            )
            assert report.complete
        # One pool was built for all three runs (same panel fingerprint).
        assert len(executors_mod._POOLS) == 1

    def test_results_identical_across_cold_and_warm_runs(self, panel):
        first, _ = _assemble(
            panel, engine="persistent", block_snps=9, n_workers=2
        )
        second, report = _assemble(
            panel, engine="persistent", block_snps=9, n_workers=2
        )
        assert report.n_pool_spawns == 0
        tri = np.tril_indices(panel.shape[1])
        np.testing.assert_array_equal(first[tri], second[tri])


class TestPoolLifecycle:
    def test_registry_is_keyed_by_panel_fingerprint(self, panel, rng):
        _assemble(panel, engine="persistent", block_snps=9, n_workers=2)
        other = rng.integers(0, 2, size=(60, 29)).astype(np.uint8)
        _assemble(other, engine="persistent", block_snps=9, n_workers=2)
        keys = set(executors_mod._POOLS)
        assert keys == {
            panel_fingerprint(as_bitmatrix(panel).words,
                              as_bitmatrix(panel).n_samples),
            panel_fingerprint(as_bitmatrix(other).words,
                              as_bitmatrix(other).n_samples),
        }

    def test_stop_pools_kills_workers_and_unlinks_segments(self, panel):
        _assemble(panel, engine="persistent", block_snps=9, n_workers=2)
        assert len(executors_mod._POOLS) == 1
        pool = next(iter(executors_mod._POOLS.values()))
        pids = list(pool.pids)
        segments = [pool.panel_shm.name, pool.arena.name]
        assert stop_pools() == 1
        assert not executors_mod._POOLS
        for pid in pids:
            # Daemon children: reaped or at least no longer running.
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                continue
            _, status = os.waitpid(pid, os.WNOHANG)
        for name in segments:
            assert not (Path("/dev/shm") / name.lstrip("/")).exists()

    def test_idle_pools_are_reaped(self, panel, monkeypatch):
        monkeypatch.setattr(executors_mod, "_IDLE_TIMEOUT", 1.0)
        _assemble(panel, engine="persistent", block_snps=9, n_workers=2)
        pool = next(iter(executors_mod._POOLS.values()))
        pool.last_used -= 10.0  # simulate the idle window elapsing
        assert reap_idle_pools() == 1
        assert executors_mod._POOLS == {}

    def test_pool_cap_evicts_least_recently_used(self, rng):
        panels = [
            rng.integers(0, 2, size=(50, 17 + i)).astype(np.uint8)
            for i in range(3)
        ]
        for p in panels:
            _assemble(p, engine="persistent", block_snps=7, n_workers=1)
        assert len(executors_mod._POOLS) == 2
        oldest = panel_fingerprint(
            as_bitmatrix(panels[0]).words, as_bitmatrix(panels[0]).n_samples
        )
        assert oldest not in executors_mod._POOLS


def _shm_segments() -> set[str]:
    """Names currently present in /dev/shm (POSIX shared memory)."""
    root = Path("/dev/shm")
    if not root.exists():  # pragma: no cover - non-Linux
        pytest.skip("no /dev/shm on this platform")
    return {p.name for p in root.iterdir()}


class TestShmLeaks:
    """`run_engine` exception paths must release every shm segment."""

    @pytest.mark.parametrize("engine", ["persistent"])
    def test_crashing_sink_leaks_no_segments(self, engine, panel):
        before = _shm_segments()

        def exploding(i0, j0, block):
            raise KeyboardInterrupt("sink failure")

        with pytest.raises(KeyboardInterrupt):
            run_engine(
                panel, exploding, engine=engine, block_snps=9, n_workers=2
            )
        stop_pools()  # persistent pools legitimately outlive the run
        leaked = _shm_segments() - before
        assert not leaked

    @pytest.mark.usefixtures("instant_retries")
    def test_retry_exhaustion_leaks_no_segments(self, panel):
        before = _shm_segments()
        plan = FaultPlan(seed=1, specs=(
            FaultSpec(site="tile_compute", tile=(0, 0)),
        ))
        with pytest.raises(InjectedFault):
            run_engine(
                panel, lambda *a: None, engine="persistent", block_snps=9,
                n_workers=2, max_retries=1, faults=plan,
            )
        stop_pools()  # persistent pools legitimately outlive the run
        leaked = _shm_segments() - before
        assert not leaked

    def test_panel_segment_released_even_when_arena_close_raises(
        self, panel, monkeypatch
    ):
        # Regression for the pre-existing leak: an arena.close() failure
        # in the cleanup path used to skip the panel unlink entirely.
        before = _shm_segments()
        real_close = _ResultArena.close

        def bad_close(self):
            real_close(self)
            raise OSError("injected close failure")

        monkeypatch.setattr(_ResultArena, "close", bad_close)
        run_engine(
            panel, lambda *a: None, engine="persistent", block_snps=9,
            n_workers=2,
        )
        with pytest.raises(OSError, match="injected close failure"):
            stop_pools()
        leaked = _shm_segments() - before
        assert not leaked

    def test_arena_init_failure_leaks_nothing(self, monkeypatch):
        before = _shm_segments()

        def bad_ndarray(*args, **kwargs):
            raise MemoryError("injected allocation failure")

        monkeypatch.setattr(executors_mod.np, "ndarray", bad_ndarray)
        with pytest.raises(MemoryError):
            _ResultArena(n_slots=2, slot_elems=64)
        leaked = _shm_segments() - before
        assert not leaked


class TestWarmPoolSlots:
    """A failing run hands every arena slot back to the warm pool."""

    def test_statistic_is_written_straight_into_the_slot(self, panel):
        """A pool worker's stat pass writes the tile's arena slot itself:
        no ``arena_copy_out`` phase follows it, and the matrix is the
        serial run's."""
        oracle, _ = _assemble(panel, engine="serial", block_snps=9)
        recorder = MetricsRecorder()
        with profiling(SpanProfiler()):
            got, report = _assemble(
                panel, engine="persistent", block_snps=9, n_workers=2,
                recorder=recorder,
            )
        assert report.complete and not report.degraded
        assert "phase.stat" in recorder.timers
        assert "phase.arena_copy_out" not in recorder.timers
        tri = np.tril_indices(panel.shape[1])
        np.testing.assert_array_equal(got[tri], oracle[tri])

    @pytest.mark.parametrize("failure", ["sink_raises", "retries_exhausted"])
    @pytest.mark.usefixtures("instant_retries")
    def test_failing_runs_leave_every_slot_free(self, panel, failure):
        n_workers = 2
        common = dict(
            engine="persistent", block_snps=9, n_workers=n_workers,
        )
        expected, cold = _assemble(panel, **common)
        assert cold.n_pool_spawns == 1
        pool = next(iter(executors_mod._POOLS.values()))
        n_slots = pool.arena.n_slots

        def exploding(i0, j0, block):
            raise RuntimeError("sink failure")

        plan = FaultPlan(seed=1, specs=(
            FaultSpec(site="tile_compute", tile=(0, 0)),
        ))
        # More failing runs than the pool has slots: a leak of one slot
        # per run would exhaust the arena and hang the next dispatch.
        for _ in range(2 * n_workers + 3):
            if failure == "sink_raises":
                with pytest.raises(RuntimeError, match="sink failure"):
                    run_engine(panel, exploding, **common)
            else:
                with pytest.raises(InjectedFault):
                    run_engine(
                        panel, lambda *a: None, max_retries=1,
                        faults=plan, **common,
                    )
            assert len(pool.arena._free) == n_slots
        got, report = _assemble(panel, **common)
        assert report.complete and report.n_pool_spawns == 0
        assert next(iter(executors_mod._POOLS.values())) is pool
        tri = np.tril_indices(panel.shape[1])
        np.testing.assert_array_equal(got[tri], expected[tri])
