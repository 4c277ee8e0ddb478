"""Tests for deterministic fault injection and the hardened engine paths.

Covers repro.faults itself (spec validation, decision determinism,
serialization) and the engine behaviours it exists to exercise:
corruption detection on the tile handoff, poison-tile quarantine,
the tile watchdog, executor degradation, torn manifest appends, and
the versioned manifest's record checksums.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.engine import (
    TileCorruptionError,
    TileManifest,
    TileTask,
    input_fingerprint,
    run_engine,
)
from repro.core.executors import stop_pools
from repro.core.ldmatrix import as_bitmatrix, ld_matrix
from repro.core.streaming import NpyMemmapSink, stream_ld_blocks
from repro.faults import (
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    InjectedFault,
)
from repro.observe import MetricsRecorder


@pytest.fixture
def panel(rng):
    return rng.integers(0, 2, size=(60, 29)).astype(np.uint8)


class _AssemblingSink:
    def __init__(self, n: int) -> None:
        self.matrix = np.full((n, n), np.nan)
        self.calls: list[tuple[int, int]] = []

    def __call__(self, i0: int, j0: int, block: np.ndarray) -> None:
        self.calls.append((i0, j0))
        self.matrix[i0 : i0 + block.shape[0], j0 : j0 + block.shape[1]] = block


def _lower(panel, matrix):
    il = np.tril_indices(panel.shape[1])
    return matrix[il]


class TestFaultSpecValidation:
    def test_rejects_unknown_site_and_action(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec(site="tile_burn")
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultSpec(site="tile_compute", action="explode")

    def test_rejects_action_at_wrong_site(self):
        with pytest.raises(ValueError, match="not injectable"):
            FaultSpec(site="tile_compute", action="bitflip")
        with pytest.raises(ValueError, match="not injectable"):
            FaultSpec(site="pool_spawn", action="kill")
        with pytest.raises(ValueError, match="not injectable"):
            FaultSpec(site="tile_deliver", action="torn")

    def test_rejects_bad_numbers(self):
        with pytest.raises(ValueError, match="rate"):
            FaultSpec(site="tile_compute", rate=1.5)
        with pytest.raises(ValueError, match="attempts_below"):
            FaultSpec(site="tile_compute", attempts_below=0)
        with pytest.raises(ValueError, match="delay_seconds"):
            FaultSpec(site="tile_compute", action="delay", delay_seconds=-1)


class TestFaultPlanDecisions:
    def test_decisions_are_pure_functions_of_identity(self):
        plan = FaultPlan(seed=42, specs=(
            FaultSpec(site="tile_compute", rate=0.5),
        ))
        # Re-evaluating the same opportunity always agrees with itself —
        # the property that makes worker-local plan copies coherent.
        for key in [(0, 0), (8, 0), (8, 8)]:
            for attempt in range(3):
                outcomes = set()
                for _ in range(5):
                    try:
                        plan.fire("tile_compute", key, attempt)
                        outcomes.add("pass")
                    except InjectedFault:
                        outcomes.add("raise")
                assert len(outcomes) == 1

    def test_seed_changes_the_schedule(self):
        def fired(seed):
            plan = FaultPlan(seed=seed, specs=(
                FaultSpec(site="tile_compute", rate=0.5),
            ))
            hits = []
            for i in range(40):
                try:
                    plan.fire("tile_compute", (i, 0), 0)
                except InjectedFault:
                    hits.append(i)
            return hits

        assert fired(1) != fired(2)

    def test_tile_and_attempt_gates(self):
        plan = FaultPlan(specs=(
            FaultSpec(site="tile_compute", tile=(8, 0), attempts_below=2),
        ))
        plan.fire("tile_compute", (0, 0), 0)  # other tile: no fire
        plan.fire("tile_compute", (8, 0), 2)  # attempts exhausted: no fire
        with pytest.raises(InjectedFault):
            plan.fire("tile_compute", (8, 0), 1)

    def test_corrupt_flips_exactly_one_bit(self):
        plan = FaultPlan(seed=3, specs=(
            FaultSpec(site="tile_deliver", action="bitflip", tile=(0, 0)),
        ))
        block = np.arange(12, dtype=np.float64).reshape(3, 4)
        original = block.copy()
        assert plan.corrupt("tile_deliver", (0, 0), 0, block)
        diff = block.view(np.uint64) ^ original.view(np.uint64)
        assert bin(int(diff.sum())).count("1") == 1
        assert not plan.corrupt("tile_deliver", (4, 0), 0, block)

    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(seed=9, specs=(
            FaultSpec(site="tile_compute", action="kill", tile=(8, 0),
                      attempts_below=1),
            FaultSpec(site="tile_deliver", action="bitflip", rate=0.25),
        ))
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        assert FaultPlan.from_json(path) == plan

    def test_from_json_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="unreadable fault plan"):
            FaultPlan.from_json(path)
        path.write_text('{"seed": 0, "specs": [{"site": "nope"}]}')
        with pytest.raises(ValueError, match="invalid fault plan"):
            FaultPlan.from_json(path)
        path.write_text('{"sede": 1}')
        with pytest.raises(ValueError, match="unknown fault-plan fields"):
            FaultPlan.from_json(path)


class TestCorruptionDetection:
    @pytest.mark.parametrize("engine", ["serial", "threads", "persistent"])
    @pytest.mark.usefixtures("instant_retries")
    def test_bitflip_within_budget_is_recomputed(self, panel, engine):
        plan = FaultPlan(seed=5, specs=(
            FaultSpec(site="tile_deliver", action="bitflip", tile=(8, 8),
                      attempts_below=1),
        ))
        sink = _AssemblingSink(panel.shape[1])
        recorder = MetricsRecorder(keep_events=True)
        report = run_engine(
            panel, sink, engine=engine, block_snps=8, n_workers=2,
            max_retries=2, faults=plan, recorder=recorder,
        )
        assert report.complete and report.n_quarantined == 0
        assert recorder.counters["engine.corruptions"] == 1
        assert recorder.event_count("tile_corrupt") == 1
        np.testing.assert_array_equal(
            _lower(panel, sink.matrix), _lower(panel, ld_matrix(panel))
        )

    @pytest.mark.usefixtures("instant_retries")
    def test_corruption_beyond_budget_is_never_written(self, panel):
        plan = FaultPlan(specs=(
            FaultSpec(site="tile_deliver", action="bitflip", tile=(8, 0)),
        ))
        sink = _AssemblingSink(panel.shape[1])
        recorder = MetricsRecorder(keep_events=True)
        report = run_engine(
            panel, sink, engine="serial", block_snps=8,
            max_retries=1, allow_quarantine=True,
            faults=plan, recorder=recorder,
        )
        assert report.n_quarantined == 1
        assert report.quarantined == ((8, 0),)
        assert not report.complete
        # The poisoned tile never reached the sink: its cells are still
        # the sink's initial NaN fill, and every other tile is correct.
        assert (8, 0) not in sink.calls
        assert np.isnan(sink.matrix[8:16, 0:8]).all()
        expected = ld_matrix(panel)
        for i0, j0 in sink.calls:
            np.testing.assert_array_equal(
                sink.matrix[i0 : i0 + 8, j0 : j0 + 8][
                    ~np.isnan(sink.matrix[i0 : i0 + 8, j0 : j0 + 8])
                ],
                expected[i0 : i0 + 8, j0 : j0 + 8][
                    ~np.isnan(sink.matrix[i0 : i0 + 8, j0 : j0 + 8])
                ],
            )
        assert recorder.event_count("tile_quarantined") == 1

    @pytest.mark.parametrize("entry", ["run_engine", "streaming"])
    @pytest.mark.usefixtures("instant_retries")
    def test_without_quarantine_corruption_aborts(self, panel, entry):
        plan = FaultPlan(specs=(
            FaultSpec(site="tile_deliver", action="bitflip", tile=(8, 0)),
        ))
        sink = _AssemblingSink(panel.shape[1])
        with pytest.raises(TileCorruptionError, match="checksum"):
            if entry == "run_engine":
                run_engine(
                    panel, sink, engine="serial", block_snps=8,
                    max_retries=1, faults=plan,
                )
            else:
                stream_ld_blocks(panel, sink, block_snps=8, faults=plan)
        assert (8, 0) not in sink.calls


class TestQuarantineResume:
    @pytest.mark.usefixtures("instant_retries")
    def test_quarantined_tile_is_retried_on_resume(self, panel, tmp_path):
        manifest = tmp_path / "run.manifest"
        out = tmp_path / "ld.npy"
        n = panel.shape[1]
        plan = FaultPlan(specs=(
            FaultSpec(site="tile_compute", tile=(16, 8)),
        ))
        with NpyMemmapSink(out, n) as sink:
            first = run_engine(
                panel, sink, engine="serial", block_snps=8,
                manifest_path=manifest, max_retries=1,
                allow_quarantine=True, faults=plan,
            )
        assert first.quarantined == ((16, 8),)
        with TileManifest.open(
            manifest,
            input_fingerprint(as_bitmatrix(panel), stat="r2", block_snps=8),
            resume=True,
        ) as journal:
            assert set(journal.quarantined) == {(16, 8)}
            assert "injected raise" in journal.quarantined[(16, 8)]
            assert (16, 8) not in journal.completed
        # Resume without the fault plan: the quarantined tile is retried,
        # not skipped, and the finished matrix is bit-identical to clean.
        with NpyMemmapSink(out, n, mode="r+") as sink:
            second = run_engine(
                panel, sink, engine="serial", block_snps=8,
                manifest_path=manifest, resume=True,
            )
        assert second.n_computed == 1 and second.complete
        clean = tmp_path / "clean.npy"
        with NpyMemmapSink(clean, n) as sink:
            run_engine(panel, sink, engine="serial", block_snps=8)
        np.testing.assert_array_equal(np.load(out), np.load(clean))


class TestWatchdog:
    @pytest.mark.parametrize("engine", ["serial", "threads"])
    @pytest.mark.usefixtures("instant_retries")
    def test_slow_tile_times_out_and_retries(self, panel, engine):
        plan = FaultPlan(specs=(
            FaultSpec(site="tile_compute", action="delay", tile=(8, 0),
                      attempts_below=1, delay_seconds=0.4),
        ))
        sink = _AssemblingSink(panel.shape[1])
        recorder = MetricsRecorder(keep_events=True)
        report = run_engine(
            panel, sink, engine=engine, block_snps=8, n_workers=2,
            max_retries=2, tile_timeout=0.15,
            faults=plan, recorder=recorder,
        )
        assert report.complete
        assert recorder.counters["engine.timeouts"] >= 1
        assert recorder.event_count("tile_timeout") >= 1
        np.testing.assert_array_equal(
            _lower(panel, sink.matrix), _lower(panel, ld_matrix(panel))
        )

    @pytest.mark.usefixtures("instant_retries")
    def test_hung_process_worker_is_killed(self, panel):
        # Cold pool: the single spawn below shows the watchdog replaced
        # the hung worker in place instead of rebuilding the pool.
        stop_pools()
        plan = FaultPlan(specs=(
            FaultSpec(site="tile_compute", action="delay", tile=(8, 0),
                      attempts_below=1, delay_seconds=30.0),
        ))
        sink = _AssemblingSink(panel.shape[1])
        recorder = MetricsRecorder(keep_events=True)
        report = run_engine(
            panel, sink, engine="persistent", block_snps=8, n_workers=2,
            max_retries=2, tile_timeout=0.5,
            faults=plan, recorder=recorder,
        )
        assert report.complete
        assert recorder.counters["engine.timeouts"] >= 1
        assert recorder.counters["engine.worker_respawns"] >= 1
        assert report.n_pool_spawns == 1
        np.testing.assert_array_equal(
            _lower(panel, sink.matrix), _lower(panel, ld_matrix(panel))
        )


class TestDegradation:
    @pytest.mark.usefixtures("instant_retries")
    def test_processes_degrade_to_threads_when_pool_cannot_spawn(self, panel):
        # The pool_spawn site fires only when a pool is built, so start
        # cold; the "processes" spelling resolves to the warm pool. This
        # is the engine-level check of that alias; test_cli checks the
        # CLI's.
        stop_pools()
        plan = FaultPlan(specs=(
            FaultSpec(site="pool_spawn"),
        ))
        sink = _AssemblingSink(panel.shape[1])
        recorder = MetricsRecorder(keep_events=True)
        report = run_engine(
            panel, sink, engine="processes", block_snps=8, n_workers=2,
            max_retries=1, faults=plan, recorder=recorder,
        )
        assert report.complete
        assert report.engine == "persistent"
        assert report.engine_used == "threads"
        assert report.degraded
        assert recorder.counters["engine.degradations"] == 1
        assert recorder.counters["engine.spawn_failures"] >= 1
        events = [e for e in recorder.events if e["kind"] == "executor_degraded"]
        assert events and events[0]["from_engine"] == "persistent"
        assert events[0]["to_engine"] == "threads"
        np.testing.assert_array_equal(
            _lower(panel, sink.matrix), _lower(panel, ld_matrix(panel))
        )

    @pytest.mark.usefixtures("instant_retries")
    def test_worker_kill_within_budget_respawns_the_worker(self, panel):
        plan = FaultPlan(specs=(
            FaultSpec(site="tile_compute", action="kill", attempts_below=1,
                      tile=(8, 0)),
        ))
        sink = _AssemblingSink(panel.shape[1])
        recorder = MetricsRecorder(keep_events=True)
        report = run_engine(
            panel, sink, engine="persistent", block_snps=8, n_workers=2,
            max_retries=2, faults=plan, recorder=recorder,
        )
        assert report.complete
        assert not report.degraded
        assert report.n_worker_respawns >= 1
        assert recorder.counters["engine.worker_respawns"] >= 1
        np.testing.assert_array_equal(
            _lower(panel, sink.matrix), _lower(panel, ld_matrix(panel))
        )

    @pytest.mark.usefixtures("instant_retries")
    def test_kill_downgrades_to_raise_in_process(self, panel):
        # A kill outside a sacrificeable pool worker must not take the
        # driver down; the serial engine sees it as a retryable raise.
        plan = FaultPlan(specs=(
            FaultSpec(site="tile_compute", action="kill", attempts_below=1,
                      tile=(8, 0)),
        ))
        sink = _AssemblingSink(panel.shape[1])
        report = run_engine(
            panel, sink, engine="serial", block_snps=8,
            max_retries=2, faults=plan,
        )
        assert report.complete and report.n_retries == 1


class TestTornManifest:
    def test_torn_append_crashes_and_resume_recovers(self, panel, tmp_path):
        manifest = tmp_path / "run.manifest"
        out = tmp_path / "ld.npy"
        n = panel.shape[1]
        plan = FaultPlan(specs=(
            FaultSpec(site="manifest_append", action="torn", tile=(16, 0)),
        ))
        with NpyMemmapSink(out, n) as sink:
            with pytest.raises(InjectedCrash, match="torn manifest"):
                run_engine(
                    panel, sink, engine="serial", block_snps=8,
                    manifest_path=manifest, faults=plan,
                )
        # The journal's final line really is torn mid-record.
        assert not manifest.read_text().endswith("\n")
        with NpyMemmapSink(out, n, mode="r+") as sink:
            resumed = run_engine(
                panel, sink, engine="serial", block_snps=8,
                manifest_path=manifest, resume=True,
            )
        assert resumed.complete
        clean = tmp_path / "clean.npy"
        with NpyMemmapSink(clean, n) as sink:
            run_engine(panel, sink, engine="serial", block_snps=8)
        np.testing.assert_array_equal(np.load(out), np.load(clean))


class TestManifestV2:
    def test_records_carry_checksums(self, tmp_path):
        path = tmp_path / "m.manifest"
        with TileManifest.open(path, "fp") as manifest:
            manifest.record(TileTask(0, 8, 0, 8))
        for line in path.read_text().splitlines():
            record = json.loads(line)
            assert "crc" in record

    def test_interior_corruption_is_detected(self, tmp_path):
        path = tmp_path / "m.manifest"
        with TileManifest.open(path, "fp") as manifest:
            manifest.record(TileTask(0, 8, 0, 8))
            manifest.record(TileTask(8, 16, 0, 8))
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('[0,0]', '[0,8]')  # flip a journaled key
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="checksum mismatch"):
            TileManifest.open(path, "fp", resume=True)

    def test_interior_garbage_is_detected(self, tmp_path):
        path = tmp_path / "m.manifest"
        with TileManifest.open(path, "fp") as manifest:
            manifest.record(TileTask(0, 8, 0, 8))
            manifest.record(TileTask(8, 16, 0, 8))
        lines = path.read_text().splitlines()
        lines[1] = '{"tile": [0,'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt manifest record"):
            TileManifest.open(path, "fp", resume=True)

    def test_torn_tail_is_truncated_before_appending(self, tmp_path):
        path = tmp_path / "m.manifest"
        with TileManifest.open(path, "fp") as manifest:
            manifest.record(TileTask(0, 8, 0, 8))
        with path.open("a") as fh:
            fh.write('{"tile": [8,')
        with TileManifest.open(path, "fp", resume=True) as manifest:
            assert manifest.completed == {(0, 0)}
            manifest.record(TileTask(8, 16, 0, 8))
        # The torn fragment is gone and the new record parses cleanly.
        with TileManifest.open(path, "fp", resume=True) as manifest:
            assert manifest.completed == {(0, 0), (8, 0)}

    def test_version_1_manifests_still_load(self, tmp_path):
        path = tmp_path / "v1.manifest"
        path.write_text(
            json.dumps({"magic": TileManifest.MAGIC, "version": 1,
                        "fingerprint": "fp"}) + "\n"
            + json.dumps({"tile": [0, 0]}) + "\n"
        )
        with TileManifest.open(path, "fp", resume=True) as manifest:
            assert manifest.completed == {(0, 0)}

    def test_quarantine_round_trip_and_supersession(self, tmp_path):
        path = tmp_path / "q.manifest"
        with TileManifest.open(path, "fp") as manifest:
            manifest.record_quarantine(TileTask(0, 8, 0, 8), "boom")
            manifest.record_quarantine(TileTask(8, 16, 0, 8), "bang")
            manifest.record(TileTask(8, 16, 0, 8))  # later success supersedes
        with TileManifest.open(path, "fp", resume=True) as manifest:
            assert manifest.quarantined == {(0, 0): "boom"}
            assert manifest.completed == {(8, 0)}
