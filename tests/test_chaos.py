"""Chaos property tests: seeded fault schedules never change the answer.

The acceptance property of the fault-injection layer: for any seeded
FaultPlan whose failures stay within the retry budget, run_engine — plus
a resume after any injected crash — produces a final r² matrix that is
bit-identical to an uninterrupted fault-free run. Schedules are built
from a seeded RNG over kills, transient raises, bit-flips, delays, and
torn manifest appends, so every run of this suite replays the exact same
failure histories.
"""

from __future__ import annotations

import json
import os
import random
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.engine import run_engine
from repro.core.executors import stop_pools
from repro.core.streaming import NpyMemmapSink
from repro.faults import FaultPlan, FaultSpec, InjectedCrash
from repro.observe import MetricsRecorder

N_SCHEDULES = 24
MAX_RETRIES = 3


@pytest.fixture(scope="module")
def chaos_panel():
    rng = np.random.default_rng(0xFA17)
    return rng.integers(0, 2, size=(48, 41)).astype(np.uint8)


@pytest.fixture(scope="module")
def clean_matrix(chaos_panel, tmp_path_factory):
    path = tmp_path_factory.mktemp("chaos-ref") / "clean.npy"
    with NpyMemmapSink(path, chaos_panel.shape[1]) as sink:
        report = run_engine(chaos_panel, sink, engine="serial", block_snps=7)
    assert report.complete
    return np.load(path)


def _tile_keys(n_snps: int, block: int) -> list[tuple[int, int]]:
    return [
        (i0, j0)
        for i0 in range(0, n_snps, block)
        for j0 in range(0, i0 + 1, block)
    ]


def _random_schedule(
    seed: int, keys: list[tuple[int, int]], *, with_kills: bool
) -> FaultPlan:
    """A random-but-replayable mix of failures, all within the budget.

    Per tile at most one spec, each with ``attempts_below <= MAX_RETRIES``,
    so every injected failure is retried past; a torn manifest append (a
    simulated power cut) may additionally end the run early, which the
    test recovers from with resume.
    """
    draw = random.Random(seed)
    specs: list[FaultSpec] = []
    victims = draw.sample(keys, k=min(len(keys), draw.randint(2, 5)))
    for key in victims:
        kind = draw.choice(["raise", "bitflip", "delay"])
        if kind == "raise":
            specs.append(FaultSpec(
                site="tile_compute", tile=key,
                attempts_below=draw.randint(1, MAX_RETRIES - 1),
            ))
        elif kind == "bitflip":
            specs.append(FaultSpec(
                site="tile_deliver", action="bitflip", tile=key,
                attempts_below=draw.randint(1, MAX_RETRIES - 1),
            ))
        else:
            specs.append(FaultSpec(
                site="tile_compute", action="delay", tile=key,
                attempts_below=1, delay_seconds=0.01,
            ))
    if with_kills and draw.random() < 0.7:
        specs.append(FaultSpec(
            site="tile_compute", action="kill", tile=draw.choice(keys),
            attempts_below=1,
        ))
    if draw.random() < 0.5:
        specs.append(FaultSpec(
            site="manifest_append", action="torn", tile=draw.choice(keys),
        ))
    return FaultPlan(seed=seed, specs=tuple(specs))


#: A pool owner for the lifetime test: builds a warm 2-worker pool,
#: prints its worker pids and segment names, then idles until killed.
_POOL_OWNER = """
import json, time
import numpy as np
from repro.core import executors
from repro.core.engine import run_engine

panel = np.random.default_rng(0xFA17).integers(0, 2, size=(48, 41))
report = run_engine(panel.astype(np.uint8), lambda *a: None,
                    engine="persistent", block_snps=7, n_workers=2)
assert report.complete and report.n_pool_spawns == 1
pool = next(iter(executors._POOLS.values()))
print(json.dumps({"pids": pool.pids,
                  "segments": [pool.panel_shm.name, pool.arena.name]}),
      flush=True)
time.sleep(120)
"""


def _running(pid: int) -> bool:
    """Whether *pid* exists and is not a zombie waiting for its reaper."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state != "Z"


def _wait_until(condition, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.05)
    return True


def _run_until_complete(panel, out, manifest, plan, *, engine, n) -> int:
    """Faulted run + resumes until the engine finishes; returns run count.

    The first run executes under the fault plan and may die on an
    injected crash (torn manifest append). Resumes run fault-free — after
    a real crash the operator restarts without the chaos harness — and
    must finish from the journal.
    """
    runs = 0
    mode = "w+"
    faults = plan
    while True:
        runs += 1
        assert runs <= 4, "chaos schedule failed to converge"
        try:
            with NpyMemmapSink(out, n, mode=mode) as sink:
                report = run_engine(
                    panel, sink, engine=engine, block_snps=7, n_workers=2,
                    manifest_path=manifest, resume=(mode == "r+"),
                    max_retries=MAX_RETRIES, retry_backoff=0.0,
                    faults=faults,
                )
            assert report.complete
            assert report.n_quarantined == 0
            return runs
        except InjectedCrash:
            mode = "r+"
            faults = None


class TestChaosSchedules:
    @pytest.mark.parametrize("seed", range(N_SCHEDULES))
    def test_serial_schedule_is_bit_identical(
        self, chaos_panel, clean_matrix, tmp_path, seed
    ):
        n = chaos_panel.shape[1]
        plan = _random_schedule(
            seed, _tile_keys(n, 7), with_kills=False
        )
        out = tmp_path / "chaos.npy"
        _run_until_complete(
            chaos_panel, out, tmp_path / "chaos.manifest", plan,
            engine="serial", n=n,
        )
        np.testing.assert_array_equal(np.load(out), clean_matrix)

    @pytest.mark.parametrize("seed", [101, 102, 103, 104])
    def test_process_schedule_with_kills_is_bit_identical(
        self, chaos_panel, clean_matrix, tmp_path, seed
    ):
        n = chaos_panel.shape[1]
        plan = _random_schedule(
            seed, _tile_keys(n, 7), with_kills=True
        )
        out = tmp_path / "chaos.npy"
        _run_until_complete(
            chaos_panel, out, tmp_path / "chaos.manifest", plan,
            engine="persistent", n=n,
        )
        np.testing.assert_array_equal(np.load(out), clean_matrix)

    @pytest.mark.parametrize("seed", [201, 202])
    def test_thread_schedule_is_bit_identical(
        self, chaos_panel, clean_matrix, tmp_path, seed
    ):
        n = chaos_panel.shape[1]
        plan = _random_schedule(
            seed, _tile_keys(n, 7), with_kills=False
        )
        out = tmp_path / "chaos.npy"
        _run_until_complete(
            chaos_panel, out, tmp_path / "chaos.manifest", plan,
            engine="threads", n=n,
        )
        np.testing.assert_array_equal(np.load(out), clean_matrix)


class TestPersistentChaos:
    """Warm-pool fault semantics: workers die, the pool survives."""

    @pytest.fixture(autouse=True)
    def fresh_pools(self):
        stop_pools()
        yield
        stop_pools()

    @pytest.mark.parametrize("seed", [301, 302, 303])
    def test_persistent_schedule_with_kills_is_bit_identical(
        self, chaos_panel, clean_matrix, tmp_path, seed
    ):
        n = chaos_panel.shape[1]
        plan = _random_schedule(
            seed, _tile_keys(n, 7), with_kills=True
        )
        out = tmp_path / "chaos.npy"
        _run_until_complete(
            chaos_panel, out, tmp_path / "chaos.manifest", plan,
            engine="persistent", n=n,
        )
        np.testing.assert_array_equal(np.load(out), clean_matrix)

    def test_kill_mid_batch_respawns_worker_not_pool(
        self, chaos_panel, clean_matrix, tmp_path
    ):
        """A SIGKILLed warm worker is replaced alone; no pool rebuild."""
        n = chaos_panel.shape[1]
        plan = FaultPlan(seed=7, specs=(
            FaultSpec(site="tile_compute", action="kill", tile=(14, 0),
                      attempts_below=1),
        ))
        recorder = MetricsRecorder(keep_events=True)
        out = tmp_path / "killed.npy"
        with NpyMemmapSink(out, n) as sink:
            report = run_engine(
                chaos_panel, sink, engine="persistent", block_snps=7,
                n_workers=2, max_retries=MAX_RETRIES, retry_backoff=0.0,
                faults=plan, recorder=recorder,
            )
        assert report.complete and not report.degraded
        assert report.n_worker_respawns >= 1
        assert recorder.counters["engine.worker_respawns"] >= 1
        # The surviving worker's pool was never torn down and rebuilt.
        assert "engine.pool_restarts" not in recorder.counters
        assert report.n_pool_spawns == 1
        np.testing.assert_array_equal(np.load(out), clean_matrix)

    def test_kill_mid_batch_surfaces_in_live_snapshot(
        self, chaos_panel, clean_matrix, tmp_path
    ):
        """The live bus reflects a mid-batch SIGKILL: the respawn count,
        the recent-respawn log, and the `repro top` render all show it."""
        from repro.observe.live import (
            LivePublisher, read_snapshot, render_top,
        )
        from repro.observe.report import WorkerTimeline

        n = chaos_panel.shape[1]
        plan = FaultPlan(seed=7, specs=(
            FaultSpec(site="tile_compute", action="kill", tile=(14, 0),
                      attempts_below=1),
        ))
        recorder = MetricsRecorder()
        timeline = WorkerTimeline()
        live = LivePublisher(
            tmp_path / "live.json", recorder=recorder, timeline=timeline,
            interval=0.01, config={"engine": "persistent", "stat": "r2"},
        )
        recorder.sinks.extend([timeline, live])
        out = tmp_path / "killed.npy"
        with NpyMemmapSink(out, n) as sink:
            report = run_engine(
                chaos_panel, sink, engine="persistent", block_snps=7,
                n_workers=2, max_retries=MAX_RETRIES, retry_backoff=0.0,
                faults=plan, recorder=recorder,
            )
        assert report.complete and report.n_worker_respawns >= 1
        snapshot = read_snapshot(live.path)
        assert snapshot["phase"] == "done"
        assert snapshot["worker_respawns"] >= 1
        assert snapshot["retries"] >= 1
        assert snapshot["recent_respawns"], "respawn log empty"
        assert snapshot["tiles"]["done"] == report.n_computed
        # Worker rows are keyed by pid: the killed worker's row stays
        # (stale heartbeat) alongside its replacement's fresh one.
        assert len(snapshot["workers"]) >= 2
        text = render_top(snapshot)
        assert "1 respawns" in text or "respawns" in text
        assert "respawned worker slot" in text
        np.testing.assert_array_equal(np.load(out), clean_matrix)

    def test_kill_between_runs_respawns_on_next_start(
        self, chaos_panel, clean_matrix, tmp_path
    ):
        """Workers killed while the pool idles are replaced at next use."""
        import os
        import signal
        import time

        from repro.core import executors as executors_mod

        n = chaos_panel.shape[1]
        first = tmp_path / "first.npy"
        with NpyMemmapSink(first, n) as sink:
            cold = run_engine(
                chaos_panel, sink, engine="persistent", block_snps=7,
                n_workers=2,
            )
        assert cold.complete and cold.n_pool_spawns == 1
        pool = next(iter(executors_mod._POOLS.values()))
        victim = pool.workers[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=5)
        assert not victim.is_alive()

        recorder = MetricsRecorder(keep_events=True)
        second = tmp_path / "second.npy"
        with NpyMemmapSink(second, n) as sink:
            warm = run_engine(
                chaos_panel, sink, engine="persistent", block_snps=7,
                n_workers=2, recorder=recorder,
            )
        assert warm.complete
        # The dead worker was respawned in place; the pool itself — and
        # its shared-memory panel — survived, so no pool spawn happened.
        assert warm.n_pool_spawns == 0
        assert warm.n_worker_respawns >= 1
        assert recorder.counters["engine.worker_respawns"] >= 1
        assert "engine.pool_restarts" not in recorder.counters
        np.testing.assert_array_equal(np.load(second), clean_matrix)

    def test_quarantine_is_journaled_for_persistent_workers(
        self, chaos_panel, tmp_path
    ):
        plan = FaultPlan(seed=9, specs=(
            FaultSpec(site="tile_compute", tile=(7, 7)),
        ))
        manifest = tmp_path / "quarantine.manifest"
        recorder = MetricsRecorder(keep_events=True)
        report = run_engine(
            chaos_panel, lambda *a: None, engine="persistent",
            block_snps=7, n_workers=2, max_retries=1, retry_backoff=0.0,
            allow_quarantine=True, faults=plan, manifest_path=manifest,
            recorder=recorder,
        )
        assert not report.complete
        assert report.n_quarantined == 1
        assert report.quarantined == ((7, 7),)
        assert recorder.event_count("tile_quarantined") == 1
        assert "injected raise" in manifest.read_text()

    def test_sigkilled_owner_takes_its_pool_with_it(self, tmp_path):
        """A pool lives exactly as long as its owner: once the owning
        process is SIGKILLed its workers exit and its segments go."""
        shm = Path("/dev/shm")
        if not shm.exists() or not Path("/proc/self/stat").exists():
            pytest.skip("needs /dev/shm and /proc")
        src = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        err_path = tmp_path / "owner.err"
        with open(err_path, "w", encoding="utf-8") as err:
            owner = subprocess.Popen(
                [sys.executable, "-c", _POOL_OWNER], stdout=subprocess.PIPE,
                stderr=err, text=True, env=env,
            )
        pids: list[int] = []
        try:
            ready, _, _ = select.select([owner.stdout], [], [], 60.0)
            line = owner.stdout.readline() if ready else ""
            assert line, f"owner built no pool: {err_path.read_text()}"
            info = json.loads(line)
            pids = info["pids"]
            assert len(pids) == 2 and all(_running(p) for p in pids)
            owner.kill()
            owner.wait(timeout=10)
            assert _wait_until(
                lambda: not any(_running(p) for p in pids), 5.0
            ), "pool workers outlived their SIGKILLed owner"
            segments = [shm / name.lstrip("/") for name in info["segments"]]
            assert _wait_until(
                lambda: not any(path.exists() for path in segments), 10.0
            ), "the dead owner's shared-memory segments were left behind"
        finally:
            owner.kill()
            owner.wait(timeout=10)
            owner.stdout.close()
            for pid in pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
