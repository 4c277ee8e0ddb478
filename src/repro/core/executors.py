"""Pluggable executor backends for the tiled LD engine.

:func:`repro.core.engine.run_engine` schedules tiles; *how* a tile
turns into a computed block is this module's job. One runner,
:func:`run_tile` (fault sites, ``tile`` span, ``compute_tile``, CRC32),
runs on the run's :class:`TileConfig` in the serial loop, thread
workers and pool workers alike. The tile is the only thing an executor
dispatches: every execution strategy implements the small
:class:`ExecutorBackend` protocol — ``start`` / ``submit`` / ``drain``
/ ``close`` plus two per-tile hooks — and the one generic :func:`drive`
loop supplies retry, backoff, quarantine, CRC verification and the
watchdog on top. Adding an executor means writing
a backend, not re-deriving the fault discipline.

Three backends ship:

- :class:`SerialBackend` — in-process loop; compute happens inside
  ``submit`` so delivery stays interleaved with computation (a crash
  mid-run journals exactly the tiles delivered so far). A tile that
  ran past ``tile_timeout`` inline is found overdue by the watchdog
  like any other and charged a timeout.
- :class:`ThreadsBackend` — a per-run ``ThreadPoolExecutor`` of
  GIL-released numpy workers.
- :class:`PersistentBackend` — the process pool. Workers are spawned
  *once*, attach the packed panel (``multiprocessing.shared_memory``,
  or the panel store by path) and a CRC-verified :class:`_ResultArena`
  a single time, then pull tiles from per-worker ``multiprocessing``
  pipes (raw connections — no queue feeder threads, so warm dispatch
  latency is a single pipe round trip) and survive across
  ``run_engine`` calls. Pools live in a module-level registry keyed by
  a panel fingerprint, are reaped after an idle timeout and capped at
  two per process. A pool lives exactly as long as the process that
  owns it: workers exit on their own once that process is gone (even
  after ``SIGKILL``), and the multiprocessing resource tracker then
  unlinks the segments, so nothing is left to stop by hand. A worker
  that dies (``SIGKILL``, fault injection, a watchdog timeout) is
  respawned alone — the tiles it held are charged a retry — instead
  of rebuilding the whole pool, so the warm panel mapping is never paid
  for twice.

The division of labour with the engine: ``engine.py`` owns tile
enumeration, the manifest, fingerprints, metrics, and the public
``run_engine`` API; this module owns the tile runner, worker processes,
pools, shared memory, and the dispatch loop. ``engine`` imports this
module lazily inside ``run_engine`` so the import graph stays acyclic.
"""

from __future__ import annotations

import atexit
import hashlib
import itertools
import os
import threading
import time
import zlib
from collections import OrderedDict, deque
from collections.abc import Callable
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from multiprocessing import get_all_start_methods, get_context, shared_memory
from multiprocessing import connection as mp_connection
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.core.blocking import BlockingParams
from repro.core.carriers import CarrierIndex
from repro.core.engine import (
    TileCorruptionError,
    TileResult,
    TileTask,
    TileTimeoutError,
    _crc32_array,
    compute_tile,
)
from repro.faults import FaultPlan
from repro.observe.spans import (
    SpanProfiler,
    current_profiler,
    install_profiler,
    span,
)

if TYPE_CHECKING:
    from repro.observe.metrics import MetricsRecorder

__all__ = [
    "ExecutorBackend",
    "ExecutorBroken",
    "PersistentBackend",
    "PersistentPool",
    "RetryContext",
    "SerialBackend",
    "ThreadsBackend",
    "TileConfig",
    "TileDone",
    "TileHandle",
    "WorkerCrashError",
    "drive",
    "panel_fingerprint",
    "panel_store_key",
    "reap_idle_pools",
    "run_tile",
    "stop_pools",
]

#: Base and ceiling (seconds) of the exponential backoff between retry
#: attempts.
RETRY_BACKOFF_BASE = 0.05
RETRY_BACKOFF_CAP = 2.0


# ---------------------------------------------------------------------------
# Errors.
# ---------------------------------------------------------------------------


class ExecutorBroken(Exception):
    """The executor's worker pool cannot be kept alive; degrade or die."""

    def __init__(self, cause: BaseException) -> None:
        super().__init__(str(cause))
        self.cause = cause


class WorkerCrashError(RuntimeError):
    """A persistent worker died mid-tile; the tiles it held are charged a retry."""


# ---------------------------------------------------------------------------
# The tile runner: one tile, on every executor.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TileConfig:
    """Everything one run's tiles share, built once per run.

    Pool workers receive it as it is, once per run — the carrier index
    (``carriers``, ``None`` when no SNP of the panel is rare) included.
    ``profile`` makes pool workers install their own span profiler.
    """

    stat: str
    params: BlockingParams | None
    kernel: str
    undefined: float
    carriers: CarrierIndex | None
    faults: FaultPlan | None
    profile: bool


def run_tile(
    config: TileConfig,
    words: np.ndarray,
    freqs: np.ndarray,
    n_samples: int,
    tile: TileTask,
    epoch: int,
    *,
    out: np.ndarray | None = None,
    can_kill: bool = False,
) -> TileResult:
    """Compute one tile and package it for the driver.

    *epoch* is the driver's attempt counter for this tile — the
    deterministic clock fault injection keys on, so a seeded schedule
    fires identically whichever worker draws the tile. *can_kill* lets
    a ``kill`` fault SIGKILL the calling process. With *out* (a pool
    worker's arena slot) the statistic is written straight there, and
    the CRC32 and any injected corruption apply to the bytes the driver
    will read.
    The worker identity is the calling thread's name.
    """
    faults = config.faults
    if faults is not None:
        faults.fire("tile_compute", tile.key, epoch, can_kill=can_kill)
    prof = current_profiler()
    mark = prof.mark()
    start = time.perf_counter()
    with prof.span("tile"):  # root: phase self-times sum to its wall-clock
        block = compute_tile(
            words,
            freqs,
            n_samples,
            tile,
            stat=config.stat,
            params=config.params,
            kernel=config.kernel,
            undefined=config.undefined,
            carriers=config.carriers,
            out=out,
        )
    elapsed = time.perf_counter() - start
    phases = prof.collect(mark) or None
    if faults is not None:
        faults.fire("tile_deliver", tile.key, epoch)
    # A block staged into a shared output buffer is always checksummed
    # (the buffer is a transport to corrupt); an in-process one only
    # under a fault plan, so injected bit-flips are detectable on every
    # engine. The CRC is not free.
    checksum = (
        _crc32_array(block) if faults is not None or out is not None else None
    )
    if faults is not None:
        # Post-checksum, so the flip models corruption on the handoff
        # and the driver-side verification is what must catch it.
        faults.corrupt("tile_deliver", tile.key, epoch, block)
    return TileResult(
        block=block,
        compute_seconds=elapsed,
        worker=threading.current_thread().name,
        checksum=checksum,
        phase_seconds=phases,
    )


#: What the in-process backends call per tile: ``task(tile, epoch)``.
TileTaskFn = Callable[[TileTask, int], TileResult]


# ---------------------------------------------------------------------------
# The shared-memory result arena.
# ---------------------------------------------------------------------------


def _close_and_unlink(shm: shared_memory.SharedMemory) -> None:
    """Release a segment without letting either step mask the other.

    ``unlink`` runs even when ``close`` raises (a retained buffer export
    can make ``close`` fail on some platforms); a segment that cannot be
    closed must still disappear from ``/dev/shm``.
    """
    try:
        shm.close()
    finally:
        try:
            shm.unlink()
        except FileNotFoundError:
            pass


def _slot_view(
    flat: np.ndarray, slot_elems: int, slot: int, tile: TileTask
) -> np.ndarray:
    """*tile*'s block at the start of arena *slot*, shaped (no copy)."""
    base = slot * slot_elems
    return flat[base : base + tile.n_pairs].reshape(
        tile.i1 - tile.i0, tile.j1 - tile.j0
    )


class _ResultArena:
    """Driver-owned shared-memory staging for pool-worker result blocks.

    One slot per in-flight tile, sized for the run's largest tile:
    workers write each tile's statistic block (float64) into its slot
    and send back only the CRC32, so result payloads never travel
    through pickle. Slots are recycled as tiles complete; the driver
    reads a slot *before* releasing it, and verification happens on the
    driver's view of the bytes.
    """

    def __init__(self, n_slots: int, slot_elems: int) -> None:
        self.n_slots = max(1, int(n_slots))
        self.slot_elems = max(1, int(slot_elems))
        nbytes = self.n_slots * self.slot_elems * 8
        self._shm = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
        try:
            self._flat = np.ndarray(
                (self.n_slots * self.slot_elems,), dtype=np.float64,
                buffer=self._shm.buf,
            )
        except BaseException:
            # Partial construction must not leak the just-created segment.
            _close_and_unlink(self._shm)
            raise
        self._free: list[int] = list(range(self.n_slots))

    @property
    def name(self) -> str:
        """Shared-memory segment name (workers attach by it)."""
        return self._shm.name

    @property
    def nbytes(self) -> int:
        """Total arena footprint in bytes."""
        return self.n_slots * self.slot_elems * 8

    def acquire(self) -> int | None:
        """A free slot index, or ``None`` when all are in flight."""
        return self._free.pop() if self._free else None

    def release(self, slot: int) -> None:
        """Return *slot* to the free pool."""
        self._free.append(slot)

    def view(self, slot: int, tile: TileTask) -> np.ndarray:
        """The driver's view of *tile*'s block inside *slot* (no copy)."""
        return _slot_view(self._flat, self.slot_elems, slot, tile)

    def close(self) -> None:
        """Release and unlink the segment (never skips the unlink)."""
        self._flat = None
        _close_and_unlink(self._shm)


# ---------------------------------------------------------------------------
# Worker-side entry points (run inside pool processes).
# ---------------------------------------------------------------------------


def _attach_panel(
    shm_name: str | None,
    words_shape: tuple[int, int],
    panel_path: str | None,
):
    """Worker-side panel attach: shared memory by name, or store by path.

    Returns ``(shm, words)`` — ``shm`` is ``None`` for the by-path case,
    where the words are a read-only memmap of the packed-panel store
    (each worker maps the same file; the page cache is the shared
    copy, so out-of-core panels never materialize in a segment).
    """
    if panel_path is not None:
        from repro.io.panelstore import PanelStore

        store = PanelStore.open(panel_path)
        if tuple(store.words.shape) != tuple(words_shape):
            raise ValueError(
                f"panel store {panel_path} has shape {store.words.shape}, "
                f"driver expected {tuple(words_shape)}"
            )
        return None, store.words
    shm = shared_memory.SharedMemory(name=shm_name)
    return shm, np.ndarray(words_shape, dtype=np.uint64, buffer=shm.buf)


def _set_worker_profile(profile: bool) -> None:
    """Install (or remove) the worker's private span profiler.

    Each profiled worker records into its own profiler; per-tile phase
    breakdowns travel back in ``TileResult.phase_seconds``. Persistent
    workers flip this per run, since a warm pool can serve profiled
    and unprofiled runs back to back.
    """
    enabled = current_profiler().enabled
    if profile and not enabled:
        install_profiler(SpanProfiler())
    elif not profile and enabled:
        install_profiler(None)


def _persistent_worker_main(
    worker_index: int,
    shm_name: str | None,
    words_shape: tuple[int, int],
    freqs: np.ndarray,
    n_samples: int,
    arena_name: str,
    arena_n_slots: int,
    arena_slot_elems: int,
    task_conn,
    result_conn,
    owner_pid: int,
    panel_path: str | None = None,
) -> None:
    """Main loop of one warm worker: attach once, then serve tiles
    until the owner stops the pool or dies.

    The panel and arena segments are mapped exactly once, at startup —
    the whole point of the persistent pool. Messages arrive on a raw
    pipe connection (no queue feeder thread, so a warm tile costs one
    pipe round trip). The run's :class:`TileConfig` is piggybacked on
    the *first* tile each run sends this worker — installed before
    computing, so one warm pool serves successive ``run_engine`` calls
    with different parameters against the same panel without any extra
    message. Each tile goes through :func:`run_tile`, the same runner
    the in-process backends use, with its arena slot as the output
    buffer; the reply carries the result without its block, or the
    exception the tile raised (pickled in-band, so the worker lives on
    and the driver charges the attempt to that tile alone). Idle time
    between messages is measured and shipped back for the
    ``worker.idle`` phase. A ``None`` message (or a closed pipe) shuts
    the worker down cleanly.

    A killed owner sends nothing and its pipe never reports EOF (forked
    workers hold copies of the send ends), so an idle worker also wakes
    once a second and exits when it has been reparented away from
    *owner_pid*: the pool dies with its owner.
    """
    # The runner reports the calling thread's name as the tile's worker.
    threading.current_thread().name = f"pid-{os.getpid()}"
    shm, words = _attach_panel(shm_name, words_shape, panel_path)
    arena_shm = shared_memory.SharedMemory(name=arena_name)
    arena = np.ndarray(
        (arena_n_slots * arena_slot_elems,), dtype=np.float64,
        buffer=arena_shm.buf,
    )
    config: TileConfig | None = None
    try:
        while True:
            idle_start = time.perf_counter()
            try:
                while not task_conn.poll(1.0):
                    if os.getppid() != owner_pid:
                        return
                message = task_conn.recv()
            except (EOFError, OSError):
                break
            idle_seconds = time.perf_counter() - idle_start
            if message is None:
                break
            tile_id, tile, epoch, slot, new_config = message
            if new_config is not None:
                config = new_config
                _set_worker_profile(config.profile)
            try:
                result = run_tile(
                    config, words, freqs, n_samples, tile, epoch,
                    out=_slot_view(arena, arena_slot_elems, slot, tile),
                    can_kill=True,
                )
            except Exception as error:  # noqa: BLE001 - reported in-band
                reply = (tile_id, worker_index, None, error, idle_seconds)
            else:
                # The payload stays in the arena; only its checksum travels.
                result = replace(result, block=None)
                reply = (tile_id, worker_index, result, None, idle_seconds)
            try:
                result_conn.send(reply)
            except (BrokenPipeError, OSError):
                break  # driver replaced this worker's pipes (respawn race)
    finally:
        if shm is not None:
            shm.close()
        arena_shm.close()


# ---------------------------------------------------------------------------
# Scheduling helpers and driver-side policy.
# ---------------------------------------------------------------------------


def _largest_first(tiles: list[TileTask]) -> list[TileTask]:
    """Schedule big tiles first (LPT rule) so fringe slivers fill the tail.

    The only imbalance left is at most one tile per worker.
    """
    return sorted(tiles, key=lambda t: (-t.n_pairs, t.i0, t.j0))


def _backoff_seconds(key: tuple[int, int], attempt: int) -> float:
    """Exponential backoff before retry *attempt* (1-based), with
    deterministic jitter in [0.5, 1.5)x."""
    base = min(RETRY_BACKOFF_CAP, RETRY_BACKOFF_BASE * 2 ** (attempt - 1))
    jitter = zlib.crc32(f"{key[0]},{key[1]}|{attempt}".encode()) / 2**32
    return base * (0.5 + jitter)


@dataclass
class RetryContext:
    """Driver-side policy + callbacks shared by every backend."""

    max_retries: int
    tile_timeout: float | None
    allow_quarantine: bool
    deliver: Callable[[TileTask, TileResult], None]
    quarantine: Callable[[TileTask, BaseException], None]
    recorder: "MetricsRecorder | None" = None

    def verify(self, tile: TileTask, result: TileResult) -> None:
        """Check the payload CRC taken in the worker; raise on mismatch."""
        if result.checksum is None:
            return
        actual = _crc32_array(result.block)
        if actual != result.checksum:
            raise TileCorruptionError(
                f"tile {tile.key} failed its handoff checksum "
                f"(worker {result.checksum:#010x}, driver {actual:#010x}); "
                "payload corrupted in transit"
            )

    def note_failure(self, tile: TileTask, error: BaseException) -> None:
        if self.recorder is None:
            return
        self.recorder.inc("engine.retries")
        self.recorder.event(
            "tile_retry", tile=[tile.i0, tile.j0], error=repr(error)
        )
        if isinstance(error, TileCorruptionError):
            self.recorder.inc("engine.corruptions")
            self.recorder.event("tile_corrupt", tile=[tile.i0, tile.j0])
        elif isinstance(error, TileTimeoutError):
            self.recorder.inc("engine.timeouts")
            self.recorder.event(
                "tile_timeout", tile=[tile.i0, tile.j0],
                timeout_s=self.tile_timeout,
            )

    def note_spawn_failure(self, error: BaseException) -> None:
        if self.recorder is not None:
            self.recorder.inc("engine.spawn_failures")
            self.recorder.event("pool_spawn_failed", error=repr(error))

    def note_pool_spawn(self, backend: str) -> None:
        if self.recorder is not None:
            self.recorder.inc("engine.pool_spawns")
            self.recorder.event("pool_spawn", backend=backend)

    def note_worker_respawn(self, worker: int) -> None:
        if self.recorder is not None:
            self.recorder.inc("engine.worker_respawns")
            self.recorder.event("worker_respawn", worker=worker)


# ---------------------------------------------------------------------------
# The backend protocol and its handle types.
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class TileHandle:
    """Driver-side identity of one in-flight tile."""

    tile: TileTask
    started: float
    tile_id: int = -1
    slot: int | None = None
    worker: int | None = None
    future: object | None = None


@dataclass(eq=False)
class TileDone:
    """One completed tile as surfaced by ``drain``.

    Exactly one of ``result`` / ``error`` is set: the error is what the
    tile raised, or a worker death charged to every tile it held.
    """

    handle: TileHandle
    result: TileResult | None
    error: BaseException | None = None


@runtime_checkable
class ExecutorBackend(Protocol):
    """What :func:`drive` needs from an execution strategy.

    ``start`` readies the pool (may raise: spawn failure, counted
    against the retry budget), ``submit`` dispatches one tile or returns
    ``None`` when the backend is at capacity, ``drain`` blocks until at
    least one tile completes (or the timeout lapses) and returns them,
    and ``close`` ends the round: it aborts whatever is still in flight
    and releases everything the backend holds for the run (a warm pool
    stays warm). The per-tile hooks keep the generic loop generic:
    ``cancel_overdue`` drops tiles the watchdog found past their budget
    (a backend that cannot stop them remembers them itself), and
    ``release`` recycles a drained tile's resources — a block read from
    the shared-memory arena is valid only until then.
    """

    name: str

    def start(self) -> None: ...

    def submit(self, tile: TileTask, epoch: int) -> TileHandle | None: ...

    def drain(self, timeout: float | None) -> list[TileDone]: ...

    def cancel_overdue(self, handles: list[TileHandle]) -> None: ...

    def release(self, handle: TileHandle) -> None: ...

    def close(self) -> None: ...


# ---------------------------------------------------------------------------
# Serial backend.
# ---------------------------------------------------------------------------


class SerialBackend:
    """In-process execution behind the same interface as the pools.

    ``submit`` computes inline with capacity one, so the driver delivers
    each tile before the next is computed — the property the
    crash/resume tests pin (a crash after N deliveries journals exactly
    N tiles). A running tile cannot be preempted, so a tile that ran
    past ``tile_timeout`` inline is already overdue when it returns: the
    watchdog cancels it like any other, which drops its result. Nothing
    is dispatched, so it counts no ``dispatched_this_run``.
    """

    name = "serial"

    def __init__(self, task: TileTaskFn) -> None:
        self._task = task
        self._ready: list[TileDone] = []

    def start(self) -> None:
        return None

    def submit(self, tile: TileTask, epoch: int) -> TileHandle | None:
        if self._ready:
            return None
        handle = TileHandle(tile=tile, started=time.perf_counter())
        try:
            done = TileDone(handle, self._task(tile, epoch))
        except Exception as error:  # noqa: BLE001 - charged by the driver
            done = TileDone(handle, None, error)
        self._ready.append(done)
        return handle

    def drain(self, timeout: float | None) -> list[TileDone]:
        ready, self._ready = self._ready, []
        return ready

    def cancel_overdue(self, handles: list[TileHandle]) -> None:
        self._ready = [d for d in self._ready if d.handle not in handles]

    def release(self, handle: TileHandle) -> None:
        return None

    def close(self) -> None:
        self._ready = []


# ---------------------------------------------------------------------------
# Per-run thread pool.
# ---------------------------------------------------------------------------


class ThreadsBackend:
    """A per-run ``ThreadPoolExecutor`` of GIL-released numpy workers.

    In-flight tiles are bounded per worker, like the persistent pool's
    (two, or one under a watchdog budget, which a tile queued behind
    another would spend waiting), so each ``drain`` waits on a handful
    of futures rather than on every tile of the run.

    Threads cannot be killed, so the watchdog *orphans* an overdue
    future — it is removed from tracking, its eventual result discarded,
    and remembered, so ``close`` shuts the pool down without waiting.
    """

    name = "threads"

    def __init__(
        self, task: TileTaskFn, n_workers: int, ctx: RetryContext
    ) -> None:
        self._task = task
        self._n_workers = n_workers
        self._max_inflight = n_workers * (
            1 if ctx.tile_timeout is not None else 2
        )
        self._ctx = ctx
        self._pool: ThreadPoolExecutor | None = None
        self._futures: dict = {}
        self._orphans: list = []
        self.spawns_this_run = 0
        self.dispatched_this_run = 0

    def start(self) -> None:
        if self._pool is None:
            with span("driver.pool_spawn"):
                self._pool = ThreadPoolExecutor(max_workers=self._n_workers)
            self.spawns_this_run += 1
            self._ctx.note_pool_spawn(self.name)

    def submit(self, tile: TileTask, epoch: int) -> TileHandle | None:
        if len(self._futures) >= self._max_inflight:
            return None
        with span("driver.dispatch"):
            future = self._pool.submit(self._task, tile, epoch)
        handle = TileHandle(
            tile=tile, started=time.perf_counter(), future=future
        )
        self._futures[future] = handle
        self.dispatched_this_run += 1
        return handle

    def drain(self, timeout: float | None) -> list[TileDone]:
        done, _ = wait(
            set(self._futures), timeout=timeout, return_when=FIRST_COMPLETED
        )
        completed: list[TileDone] = []
        for future in done:
            handle = self._futures.pop(future)
            error = future.exception()
            result = None if error is not None else future.result()
            completed.append(TileDone(handle, result, error))
        return completed

    def cancel_overdue(self, handles: list[TileHandle]) -> None:
        # Threads cannot be killed: orphan the future (its result will
        # be discarded) and let the driver recycle the tiles through the
        # ordinary failure path.
        for handle in handles:
            self._futures.pop(handle.future, None)
            self._orphans.append(handle.future)

    def release(self, handle: TileHandle) -> None:
        return None

    def close(self) -> None:
        if self._pool is not None:
            # An orphaned thread may never finish: do not wait on it.
            self._pool.shutdown(wait=not self._orphans, cancel_futures=True)
            self._pool = None
        self._futures = {}
        self._orphans = []


# ---------------------------------------------------------------------------
# Persistent warm-worker pool.
# ---------------------------------------------------------------------------


def _mp_context():
    """Fork where available: worker startup is cheap and worker arguments
    are inherited rather than pickled. Everything passed is spawn-safe too."""
    if "fork" in get_all_start_methods():
        return get_context("fork")
    return get_context()  # pragma: no cover - non-POSIX fallback


def panel_fingerprint(words: np.ndarray, n_samples: int) -> str:
    """Identity of one packed panel (the persistent-pool registry key).

    Unlike :func:`repro.core.engine.input_fingerprint` this covers only
    the panel itself — not stat/blocking parameters — because one warm
    pool serves any run against the same words (per-run configuration
    travels with the first tile each worker is sent).
    """
    words = np.ascontiguousarray(words, dtype=np.uint64)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(f"panel|{words.shape[0]}x{words.shape[1]}|{n_samples}".encode())
    digest.update(words)
    return digest.hexdigest()


def panel_store_key(panel_path: str) -> str:
    """Registry key for a disk-backed panel: built from the store's
    pack-time content digest, so keying an out-of-core panel never
    re-reads it (hashing the memmapped words would fault in the whole
    file — the exact scan out-of-core mode exists to avoid)."""
    from repro.io.panelstore import PanelStore

    with PanelStore.open(panel_path) as store:
        digest = hashlib.blake2b(digest_size=16)
        digest.update(
            f"panelstore|{store.content_digest}|{store.n_samples}".encode()
        )
        return digest.hexdigest()


class PersistentPool:
    """A warm worker pool bound to one shared-memory panel.

    Spawned once per panel: the packed words are copied into a segment,
    a CRC-verified result arena is created next to it, and ``n_workers``
    processes attach both exactly one time. Work travels over
    *per-worker* raw pipe connections in both directions (a SIGKILLed
    worker can never poison a shared queue lock, and there is no queue
    feeder thread adding latency; a respawn simply replaces the dead
    worker's pipes). Replies are tagged with pool-global tile ids, so
    a stale reply from an aborted run can never be mistaken for a live
    one — and since a respawn closes the old pipes, stale replies die
    with them.
    """

    def __init__(
        self,
        key: str,
        words: np.ndarray,
        freqs: np.ndarray,
        n_samples: int,
        *,
        n_workers: int,
        slot_elems: int,
        panel_path: str | None = None,
    ) -> None:
        self.key = key
        self.n_workers = n_workers
        # Monotonic, so a wall-clock jump (NTP step, suspend) can never
        # make the idle reaper stop a fresh pool.
        self.last_used = time.monotonic()
        self.in_use = 0
        self.tile_ids = itertools.count()
        self._mp = _mp_context()
        self._freqs = np.ascontiguousarray(freqs)
        self._n_samples = n_samples
        self._panel_path = panel_path
        self._words_shape = tuple(words.shape)
        self.panel_shm = None
        if panel_path is None:
            words = np.ascontiguousarray(words, dtype=np.uint64)
            self.panel_shm = shared_memory.SharedMemory(
                create=True, size=max(1, words.nbytes)
            )
        self.arena: _ResultArena | None = None
        self.workers: list = []
        self.task_conns: list = []
        self.result_conns: list = []
        try:
            if self.panel_shm is not None:
                panel = np.ndarray(
                    words.shape, dtype=np.uint64, buffer=self.panel_shm.buf
                )
                panel[:] = words
                del panel
            self.arena = _ResultArena(
                n_slots=2 * n_workers + 2, slot_elems=slot_elems
            )
            for index in range(n_workers):
                self.workers.append(None)
                self.task_conns.append(None)
                self.result_conns.append(None)
                self._spawn_worker(index)
        except BaseException:
            self.stop()
            raise

    def _spawn_worker(self, index: int) -> None:
        """(Re)spawn worker *index* with fresh private pipes."""
        task_recv, task_send = self._mp.Pipe(duplex=False)
        result_recv, result_send = self._mp.Pipe(duplex=False)
        proc = self._mp.Process(
            target=_persistent_worker_main,
            args=(
                index,
                self.panel_shm.name if self.panel_shm is not None else None,
                self._words_shape,
                self._freqs,
                self._n_samples,
                self.arena.name,
                self.arena.n_slots,
                self.arena.slot_elems,
                task_recv,
                result_send,
                os.getpid(),
                self._panel_path,
            ),
            daemon=True,
            name=f"repro-pool-{self.key[:8]}-w{index}",
        )
        proc.start()
        # The child holds its own copies now; the driver keeps only the
        # send side of tasks and the recv side of results.
        task_recv.close()
        result_send.close()
        _close_conn(self.task_conns[index])
        _close_conn(self.result_conns[index])
        self.task_conns[index] = task_send
        self.result_conns[index] = result_recv
        self.workers[index] = proc

    def respawn(self, index: int) -> None:
        """Replace one dead (or killed) worker without touching the rest."""
        proc = self.workers[index]
        if proc is not None and proc.is_alive():
            proc.kill()
        if proc is not None:
            proc.join(timeout=5)
        with span("driver.pool_spawn"):
            self._spawn_worker(index)

    def ensure_workers(self) -> int:
        """Respawn any dead workers (kill-between-runs); return how many."""
        respawned = 0
        for index, proc in enumerate(self.workers):
            if proc is None or not proc.is_alive():
                with span("driver.pool_spawn"):
                    self._spawn_worker(index)
                respawned += 1
        return respawned

    def fits(self, n_workers: int, slot_elems: int) -> bool:
        """Whether this pool can serve a run with the given demands."""
        return (
            n_workers <= self.n_workers
            and self.arena is not None
            and slot_elems <= self.arena.slot_elems
        )

    @property
    def pids(self) -> list[int]:
        return [p.pid for p in self.workers if p is not None and p.pid]

    def stop(self) -> None:
        """Shut down workers and release every owned resource.

        Safe to call on a half-built pool and idempotent; each release
        step is guarded so no failure can leak a later segment.
        """
        for conn in self.task_conns:
            if conn is None:
                continue
            try:
                conn.send(None)
            except Exception:  # pragma: no cover - dead worker / closed pipe
                pass
        deadline = time.monotonic() + 2.0
        for proc in self.workers:
            if proc is None:
                continue
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)
        self.workers = []
        for conn in self.task_conns + self.result_conns:
            _close_conn(conn)
        self.task_conns = []
        self.result_conns = []
        try:
            if self.arena is not None:
                self.arena.close()
                self.arena = None
        finally:
            if self.panel_shm is not None:
                _close_and_unlink(self.panel_shm)
                self.panel_shm = None


def _close_conn(conn) -> None:
    """Close one pipe end, tolerating ``None`` and already-closed."""
    if conn is None:
        return
    try:
        conn.close()
    except Exception:  # pragma: no cover - already closed
        pass


class PersistentBackend:
    """Warm-pool execution: tiles go to already-running workers.

    ``start`` acquires (or builds) the registry pool for this panel and
    respawns any workers that died between runs; ``submit`` sends one
    tile to the least-loaded live worker over its private pipe (bounded
    outstanding per worker, one arena slot per tile), shipping the
    run's :class:`TileConfig` once per worker before its first tile;
    ``drain`` multiplexes the per-worker reply pipes with
    ``multiprocessing.connection.wait`` — results wake it immediately,
    and silence + a dead worker means a worker crash: that worker alone
    is respawned and the tiles it held charged a retry, never a
    whole-pool rebuild. A drained result's block is the arena view of
    its slot, valid until ``release``. ``close`` leaves the pool warm
    for the next run.
    """

    name = "persistent"

    #: Seconds between result-queue polls (liveness checks interleave).
    _POLL = 0.05

    def __init__(
        self,
        *,
        words: np.ndarray,
        freqs: np.ndarray,
        n_samples: int,
        config: TileConfig,
        n_workers: int,
        max_tile_elems: int,
        ctx: RetryContext,
        panel_path: str | None = None,
    ) -> None:
        self._words = words
        self._freqs = freqs
        self._n_samples = n_samples
        self._panel_path = panel_path
        self._config = config
        self._ctx = ctx
        self._n_workers = n_workers
        self._slot_elems = max_tile_elems
        # One outstanding tile per worker under a timeout (a watchdog
        # kill must have no collateral); two otherwise so the queue hides
        # dispatch latency.
        self._max_per_worker = 1 if ctx.tile_timeout is not None else 2
        self._pool: PersistentPool | None = None
        self._outstanding: dict[int, TileHandle] = {}
        self._loads: dict[int, int] = {}
        #: Workers that already hold this run's config (resent after a
        #: respawn, and never assumed from a previous run).
        self._configured: set[int] = set()
        self._spawn_index = 0
        self.spawns_this_run = 0
        self.respawns_this_run = 0
        self.dispatched_this_run = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._pool is None:
            if self._panel_path is not None:
                key = panel_store_key(self._panel_path)
            else:
                key = panel_fingerprint(self._words, self._n_samples)

            def build() -> PersistentPool:
                index = self._spawn_index
                self._spawn_index += 1
                if self._config.faults is not None:
                    self._config.faults.fire("pool_spawn", (-1, -1), index)
                with span("driver.pool_spawn"):
                    pool = PersistentPool(
                        key,
                        self._words,
                        self._freqs,
                        self._n_samples,
                        n_workers=self._n_workers,
                        slot_elems=self._slot_elems,
                        panel_path=self._panel_path,
                    )
                self.spawns_this_run += 1
                self._ctx.note_pool_spawn(self.name)
                if self._ctx.recorder is not None:
                    self._ctx.recorder.inc(
                        "engine.arena_bytes", pool.arena.nbytes
                    )
                return pool

            self._pool = _acquire_pool(
                key, self._n_workers, self._slot_elems, build
            )
            self._pool.in_use += 1
        # Workers killed between runs (chaos, a signal from outside) are
        # respawned here — the pool object survives.
        respawned = self._pool.ensure_workers()
        for _ in range(respawned):
            self.respawns_this_run += 1
            self._ctx.note_worker_respawn(-1)
        self._loads = {i: 0 for i in range(self._n_workers)}
        self._configured = set()

    def close(self) -> None:
        """End of run: abort whatever is still in flight, keep the pool warm.

        On a clean round nothing is outstanding and this only drops
        stale replies. On an exception escape (a crashing sink, an
        injected torn-manifest crash) the workers holding outstanding
        tiles are killed and respawned — deterministic, and it
        guarantees no stale writer touches an arena slot the next run
        hands out.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        for index in {h.worker for h in self._outstanding.values()}:
            pool.respawn(index)
        for handle in self._outstanding.values():
            pool.arena.release(handle.slot)
        self._outstanding = {}
        self._loads = {}
        # A respawn closed the aborted workers' pipes, so only replies
        # already delivered by tiles no longer tracked can remain.
        for conn in mp_connection.wait(_live_conns(pool), timeout=0):
            try:
                while True:
                    conn.recv()
                    if not conn.poll(0):
                        break
            except (EOFError, OSError):  # pragma: no cover - dying worker
                pass
        pool.last_used = time.monotonic()
        pool.in_use = max(0, pool.in_use - 1)

    # -- dispatch ----------------------------------------------------------

    def submit(self, tile: TileTask, epoch: int) -> TileHandle | None:
        worker = self._pick_worker()
        if worker is None:
            return None
        slot = self._pool.arena.acquire()
        if slot is None:
            return None
        tile_id = next(self._pool.tile_ids)
        conn = self._pool.task_conns[worker]
        config = None if worker in self._configured else self._config
        with span("driver.enqueue"):
            try:
                conn.send((tile_id, tile, epoch, slot, config))
            except (BrokenPipeError, OSError):
                # The worker died under us; hand the slot back and let
                # drain's liveness sweep (or the next start) respawn it.
                self._pool.arena.release(slot)
                return None
        self._configured.add(worker)
        handle = TileHandle(
            tile=tile, started=time.perf_counter(),
            tile_id=tile_id, slot=slot, worker=worker,
        )
        self._outstanding[tile_id] = handle
        self._loads[worker] += 1
        self.dispatched_this_run += 1
        return handle

    def _pick_worker(self) -> int | None:
        """Least-loaded live worker with spare capacity, or ``None``."""
        best = None
        best_load = self._max_per_worker
        for index in range(self._n_workers):
            load = self._loads.get(index, 0)
            if load < best_load:
                best = index
                best_load = load
        return best

    def drain(self, timeout: float | None) -> list[TileDone]:
        completed: list[TileDone] = []
        deadline = (
            None if timeout is None else time.perf_counter() + timeout
        )
        while True:
            slice_s = self._POLL
            if deadline is not None:
                slice_s = min(slice_s, max(0.0, deadline - time.perf_counter()))
            ready = mp_connection.wait(_live_conns(self._pool), timeout=slice_s)
            for conn in ready:
                # Sweep every reply already buffered on this pipe.
                try:
                    while True:
                        done = self._admit(conn.recv())
                        if done is not None:
                            completed.append(done)
                        if not conn.poll(0):
                            break
                except (EOFError, OSError):
                    # Closed pipe end: the worker died — the liveness
                    # sweep below turns that into charged tiles.
                    pass
            if not ready or not completed:
                completed.extend(self._collect_dead())
            if completed:
                return completed
            if deadline is not None and time.perf_counter() >= deadline:
                return completed

    def _admit(self, message) -> TileDone | None:
        """Match one reply to an in-flight handle; drop stale replies."""
        tile_id, worker, result, error, idle_seconds = message
        handle = self._outstanding.pop(tile_id, None)
        if handle is None:
            # A reply from a tile this run no longer tracks (aborted
            # round, watchdog kill that lost the race). Its slot has
            # already been recycled; CRC verification covers any writer
            # race on the arena bytes.
            return None
        if worker in self._loads:
            self._loads[worker] = max(0, self._loads[worker] - 1)
        if (
            idle_seconds > 0
            and self._config.profile
            and self._ctx.recorder is not None
        ):
            self._ctx.recorder.observe_time("phase.worker.idle", idle_seconds)
        if result is not None:
            block = self._pool.arena.view(handle.slot, handle.tile)
            result = replace(result, block=block)
        return TileDone(handle, result, error)

    def _collect_dead(self) -> list[TileDone]:
        """Turn dead workers into charged tiles + single respawns."""
        lost: list[TileDone] = []
        for index in range(self._n_workers):
            proc = self._pool.workers[index]
            if proc is not None and proc.is_alive():
                continue
            exitcode = None if proc is None else proc.exitcode
            error = WorkerCrashError(
                f"persistent worker {index} died (exitcode {exitcode}); "
                "respawned in place"
            )
            for handle in [
                h for h in self._outstanding.values() if h.worker == index
            ]:
                self._outstanding.pop(handle.tile_id, None)
                lost.append(TileDone(handle, None, error))
            self._respawn(index)
        return lost

    def _respawn(self, index: int) -> None:
        """Replace worker *index*; it gets this run's config again."""
        self._pool.respawn(index)
        self._loads[index] = 0
        self._configured.discard(index)
        self.respawns_this_run += 1
        self._ctx.note_worker_respawn(index)

    def cancel_overdue(self, handles: list[TileHandle]) -> None:
        """Watchdog: kill only the stuck workers, respawn them in place."""
        killed: set[int] = set()
        for handle in handles:
            self._outstanding.pop(handle.tile_id, None)
            self._pool.arena.release(handle.slot)
            if handle.worker in killed:
                continue  # pragma: no cover - one outstanding under timeout
            killed.add(handle.worker)
            self._respawn(handle.worker)

    def release(self, handle: TileHandle) -> None:
        self._pool.arena.release(handle.slot)


def _live_conns(pool: PersistentPool) -> list:
    """The pool's open reply pipes (a respawn replaces a worker's)."""
    return [c for c in pool.result_conns if c is not None and not c.closed]


# ---------------------------------------------------------------------------
# Persistent-pool registry: keyed by panel, LRU-capped, idle-reaped.
# ---------------------------------------------------------------------------

_POOLS: "OrderedDict[str, PersistentPool]" = OrderedDict()
_POOLS_LOCK = threading.RLock()
_REAPER: threading.Thread | None = None
_ATEXIT_INSTALLED = False

#: Warm pools one process keeps (least recently used evicted first).
_MAX_POOLS = 2
#: Seconds a pool may sit unused before the reaper stops it.
_IDLE_TIMEOUT = 300.0


def _acquire_pool(
    key: str,
    n_workers: int,
    slot_elems: int,
    build: Callable[[], PersistentPool],
) -> PersistentPool:
    """The registry pool for *key*, reusing a warm one when it fits.

    A pool too small for this run (fewer workers, smaller arena slots)
    is stopped and rebuilt — honest spawn accounting, never a silent
    under-provisioned reuse. Acquiring also sweeps idle pools and
    enforces the LRU cap.
    """
    with _POOLS_LOCK:
        _reap_locked()
        pool = _POOLS.get(key)
        if pool is not None:
            if pool.fits(n_workers, slot_elems):
                _POOLS.move_to_end(key)
                pool.last_used = time.monotonic()
                return pool
            _drop_pool_locked(key)
        pool = build()
        _POOLS[key] = pool
        _POOLS.move_to_end(key)
        while len(_POOLS) > _MAX_POOLS:
            _drop_pool_locked(next(iter(_POOLS)))
        _install_atexit()
        _ensure_reaper()
        return pool


def _drop_pool_locked(key: str) -> None:
    pool = _POOLS.pop(key, None)
    if pool is not None:
        pool.stop()


def _reap_locked() -> int:
    now = time.monotonic()
    stale = [
        key for key, pool in _POOLS.items()
        if pool.in_use == 0 and now - pool.last_used > _IDLE_TIMEOUT
    ]
    for key in stale:
        _drop_pool_locked(key)
    return len(stale)


def reap_idle_pools() -> int:
    """Stop warm pools idle past ``_IDLE_TIMEOUT`` seconds; return count."""
    with _POOLS_LOCK:
        return _reap_locked()


def _reaper_loop() -> None:
    while True:
        time.sleep(max(1.0, _IDLE_TIMEOUT / 4.0))
        with _POOLS_LOCK:
            _reap_locked()
            if not _POOLS:
                return


def _ensure_reaper() -> None:
    global _REAPER
    if _REAPER is not None and _REAPER.is_alive():
        return
    _REAPER = threading.Thread(
        target=_reaper_loop, name="repro-pool-reaper", daemon=True
    )
    _REAPER.start()


def _install_atexit() -> None:
    global _ATEXIT_INSTALLED
    if not _ATEXIT_INSTALLED:
        atexit.register(stop_pools)
        _ATEXIT_INSTALLED = True


def stop_pools() -> int:
    """Stop every warm pool this process owns; returns how many."""
    with _POOLS_LOCK:
        keys = list(_POOLS)
        for key in keys:
            _drop_pool_locked(key)
    return len(keys)


# ---------------------------------------------------------------------------
# The generic dispatch loop.
# ---------------------------------------------------------------------------


def drive(
    backend: ExecutorBackend,
    tiles: list[TileTask],
    ctx: RetryContext,
) -> int:
    """Drive *tiles* through *backend*, one per dispatch, with retry and
    watchdog.

    A failing tile is charged an attempt and resubmitted; past
    ``max_retries`` it is quarantined (when allowed) or the run aborts
    with the original error. When the pool cannot be started within the
    retry budget, :class:`ExecutorBroken` escapes so the caller can
    degrade to a simpler executor. Returns the number of retries.

    The watchdog: with ``ctx.tile_timeout`` set, a tile running past its
    wall-clock budget is cancelled via ``backend.cancel_overdue`` —
    SIGKILL + single respawn for persistent workers, orphaning for
    threads, dropping the result of a serial tile that overran inline —
    and charged a timeout. Each round ends with ``backend.close()``,
    however it ends.
    """
    retries = 0
    resets = 0
    attempts = dict.fromkeys(tiles, 0)
    pending = set(tiles)

    def handle_failure(
        tile: TileTask, error: BaseException, requeue: deque
    ) -> None:
        nonlocal retries
        attempts[tile] += 1
        retries += 1
        ctx.note_failure(tile, error)
        if attempts[tile] > ctx.max_retries:
            if ctx.allow_quarantine:
                ctx.quarantine(tile, error)
                pending.discard(tile)
                return
            raise error
        delay = _backoff_seconds(tile.key, attempts[tile])
        if delay > 0:
            with span("driver.backoff"):
                time.sleep(delay)
        requeue.append(tile)

    while pending:
        try:
            backend.start()
        except Exception as error:
            backend.close()
            resets += 1
            ctx.note_spawn_failure(error)
            if resets > ctx.max_retries:
                raise ExecutorBroken(error) from error
            continue
        queue = deque(t for t in tiles if t in pending)
        inflight: set[TileHandle] = set()
        # Completed tiles not yet released (they may hold arena slots).
        drained: deque[TileDone] = deque()

        def pump() -> None:
            while queue:
                tile = queue[0]
                handle = backend.submit(tile, attempts[tile] + resets)
                if handle is None:
                    return
                inflight.add(handle)
                queue.popleft()

        try:
            pump()
            while inflight or queue:
                if not inflight:
                    pump()
                    if not inflight:  # pragma: no cover - defensive
                        break
                slack = None
                if ctx.tile_timeout is not None:
                    now = time.perf_counter()
                    overdue = [
                        h for h in inflight
                        if now - h.started >= ctx.tile_timeout
                    ]
                    if overdue:
                        backend.cancel_overdue(overdue)
                        for handle in overdue:
                            inflight.discard(handle)
                            handle_failure(
                                handle.tile,
                                TileTimeoutError(
                                    f"tile {handle.tile.key} exceeded the "
                                    f"{ctx.tile_timeout}s budget"
                                ),
                                queue,
                            )
                        pump()
                        continue
                    deadline = min(
                        h.started + ctx.tile_timeout for h in inflight
                    )
                    slack = max(0.0, deadline - now) + 1e-3
                with span("driver.wait"):
                    drained.extend(backend.drain(slack))
                while drained:
                    done = drained[0]
                    tile = done.handle.tile
                    inflight.discard(done.handle)
                    if done.error is not None:
                        handle_failure(tile, done.error, queue)
                    else:
                        try:
                            ctx.verify(tile, done.result)
                        except TileCorruptionError as corrupt:
                            handle_failure(tile, corrupt, queue)
                        else:
                            # An arena-backed block is only valid until
                            # the slot is released; deliver consumes it
                            # now.
                            ctx.deliver(tile, done.result)
                            pending.discard(tile)
                    backend.release(drained.popleft().handle)
                    pump()
        finally:
            # A raising sink, an exhausted retry or an injected crash
            # skips the releases above; a warm pool outlives the run, so
            # the slots of every drained tile must go back here.
            for done in drained:
                backend.release(done.handle)
            backend.close()
    return retries
