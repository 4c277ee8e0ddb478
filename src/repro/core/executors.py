"""Pluggable executor backends for the tiled LD engine.

:func:`repro.core.engine.run_engine` schedules tiles; *how* a batch of
tiles turns into computed blocks is this module's job. Every execution
strategy implements the same small :class:`ExecutorBackend` protocol —
``start`` / ``submit_batch`` / ``drain`` / ``shutdown`` — and the one
generic :func:`drive` loop supplies retry, backoff, quarantine, CRC
verification, and the hung-worker watchdog on top. Adding an executor
means writing a backend, not re-deriving the fault discipline.

Three backends ship:

- :class:`SerialBackend` — in-process loop; compute happens inside
  ``submit_batch`` so delivery stays interleaved with computation (a
  crash mid-run journals exactly the tiles delivered so far).
- :class:`ThreadsBackend` — a per-run ``ThreadPoolExecutor`` of
  GIL-released numpy workers.
- :class:`PersistentBackend` — the process pool. Workers are spawned
  *once*, attach the packed panel (``multiprocessing.shared_memory``,
  or the panel store by path) and a CRC-verified :class:`_ResultArena`
  a single time, then pull batches from per-worker ``multiprocessing``
  pipes (raw connections — no queue feeder threads, so warm dispatch
  latency is a single pipe round trip) and survive across
  ``run_engine`` calls. Pools live in a module-level registry keyed by
  a panel fingerprint, are reaped after an idle timeout, capped by
  ``REPRO_POOL_MAX``, and can be listed/stopped cross-process via
  ``repro pool`` (worker pids and segment names are journaled to a
  state file). A worker that dies (``SIGKILL``, fault injection, an
  external ``repro pool stop``) is respawned alone — its batch is
  charged a retry — instead of rebuilding the whole pool, so the warm
  panel mapping is never paid for twice.

The division of labour with the engine: ``engine.py`` owns tile
enumeration, the manifest, fingerprints, metrics, and the public
``run_engine`` API; this module owns worker processes, pools, shared
memory, and the dispatch loop. ``engine`` imports this module lazily
inside ``run_engine`` so the import graph stays acyclic.
"""

from __future__ import annotations

import atexit
import errno
import hashlib
import itertools
import json
import os
import select
import tempfile
import threading
import time
from collections import OrderedDict, deque
from collections.abc import Callable
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass
from multiprocessing import get_all_start_methods, get_context, shared_memory
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.core.blocking import BlockingParams
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
    "BatchDone",
    "BatchHandle",
    "ExecutorBackend",
    "ExecutorBroken",
    "PersistentBackend",
    "PersistentPool",
    "RetryContext",
    "SerialBackend",
    "ThreadsBackend",
    "WorkerCrashError",
    "drive",
    "panel_fingerprint",
    "panel_store_key",
    "pool_status",
    "reap_idle_pools",
    "stop_pools",
]


# ---------------------------------------------------------------------------
# Errors.
# ---------------------------------------------------------------------------


class ExecutorBroken(Exception):
    """The executor's worker pool cannot be kept alive; degrade or die."""

    def __init__(self, cause: BaseException) -> None:
        super().__init__(str(cause))
        self.cause = cause


class WorkerCrashError(RuntimeError):
    """A persistent worker died mid-batch; its tiles are charged a retry."""


# ---------------------------------------------------------------------------
# Batch transport: per-tile outcomes and the shared-memory result arena.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _TileOutcome:
    """One tile's result within a batched dispatch unit.

    Exactly one of ``result``/``error`` is set. Batched dispatch reports
    per-tile failures in-band (the original exception instance, pickled
    across the worker's pipe) rather than failing the whole unit, so
    batch-mates still land. When the block traveled through the
    shared-memory arena, ``result.block`` is ``None`` and
    ``arena_offset``/``shape`` locate the payload inside the batch's slot.
    """

    index: int
    result: TileResult | None
    error: BaseException | None
    arena_offset: int | None = None
    shape: tuple[int, int] | None = None


@dataclass(frozen=True)
class _BatchOutcome:
    """Return value of one batched dispatch unit."""

    items: tuple[_TileOutcome, ...]


def _with_block(result: TileResult, block: np.ndarray | None) -> TileResult:
    """*result* with its payload swapped for *block*.

    Equivalent to ``dataclasses.replace(result, block=block)`` but
    without the per-call field introspection — this runs once per tile
    on both sides of the arena handoff, where ``replace`` is a
    measurable slice of a warm run.
    """
    return TileResult(
        block=block,
        compute_seconds=result.compute_seconds,
        worker=result.worker,
        checksum=result.checksum,
        phase_seconds=result.phase_seconds,
    )


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


class _ResultArena:
    """Driver-owned shared-memory staging for pool-worker result blocks.

    One slot per in-flight batch: workers write each tile's statistic
    block into their batch's slot (float64, tiles packed back to back)
    and send back only offsets + CRC32s, so result payloads never travel
    through pickle. Slots are recycled as batches complete; the driver
    reads a slot *before* releasing it, and verification (the same CRC32
    handshake as before) happens on the driver's view of the bytes.
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

    def read(self, slot: int, offset: int, shape: tuple[int, int]) -> np.ndarray:
        """The driver's view of one tile block inside *slot* (no copy)."""
        base = slot * self.slot_elems + offset
        count = int(shape[0]) * int(shape[1])
        return self._flat[base : base + count].reshape(shape)

    def close(self) -> None:
        """Release and unlink the segment (never skips the unlink)."""
        self._flat = None
        _close_and_unlink(self._shm)


# ---------------------------------------------------------------------------
# Worker-side entry points (run inside pool processes).
# ---------------------------------------------------------------------------

#: Per-process state: the attached panel and arena plus the current
#: run's configuration (worker side).
_WORKER_STATE: dict = {}


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
    workers flip this per batch, since a warm pool can serve profiled
    and unprofiled runs back to back.
    """
    enabled = current_profiler().enabled
    if profile and not enabled:
        install_profiler(SpanProfiler())
    elif not profile and enabled:
        install_profiler(None)


def _run_tile_in_worker(
    tile: TileTask, epoch: int, arena_out: np.ndarray
) -> TileResult:
    """Pool task: compute one tile against the attached shared words.

    *epoch* is the driver's attempt counter for this tile (per-tile
    failures plus failed pool spawns) — the deterministic clock fault
    injection keys on, and the reason a seeded schedule fires
    identically regardless of which worker draws the tile.

    The block is staged into *arena_out*, its view of the batch's
    shared-memory slot; the CRC32 (and any injected corruption) applies
    to the arena bytes the driver will verify.
    """
    state = _WORKER_STATE
    plan: FaultPlan | None = state.get("faults")
    if plan is not None:
        plan.fire("tile_compute", tile.key, epoch, can_kill=True)
    prof = current_profiler()
    mark = prof.mark()
    start = time.perf_counter()
    with prof.span("tile"):  # root: phase self-times sum to its wall-clock
        block = compute_tile(
            state["words"],
            state["freqs"],
            state["n_samples"],
            tile,
            stat=state["stat"],
            params=state["params"],
            kernel=state["kernel"],
            undefined=state["undefined"],
        )
        with prof.span("arena_copy_out"):
            arena_out[...] = block
        block = arena_out
    elapsed = time.perf_counter() - start
    phases = prof.collect(mark) or None
    if plan is not None:
        plan.fire("tile_deliver", tile.key, epoch)
    checksum = _crc32_array(block)
    if plan is not None:
        # Post-checksum, so the flip models corruption on the handoff
        # and the driver-side verification is what must catch it.
        plan.corrupt("tile_deliver", tile.key, epoch, block)
    return TileResult(
        block=block,
        compute_seconds=elapsed,
        worker=f"pid-{os.getpid()}",
        checksum=checksum,
        phase_seconds=phases,
    )


def _run_batch_in_worker(
    unit: tuple[TileTask, ...], epochs: tuple[int, ...], slot: int
) -> _BatchOutcome:
    """Pool task: compute a batch of tiles, reporting per-tile outcomes.

    Blocks are written back to back into the batch's arena *slot*. A
    tile that raises is reported in-band (its batch-mates are
    unaffected) so the driver can charge the attempt to that tile alone
    and resubmit it as a singleton. Kill faults still take down the
    worker — the crash path, where the driver respawns it and charges
    the whole batch.
    """
    state = _WORKER_STATE
    arena: np.ndarray = state["arena"]
    base = slot * state["arena_slot_elems"]
    items: list[_TileOutcome] = []
    offset = 0
    for index, (tile, epoch) in enumerate(zip(unit, epochs)):
        shape = (tile.i1 - tile.i0, tile.j1 - tile.j0)
        size = shape[0] * shape[1]
        out = arena[base + offset : base + offset + size].reshape(shape)
        try:
            result = _run_tile_in_worker(tile, epoch, out)
        except Exception as error:  # noqa: BLE001 - reported in-band
            items.append(_TileOutcome(index=index, result=None, error=error))
        else:
            items.append(
                _TileOutcome(
                    index=index,
                    result=_with_block(result, None),
                    error=None,
                    arena_offset=offset,
                    shape=shape,
                )
            )
        offset += size
    return _BatchOutcome(items=tuple(items))


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
    panel_path: str | None = None,
) -> None:
    """Main loop of one warm worker: attach once, then serve batches forever.

    The panel and arena segments are mapped exactly once, at startup —
    the whole point of the persistent pool. Messages arrive on a raw
    pipe connection (no queue feeder thread, so a warm batch costs one
    pipe round trip). A batch message carries the run's configuration
    (stat, kernel, fault plan, profiling) piggybacked on the *first*
    batch each run sends this worker — installed before computing, so
    one warm pool serves successive ``run_engine`` calls with different
    parameters against the same panel without any extra message. Idle
    time between messages is measured and shipped back for the
    ``worker.idle`` phase. A ``None`` message (or a closed pipe) shuts
    the worker down cleanly.
    """
    shm, words = _attach_panel(shm_name, words_shape, panel_path)
    arena_shm = shared_memory.SharedMemory(name=arena_name)
    arena = np.ndarray(
        (arena_n_slots * arena_slot_elems,), dtype=np.float64,
        buffer=arena_shm.buf,
    )
    base_state = dict(
        shm=shm,
        words=words,
        freqs=freqs,
        n_samples=n_samples,
        arena_shm=arena_shm,
        arena=arena,
        arena_slot_elems=arena_slot_elems,
    )
    try:
        while True:
            idle_start = time.perf_counter()
            try:
                message = task_conn.recv()
            except (EOFError, OSError):
                break
            idle_seconds = time.perf_counter() - idle_start
            if message is None:
                break
            batch_id, unit, epochs, slot, config = message
            if config is not None:
                stat, params, kernel, undefined, faults, profile = config
                _set_worker_profile(profile)
                _WORKER_STATE.clear()
                _WORKER_STATE.update(
                    base_state,
                    stat=stat,
                    params=params,
                    kernel=kernel,
                    undefined=undefined,
                    faults=faults,
                )
            outcome = None
            error = None
            try:
                outcome = _run_batch_in_worker(unit, epochs, slot)
            except Exception as exc:  # noqa: BLE001 - shipped in-band
                error = exc
            try:
                result_conn.send(
                    (batch_id, worker_index, outcome, error, idle_seconds)
                )
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


def _chunk_batches(
    order: list[TileTask], pending: set[TileTask], batch_size: int
) -> "deque[tuple[TileTask, ...]]":
    """Chunk still-pending tiles (in schedule order) into dispatch units."""
    queue: deque[tuple[TileTask, ...]] = deque()
    chunk: list[TileTask] = []
    for tile in order:
        if tile not in pending:
            continue
        chunk.append(tile)
        if len(chunk) >= batch_size:
            queue.append(tuple(chunk))
            chunk = []
    if chunk:
        queue.append(tuple(chunk))
    return queue


@dataclass
class RetryContext:
    """Driver-side policy + callbacks shared by every backend."""

    max_retries: int
    tile_timeout: float | None
    backoff_base: float
    backoff_cap: float
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

    def backoff_seconds(self, key: tuple[int, int], attempt: int) -> float:
        """Exponential backoff with deterministic jitter in [0.5, 1.5)x."""
        if self.backoff_base <= 0.0 or attempt < 1:
            return 0.0
        base = min(self.backoff_cap, self.backoff_base * 2 ** (attempt - 1))
        import zlib

        jitter = zlib.crc32(f"{key[0]},{key[1]}|{attempt}".encode()) / 2**32
        return base * (0.5 + jitter)

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
class BatchHandle:
    """Driver-side identity of one in-flight dispatch unit."""

    unit: tuple[TileTask, ...]
    epochs: tuple[int, ...]
    started: float
    batch_id: int = -1
    slot: int | None = None
    worker: int | None = None
    future: object | None = None


@dataclass(eq=False)
class BatchDone:
    """One completed unit as surfaced by ``drain``.

    Either ``outcome`` holds per-tile results or ``error`` holds a
    unit-level failure (worker death, a raising task) charged to every
    tile in the unit.
    """

    handle: BatchHandle
    outcome: _BatchOutcome | None
    error: BaseException | None = None


@runtime_checkable
class ExecutorBackend(Protocol):
    """What :func:`drive` needs from an execution strategy.

    ``start`` readies the pool (may raise: spawn failure, counted
    against the retry budget), ``submit_batch`` dispatches one unit or
    returns ``None`` when the backend is at capacity, ``drain`` blocks
    until at least one unit completes (or the timeout lapses) and
    returns them, ``shutdown`` releases everything the backend owns for
    this run. The remaining hooks let the generic loop stay generic:
    ``cancel_overdue`` implements the watchdog's removal semantics,
    ``materialize`` turns an in-band outcome into a :class:`TileResult`
    (reading the shared-memory arena where applicable), ``release``
    recycles per-unit resources, and ``finish_run`` runs once per
    scheduling round (thread-pool teardown, or in-flight abort for the
    warm pool).
    """

    name: str
    counts_batches: bool
    preemptive_timeout: bool
    orphans_on_cancel: bool

    def start(self) -> None: ...

    def submit_batch(
        self, unit: tuple[TileTask, ...], epochs: tuple[int, ...]
    ) -> BatchHandle | None: ...

    def drain(self, timeout: float | None) -> list[BatchDone]: ...

    def cancel_overdue(self, handles: list[BatchHandle]) -> None: ...

    def materialize(self, handle: BatchHandle, item: _TileOutcome) -> TileResult: ...

    def release(self, handle: BatchHandle) -> None: ...

    def finish_run(self, *, abandoned: bool) -> None: ...

    def shutdown(self) -> None: ...


# ---------------------------------------------------------------------------
# Serial backend.
# ---------------------------------------------------------------------------


class SerialBackend:
    """In-process execution behind the same interface as the pools.

    ``submit_batch`` computes inline with capacity one, so the driver
    delivers each tile before the next is computed — the property the
    crash/resume tests pin (a crash after N deliveries journals exactly
    N tiles). The serial engine cannot preempt a running tile, so
    ``tile_timeout`` is enforced post-hoc: a tile that took too long is
    reported as a timeout outcome and charged a failed attempt.
    """

    name = "serial"
    counts_batches = False
    preemptive_timeout = False
    orphans_on_cancel = False

    def __init__(
        self,
        task: Callable[[TileTask, int], TileResult],
        ctx: RetryContext,
    ) -> None:
        self._task = task
        self._ctx = ctx
        self._ready: list[BatchDone] = []

    def start(self) -> None:
        return None

    def submit_batch(
        self, unit: tuple[TileTask, ...], epochs: tuple[int, ...]
    ) -> BatchHandle | None:
        if self._ready:
            return None
        handle = BatchHandle(
            unit=unit, epochs=epochs, started=time.perf_counter()
        )
        items: list[_TileOutcome] = []
        for index, (tile, epoch) in enumerate(zip(unit, epochs)):
            start = time.perf_counter()
            try:
                result = self._task(tile, epoch)
                elapsed = time.perf_counter() - start
                budget = self._ctx.tile_timeout
                if budget is not None and elapsed > budget:
                    raise TileTimeoutError(
                        f"tile {tile.key} took {elapsed:.3f}s "
                        f"(budget {budget}s)"
                    )
            except Exception as error:  # noqa: BLE001 - in-band report
                items.append(_TileOutcome(index=index, result=None, error=error))
            else:
                items.append(_TileOutcome(index=index, result=result, error=None))
        self._ready.append(
            BatchDone(handle=handle, outcome=_BatchOutcome(tuple(items)))
        )
        return handle

    def drain(self, timeout: float | None) -> list[BatchDone]:
        ready, self._ready = self._ready, []
        return ready

    def cancel_overdue(self, handles: list[BatchHandle]) -> None:
        return None  # pragma: no cover - preemptive_timeout is False

    def materialize(self, handle: BatchHandle, item: _TileOutcome) -> TileResult:
        return item.result

    def release(self, handle: BatchHandle) -> None:
        return None

    def finish_run(self, *, abandoned: bool) -> None:
        self._ready = []

    def shutdown(self) -> None:
        self._ready = []


# ---------------------------------------------------------------------------
# Per-run thread pool.
# ---------------------------------------------------------------------------


class ThreadsBackend:
    """A per-run ``ThreadPoolExecutor`` of GIL-released numpy workers.

    Threads cannot be killed, so the watchdog *orphans* an overdue
    future — it is removed from tracking, its eventual result discarded,
    and the pool is shut down without waiting at the end of the round.
    """

    name = "threads"
    counts_batches = True
    preemptive_timeout = True
    orphans_on_cancel = True

    def __init__(
        self,
        batch_task: Callable[
            [tuple[TileTask, ...], tuple[int, ...]], _BatchOutcome
        ],
        n_workers: int,
        ctx: RetryContext,
    ) -> None:
        self._task = batch_task
        self._n_workers = n_workers
        self._ctx = ctx
        self._pool: ThreadPoolExecutor | None = None
        self._futures: dict = {}
        self.spawns_this_run = 0
        self.respawns_this_run = 0

    def start(self) -> None:
        if self._pool is None:
            with span("driver.pool_spawn"):
                self._pool = ThreadPoolExecutor(max_workers=self._n_workers)
            self.spawns_this_run += 1
            self._ctx.note_pool_spawn(self.name)

    def submit_batch(
        self, unit: tuple[TileTask, ...], epochs: tuple[int, ...]
    ) -> BatchHandle | None:
        with span("driver.dispatch"):
            future = self._pool.submit(self._task, unit, epochs)
        handle = BatchHandle(
            unit=unit, epochs=epochs, started=time.perf_counter(),
            future=future,
        )
        self._futures[future] = handle
        return handle

    def drain(self, timeout: float | None) -> list[BatchDone]:
        done, _ = wait(
            set(self._futures), timeout=timeout, return_when=FIRST_COMPLETED
        )
        completed: list[BatchDone] = []
        for future in done:
            handle = self._futures.pop(future)
            error = future.exception()
            if error is None:
                completed.append(BatchDone(handle=handle, outcome=future.result()))
            else:
                completed.append(
                    BatchDone(handle=handle, outcome=None, error=error)
                )
        return completed

    def cancel_overdue(self, handles: list[BatchHandle]) -> None:
        # Threads cannot be killed: orphan the future (its result will
        # be discarded) and let the driver recycle the tiles through the
        # ordinary failure path.
        for handle in handles:
            self._futures.pop(handle.future, None)

    def materialize(self, handle: BatchHandle, item: _TileOutcome) -> TileResult:
        return item.result

    def release(self, handle: BatchHandle) -> None:
        return None

    def finish_run(self, *, abandoned: bool) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=not abandoned, cancel_futures=True)
            self._pool = None
        self._futures = {}

    def shutdown(self) -> None:
        self.finish_run(abandoned=False)


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
    travels with each batch message).
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
    worker's pipes). Replies are tagged with pool-global batch ids, so
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
        # One coherent pair of birth stamps: the *monotonic* one drives
        # every age computation (idle reaping here, `repro pool list`
        # ages in the CLI) so a wall-clock jump — NTP step, suspend —
        # can never age a pool backwards or reap a fresh one; the
        # wall-clock twin exists only for humans reading the state file.
        self.created = time.time()
        self.created_monotonic = time.monotonic()
        self.last_used = time.monotonic()
        self.in_use = 0
        self.spawns = 0
        self.batch_ids = itertools.count()
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
        self.spawns += 1

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
    """Warm-pool execution: batches go to already-running workers.

    ``start`` acquires (or builds) the registry pool for this panel and
    respawns any workers that died between runs; ``submit_batch`` sends
    to the least-loaded live worker over its private pipe (bounded
    outstanding per worker, windowed by arena slots), shipping the
    run's config once per worker before its first batch; ``drain``
    multiplexes the per-worker reply pipes with
    ``multiprocessing.connection.wait`` — results wake it immediately,
    and silence + a dead worker means a worker crash: that worker alone
    is respawned and its batch charged a retry, never a whole-pool
    rebuild. ``shutdown`` leaves the pool warm for the next run.
    """

    name = "persistent"
    counts_batches = True
    preemptive_timeout = True
    orphans_on_cancel = False

    #: Seconds between result-queue polls (liveness checks interleave).
    _POLL = 0.05

    def __init__(
        self,
        *,
        words: np.ndarray,
        freqs: np.ndarray,
        n_samples: int,
        stat: str,
        params: BlockingParams | None,
        kernel: str,
        undefined: float,
        faults: FaultPlan | None,
        n_workers: int,
        batch_size: int,
        max_tile_elems: int,
        profile: bool,
        ctx: RetryContext,
        panel_path: str | None = None,
    ) -> None:
        self._words = words
        self._freqs = freqs
        self._n_samples = n_samples
        self._panel_path = panel_path
        self._config = (stat, params, kernel, undefined, faults, profile)
        self._profile = profile
        self._faults = faults
        self._ctx = ctx
        self._n_workers = n_workers
        self._slot_elems = batch_size * max_tile_elems
        # One outstanding batch per worker under a timeout (a watchdog
        # kill must have no collateral); two otherwise so the queue hides
        # dispatch latency.
        self._max_per_worker = 1 if ctx.tile_timeout is not None else 2
        self._pool: PersistentPool | None = None
        self._outstanding: dict[int, BatchHandle] = {}
        self._loads: dict[int, int] = {}
        #: Workers that already hold this run's config (resent after a
        #: respawn, and never assumed from a previous run).
        self._configured: set[int] = set()
        self._poller = None
        self._fd_map: dict[int, int] = {}
        self._spawn_index = 0
        self.spawns_this_run = 0
        self.respawns_this_run = 0

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
                if self._faults is not None:
                    self._faults.fire("pool_spawn", (-1, -1), index)
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
        # Workers killed between runs (chaos, `repro pool stop` from
        # outside) are respawned here — the pool object survives.
        respawned = self._pool.ensure_workers()
        for _ in range(respawned):
            self.respawns_this_run += 1
            self._ctx.note_worker_respawn(-1)
        self._loads = {i: 0 for i in range(self._n_workers)}
        self._configured = set()
        self._rebuild_poller()

    def shutdown(self) -> None:
        """End of run: leave the pool warm, release only run-local state."""
        if self._pool is not None:
            self._pool.last_used = time.monotonic()
            self._pool.in_use = max(0, self._pool.in_use - 1)
            self._pool = None
        self._outstanding = {}
        self._loads = {}
        self._poller = None
        self._fd_map = {}

    def _rebuild_poller(self) -> None:
        """(Re)register every live reply pipe with one reusable poller.

        ``multiprocessing.connection.wait`` builds a fresh selector on
        every call; at warm-dispatch latencies that construction is a
        measurable fraction of a whole batch, so the backend keeps a
        single ``select.poll`` for the run and re-registers only when a
        respawn replaces a worker's pipes (``wait`` remains the
        fallback where ``select.poll`` does not exist).
        """
        self._fd_map = {}
        if not hasattr(select, "poll"):  # pragma: no cover - non-POSIX
            self._poller = None
            return
        self._poller = select.poll()
        for index, conn in enumerate(self._pool.result_conns):
            if conn is not None and not conn.closed:
                self._poller.register(conn.fileno(), select.POLLIN)
                self._fd_map[conn.fileno()] = index

    def _ready_conns(self, timeout_s: float) -> list:
        """Reply pipes with data (or a hangup) ready, within *timeout_s*."""
        if self._poller is None:  # pragma: no cover - non-POSIX fallback
            conns = [
                c for c in self._pool.result_conns
                if c is not None and not c.closed
            ]
            return mp_connection.wait(conns, timeout=timeout_s) if conns else []
        ready = []
        millis = int(timeout_s * 1000 + 0.999) if timeout_s > 0 else 0
        for fd, _events in self._poller.poll(millis):
            index = self._fd_map.get(fd)
            if index is None:  # pragma: no cover - stale fd after respawn
                continue
            conn = self._pool.result_conns[index]
            if conn is not None and not conn.closed:
                ready.append(conn)
        return ready

    # -- dispatch ----------------------------------------------------------

    def submit_batch(
        self, unit: tuple[TileTask, ...], epochs: tuple[int, ...]
    ) -> BatchHandle | None:
        worker = self._pick_worker()
        if worker is None:
            return None
        slot = self._pool.arena.acquire()
        if slot is None:
            return None
        batch_id = next(self._pool.batch_ids)
        conn = self._pool.task_conns[worker]
        config = None if worker in self._configured else self._config
        with span("driver.enqueue"):
            try:
                conn.send((batch_id, unit, epochs, slot, config))
            except (BrokenPipeError, OSError):
                # The worker died under us; hand the slot back and let
                # drain's liveness sweep (or the next start) respawn it.
                self._pool.arena.release(slot)
                return None
        self._configured.add(worker)
        handle = BatchHandle(
            unit=unit, epochs=epochs, started=time.perf_counter(),
            batch_id=batch_id, slot=slot, worker=worker,
        )
        self._outstanding[batch_id] = handle
        self._loads[worker] += 1
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

    def drain(self, timeout: float | None) -> list[BatchDone]:
        completed: list[BatchDone] = []
        deadline = (
            None if timeout is None else time.perf_counter() + timeout
        )
        while True:
            slice_s = self._POLL
            if deadline is not None:
                slice_s = min(slice_s, max(0.0, deadline - time.perf_counter()))
            ready = self._ready_conns(slice_s)
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
                    # sweep below turns that into a charged batch.
                    pass
            if not ready or not completed:
                completed.extend(self._collect_dead())
            if completed:
                return completed
            if deadline is not None and time.perf_counter() >= deadline:
                return completed

    def _admit(self, message) -> BatchDone | None:
        """Match one reply to an in-flight handle; drop stale replies."""
        batch_id, worker, outcome, error, idle_seconds = message
        handle = self._outstanding.pop(batch_id, None)
        if handle is None:
            # A reply from a batch this run no longer tracks (aborted
            # round, watchdog kill that lost the race). Its slot has
            # already been recycled; CRC verification covers any writer
            # race on the arena bytes.
            return None
        if worker in self._loads:
            self._loads[worker] = max(0, self._loads[worker] - 1)
        if (
            idle_seconds > 0
            and self._profile
            and self._ctx.recorder is not None
        ):
            self._ctx.recorder.observe_time("phase.worker.idle", idle_seconds)
        return BatchDone(handle=handle, outcome=outcome, error=error)

    def _collect_dead(self) -> list[BatchDone]:
        """Turn dead workers into charged batches + single respawns."""
        lost: list[BatchDone] = []
        respawned = False
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
                self._outstanding.pop(handle.batch_id, None)
                lost.append(BatchDone(handle=handle, outcome=None, error=error))
            self._pool.respawn(index)
            self._loads[index] = 0
            self._configured.discard(index)
            respawned = True
            self.respawns_this_run += 1
            self._ctx.note_worker_respawn(index)
        if respawned:
            self._rebuild_poller()
        return lost

    def cancel_overdue(self, handles: list[BatchHandle]) -> None:
        """Watchdog: kill only the stuck workers, respawn them in place."""
        killed: set[int] = set()
        for handle in handles:
            self._outstanding.pop(handle.batch_id, None)
            self._pool.arena.release(handle.slot)
            if handle.worker in killed:
                continue  # pragma: no cover - one outstanding under timeout
            killed.add(handle.worker)
            self._pool.respawn(handle.worker)
            self._loads[handle.worker] = 0
            self._configured.discard(handle.worker)
            self.respawns_this_run += 1
            self._ctx.note_worker_respawn(handle.worker)
        if killed:
            self._rebuild_poller()

    def materialize(self, handle: BatchHandle, item: _TileOutcome) -> TileResult:
        arena = self._pool.arena
        block = arena.read(handle.slot, item.arena_offset, item.shape)
        return _with_block(item.result, block)

    def release(self, handle: BatchHandle) -> None:
        self._pool.arena.release(handle.slot)

    def finish_run(self, *, abandoned: bool) -> None:
        """End of one scheduling round: abort whatever is still in flight.

        On a clean round nothing is outstanding and this only drains
        stale replies. On an exception escape (a crashing sink, an
        injected torn-manifest crash) the workers holding outstanding
        batches are killed and respawned — deterministic, and it
        guarantees no stale writer touches an arena slot the next round
        hands out.
        """
        if self._pool is None:  # pragma: no cover - defensive
            return
        if self._outstanding:
            for index in {
                h.worker for h in self._outstanding.values()
            }:
                self._pool.respawn(index)
                self._loads[index] = 0
                self._configured.discard(index)
            for handle in self._outstanding.values():
                self._pool.arena.release(handle.slot)
            self._outstanding = {}
            self._rebuild_poller()
        # Drop any replies already buffered from batches this round no
        # longer tracks (a respawn closed the aborted workers' pipes,
        # so only already-delivered stragglers can remain).
        for conn in self._ready_conns(0):
            try:
                while True:
                    conn.recv()
                    if not conn.poll(0):
                        break
            except (EOFError, OSError):  # pragma: no cover - dying worker
                pass


# ---------------------------------------------------------------------------
# Persistent-pool registry: keyed by panel, LRU-capped, idle-reaped.
# ---------------------------------------------------------------------------

_POOLS: "OrderedDict[str, PersistentPool]" = OrderedDict()
_POOLS_LOCK = threading.RLock()
_REAPER: threading.Thread | None = None
_ATEXIT_INSTALLED = False


def _max_pools() -> int:
    try:
        return max(1, int(os.environ.get("REPRO_POOL_MAX", "2")))
    except ValueError:  # pragma: no cover - bad env
        return 2


def _idle_timeout() -> float:
    try:
        return max(1.0, float(os.environ.get("REPRO_POOL_IDLE_TIMEOUT", "300")))
    except ValueError:  # pragma: no cover - bad env
        return 300.0


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
        _state_record(pool)
        while len(_POOLS) > _max_pools():
            oldest = next(iter(_POOLS))
            if oldest == key:  # pragma: no cover - cap >= 1 keeps newest
                break
            _drop_pool_locked(oldest)
        _install_atexit()
        _ensure_reaper()
        return pool


def _drop_pool_locked(key: str) -> None:
    pool = _POOLS.pop(key, None)
    if pool is None:
        return
    try:
        pool.stop()
    finally:
        _state_forget(key)


def _reap_locked(now: float | None = None) -> int:
    now = time.monotonic() if now is None else now
    idle = _idle_timeout()
    stale = [
        key for key, pool in _POOLS.items()
        if pool.in_use == 0 and now - pool.last_used > idle
    ]
    for key in stale:
        _drop_pool_locked(key)
    return len(stale)


def reap_idle_pools() -> int:
    """Stop warm pools idle past ``REPRO_POOL_IDLE_TIMEOUT``; return count."""
    with _POOLS_LOCK:
        return _reap_locked()


def _reaper_loop() -> None:
    while True:
        time.sleep(max(1.0, _idle_timeout() / 4.0))
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


def stop_pools(key: str | None = None, *, cross_process: bool = False) -> int:
    """Stop warm pools; returns how many were stopped.

    With *key* only that pool is stopped; otherwise all of them. With
    ``cross_process=True`` pools journaled to the state file by *other*
    processes are also torn down (worker pids killed, segments
    unlinked) — the ``repro pool stop`` path for leaked or orphaned
    pools.
    """
    stopped = 0
    with _POOLS_LOCK:
        targets = [key] if key is not None else list(_POOLS)
        for target in targets:
            if target in _POOLS:
                _drop_pool_locked(target)
                stopped += 1
    if cross_process:
        stopped += _state_stop_foreign(key)
    return stopped


# ---------------------------------------------------------------------------
# On-disk pool state: lets `repro pool list/stop` see other processes.
# ---------------------------------------------------------------------------


def _state_path() -> Path:
    override = os.environ.get("REPRO_POOL_STATE")
    if override:
        return Path(override)
    uid = getattr(os, "getuid", lambda: "na")()
    return Path(tempfile.gettempdir()) / f"repro-pools-{uid}.json"


def _state_update(mutate) -> list[dict]:
    """Locked read-modify-write of the pool state file (best effort)."""
    path = _state_path()
    try:
        with open(path, "a+", encoding="utf-8") as fh:
            try:
                import fcntl

                fcntl.flock(fh, fcntl.LOCK_EX)
            except (ImportError, OSError):  # pragma: no cover - non-POSIX
                pass
            fh.seek(0)
            raw = fh.read()
            try:
                entries = json.loads(raw) if raw.strip() else []
            except ValueError:
                entries = []
            entries = mutate(entries)
            fh.seek(0)
            fh.truncate()
            json.dump(entries, fh, indent=0)
        return entries
    except OSError:  # pragma: no cover - unwritable tempdir
        return []


def _state_record(pool: PersistentPool) -> None:
    entry = {
        "key": pool.key,
        "owner_pid": os.getpid(),
        # Wall clock for humans; the monotonic stamp (CLOCK_MONOTONIC is
        # system-wide on Linux, so other processes can subtract it from
        # their own time.monotonic()) for age math that survives
        # wall-clock jumps.
        "created": pool.created,
        "created_monotonic": pool.created_monotonic,
        "n_workers": pool.n_workers,
        "worker_pids": pool.pids,
        "panel_shm": pool.panel_shm.name if pool.panel_shm else None,
        "arena_shm": pool.arena.name,
    }

    def mutate(entries: list[dict]) -> list[dict]:
        entries = [
            e for e in entries
            if not (e.get("key") == pool.key
                    and e.get("owner_pid") == os.getpid())
        ]
        entries.append(entry)
        return entries

    _state_update(mutate)


def _state_forget(key: str) -> None:
    def mutate(entries: list[dict]) -> list[dict]:
        return [
            e for e in entries
            if not (e.get("key") == key and e.get("owner_pid") == os.getpid())
        ]

    _state_update(mutate)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-user pid
        return True
    except OSError as error:  # pragma: no cover - exotic errnos
        return error.errno != errno.ESRCH
    return True


def pool_status() -> list[dict]:
    """Every journaled pool (this process and others), liveness-annotated."""
    entries = _state_update(lambda e: e)
    status = []
    for entry in entries:
        owner = int(entry.get("owner_pid", -1))
        workers = [int(p) for p in entry.get("worker_pids", [])]
        status.append(
            {
                **entry,
                "owner_alive": _pid_alive(owner),
                "workers_alive": sum(1 for p in workers if _pid_alive(p)),
                "own": owner == os.getpid(),
            }
        )
    return status


def _state_stop_foreign(key: str | None) -> int:
    """Tear down pools journaled by other processes (or dead owners)."""
    import signal

    stopped = 0
    remaining: list[dict] = []
    entries = _state_update(lambda e: e)
    for entry in entries:
        owner = int(entry.get("owner_pid", -1))
        if owner == os.getpid():
            # Live entries for this process are managed by the registry;
            # anything still listed here was already stopped above.
            if entry.get("key") in _POOLS:
                remaining.append(entry)
            continue
        if key is not None and entry.get("key") != key:
            remaining.append(entry)
            continue
        for pid in entry.get("worker_pids", []):
            pid = int(pid)
            if _pid_alive(pid):
                try:
                    os.kill(pid, signal.SIGTERM)
                except OSError:  # pragma: no cover - raced exit
                    pass
        for name in (entry.get("panel_shm"), entry.get("arena_shm")):
            if not name:
                continue
            try:
                seg = shared_memory.SharedMemory(name=name)
                _close_and_unlink(seg)
            except FileNotFoundError:
                pass
            except OSError:  # pragma: no cover - raced unlink
                pass
        stopped += 1
    _state_update(lambda _e: remaining)
    return stopped


# ---------------------------------------------------------------------------
# The generic dispatch loop.
# ---------------------------------------------------------------------------


def drive(
    backend: ExecutorBackend,
    tiles: list[TileTask],
    ctx: RetryContext,
    *,
    batch_size: int = 1,
) -> tuple[int, int]:
    """Drive batched tile units through *backend* with retry and watchdog.

    Tiles are dispatched ``batch_size`` per unit (amortizing dispatch
    overhead); each unit reports per-tile outcomes, so a failing tile is
    charged an attempt and resubmitted as a singleton while its
    batch-mates land normally. Past ``max_retries`` a tile is
    quarantined (when allowed) or the run aborts with the original
    error. When the pool cannot be started within the retry budget,
    :class:`ExecutorBroken` escapes so the caller can degrade to a
    simpler executor. Returns ``(retries, units_submitted)``.

    The watchdog: with ``ctx.tile_timeout`` set and a backend that
    supports preemption, a unit running past its wall-clock budget is
    cancelled via ``backend.cancel_overdue`` — SIGKILL + single respawn
    for persistent workers, orphaning for threads — and its tiles are
    charged a timeout.
    """
    retries = 0
    submissions = 0
    resets = 0
    attempts = dict.fromkeys(tiles, 0)
    pending = set(tiles)
    order = list(tiles)

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
        delay = ctx.backoff_seconds(tile.key, attempts[tile])
        if delay > 0:
            with span("driver.backoff"):
                time.sleep(delay)
        requeue.append((tile,))

    while pending:
        try:
            backend.start()
        except Exception as error:
            resets += 1
            ctx.note_spawn_failure(error)
            if resets > ctx.max_retries:
                raise ExecutorBroken(error) from error
            continue
        queue = _chunk_batches(order, pending, batch_size)
        inflight: set[BatchHandle] = set()
        # Completed units not yet released (they may hold arena slots).
        drained: deque[BatchDone] = deque()
        abandoned = False

        def try_submit(unit: tuple[TileTask, ...]) -> bool:
            nonlocal submissions
            epochs = tuple(attempts[t] + resets for t in unit)
            handle = backend.submit_batch(unit, epochs)
            if handle is None:
                return False
            inflight.add(handle)
            submissions += 1
            return True

        def pump() -> None:
            while queue and try_submit(queue[0]):
                queue.popleft()

        try:
            pump()
            while inflight or queue:
                if not inflight:
                    pump()
                    if not inflight:  # pragma: no cover - defensive
                        break
                slack = None
                if (
                    ctx.tile_timeout is not None
                    and backend.preemptive_timeout
                ):
                    now = time.perf_counter()
                    overdue = [
                        h for h in inflight
                        if now - h.started >= ctx.tile_timeout
                    ]
                    if overdue:
                        backend.cancel_overdue(overdue)
                        abandoned = abandoned or backend.orphans_on_cancel
                        for handle in overdue:
                            inflight.discard(handle)
                            for tile in handle.unit:
                                if tile in pending:
                                    handle_failure(
                                        tile,
                                        TileTimeoutError(
                                            f"tile {tile.key} exceeded the "
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
                    handle = done.handle
                    inflight.discard(handle)
                    if done.error is not None:
                        for tile in handle.unit:
                            if tile in pending:
                                handle_failure(tile, done.error, queue)
                    else:
                        for item in done.outcome.items:
                            tile = handle.unit[item.index]
                            if tile not in pending:
                                continue
                            if item.error is not None:
                                handle_failure(tile, item.error, queue)
                                continue
                            result = backend.materialize(handle, item)
                            try:
                                ctx.verify(tile, result)
                            except TileCorruptionError as corrupt:
                                handle_failure(tile, corrupt, queue)
                                continue
                            # An arena-backed block is only valid until
                            # the slot is released; deliver consumes it
                            # now.
                            ctx.deliver(tile, result)
                            pending.discard(tile)
                    backend.release(drained.popleft().handle)
                    pump()
        finally:
            # A raising sink, an exhausted retry or an injected crash
            # skips the releases above; a warm pool outlives the run, so
            # the slots of every drained unit must go back here.
            for done in drained:
                backend.release(done.handle)
            backend.finish_run(abandoned=abandoned)
    return retries, submissions
