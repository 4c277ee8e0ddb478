"""Double-buffered panel prefetching for out-of-core LD sweeps.

The out-of-core pipeline follows Fabregat-Traver & Bientinesi ("Computing
Petaflops over Terabytes of Data") and Beyer & Bientinesi ("Streaming
Data from HDD to GPUs", both in PAPERS.md): a panel far larger than RAM
is sliced into SNP-row *windows*, tiles are reordered *panel-major* so
every loaded window is fully consumed before it is evicted, and a
background thread loads the next window pair from disk while the fused
GEMM computes against the current one — double buffering that hides disk
latency behind compute, with any residual exposed I/O measured as stall
time instead of silently inflating "compute".

:class:`PanelPrefetcher` feeds the serial and threads engines. Windows
are explicit driver-RAM buffers under a hard byte budget. Consumers
``acquire(tile)`` an atomic view over the tile's A/B windows (blocking —
and recording ``io.wait`` stall time — only when the loader has not
stayed ahead) and ``release(tile)`` when done; eviction prefers
fully-consumed windows, so the budget is a real ceiling on resident
panel bytes (``peak_resident_bytes`` proves it). Process-pool workers
map the store by path instead, so on the persistent engine the budget
only orders tiles panel-major.

As in those staged-read pipelines, a read's failure is charged to the
work it feeds: a failed window read frees the window's reserved bytes,
the loader moves on, and an ``acquire`` whose own read fails raises the
error to its tile, which the engine's dispatch loop retries or
quarantines like any other tile failure. The ``prefetch`` fault site's
attempt number is the window's count of failed reads, so a plan fires
the same way whichever thread reads.

Every disk read records an ``io.prefetch`` span and
``prefetch.bytes_read``; consumer stalls record ``io.wait`` and
``prefetch.stall_seconds``, which the run report uses to flag I/O-bound
runs.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.engine import TileTask
from repro.faults import FaultPlan
from repro.observe.spans import span

if TYPE_CHECKING:
    from repro.io.panelstore import PanelStore
    from repro.observe.metrics import MetricsRecorder

__all__ = [
    "PanelPrefetcher",
    "PanelWindow",
    "min_memory_budget",
    "order_panel_major",
    "plan_windows",
]

#: Windows the planner aims to keep resident at once: the A/B pair under
#: compute plus the double-buffered next pair.
_TARGET_RESIDENT = 4
#: A dense sweep needs the current A/B pair plus one window in flight.
_MIN_RESIDENT = 3
#: A banded sweep only touches window pairs that meet the band, so its
#: frontier never strays far from the diagonal: the A/B pair alone is
#: enough to make progress (the next load stages as soon as either is
#: released; an occasional reload of a hot window is counted, not fatal).
_MIN_RESIDENT_BANDED = 2
#: Failed reads of one window in a row after which the loader stops
#: reading it, until a consumer's inline read of it succeeds.
_LOADER_READ_FAILURES = 2


@dataclass(frozen=True)
class PanelWindow:
    """One contiguous run of SNP rows, the unit of disk I/O and eviction."""

    index: int
    start: int
    stop: int

    @property
    def rows(self) -> int:
        return self.stop - self.start


def min_memory_budget(
    block_snps: int, row_nbytes: int, *, banded: bool = False
) -> int:
    """Smallest workable prefetch budget for the given geometry.

    Banded sweeps get a lower floor (two resident windows instead of
    three): their window-pair frontier hugs the diagonal, so the next
    load can wait for a release instead of needing a standing third slot.
    """
    resident = _MIN_RESIDENT_BANDED if banded else _MIN_RESIDENT
    return resident * block_snps * row_nbytes


def plan_windows(
    n_snps: int,
    block_snps: int,
    *,
    row_nbytes: int,
    memory_budget: int,
    banded: bool = False,
) -> tuple[list[PanelWindow], int]:
    """Slice *n_snps* rows into equal windows fitting *memory_budget*.

    Window height is a multiple of ``block_snps`` (so a tile never
    straddles a window boundary) and is sized so ``_TARGET_RESIDENT``
    windows fit the budget. Returns ``(windows, window_rows)``. A budget
    that cannot hold even ``_MIN_RESIDENT`` single-block windows raises:
    out-of-core execution needs two resident panels plus one in flight.
    With ``banded=True`` the floor drops to ``_MIN_RESIDENT_BANDED``
    windows — band-pruned sweeps stay near the diagonal, so an A/B pair
    alone keeps the pipeline moving.
    """
    if n_snps < 0:
        raise ValueError(f"n_snps must be non-negative, got {n_snps}")
    if block_snps < 1:
        raise ValueError(f"block_snps must be >= 1, got {block_snps}")
    if row_nbytes < 1:
        raise ValueError(f"row_nbytes must be positive, got {row_nbytes}")
    floor = min_memory_budget(block_snps, row_nbytes, banded=banded)
    min_resident = _MIN_RESIDENT_BANDED if banded else _MIN_RESIDENT
    if memory_budget < floor:
        raise ValueError(
            f"memory budget {memory_budget} bytes cannot hold "
            f"{min_resident} windows of {block_snps} packed SNP rows "
            f"({floor} bytes); raise the budget or lower block_snps"
        )
    per_window = memory_budget // (_TARGET_RESIDENT * row_nbytes)
    window_rows = max(block_snps, per_window // block_snps * block_snps)
    windows = [
        PanelWindow(index=i, start=start, stop=min(start + window_rows, n_snps))
        for i, start in enumerate(range(0, n_snps, window_rows))
    ]
    return windows, window_rows


def order_panel_major(
    tiles: list[TileTask], window_rows: int
) -> list[TileTask]:
    """Reorder tiles so each window pair is fully consumed before moving on.

    Sorts by ``(A-window, B-window)`` of each tile, row-major within the
    pair — the classic out-of-core triangular sweep: the A window stays
    resident for its whole stripe while B windows stream past. Tiles
    straddling a window boundary are rejected (they would need two A or
    two B windows resident at once, breaking the budget math).
    """
    for tile in tiles:
        wi, wj = tile.i0 // window_rows, tile.j0 // window_rows
        if tile.i1 > (wi + 1) * window_rows or tile.j1 > (wj + 1) * window_rows:
            raise ValueError(
                f"tile {tile} straddles a {window_rows}-row window "
                "boundary; window_rows must be a multiple of the tile size"
            )
    return sorted(
        tiles,
        key=lambda t: (
            t.i0 // window_rows,
            t.j0 // window_rows,
            t.i0,
            t.j0,
        ),
    )


class _PanelView:
    """Absolute-row slicing over the resident windows of one tile.

    Duck-types the only operation :func:`repro.core.engine.compute_tile`
    performs on the words array — ``words[i0:i1]`` — resolving absolute
    SNP-row slices against the window buffers holding them, so the
    compute path is byte-identical in-core and out-of-core.
    """

    __slots__ = ("_spans",)

    def __init__(self, spans: list[tuple[int, int, np.ndarray]]) -> None:
        self._spans = spans

    def __getitem__(self, key: slice) -> np.ndarray:
        start, stop = key.start, key.stop
        for wstart, wstop, buf in self._spans:
            if wstart <= start and stop <= wstop:
                return buf[start - wstart : stop - wstart]
        raise IndexError(
            f"rows [{start}, {stop}) not resident in this tile's windows"
        )


class PanelPrefetcher:
    """Double buffering: budgeted windows + a loader thread.

    The loader walks the panel-major tile order at most one window pair
    ahead of the consumers' ``acquire`` frontier, reading windows from
    the store under ``io.prefetch`` spans. ``acquire(tile)`` returns an
    atomic view over both of the tile's windows — on the fast path the
    loader has already staged them and no lock is waited on; on the slow
    path the caller loads inline, and the time spent is recorded as
    ``io.wait`` / ``prefetch.stall_seconds`` (the number the roofline
    report flags I/O-bound runs by).

    Deadlock-free by construction: ``acquire`` takes references on both
    windows or none, so every blocked thread holds zero references and
    eviction can always make progress; the budget floor of three windows
    guarantees an A/B pair plus one load in flight always fit.

    A failed read holds nothing: the window's reserved bytes are freed,
    the loader skips it, and a consumer that needs it reads it inline —
    raising the read's error from ``acquire`` if that read fails too.
    Each failure bumps the window's failed-read count, the attempt
    number of the ``prefetch`` fault site. After two failed reads in a
    row the loader leaves the window to the consumers' inline reads
    until one of them succeeds: one transient failure still gets a
    loader retry, a window that recovers is read ahead again, and a
    window that never reads is not re-read ahead of every tile that
    touches it.
    """

    def __init__(
        self,
        store: "PanelStore",
        tiles: list[TileTask],
        *,
        block_snps: int,
        memory_budget: int,
        faults: FaultPlan | None = None,
        recorder: "MetricsRecorder | None" = None,
        banded: bool = False,
    ) -> None:
        self._store = store
        self._row_nbytes = store.row_nbytes
        self._budget = memory_budget
        self._faults = faults
        self._recorder = recorder
        self.windows, self._window_rows = plan_windows(
            store.n_snps,
            block_snps,
            row_nbytes=store.row_nbytes,
            memory_budget=memory_budget,
            banded=banded,
        )
        self.order = order_panel_major(tiles, self._window_rows)
        self._order_index = {t.key: i for i, t in enumerate(self.order)}
        # Loader look-ahead: the tiles of one full window pair — "load
        # the next pair while the current one computes", no further.
        blocks_per_window = max(1, self._window_rows // block_snps)
        self._ahead_tiles = blocks_per_window * blocks_per_window

        self._cond = threading.Condition()
        self._buffers: dict[int, np.ndarray] = {}
        self._loading: set[int] = set()
        self._refs: dict[int, int] = {}
        self._uses = [0] * len(self.windows)
        for tile in self.order:
            for w in self._tile_windows(tile):
                self._uses[w] += 1
        self._failed_reads = [0] * len(self.windows)
        self._failed_in_a_row = [0] * len(self.windows)
        self._touched: set[int] = set()
        self._wanted: dict[int, int] = {}
        #: Blocked acquirers by panel-major order index -> needed windows.
        #: Eviction never touches the earliest waiter's windows, and no
        #: load takes the room its missing windows need, so the frontier
        #: tile always completes — concurrent consumers cannot livelock by
        #: evicting each other's loads under a tight budget.
        self._waiters: dict[int, tuple[int, ...]] = {}
        self._clock = 0
        self._lru: dict[int, int] = {}
        self._acquired = 0
        self._resident_bytes = 0
        self._closed = False

        self.peak_resident_bytes = 0
        self.bytes_read = 0
        self.stall_seconds = 0.0
        self.reloads = 0

        self._loader = threading.Thread(
            target=self._loader_main, name="repro-prefetch", daemon=True
        )
        self._loader.start()

    # -- consumer side -----------------------------------------------------

    def acquire(self, tile: TileTask) -> _PanelView:
        """Block until both of *tile*'s windows are resident; pin and view.

        All-or-nothing: references on the A and B windows are taken under
        one lock pass, never one without the other. A window read that
        fails here raises its error, and no reference is held.
        """
        needed = self._tile_windows(tile)
        order_idx = self._order_index.get(tile.key)
        with self._cond:
            self._raise_if_closed()
            self._acquired += 1
            self._cond.notify_all()
            if all(w in self._buffers for w in needed):
                return self._pin(needed)
            for w in needed:
                self._wanted[w] = self._wanted.get(w, 0) + 1
            if order_idx is not None:
                self._waiters[order_idx] = needed
        stall_start = time.perf_counter()
        try:
            with span("io.wait"):
                while True:
                    for w in needed:
                        self._ensure_resident(w, prefetch=False)
                    with self._cond:
                        self._raise_if_closed()
                        if all(w in self._buffers for w in needed):
                            return self._pin(needed)
        finally:
            with self._cond:
                if order_idx is not None:
                    self._waiters.pop(order_idx, None)
                for w in needed:
                    if self._wanted.get(w, 0) <= 1:
                        self._wanted.pop(w, None)
                    else:
                        self._wanted[w] -= 1
                self._cond.notify_all()
            stall = time.perf_counter() - stall_start
            self.stall_seconds += stall
            if self._recorder is not None:
                self._recorder.observe_time("prefetch.stall_seconds", stall)

    def release(self, tile: TileTask) -> None:
        """Drop the references ``acquire`` took and count the tile done."""
        with self._cond:
            for w in self._tile_windows(tile):
                self._refs[w] = max(0, self._refs.get(w, 0) - 1)
                self._uses[w] = max(0, self._uses[w] - 1)
            self._cond.notify_all()

    def close(self) -> None:
        """Stop the loader and free every window buffer (idempotent)."""
        with self._cond:
            self._closed = True
            self._buffers.clear()
            self._refs.clear()
            self._resident_bytes = 0
            self._cond.notify_all()
        self._loader.join(timeout=5.0)

    def __enter__(self) -> "PanelPrefetcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- internals ---------------------------------------------------------

    def _tile_windows(self, tile: TileTask) -> tuple[int, ...]:
        wi = tile.i0 // self._window_rows
        wj = tile.j0 // self._window_rows
        return (wi,) if wi == wj else (wi, wj)

    def _raise_if_closed(self) -> None:
        if self._closed:
            raise RuntimeError("panel prefetcher is closed")

    def _pin(self, needed: tuple[int, ...]) -> _PanelView:
        """Take references and build the view (caller holds the lock)."""
        spans = []
        for w in needed:
            self._refs[w] = self._refs.get(w, 0) + 1
            self._touched.add(w)
            self._clock += 1
            self._lru[w] = self._clock
            win = self.windows[w]
            spans.append((win.start, win.stop, self._buffers[w]))
        return _PanelView(spans)

    def _window_nbytes(self, w: int) -> int:
        return self.windows[w].rows * self._row_nbytes

    def _frontier_shortfall(self, w: int) -> int:
        """Bytes the earliest blocked acquirer still needs besides *w*.

        Its windows that are neither resident nor being loaded (lock
        held). A load must leave room for them: protecting the frontier's
        resident windows is not enough once other consumers' in-flight
        loads hold the rest of the budget, because those consumers then
        evict each other's windows forever while the frontier waits.
        """
        if not self._waiters:
            return 0
        return sum(
            self._window_nbytes(v)
            for v in self._waiters[min(self._waiters)]
            if v != w and v not in self._buffers and v not in self._loading
        )

    def _evict_for(self, nbytes: int, *, loader: bool) -> bool:
        """Free refs-zero windows until *nbytes* fit (lock held).

        The loader may only evict consumed or already-served windows — a
        staged-but-unread window is exactly the double buffer, and
        evicting it to stage another would ping-pong under tight
        budgets. Inline (consumer) loads may evict any unreferenced
        window, preferring consumed, then already-served, then LRU, and
        leave windows another ``acquire`` is blocked on for last.
        """
        while self._resident_bytes + nbytes > self._budget:
            candidates = [
                w
                for w in self._buffers
                if self._refs.get(w, 0) == 0
                and (self._uses[w] <= 0 or w in self._touched)
            ]
            if not loader:
                # The earliest blocked acquirer's windows are off-limits
                # to every evictor: the frontier tile always finishes, so
                # concurrent consumers under a tight budget make global
                # progress instead of evicting each other's loads forever.
                protected: tuple[int, ...] = ()
                if self._waiters:
                    protected = self._waiters[min(self._waiters)]
                spare = [
                    w
                    for w in self._buffers
                    if self._refs.get(w, 0) == 0 and w not in candidates
                ]
                unwanted = [w for w in candidates if w not in self._wanted]
                candidates = (
                    [w for w in unwanted if w not in protected]
                    or [w for w in candidates if w not in protected]
                    or [w for w in spare if w not in protected]
                )
            else:
                candidates = [w for w in candidates if w not in self._wanted]
            if not candidates:
                return False
            victim = min(
                candidates,
                key=lambda w: (self._uses[w] > 0, self._lru.get(w, 0)),
            )
            del self._buffers[victim]
            self._refs.pop(victim, None)
            self._resident_bytes -= self._window_nbytes(victim)
            self._cond.notify_all()
        return True

    def _ensure_resident(self, w: int, *, prefetch: bool) -> None:
        """Load window *w* unless already resident (or being loaded).

        In prefetch mode the loader never waits on another thread's load
        and never evicts the double buffer, and a failed read only frees
        the reservation; in inline mode the consumer waits for whatever
        space or load it needs, and a failed read raises.
        """
        nbytes = self._window_nbytes(w)
        while True:
            with self._cond:
                if self._closed:
                    return
                if prefetch and self._failed_in_a_row[w] >= _LOADER_READ_FAILURES:
                    return
                if w in self._buffers:
                    self._clock += 1
                    self._lru[w] = self._clock
                    return
                if w in self._loading:
                    if prefetch:
                        return
                    self._cond.wait(0.1)
                    continue
                if self._evict_for(
                    nbytes + self._frontier_shortfall(w), loader=prefetch
                ):
                    self._loading.add(w)
                    # Reserve the window's bytes while the read is in
                    # flight: a loader prefetch and an inline consumer
                    # load running concurrently must not each pass the
                    # budget check against the same resident total and
                    # jointly overshoot it.
                    self._resident_bytes += nbytes
                    self.peak_resident_bytes = max(
                        self.peak_resident_bytes, self._resident_bytes
                    )
                    attempt = self._failed_reads[w]
                    break
                self._cond.wait(0.1)
        try:
            data = self._read_window(self.windows[w], attempt)
        except Exception:
            with self._cond:
                self._loading.discard(w)
                self._failed_reads[w] += 1
                self._failed_in_a_row[w] += 1
                if not self._closed:
                    self._resident_bytes -= nbytes
                self._cond.notify_all()
            if not prefetch:
                raise
            return
        with self._cond:
            self._loading.discard(w)
            self._failed_in_a_row[w] = 0
            if self._closed:
                return
            self._buffers[w] = data
            if w in self._touched:
                self.reloads += 1
                if self._recorder is not None:
                    self._recorder.inc("prefetch.reloads")
            self._clock += 1
            self._lru[w] = self._clock
            self._cond.notify_all()

    def _read_window(self, window: PanelWindow, attempt: int) -> np.ndarray:
        """One disk read, with the ``prefetch`` fault site applied.

        *attempt* is the window's failed-read count; a ``delay`` action
        sleeps inside ``fire`` and simply surfaces as prefetch latency.
        """
        if self._faults is not None:
            self._faults.fire("prefetch", (window.start, window.stop), attempt)
        with span("io.prefetch"):
            data = self._store.read_rows(window.start, window.stop)
        self.bytes_read += data.nbytes
        if self._recorder is not None:
            self._recorder.inc("prefetch.bytes_read", int(data.nbytes))
        return data

    def _loader_main(self) -> None:
        for index, tile in enumerate(self.order):
            with self._cond:
                while (
                    not self._closed
                    and index > self._acquired + self._ahead_tiles
                ):
                    self._cond.wait(0.1)
                if self._closed:
                    return
            for w in self._tile_windows(tile):
                self._ensure_resident(w, prefetch=True)

