"""Hierarchical span profiler: phase-level attribution for the hot paths.

The run-level counters of :mod:`repro.observe.metrics` answer *how fast*
a run was; they cannot say *where* the cycles went — whether the fused
GEMM loses time packing operands, in the bit-plane matmul, mirroring, or
in the driver's dispatch/deliver machinery. PLINK 2 and the
GWAS-at-scale pipelines of Fabregat-Traver & Bientinesi both sustain
hardware speed by exactly this per-phase accounting; this module is that
measurement layer.

Design constraints, in order:

1. **Near-zero overhead when disabled.** The hot layers call the
   module-level :func:`span` helper, which dispatches to the installed
   profiler. The default is :data:`NULL_PROFILER`, a stateless no-op
   singleton whose ``span()`` returns one reusable null context manager
   — the disabled cost is a global load, a method call, and an empty
   ``with`` block per *phase* (a handful per cache block, never per
   micro-tile).
2. **No hot-loop allocation when enabled.** Each thread records into
   preallocated flat numpy buffers (name id, depth, start, inclusive
   seconds, self seconds); entering a span appends to a plain-list
   stack, exiting writes one row. Overflowing the per-thread capacity
   drops spans (counted in :attr:`SpanProfiler.n_dropped`) rather than
   growing.
3. **Self-time attribution.** Every record carries both inclusive and
   *self* (exclusive) seconds — a parent's self time is its inclusive
   time minus its children's — so per-phase totals are disjoint and sum
   to the root spans' wall-clock, which is what lets the attribution
   engine (:mod:`repro.observe.report`) check coverage against each
   tile's measured compute seconds.

Worker processes cannot share the driver's profiler; each pool worker
installs its own when a run asks for profiling (see
:func:`repro.core.executors._set_worker_profile`) and ships each tile's
per-phase self-seconds back inside
:class:`~repro.core.engine.TileResult`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = [
    "NULL_PROFILER",
    "SpanProfiler",
    "SpanRecord",
    "current_profiler",
    "install_profiler",
    "profiling",
    "span",
]


@dataclass(frozen=True)
class SpanRecord:
    """One completed span: where time went, and under what parent depth."""

    name: str
    thread: str
    depth: int
    start: float
    inclusive_seconds: float
    self_seconds: float


class _NullSpan:
    """Reusable no-op context manager (the disabled ``with`` body)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _NullProfiler:
    """Stateless no-op profiler: every operation is a constant.

    Installed by default so the hot layers can call :func:`span`
    unconditionally — profiling off means this singleton, not ``None``
    checks threaded through every kernel signature.
    """

    __slots__ = ()

    enabled = False
    n_dropped = 0

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def mark(self) -> int:
        return 0

    def collect(self, mark: int) -> dict[str, float]:
        return {}

    def totals(self) -> dict[str, dict]:
        return {}

    def records(self) -> list[SpanRecord]:
        return []


#: The shared disabled singleton (identity-comparable).
NULL_PROFILER = _NullProfiler()


class _ThreadBuffer:
    """One thread's preallocated span storage plus its open-span stack."""

    __slots__ = ("name_ids", "depths", "starts", "incl", "self_s", "pos",
                 "stack", "thread_name")

    def __init__(self, capacity: int, thread_name: str) -> None:
        self.name_ids = np.empty(capacity, dtype=np.int32)
        self.depths = np.empty(capacity, dtype=np.int32)
        self.starts = np.empty(capacity, dtype=np.float64)
        self.incl = np.empty(capacity, dtype=np.float64)
        self.self_s = np.empty(capacity, dtype=np.float64)
        self.pos = 0
        #: Open spans: [name_id, start_seconds, child_inclusive_accum].
        self.stack: list[list] = []
        self.thread_name = thread_name


class _SpanExit:
    """Context manager half of :meth:`SpanProfiler.span` (enter happened
    at the ``span()`` call itself; one shared instance per profiler)."""

    __slots__ = ("_profiler",)

    def __init__(self, profiler: "SpanProfiler") -> None:
        self._profiler = profiler

    def __enter__(self) -> "_SpanExit":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self._profiler._exit()
        return False


class SpanProfiler:
    """Hierarchical wall-clock span profiler with per-thread buffers.

    Parameters
    ----------
    capacity:
        Spans retained per thread. Overflow drops the span (counted in
        :attr:`n_dropped`); at the engine's phase granularity the default
        holds >1000 tiles per worker thread.

    Usage::

        profiler = SpanProfiler()
        with profiler.span("pack_a"):
            ...

    or, for the hot layers that must not know whether profiling is on,
    install it and use the module-level helper::

        install_profiler(profiler)
        with span("pack_a"):
            ...
    """

    enabled = True

    def __init__(self, capacity: int = 1 << 16) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.n_dropped = 0
        self.t0 = time.perf_counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._name_ids: dict[str, int] = {}
        self._names: list[str] = []
        self._buffers: list[_ThreadBuffer] = []
        self._exit_ctx = _SpanExit(self)

    # -- recording ---------------------------------------------------------

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuffer(self.capacity, threading.current_thread().name)
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._name_ids.get(name)
                if nid is None:
                    nid = len(self._names)
                    self._names.append(name)
                    self._name_ids[name] = nid
        return nid

    def span(self, name: str) -> _SpanExit:
        """Open span *name* now; close it when the returned context exits."""
        buf = self._buffer()
        buf.stack.append([self._name_id(name), time.perf_counter(), 0.0])
        return self._exit_ctx

    def _exit(self) -> None:
        end = time.perf_counter()
        buf = self._buffer()
        name_id, start, child_accum = buf.stack.pop()
        inclusive = end - start
        if buf.stack:
            buf.stack[-1][2] += inclusive
        pos = buf.pos
        if pos >= self.capacity:
            self.n_dropped += 1
            return
        buf.name_ids[pos] = name_id
        buf.depths[pos] = len(buf.stack)
        buf.starts[pos] = start - self.t0
        buf.incl[pos] = inclusive
        buf.self_s[pos] = inclusive - child_accum
        buf.pos = pos + 1

    # -- querying ----------------------------------------------------------

    def mark(self) -> int:
        """Current record position of the calling thread's buffer.

        Pass the value to :meth:`collect` to aggregate only the spans
        recorded in between (the per-tile collection window).
        """
        return self._buffer().pos

    def collect(self, mark: int) -> dict[str, float]:
        """Per-name *self* seconds recorded on this thread since *mark*.

        Self times are disjoint by construction, so the dict's values sum
        to the wall-clock covered by the root spans in the window — the
        per-tile phase breakdown shipped in ``TileResult.phase_seconds``.
        """
        buf = self._buffer()
        out: dict[str, float] = {}
        names = self._names
        for i in range(mark, buf.pos):
            name = names[buf.name_ids[i]]
            out[name] = out.get(name, 0.0) + float(buf.self_s[i])
        return out

    def totals(self) -> dict[str, dict]:
        """Aggregate over every thread: per-name seconds/count/inclusive."""
        out: dict[str, dict] = {}
        with self._lock:
            buffers = list(self._buffers)
        for buf in buffers:
            pos = buf.pos
            for i in range(pos):
                name = self._names[buf.name_ids[i]]
                entry = out.get(name)
                if entry is None:
                    entry = out[name] = {
                        "seconds": 0.0, "count": 0, "inclusive_seconds": 0.0,
                    }
                entry["seconds"] += float(buf.self_s[i])
                entry["count"] += 1
                entry["inclusive_seconds"] += float(buf.incl[i])
        return out

    def records(self) -> list[SpanRecord]:
        """Every completed span across all threads, in per-thread order."""
        out: list[SpanRecord] = []
        with self._lock:
            buffers = list(self._buffers)
        for buf in buffers:
            for i in range(buf.pos):
                out.append(SpanRecord(
                    name=self._names[buf.name_ids[i]],
                    thread=buf.thread_name,
                    depth=int(buf.depths[i]),
                    start=float(buf.starts[i]),
                    inclusive_seconds=float(buf.incl[i]),
                    self_seconds=float(buf.self_s[i]),
                ))
        return out


# ---------------------------------------------------------------------------
# The installed profiler: what the hot layers see.
# ---------------------------------------------------------------------------

_ACTIVE: SpanProfiler | _NullProfiler = NULL_PROFILER


def current_profiler() -> SpanProfiler | _NullProfiler:
    """The profiler the hot layers are currently recording into."""
    return _ACTIVE


def install_profiler(
    profiler: SpanProfiler | _NullProfiler | None,
) -> SpanProfiler | _NullProfiler:
    """Install *profiler* as the active one; returns the previous.

    ``None`` installs :data:`NULL_PROFILER` (profiling off). The engine
    installs the caller's profiler for the duration of a run and restores
    the previous one afterwards; pool workers install their own when a
    run's configuration asks for profiling.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = profiler if profiler is not None else NULL_PROFILER
    return previous


@contextmanager
def profiling(
    profiler: SpanProfiler | None = None,
) -> Iterator[SpanProfiler]:
    """Install a profiler (a fresh one by default) for the enclosed block."""
    active = profiler if profiler is not None else SpanProfiler()
    previous = install_profiler(active)
    try:
        yield active
    finally:
        install_profiler(previous)


def span(name: str):
    """Open a span on the active profiler (no-op when profiling is off)."""
    return _ACTIVE.span(name)
