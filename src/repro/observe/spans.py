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
2. **Bounded state when enabled.** Each thread keeps running totals
   per span name (self seconds, count, inclusive seconds) plus a
   plain-list stack of open spans; exiting a span adds to one totals
   row. Nothing grows with the number of spans recorded, so a profiler
   can stay on for a run of any tile count.
3. **Self-time attribution.** Every span's *self* (exclusive) seconds —
   its inclusive time minus its children's — go to its row, so
   per-phase totals are disjoint and sum to the root spans' wall-clock,
   which is what lets the run report (:mod:`repro.observe.report`)
   check coverage against each tile's measured compute seconds.

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
from typing import Iterator

__all__ = [
    "NULL_PROFILER",
    "SpanProfiler",
    "current_profiler",
    "install_profiler",
    "profiling",
    "span",
]


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

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def mark(self) -> None:
        return None

    def collect(self, mark: object) -> dict[str, float]:
        return {}

    def totals(self) -> dict[str, dict]:
        return {}


#: The shared disabled singleton (identity-comparable).
NULL_PROFILER = _NullProfiler()


class _ThreadTotals:
    """One thread's running totals plus its open-span stack."""

    __slots__ = ("rows", "stack")

    def __init__(self) -> None:
        #: Span name -> [self seconds, count, inclusive seconds].
        self.rows: dict[str, list] = {}
        #: Open spans: [name, start_seconds, child_inclusive_accum].
        self.stack: list[list] = []


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
    """Hierarchical wall-clock span profiler with per-thread totals.

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

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadTotals] = []
        self._exit_ctx = _SpanExit(self)

    # -- recording ---------------------------------------------------------

    def _state(self) -> _ThreadTotals:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadTotals()
            with self._lock:
                self._threads.append(state)
        return state

    def span(self, name: str) -> _SpanExit:
        """Open span *name* now; close it when the returned context exits."""
        self._state().stack.append([name, time.perf_counter(), 0.0])
        return self._exit_ctx

    def _exit(self) -> None:
        end = time.perf_counter()
        state = self._state()
        name, start, child_accum = state.stack.pop()
        inclusive = end - start
        if state.stack:
            state.stack[-1][2] += inclusive
        row = state.rows.get(name)
        if row is None:
            row = state.rows[name] = [0.0, 0, 0.0]
        row[0] += inclusive - child_accum
        row[1] += 1
        row[2] += inclusive

    # -- querying ----------------------------------------------------------

    def mark(self) -> dict[str, tuple[float, int]]:
        """The calling thread's totals now, as ``name -> (self s, count)``.

        Pass the value to :meth:`collect` to aggregate only the spans
        closed in between (the per-tile collection window).
        """
        return {
            name: (row[0], row[1]) for name, row in self._state().rows.items()
        }

    def collect(self, mark: dict[str, tuple[float, int]]) -> dict[str, float]:
        """Per-name *self* seconds closed on this thread since *mark*.

        Self times are disjoint by construction, so the dict's values sum
        to the wall-clock covered by the root spans in the window — the
        per-tile phase breakdown shipped in ``TileResult.phase_seconds``.
        """
        out: dict[str, float] = {}
        for name, (seconds, count, _inclusive) in self._state().rows.items():
            before_seconds, before_count = mark.get(name, (0.0, 0))
            if count != before_count:
                out[name] = seconds - before_seconds
        return out

    def totals(self) -> dict[str, dict]:
        """Aggregate over every thread: per-name seconds/count/inclusive."""
        out: dict[str, dict] = {}
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for name, (seconds, count, inclusive) in list(state.rows.items()):
                entry = out.get(name)
                if entry is None:
                    entry = out[name] = {
                        "seconds": 0.0, "count": 0, "inclusive_seconds": 0.0,
                    }
                entry["seconds"] += seconds
                entry["count"] += count
                entry["inclusive_seconds"] += inclusive
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
