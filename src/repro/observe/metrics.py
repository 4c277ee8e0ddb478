"""Structured metrics for the hot paths: counters, timers, events.

The paper's claims are *measurements* — %-of-peak (Figs. 3–4), thread
scaling (Fig. 5), wall-clock vs PLINK (Tables I–III) — so the execution
layers need first-class instrumentation rather than ad-hoc prints. This
module provides the recording half of :mod:`repro.observe`:

- :class:`MetricsRecorder` accumulates named counters, timers, and value
  histograms, and emits structured *events* (one dict per occurrence:
  tile completed, tile retried, worker respawned, ...). Every event
  bumps an ``events.<kind>`` counter, so aggregate accounting survives
  even when the full event stream is not retained.
- :class:`JsonlTraceSink` streams events to a JSON-lines file for
  post-hoc analysis (one object per line, monotonic ``ts`` seconds since
  the recorder was created) — the trace format the out-of-core GEMM
  literature uses to attribute wall-clock to compute vs. I/O overlap.
  It is one *sink* of the recorder's event stream; the progress line
  (:class:`repro.observe.progress.ProgressReporter`) and the live
  snapshot (:class:`repro.observe.live.LivePublisher`) are the others,
  so every projection of a run counts the same events.
- :class:`Histogram` is the bounded summary behind timers and value
  distributions: count / total / min / max plus streaming p50/p95/p99
  estimates (Jain & Chlamtac's P² algorithm — five markers per
  quantile), never per-sample storage, so a million-tile run costs O(1)
  memory and the quantiles stay unbiased by any sample cap.

The engine takes one ``recorder: MetricsRecorder | None = None`` and
guards every emission with ``if recorder is not None`` — the disabled
default is a branch on ``None`` per tile, not a method call, so
instrumentation is zero-cost unless switched on.
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

__all__ = ["Histogram", "JsonlTraceSink", "MetricsRecorder"]

#: Quantiles every Histogram tracks, as (json key, probability).
_QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


class _P2Quantile:
    """Streaming quantile estimate via the P² algorithm (Jain & Chlamtac
    1985): five markers whose heights track [min, lower, target, upper,
    max] order statistics, adjusted by parabolic interpolation — O(1)
    memory regardless of stream length, exact for the first 5 samples.
    """

    __slots__ = ("p", "heights", "positions", "desired", "increments")

    def __init__(self, p: float) -> None:
        self.p = p
        self.heights: list[float] = []
        self.positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self.desired = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0]
        self.increments = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]

    def observe(self, value: float) -> None:
        heights = self.heights
        if len(heights) < 5:
            heights.append(value)
            heights.sort()
            return
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while value >= heights[cell + 1]:
                cell += 1
        positions = self.positions
        for i in range(cell + 1, 5):
            positions[i] += 1.0
        desired = self.desired
        for i in range(5):
            desired[i] += self.increments[i]
        # Adjust the three interior markers toward their desired
        # positions, parabolic (P²) when the neighbor gap allows it,
        # linear otherwise.
        for i in (1, 2, 3):
            delta = desired[i] - positions[i]
            if (delta >= 1.0 and positions[i + 1] - positions[i] > 1.0) or (
                delta <= -1.0 and positions[i - 1] - positions[i] < -1.0
            ):
                sign = 1.0 if delta >= 0 else -1.0
                candidate = self._parabolic(i, sign)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, sign)
                positions[i] += sign

    def _parabolic(self, i: int, d: float) -> float:
        q, n = self.heights, self.positions
        return q[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        q, n = self.heights, self.positions
        j = i + int(d)
        return q[i] + d * (q[j] - q[i]) / (n[j] - n[i])

    def value(self) -> float | None:
        """Current estimate (``None`` before any sample)."""
        heights = self.heights
        if not heights:
            return None
        if len(heights) < 5:
            # Exact small-sample quantile (nearest-rank on the sorted
            # buffer the initialization phase keeps anyway).
            rank = max(0, math.ceil(self.p * len(heights)) - 1)
            return heights[rank]
        return heights[2]


@dataclass
class Histogram:
    """Bounded running summary of a value stream (no per-sample storage).

    Beyond count/total/min/max, each histogram keeps streaming P²
    estimators for the :data:`_QUANTILES` set, so ``summary()`` reports
    p50/p95/p99 without retaining samples — a cumulative mean hides tail
    latency, and a capped sample buffer would bias long runs.
    """

    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    _quantiles: tuple[_P2Quantile, ...] = field(
        default_factory=lambda: tuple(_P2Quantile(p) for _, p in _QUANTILES),
        repr=False,
    )

    def observe(self, value: float) -> None:
        """Fold one sample into the summary."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for estimator in self._quantiles:
            estimator.observe(value)

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observed samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, p: float) -> float | None:
        """Streaming estimate for tracked probability *p* (else KeyError)."""
        for (_, prob), estimator in zip(_QUANTILES, self._quantiles):
            if prob == p:
                return estimator.value()
        raise KeyError(f"quantile {p} is not tracked; have "
                       f"{[prob for _, prob in _QUANTILES]}")

    def summary(self) -> dict:
        """JSON-serializable summary dict."""
        out = {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }
        for (key, _), estimator in zip(_QUANTILES, self._quantiles):
            out[key] = estimator.value()
        return out


class JsonlTraceSink:
    """Append-only JSON-lines event trace (one compact object per line).

    Every line carries ``schema: "repro-trace/1"`` and a monotonic
    ``seq`` (0-based write index), so a truncated or interleaved trace
    is detectable post hoc and ``repro report`` can identify the format
    without sniffing. The sink otherwise stays deliberately dumb: it
    serializes whatever dict it is handed, coercing any value
    ``json.dumps`` cannot encode via ``repr`` — an exotic field (say, an
    exception object on a retry event) must not crash a run mid-flight.
    Interpretation (which kinds exist, which fields they carry) belongs
    to the emitters; ``docs/METRICS.md`` is the engine's event schema.

    Durability: with ``flush_on_write`` every line reaches the OS as it
    is written (a crashed run loses at most the torn final line, which
    ``repro report`` tolerates); either way ``close`` flushes and
    fsyncs so a completed run's trace is durable on disk.
    """

    SCHEMA = "repro-trace/1"

    def __init__(
        self, path: str | Path, *, flush_on_write: bool = False
    ) -> None:
        self.path = Path(path)
        self.flush_on_write = flush_on_write
        self._fh = self.path.open("w", encoding="utf-8")
        self.n_written = 0

    def write(self, event: dict) -> None:
        if self._fh is None:
            raise ValueError(f"trace sink for {self.path} is closed")
        record = {"schema": self.SCHEMA, "seq": self.n_written}
        record.update(event)
        self._fh.write(
            json.dumps(record, separators=(",", ":"), default=repr) + "\n"
        )
        if self.flush_on_write:
            self._fh.flush()
        self.n_written += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlTraceSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@dataclass
class MetricsRecorder:
    """Accumulates counters, timers, histograms, and structured events.

    Parameters
    ----------
    sinks:
        Objects with ``write(record)`` and ``close()`` — a
        :class:`JsonlTraceSink`, a
        :class:`~repro.observe.progress.ProgressReporter`, a
        :class:`~repro.observe.live.LivePublisher` — each handed every
        :meth:`event` record (``kind``, a monotonic ``ts``, the fields)
        and closed by :meth:`close`. Events are emitted only from the
        run's driver thread (worker and prefetch threads bump counters
        and timers, never events), so sinks need no locking.
    keep_events:
        Retain the full event list in memory (``self.events``). Off by
        default — per-tile events on a biobank-scale run would exhaust
        memory; the counters/timers aggregate them regardless.
    """

    sinks: list = field(default_factory=list)
    keep_events: bool = False
    counters: dict[str, int] = field(default_factory=dict)
    timers: dict[str, Histogram] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)
    events: list[dict] = field(default_factory=list)
    _t0: float = field(default_factory=time.perf_counter, repr=False)

    def inc(self, name: str, value: int = 1) -> None:
        """Add *value* to counter *name* (created at zero on first use)."""
        self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name: str, value: float) -> None:
        """Fold one sample into histogram *name*."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    def observe_time(self, name: str, seconds: float) -> None:
        """Fold an externally measured duration into timer *name*."""
        hist = self.timers.get(name)
        if hist is None:
            hist = self.timers[name] = Histogram()
        hist.observe(seconds)

    @contextmanager
    def time(self, name: str) -> Iterator[None]:
        """Time the enclosed block into timer *name* (accumulating)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe_time(name, time.perf_counter() - start)

    def event(self, kind: str, **fields: object) -> None:
        """Record one structured occurrence of *kind*.

        Bumps the ``events.<kind>`` counter, appends to ``self.events``
        when retention is on, and writes ``{"kind", "ts", **fields}`` to
        every attached sink.
        """
        self.inc(f"events.{kind}")
        if self.keep_events or self.sinks:
            record = {"kind": kind, "ts": time.perf_counter() - self._t0}
            record.update(fields)
            if self.keep_events:
                self.events.append(record)
            for sink in self.sinks:
                sink.write(record)

    def event_count(self, kind: str) -> int:
        """Occurrences of *kind* recorded so far."""
        return self.counters.get(f"events.{kind}", 0)

    def summary(self) -> dict:
        """JSON-serializable snapshot of everything accumulated."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "timers": {k: v.summary() for k, v in sorted(self.timers.items())},
            "histograms": {
                k: v.summary() for k, v in sorted(self.histograms.items())
            },
        }

    def write_json(self, path: str | Path, *, extra: dict | None = None) -> None:
        """Write :meth:`summary` (plus *extra* top-level keys) to *path*."""
        payload = dict(extra) if extra else {}
        payload.update(self.summary())
        Path(path).write_text(
            json.dumps(payload, indent=2, sort_keys=False) + "\n",
            encoding="utf-8",
        )

    def close(self) -> None:
        """Close every attached sink."""
        for sink in self.sinks:
            sink.close()

    def __enter__(self) -> "MetricsRecorder":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
