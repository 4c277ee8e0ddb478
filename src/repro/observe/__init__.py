"""Observability for the tiled LD engine: metrics, spans, %-of-peak.

The paper's headline results are measurements, and the out-of-core GEMM
literature (Fabregat-Traver & Bientinesi's petaflops-over-terabytes
pipelines, Beyer & Bientinesi's HDD→GPU streaming) is unambiguous that
multi-stage pipelines live or die on per-stage instrumentation of
compute vs. delivery overlap. This package is that instrumentation
layer. :func:`repro.core.engine.run_engine` (and
:func:`repro.core.streaming.stream_ld_blocks` through it) takes one
telemetry object, a :class:`MetricsRecorder`; everything else either
is a sink of its event stream or follows the active span profiler:

- :class:`MetricsRecorder` — counters, timers, histograms, and
  structured per-tile events, with a zero-cost disabled default; it
  hands every event to its ``sinks``;
- :class:`JsonlTraceSink` — sink: streaming JSON-lines event trace
  (``repro-trace/1``: schema-tagged, monotonic ``seq``) for post-hoc
  analysis;
- :class:`ProgressReporter` — sink: live tiles/s, pairs/s, and ETA;
- :class:`WorkerTimeline` — sink: per-worker tile counts and busy time,
  folded as tiles land; the run report and the live snapshot share it;
- :class:`repro.observe.live.LivePublisher` — sink: the crash-safe
  ``repro-live/1`` snapshot behind ``repro top`` and the Prometheus
  exporter;
- :class:`SpanProfiler` — hierarchical phase spans (pack-A, pack-B,
  plane-matmul, mirror, driver dispatch/deliver, ...) with self-time
  attribution kept as running totals per thread, installed around a
  run with :func:`profiling`; a no-op singleton when disabled;
- :func:`compare_to_model` / :func:`compare_phases_to_model` — measured
  throughput (aggregate, and per phase) placed against
  :mod:`repro.machine.perfmodel`'s prediction, reproducing the paper's
  %-of-peak framing (Figs. 3–4) as a first-class artifact;
- :func:`build_run_report` / :func:`render_report` — the one artifact
  of an engine run (``repro-ld-metrics/1``: totals, phase table, worker
  timeline, roofline, model row, anomalies), whose model-row and
  anomaly rules the registry record and the live snapshot reuse, and
  the text renderer behind ``repro report``.

The engine's fault-tolerance machinery reports through the same channel:
``tile_retry`` events carry the specific failure (plus ``tile_corrupt``
for handoff-checksum mismatches and ``tile_timeout`` for watchdog
evictions), ``tile_quarantined`` marks a poison tile taken out of the
run, ``pool_spawn_failed`` / ``worker_respawn`` track worker-pool churn,
and ``executor_degraded`` records a persistent → threads → serial
fallback — with matching ``engine.corruptions`` / ``engine.timeouts`` /
``engine.tiles_quarantined`` / ``engine.spawn_failures`` /
``engine.degradations`` counters.

Import layering: the model-facing halves (``modelcheck``, ``report``)
import :mod:`repro.core.gemm` for operation counts, while the core
layers import :mod:`repro.observe.spans` for instrumentation — so those
names resolve lazily (PEP 562) to keep the package importable from
either direction without a cycle.
"""

from repro.observe.metrics import Histogram, JsonlTraceSink, MetricsRecorder
from repro.observe.progress import ProgressReporter, ProgressSnapshot
from repro.observe.spans import (
    NULL_PROFILER,
    SpanProfiler,
    current_profiler,
    install_profiler,
    profiling,
    span,
)

__all__ = [
    "Histogram",
    "JsonlTraceSink",
    "MetricsRecorder",
    "NULL_PROFILER",
    "PeakComparison",
    "PhaseComparison",
    "ProgressReporter",
    "ProgressSnapshot",
    "SpanProfiler",
    "WorkerTimeline",
    "build_run_report",
    "compare_phases_to_model",
    "compare_to_model",
    "current_profiler",
    "install_profiler",
    "profiling",
    "render_file",
    "render_report",
    "span",
]

#: Lazily resolved names → defining submodule. These submodules import
#: repro.core / repro.machine, which in turn import repro.observe.spans;
#: resolving them eagerly here would close the cycle mid-import.
_LAZY = {
    "PeakComparison": "repro.observe.modelcheck",
    "compare_to_model": "repro.observe.modelcheck",
    "PhaseComparison": "repro.observe.modelcheck",
    "compare_phases_to_model": "repro.observe.modelcheck",
    "WorkerTimeline": "repro.observe.report",
    "build_run_report": "repro.observe.report",
    "render_file": "repro.observe.report",
    "render_report": "repro.observe.report",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
