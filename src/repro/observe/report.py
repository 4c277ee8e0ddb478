"""Run reports: where the cycles went, against where they should.

The span profiler (:mod:`repro.observe.spans`) and metrics recorder
(:mod:`repro.observe.metrics`) answer *what happened*; this module turns
their raw output into the one artifact of an engine run, and renders
every instrumentation artifact of the repo as text:

- :func:`build_run_report` assembles the ``repro-ld-metrics/1`` payload
  that ``repro ld --engine … --metrics-out`` writes: the run's totals
  and band geometry, the recorder's counters/timers/histograms, the
  per-phase time table (worker phases shipped back through
  ``TileResult.phase_seconds`` joined with the driver's own spans), the
  per-phase roofline (measured-vs-modelled via
  :func:`repro.observe.modelcheck.compare_phases_to_model`), the
  per-worker timeline, the aggregate %-of-peak model row, and the
  anomaly list.
- Each verdict has one derivation: :func:`model_row` decides when a
  run is priced against the machine model (dense, nothing resumed,
  nothing quarantined) and :func:`find_anomalies` is the one rule set
  for the failure smells the out-of-core GEMM literature warns about
  (I/O-bound sweeps, unattributed time, fault-path churn, a band that
  prunes nothing). The registry record takes its %-of-peak and
  anomalies from the report; the live snapshot applies both functions
  to its running totals, so no view can disagree.
- :class:`WorkerTimeline` is the recorder sink behind the per-worker
  timeline: it folds ``tile_computed`` events as they arrive, and the
  live snapshot reads the same rows for its worker table.
- :func:`render_report` renders the run report, a ``repro-trace/1`` (or
  pre-schema) JSONL event trace, the ``repro-bench-gemm/1`` /
  ``repro-bench-engine/1`` benchmark reports, the accumulated
  ``BENCH_history.jsonl``, live snapshots and registry records.
  :func:`render_file` sniffs JSON vs JSONL so the CLI needs no format
  flag.

The anomaly thresholds are deliberately coarse — the report flags what a
performance engineer would double-take at, not statistical outliers.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

from repro.core.banding import dense_pair_cells
from repro.core.gemm import DEFAULT_KERNEL, resolve_blocking
from repro.observe.modelcheck import compare_phases_to_model, compare_to_model

__all__ = [
    "METRICS_SCHEMA",
    "UnknownSchemaError",
    "WorkerTimeline",
    "build_run_report",
    "find_anomalies",
    "load_report_payload",
    "model_row",
    "render_file",
    "render_report",
]

METRICS_SCHEMA = "repro-ld-metrics/1"


class UnknownSchemaError(ValueError):
    """An artifact carries a schema tag no renderer understands.

    Distinguished from plain :class:`ValueError` (malformed file,
    empty document) so the CLI can map it to its own exit code: an
    unknown tag usually means a version skew between the writer and
    this reader, which deserves a distinct, scriptable signal.
    """

#: Span self-times must cover at least this share of measured tile compute.
COVERAGE_FLOOR = 0.90
#: Prefetch stall above this share of the run flags an I/O-bound run.
STALL_THRESHOLD = 0.10

#: Span names recorded on the driver thread (plus the sink's ``mirror``);
#: everything else in a report's phase table arrived via the per-tile
#: ``phase.*`` timers, so taking only these from the driver profiler keeps
#: the serial/threads engines (where worker spans land in the same
#: profiler) from being counted twice.
_DRIVER_PREFIX = "driver."

#: The pool worker's wait between tiles: a ``phase.*`` timer, but not
#: part of any tile's compute time.
_WORKER_IDLE = "phase.worker.idle"

#: Event kinds that indicate the fault-tolerance machinery fired.
_FAULT_KINDS = (
    "tile_retry",
    "tile_corrupt",
    "tile_timeout",
    "tile_quarantined",
    "pool_spawn_failed",
    "executor_degraded",
)


# ---------------------------------------------------------------------------
# The per-worker timeline: a recorder sink.
# ---------------------------------------------------------------------------


class WorkerTimeline:
    """Recorder sink folding ``tile_computed`` events into per-worker rows.

    ``ts`` is the driver-side delivery timestamp, so ``ts - compute_s``
    approximates when the worker started the tile — good enough for
    utilization and imbalance, which is what the report needs. Each row
    also keeps ``last_seen``, the monotonic clock at the worker's latest
    delivery, for the live snapshot's heartbeat column.
    """

    def __init__(self) -> None:
        self.workers: dict[str, dict] = {}

    def write(self, event: dict) -> None:
        if event["kind"] != "tile_computed":
            return
        worker = str(event["worker"])
        row = self.workers.get(worker)
        if row is None:
            row = self.workers[worker] = {
                "n_tiles": 0, "busy_seconds": 0.0,
                "first_ts": math.inf, "last_ts": 0.0, "last_seen": 0.0,
            }
        ts = float(event["ts"])
        compute = float(event["compute_s"])
        row["n_tiles"] += 1
        row["busy_seconds"] += compute
        row["first_ts"] = min(row["first_ts"], ts - compute)
        row["last_ts"] = max(row["last_ts"], ts)
        row["last_seen"] = time.monotonic()

    def close(self) -> None:
        """Nothing to flush; present for the sink protocol."""

    def summary(self, seconds: float) -> dict:
        """Worker rows with idle fractions over *seconds* of run, plus
        utilization, imbalance and the worst idle fraction."""
        rows = []
        for worker in sorted(self.workers):
            row = self.workers[worker]
            rows.append({
                "worker": worker,
                "n_tiles": row["n_tiles"],
                "busy_seconds": row["busy_seconds"],
                "first_ts": max(0.0, row["first_ts"]),
                "last_ts": row["last_ts"],
                "idle_fraction": (
                    max(0.0, 1.0 - row["busy_seconds"] / seconds)
                    if seconds > 0 else 0.0
                ),
            })
        busy = [row["busy_seconds"] for row in rows]
        mean_busy = sum(busy) / len(busy) if busy else 0.0
        return {
            "workers": rows,
            "utilization": (
                sum(busy) / (len(busy) * seconds)
                if busy and seconds > 0 else 0.0
            ),
            "imbalance": max(busy) / mean_busy if mean_busy > 0 else 1.0,
            "max_idle_fraction": max(
                (row["idle_fraction"] for row in rows), default=0.0
            ),
        }


# ---------------------------------------------------------------------------
# The verdicts: one derivation each.
# ---------------------------------------------------------------------------


def model_row(
    n_snps: int,
    k_words: int,
    seconds: float,
    *,
    banded: bool,
    n_skipped: int,
    n_quarantined: int,
) -> dict | None:
    """The run's measured-vs-modelled %-of-peak row, or ``None``.

    The model scores the dense lower-triangle Gram over the whole panel
    at the blocking the engine runs, ``resolve_blocking(None,
    DEFAULT_KERNEL)``. It is priced only when *seconds* covers exactly
    that work: a banded run computes less than the dense triangle, and a
    run with skipped (resumed) or quarantined tiles timed only part of
    it — those rows would be nonsense throughputs, so they are absent.
    """
    if banded or n_skipped or n_quarantined or seconds <= 0:
        return None
    return compare_to_model(
        n_snps, n_snps, k_words, seconds,
        params=resolve_blocking(None, DEFAULT_KERNEL), symmetric=True,
    ).as_dict()


def _phase_coverage(recorder) -> float | None:
    """Share of measured tile compute time the phase spans attribute.

    ``None`` until a profiled tile has landed: a run without span
    profiling has nothing to attribute, not an attribution gap.
    """
    compute = recorder.timers.get("engine.tile_compute_seconds")
    # A list copy first: mid-run, prefetch threads may add timers.
    phases = [
        hist.total for key, hist in list(recorder.timers.items())
        if key.startswith("phase.") and key != _WORKER_IDLE
    ]
    if compute is None or compute.total <= 0 or not phases:
        return None
    return sum(phases) / compute.total


def find_anomalies(recorder, seconds: float) -> list[dict]:
    """Flag the run's attribution smells, worst first by convention.

    Judged on the recorder's totals over *seconds* of run, so the live
    snapshot mid-run and the report at the end apply this one rule set;
    at ``run_end`` both see the same totals and the engine's
    ``engine.run_seconds``, and agree exactly.
    """
    counters = recorder.counters
    out: list[dict] = []
    # Banded runs count their pruned tiles, zero included; dense runs
    # never touch the counter.
    if counters.get("engine.tiles_pruned") == 0:
        out.append({
            "kind": "band_wasteful",
            "detail": (
                "the band covers every tile of the triangle — no tiles "
                "can be pruned, so the run does dense work plus masking; "
                "drop --window/--window-kb and run dense"
            ),
        })
    stall = recorder.timers.get("prefetch.stall_seconds")
    stall_seconds = stall.total if stall is not None else 0.0
    if seconds > 0 and stall_seconds > STALL_THRESHOLD * seconds:
        out.append({
            "kind": "io_bound",
            "detail": (
                f"compute stalled {stall_seconds:.3g} s waiting on panel "
                f"prefetch ({stall_seconds / seconds:.0%} of the run, "
                f"threshold {STALL_THRESHOLD:.0%}) — disk bandwidth is the "
                "bottleneck; raise --memory-budget or use faster storage"
            ),
        })
    coverage = _phase_coverage(recorder)
    if coverage is not None and coverage < COVERAGE_FLOOR:
        out.append({
            "kind": "span_coverage_low",
            "detail": (
                f"phase spans attribute only {coverage:.0%} of measured "
                f"tile compute time (floor {COVERAGE_FLOOR:.0%}); the "
                "remainder is unattributed"
            ),
        })
    retries = counters.get("engine.retries", 0)
    if retries > 0:
        out.append({
            "kind": "tile_retries",
            "detail": (
                f"{retries} tile retr{'y' if retries == 1 else 'ies'} — "
                "retry backoff time is in the driver.backoff phase"
            ),
        })
    quarantined = counters.get("engine.tiles_quarantined", 0)
    if quarantined > 0:
        out.append({
            "kind": "tiles_quarantined",
            "detail": (
                f"{quarantined} tile(s) quarantined; the matrix has holes "
                "and the wall-clock excludes their work"
            ),
        })
    degradations = counters.get("engine.degradations", 0)
    if degradations > 0:
        out.append({
            "kind": "executor_degraded",
            "detail": (
                f"executor degraded {degradations} time(s) to a simpler "
                "backend (engine_used names the one that finished); the "
                "worker timeline reflects the fallback executor"
            ),
        })
    return out


# ---------------------------------------------------------------------------
# The run report
# ---------------------------------------------------------------------------


def _phase_table(recorder, profiler) -> dict[str, dict]:
    """Merge worker phase timers with the driver profiler's own spans."""
    phases: dict[str, dict] = {}
    for key, hist in recorder.timers.items():
        if key.startswith("phase."):
            phases[key[len("phase."):]] = {
                "seconds": hist.total,
                "count": hist.count,
                "where": "worker",
            }
    for name, entry in profiler.totals().items():
        # ``io.*`` spans are the out-of-core prefetcher's disk reads
        # (loader thread) and acquire stalls (compute threads) — driver
        # process time, same double-count-free status as driver.* spans.
        if not (name.startswith(_DRIVER_PREFIX) or name == "mirror"
                or name.startswith("io.")):
            continue
        row = phases.setdefault(
            name, {"seconds": 0.0, "count": 0, "where": "driver"}
        )
        row["seconds"] += entry["seconds"]
        row["count"] += entry["count"]
    total = sum(row["seconds"] for row in phases.values())
    for row in phases.values():
        row["share"] = row["seconds"] / total if total > 0 else 0.0
    return phases


def build_run_report(
    *,
    recorder,
    profiler,
    timeline: WorkerTimeline,
    report,
    wall_seconds: float,
    stat: str,
    n_snps: int,
    n_samples: int,
    k_words: int,
    block_snps: int,
    band=None,
    window_kb: float | None = None,
) -> dict:
    """Assemble the ``repro-ld-metrics/1`` run report of one engine run.

    Parameters
    ----------
    recorder:
        The :class:`~repro.observe.metrics.MetricsRecorder` the engine
        ran with: its counters, timers and histograms are the report's
        raw totals, its ``run_id`` the run's identity, and the per-tile
        ``phase.*`` timers (fed from ``TileResult.phase_seconds``) the
        worker side of the phase table.
    profiler:
        The :class:`~repro.observe.spans.SpanProfiler` installed around
        the run — ``driver.*`` spans, the sink's ``mirror`` spans and
        the prefetcher's ``io.*`` spans live here.
    timeline:
        The :class:`WorkerTimeline` sink attached to *recorder*.
    report:
        The run's :class:`~repro.core.engine.EngineReport`.
    wall_seconds:
        Driver wall-clock of the run (must be positive); the model row
        and the throughput are scored against it. The timeline and the
        anomaly rules use the engine's own ``engine.run_seconds``, the
        span the live snapshot ends on.
    stat, n_snps, n_samples, k_words, block_snps:
        The problem the run solved.
    band, window_kb:
        The run's :class:`~repro.core.banding.BandSpec` (``None`` for a
        dense run) and, for a genomic band, the ``--window-kb`` it came
        from.
    """
    if wall_seconds <= 0:
        raise ValueError(f"wall_seconds must be positive, got {wall_seconds}")
    run_hist = recorder.timers.get("engine.run_seconds")
    if run_hist is None:
        raise ValueError(
            "recorder holds no engine.run_seconds; build the report from "
            "the recorder the engine ran with"
        )
    run_seconds = run_hist.total
    pairs_computed = recorder.counters.get("engine.pairs_computed", 0)
    payload = {
        "schema": METRICS_SCHEMA,
        "run_id": recorder.run_id,
        "engine": report.engine,
        "workers": report.n_workers,
        "stat": stat,
        "n_snps": n_snps,
        "n_samples": n_samples,
        "k_words": k_words,
        "block_snps": block_snps,
        "n_tiles": report.n_tiles,
        "n_computed": report.n_computed,
        "n_skipped": report.n_skipped,
        "n_retries": report.n_retries,
        "n_quarantined": report.n_quarantined,
        "quarantined": [list(t) for t in report.quarantined],
        "n_batches": report.n_batches,
        "engine_used": report.engine_used or report.engine,
        "wall_seconds": wall_seconds,
        "pairs_computed": pairs_computed,
        "pairs_per_second": pairs_computed / wall_seconds,
    }
    if band is not None:
        pairs_dense = dense_pair_cells(n_snps, block_snps)
        payload["band"] = {
            "window": band.window,
            "window_kb": window_kb,
            "max_distance": band.max_distance,
            "index_width": band.index_width(n_snps),
            "tiles_dense": report.n_tiles + report.n_pruned,
            "tiles_pruned": report.n_pruned,
            "tiles_partial": report.n_partial,
            "tiles_full": report.n_tiles - report.n_partial,
            "pairs_in_band": report.band_pairs,
            "pairs_dense": pairs_dense,
            "predicted_speedup": (
                pairs_dense / report.band_pairs if report.band_pairs else None
            ),
        }
    model = model_row(
        n_snps, k_words, wall_seconds, banded=band is not None,
        n_skipped=report.n_skipped, n_quarantined=report.n_quarantined,
    )
    if model is not None:
        payload["model"] = model
    phases = _phase_table(recorder, profiler)
    payload["phases"] = phases
    payload["roofline"] = [
        cmp.as_dict()
        for cmp in compare_phases_to_model(
            {name: row["seconds"] for name, row in phases.items()},
            n_snps, n_snps, k_words,
            params=resolve_blocking(None, DEFAULT_KERNEL), symmetric=True,
        )
    ]
    payload["timeline"] = timeline.summary(run_seconds)
    payload["phase_coverage"] = _phase_coverage(recorder)
    payload["anomalies"] = find_anomalies(recorder, run_seconds)
    payload.update(recorder.summary())
    return payload


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _fmt_seconds(seconds: float | None) -> str:
    return "--" if seconds is None else f"{seconds:.4g}"


def _fmt_share(share: float | None) -> str:
    return "--" if share is None else f"{100.0 * share:5.1f}%"


def _fmt_ratio(ratio: float | None) -> str:
    return "--" if ratio is None else f"{ratio:.2f}x"


def _render_phases(payload: dict) -> list[str]:
    """The phase table, roofline and worker timeline of a run report."""
    lines: list[str] = []
    phases = payload.get("phases")
    if phases:
        lines.append("")
        lines.append(f"{'phase':<22} {'where':>6} {'seconds':>10} "
                     f"{'share':>7} {'count':>8}")
        for name, row in sorted(
            phases.items(), key=lambda kv: -kv[1]["seconds"]
        ):
            lines.append(
                f"{name:<22} {row['where']:>6} {row['seconds']:>10.4g} "
                f"{_fmt_share(row.get('share')):>7} {row['count']:>8}"
            )
    roofline = payload.get("roofline")
    if roofline:
        lines.append("")
        lines.append("roofline (shares of each side's own total):")
        lines.append(f"  {'phase':<22} {'kind':>8} {'measured':>9} "
                     f"{'modeled':>9} {'x model':>8}")
        for row in roofline:
            lines.append(
                f"  {row['name']:<22} {row['kind']:>8} "
                f"{_fmt_share(row['measured_share']):>9} "
                f"{_fmt_share(row['modeled_share']):>9} "
                f"{_fmt_ratio(row['measured_vs_modeled']):>8}"
            )
    timeline = payload.get("timeline") or {}
    workers = timeline.get("workers")
    if workers:
        lines.append("")
        lines.append(
            f"workers: utilization {timeline['utilization']:.1%}, "
            f"imbalance {timeline['imbalance']:.2f}x, "
            f"max idle {timeline['max_idle_fraction']:.1%}"
        )
        lines.append(f"  {'worker':<18} {'tiles':>6} {'busy s':>9} "
                     f"{'idle':>7} {'first..last s':>16}")
        for row in workers:
            lines.append(
                f"  {row['worker']:<18} {row['n_tiles']:>6} "
                f"{row['busy_seconds']:>9.4g} "
                f"{row['idle_fraction']:>6.1%} "
                f"{row['first_ts']:>7.2f}..{row['last_ts']:<.2f}"
            )
    return lines


def _render_metrics(payload: dict) -> str:
    band = payload.get("band")
    coverage = payload.get("phase_coverage")
    lines = [
        f"run report ({payload['schema']}): "
        f"engine={payload.get('engine', '?')} "
        f"workers={payload.get('workers', '?')} "
        f"stat={payload.get('stat', '?')} "
        f"{payload.get('n_snps', '?')} SNPs x "
        f"{payload.get('n_samples', '?')} samples"
        + (f" | run {payload['run_id']}" if payload.get("run_id") else ""),
        f"wall {payload.get('wall_seconds', 0.0):.3f} s | "
        f"{payload.get('n_computed', '?')}/{payload.get('n_tiles', '?')} "
        f"tiles ({payload.get('n_skipped', 0)} skipped, "
        f"{payload.get('n_retries', 0)} retries, "
        f"{payload.get('n_quarantined', 0)} quarantined) | "
        f"{payload.get('pairs_per_second', 0.0):,.0f} pairs/s"
        + (f" | span coverage {coverage:.1%}" if coverage is not None
           else ""),
    ]
    if band is not None:
        if band.get("window"):
            extent = f"window {band['window']} SNPs"
        else:
            extent = (
                f"window {band.get('max_distance', 0.0):g} bp "
                f"(index width {band.get('index_width', '?')})"
            )
        speedup = band.get("predicted_speedup")
        lines.append(
            f"band: {extent} | tiles {band.get('tiles_pruned', 0)} pruned / "
            f"{band.get('tiles_partial', 0)} partial / "
            f"{band.get('tiles_full', 0)} full of "
            f"{band.get('tiles_dense', '?')} dense | "
            f"{band.get('pairs_in_band', 0):,} of "
            f"{band.get('pairs_dense', 0):,} pair cells "
            f"(predicted speedup "
            f"{'--' if speedup is None else format(speedup, '.2f') + 'x'})"
        )
    counters = payload.get("counters", {})
    events = {k: v for k, v in counters.items() if k.startswith("events.")}
    if events:
        lines.append("")
        lines.append("events:")
        for key, count in sorted(events.items()):
            lines.append(f"  {key[len('events.'):]:<22} {count:>8}")
    timers = payload.get("timers", {})
    if timers:
        lines.append("")
        lines.append(f"  {'timer':<32} {'count':>7} {'total s':>10} "
                     f"{'mean s':>10} {'p50':>9} {'p95':>9} {'p99':>9}")
        for name, summary in sorted(timers.items()):
            lines.append(
                f"  {name:<32} {summary['count']:>7} "
                f"{summary['total']:>10.4g} {summary['mean']:>10.4g} "
                f"{_fmt_seconds(summary.get('p50')):>9} "
                f"{_fmt_seconds(summary.get('p95')):>9} "
                f"{_fmt_seconds(summary.get('p99')):>9}"
            )
    lines.extend(_render_phases(payload))
    model = payload.get("model")
    if model is not None:
        lines.append("")
        lines.append(
            f"model: measured {model['measured_percent_of_peak']:.2f}% of "
            f"peak vs modeled {model['modeled_percent_of_peak']:.2f}% "
            f"({model['measured_vs_modeled']:.2f}x model)"
        )
    anomalies = payload.get("anomalies")
    if anomalies is not None:
        lines.append("")
        if anomalies:
            lines.append(f"anomalies ({len(anomalies)}):")
            for anomaly in anomalies:
                lines.append(f"  - {anomaly['kind']}: {anomaly['detail']}")
        else:
            lines.append("anomalies: none")
    return "\n".join(lines)


def _render_trace(records: list[dict]) -> str:
    kinds: dict[str, int] = {}
    last_ts = 0.0
    seq_gap = False
    n_torn = getattr(records, "n_torn", 0)
    for i, record in enumerate(records):
        kinds[str(record.get("kind", "?"))] = (
            kinds.get(str(record.get("kind", "?")), 0) + 1
        )
        last_ts = max(last_ts, float(record.get("ts", 0.0)))
        if "seq" in record and record["seq"] != i:
            seq_gap = True
    schema = records[0].get("schema", "pre-schema") if records else "?"
    lines = [
        f"trace ({schema}): {len(records)} events over {last_ts:.3f} s"
        + (" | WARNING: seq gaps (truncated or interleaved trace)"
           if seq_gap else "")
        + (f" | WARNING: {n_torn} torn final line dropped (crashed or "
           "still-running writer)" if n_torn else ""),
        "",
        "event counts:",
    ]
    for kind, count in sorted(kinds.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {kind:<22} {count:>8}")
    faults = [r for r in records if r.get("kind") in _FAULT_KINDS]
    if faults:
        lines.append("")
        lines.append(f"fault-path events ({len(faults)}):")
        for record in faults[:20]:
            detail = {
                k: v for k, v in record.items()
                if k not in ("schema", "seq", "kind", "ts")
            }
            lines.append(
                f"  [{record.get('ts', 0.0):9.3f}s] "
                f"{record.get('kind'):<18} {json.dumps(detail, default=repr)}"
            )
        if len(faults) > 20:
            lines.append(f"  ... and {len(faults) - 20} more")
    return "\n".join(lines)


def _render_bench_gemm(payload: dict) -> str:
    lines = [
        f"bench ({payload['schema']}): {payload.get('model', '')}",
        f"  {'shape':>18} | {'kernel':>7} | {'seconds':>8} | "
        f"{'Gword/s':>8} | {'% peak':>6}",
    ]
    for row in payload.get("results", []):
        shape = f"{row['m']}x{row['n']}x{row['k_words']}"
        lines.append(
            f"  {shape:>18} | {row['kernel']:>7} | {row['seconds']:>8.3f} | "
            f"{row['words_per_second'] / 1e9:>8.2f} | "
            f"{row['measured_percent_of_peak']:>6.2f}"
        )
    return "\n".join(lines)


def _render_bench_banded(payload: dict) -> str:
    lines = [
        f"bench ({payload['schema']}): {payload.get('model', '')}",
        f"  {'snps':>6} | {'window':>6} | {'mode':>6} | {'seconds':>8} | "
        f"{'Gword/s':>8} | {'tiles':>6} | {'pruned':>6} | {'speedup':>7}",
    ]
    for row in payload.get("results", []):
        speedup = row.get("speedup_vs_dense")
        lines.append(
            f"  {row['n_snps']:>6} | {row['window']:>6} | "
            f"{row['mode']:>6} | {row['seconds']:>8.3f} | "
            f"{row['words_per_second'] / 1e9:>8.2f} | "
            f"{row['n_tiles']:>6} | {row.get('tiles_pruned', 0):>6} | "
            f"{'--' if speedup is None else format(speedup, '.2f') + 'x':>7}"
        )
    return "\n".join(lines)


def _render_bench_engine(payload: dict) -> str:
    lines = [
        f"bench ({payload['schema']}): {payload.get('model', '')}",
        f"  {'snps':>6} | {'engine':>10} | {'workers':>7} | "
        f"{'seconds':>8} | {'Mpairs/s':>8} | {'% peak':>6}",
    ]
    for row in payload.get("results", []):
        lines.append(
            f"  {row['n_snps']:>6} | {row['engine']:>10} | "
            f"{row['workers']:>7} | {row['seconds']:>8.3f} | "
            f"{row['pairs_per_second'] / 1e6:>8.2f} | "
            f"{row['measured_percent_of_peak']:>6.2f}"
        )
    return "\n".join(lines)


def _render_live(payload: dict) -> str:
    # Lazy: live.py is importable without report.py and vice versa.
    from repro.observe.live import render_top

    return render_top(payload)


def _render_run(payload: dict) -> str:
    from repro.observe.registry import render_run

    return render_run(payload)


_RENDERERS = {
    METRICS_SCHEMA: _render_metrics,
    "repro-bench-gemm/1": _render_bench_gemm,
    "repro-bench-banded/1": _render_bench_banded,
    "repro-bench-engine/1": _render_bench_engine,
    "repro-live/1": _render_live,
    "repro-run/1": _render_run,
}


def render_report(payload: dict | list) -> str:
    """Render any instrumentation artifact as text, dispatched by schema.

    Accepts a single payload dict (the ``repro-ld-metrics/1`` run
    report, ``repro-bench-gemm/1``, ``repro-bench-banded/1``,
    ``repro-bench-engine/1``, ``repro-live/1``, ``repro-run/1``) or a
    list of JSONL records — an event
    trace (``repro-trace/1``, or the pre-schema traces earlier runs
    wrote: anything whose records carry ``kind``) or a bench history
    (one bench payload per line, newest rendered last).
    """
    if isinstance(payload, list):
        if not payload:
            raise ValueError("empty JSONL document; nothing to render")
        first = payload[0]
        if not isinstance(first, dict):
            raise ValueError(
                f"JSONL records must be objects, got {type(first).__name__}"
            )
        if first.get("schema") == "repro-trace/1" or "kind" in first:
            return _render_trace(payload)
        if first.get("schema") == "repro-run/1":
            from repro.observe.registry import render_runs_list

            return render_runs_list(
                payload, n_torn=getattr(payload, "n_torn", 0)
            )
        parts = [f"history: {len(payload)} entries", ""]
        for record in payload:
            stamp = record.get("timestamp")
            if stamp is not None:
                parts.append(f"-- entry at unix {stamp} --")
            parts.append(render_report(record))
            parts.append("")
        return "\n".join(parts).rstrip()
    if not isinstance(payload, dict):
        raise ValueError(
            f"cannot render a {type(payload).__name__}; expected a dict "
            "payload or a list of JSONL records"
        )
    schema = payload.get("schema")
    renderer = _RENDERERS.get(schema)
    if renderer is None:
        known = ", ".join(sorted(_RENDERERS) + ["repro-trace/1"])
        raise UnknownSchemaError(
            f"unknown schema {schema!r}; renderable schemas: {known}"
        )
    return renderer(payload)


class _JsonlRecords(list):
    """JSONL records plus how many torn trailing lines were dropped."""

    n_torn: int = 0


def load_report_payload(path: str | Path) -> dict | list:
    """Load *path* as one JSON payload, falling back to JSONL records.

    A torn *final* line (the writer crashed or is still mid-write) is
    dropped and counted on the returned list's ``n_torn`` attribute —
    the same tolerance the tile manifest extends to its own tail.
    Corruption anywhere else still raises: an interior bad line means
    the file is damaged, not merely unfinished.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        pass
    records = _JsonlRecords()
    lines = text.splitlines()
    last_lineno = max(
        (i for i, line in enumerate(lines, start=1) if line.strip()),
        default=0,
    )
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if lineno == last_lineno and not text.endswith("\n"):
                records.n_torn += 1
                continue
            raise ValueError(
                f"{path}: line {lineno} is neither part of a JSON document "
                f"nor a JSONL record ({exc})"
            ) from exc
    if not records:
        raise ValueError(f"{path}: empty document; nothing to render")
    return records


def render_file(path: str | Path) -> str:
    """Render the artifact at *path* (JSON or JSONL, schema-dispatched)."""
    return render_report(load_report_payload(path))
