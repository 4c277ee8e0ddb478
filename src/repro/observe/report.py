"""Attribution reports: where the cycles went, against where they should.

The span profiler (:mod:`repro.observe.spans`) and metrics recorder
(:mod:`repro.observe.metrics`) answer *what happened*; this module turns
their raw output into the two run artifacts ``repro profile`` and
``repro report`` exchange:

- :func:`build_profile_payload` assembles the ``repro-profile/1`` JSON:
  the per-phase time table (worker phases shipped back through
  ``TileResult.phase_seconds`` joined with the driver's own spans), the
  per-worker utilization timeline, the per-phase roofline
  (measured-vs-modeled via :func:`repro.observe.modelcheck.
  compare_phases_to_model`), the aggregate %-of-peak, and an anomaly
  list flagging the failure smells the out-of-core GEMM literature
  warns about (packing dominating compute, idle workers, unattributed
  time, fault-path churn).
- :func:`render_report` renders any of the repo's instrumentation
  artifacts as text: ``repro-profile/1``, the ``repro-ld-metrics/1``
  payload of ``ld --metrics-out``, a ``repro-trace/1`` (or pre-schema)
  JSONL event trace, the ``repro-bench-gemm/1`` /
  ``repro-bench-engine/1`` benchmark reports, and the accumulated
  ``BENCH_history.jsonl``. :func:`render_file` sniffs JSON vs JSONL so
  the CLI needs no format flag.

The anomaly thresholds are deliberately coarse — the report flags what a
performance engineer would double-take at, not statistical outliers.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.core.blocking import BlockingParams
from repro.core.gemm import DEFAULT_KERNEL, resolve_blocking
from repro.observe.modelcheck import compare_phases_to_model, compare_to_model

__all__ = [
    "PROFILE_SCHEMA",
    "UnknownSchemaError",
    "build_profile_payload",
    "load_report_payload",
    "render_file",
    "render_report",
]

PROFILE_SCHEMA = "repro-profile/1"


class UnknownSchemaError(ValueError):
    """An artifact carries a schema tag no renderer understands.

    Distinguished from plain :class:`ValueError` (malformed file,
    empty document) so the CLI can map it to its own exit code: an
    unknown tag usually means a version skew between the writer and
    this reader, which deserves a distinct, scriptable signal.
    """

#: A worker idle more than this fraction of the run is flagged.
IDLE_THRESHOLD = 0.15
#: Span self-times must cover at least this share of measured tile compute.
COVERAGE_FLOOR = 0.90
#: Packing's measured share above this multiple of its modelled share flags.
PACKING_RATIO = 2.0
#: Prefetch stall above this share of the wall-clock flags an I/O-bound run.
STALL_THRESHOLD = 0.10

#: Span names recorded on the driver thread (plus the sink's ``mirror``);
#: everything else in a profile's phase table arrived via the per-tile
#: ``phase.*`` timers, so taking only these from the driver profiler keeps
#: the serial/threads engines (where worker spans land in the same
#: profiler) from being counted twice.
_DRIVER_PREFIX = "driver."

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
# Payload assembly
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


def _worker_timeline(events: list[dict], wall_seconds: float) -> dict:
    """Per-worker busy/idle accounting from retained ``tile_computed`` events.

    ``ts`` is the driver-side delivery timestamp, so ``ts - compute_s``
    approximates when the worker started the tile — good enough for
    utilization and imbalance, which is what the report needs.
    """
    per: dict[str, dict] = {}
    for event in events:
        if event.get("kind") != "tile_computed":
            continue
        worker = str(event.get("worker", "?"))
        ts = float(event.get("ts", 0.0))
        compute = float(event.get("compute_s", 0.0))
        row = per.setdefault(worker, {
            "worker": worker,
            "n_tiles": 0,
            "busy_seconds": 0.0,
            "first_ts": math.inf,
            "last_ts": 0.0,
        })
        row["n_tiles"] += 1
        row["busy_seconds"] += compute
        row["first_ts"] = min(row["first_ts"], ts - compute)
        row["last_ts"] = max(row["last_ts"], ts)
    rows = sorted(per.values(), key=lambda r: r["worker"])
    busy = [row["busy_seconds"] for row in rows]
    for row in rows:
        row["first_ts"] = max(0.0, row["first_ts"])
        row["idle_fraction"] = (
            max(0.0, 1.0 - row["busy_seconds"] / wall_seconds)
            if wall_seconds > 0 else 0.0
        )
    mean_busy = sum(busy) / len(busy) if busy else 0.0
    return {
        "workers": rows,
        "utilization": (
            sum(busy) / (len(busy) * wall_seconds)
            if busy and wall_seconds > 0 else 0.0
        ),
        "imbalance": max(busy) / mean_busy if mean_busy > 0 else 1.0,
        "max_idle_fraction": (
            max(row["idle_fraction"] for row in rows) if rows else 0.0
        ),
    }


def packing_anomalies(
    recorder,
    n_snps: int,
    k_words: int,
    params: BlockingParams | None = None,
) -> list[dict]:
    """The ``packing_heavy`` anomaly for *recorder*'s tile phases, if any.

    Operand packing (``pack_a`` + ``pack_b``) is flagged when its share
    of the tile phase time (the ``phase.*`` timers; driver spans are not
    tile compute, which is all the model decomposes) exceeds
    ``PACKING_RATIO`` times the share the model gives it on the
    ``n_snps`` Gram at the blocking the engine ran,
    ``resolve_blocking(params, DEFAULT_KERNEL)``. ``repro report`` and
    the live snapshot both judge with this one function.
    """
    measured = {
        key[len("phase."):]: hist.total
        for key, hist in recorder.timers.items()
        if key.startswith("phase.")
    }
    if not any(name in measured for name in ("pack_a", "pack_b")):
        return []
    rows = compare_phases_to_model(
        measured, n_snps, n_snps, k_words,
        params=resolve_blocking(params, DEFAULT_KERNEL), symmetric=True,
    )
    packing = [row for row in rows if row.name in ("pack_a", "pack_b")]
    pack_measured = sum(row.measured_share or 0.0 for row in packing)
    pack_modeled = sum(row.modeled_share for row in packing)
    if pack_modeled <= 0 or pack_measured <= PACKING_RATIO * pack_modeled:
        return []
    return [{
        "kind": "packing_heavy",
        "detail": (
            f"operand packing took {pack_measured:.0%} of tile "
            f"phase time vs {pack_modeled:.0%} modelled "
            f"(>{PACKING_RATIO:.0f}x) — reuse below model assumptions; "
            "check blocking parameters against cache sizes"
        ),
    }]


def _find_anomalies(
    timeline: dict,
    tiles: dict,
    report,
    profiler,
    stall_seconds: float = 0.0,
    wall_seconds: float = 0.0,
    workload: dict | None = None,
) -> list[dict]:
    """Flag the run's attribution smells, worst first by convention."""
    out: list[dict] = []
    band = (workload or {}).get("band") or {}
    band_width = band.get("window") or band.get("index_width") or 0
    n_snps = int((workload or {}).get("n_snps") or 0)
    if band_width and n_snps and band_width >= n_snps:
        out.append({
            "kind": "band_wasteful",
            "detail": (
                f"band window {band_width} covers the whole "
                f"{n_snps}-SNP triangle — no tiles can be pruned; "
                "drop --window/--window-kb and run dense"
            ),
        })
    if wall_seconds > 0 and stall_seconds > STALL_THRESHOLD * wall_seconds:
        out.append({
            "kind": "io_bound",
            "detail": (
                f"compute stalled {stall_seconds:.3g} s waiting on panel "
                f"prefetch ({stall_seconds / wall_seconds:.0%} of wall, "
                f"threshold {STALL_THRESHOLD:.0%}) — disk bandwidth is the "
                "bottleneck; raise --memory-budget or use faster storage"
            ),
        })
    coverage = tiles.get("phase_coverage")
    if coverage is not None and coverage < COVERAGE_FLOOR:
        out.append({
            "kind": "span_coverage_low",
            "detail": (
                f"phase spans attribute only {coverage:.0%} of measured "
                f"tile compute time (floor {COVERAGE_FLOOR:.0%}); the "
                "remainder is unattributed"
            ),
        })
    for row in timeline["workers"]:
        if len(timeline["workers"]) > 1 and (
            row["idle_fraction"] > IDLE_THRESHOLD
        ):
            out.append({
                "kind": "worker_idle",
                "detail": (
                    f"worker {row['worker']} idle "
                    f"{row['idle_fraction']:.0%} of the run "
                    f"(threshold {IDLE_THRESHOLD:.0%}) — tile imbalance "
                    "or dispatch starvation"
                ),
            })
    if report.n_retries > 0:
        out.append({
            "kind": "tile_retries",
            "detail": (
                f"{report.n_retries} tile retr"
                f"{'y' if report.n_retries == 1 else 'ies'} — retry "
                "backoff time is in the driver.backoff phase"
            ),
        })
    if report.n_quarantined > 0:
        out.append({
            "kind": "tiles_quarantined",
            "detail": (
                f"{report.n_quarantined} tile(s) quarantined; the matrix "
                "has holes and the wall-clock excludes their work"
            ),
        })
    if report.degraded:
        out.append({
            "kind": "executor_degraded",
            "detail": (
                f"executor degraded {report.engine} -> "
                f"{report.engine_used}; worker timeline reflects the "
                "fallback executor"
            ),
        })
    if profiler.n_dropped > 0:
        out.append({
            "kind": "spans_dropped",
            "detail": (
                f"{profiler.n_dropped} span(s) dropped on buffer "
                "overflow; raise SpanProfiler(capacity=...) for full "
                "attribution"
            ),
        })
    return out


def build_profile_payload(
    *,
    recorder,
    profiler,
    report,
    wall_seconds: float,
    workload: dict,
    params: BlockingParams | None = None,
) -> dict:
    """Assemble the ``repro-profile/1`` attribution payload for one run.

    Parameters
    ----------
    recorder:
        The :class:`~repro.observe.metrics.MetricsRecorder` the engine
        ran with. Worker-side phase times arrive here (the ``phase.*``
        timers fed from each tile's ``TileResult.phase_seconds``); the
        per-worker timeline needs ``keep_events=True`` so
        ``tile_computed`` events are retained (without it the timeline
        is empty, not wrong).
    profiler:
        The driver-side :class:`~repro.observe.spans.SpanProfiler`
        passed to :func:`repro.core.engine.run_engine` — ``driver.*``
        spans and the output sink's ``mirror`` spans live here.
    report:
        The run's :class:`~repro.core.engine.EngineReport`.
    wall_seconds:
        Driver wall-clock of the run (must be positive).
    workload:
        Problem description. ``n_snps`` and ``k_words`` are required —
        they fix the roofline's GEMM shape — everything else (engine,
        workers, stat, samples, block size) is carried through verbatim.
    params:
        Blocking the run executed (default: the engine's, i.e.
        ``resolve_blocking(None, DEFAULT_KERNEL)``), so the model charges
        the fringe padding that actually ran.
    """
    if wall_seconds <= 0:
        raise ValueError(f"wall_seconds must be positive, got {wall_seconds}")
    for key in ("n_snps", "k_words"):
        if key not in workload:
            raise ValueError(f"workload must carry {key!r}")
    blocking = resolve_blocking(params, DEFAULT_KERNEL)
    n_snps = int(workload["n_snps"])
    k_words = int(workload["k_words"])

    phases = _phase_table(recorder, profiler)
    compute_hist = recorder.timers.get("engine.tile_compute_seconds")
    worker_seconds = sum(
        row["seconds"] for row in phases.values() if row["where"] == "worker"
    )
    tiles = {
        "n_tiles": report.n_tiles,
        "n_computed": report.n_computed,
        "n_skipped": report.n_skipped,
        "n_retries": report.n_retries,
        "n_quarantined": report.n_quarantined,
        "n_batches": report.n_batches,
        "compute_seconds": (
            compute_hist.summary() if compute_hist is not None else None
        ),
        # Fraction of measured tile compute the spans account for; the
        # acceptance bar is that self-times sum to within 10% of the
        # per-tile wall-clock they decompose.
        "phase_coverage": (
            worker_seconds / compute_hist.total
            if compute_hist is not None and compute_hist.total > 0 else None
        ),
    }
    timeline = _worker_timeline(recorder.events, wall_seconds)
    measured = {name: row["seconds"] for name, row in phases.items()}
    roofline = [
        cmp.as_dict()
        for cmp in compare_phases_to_model(
            measured, n_snps, n_snps, k_words,
            params=blocking, symmetric=True,
        )
    ]
    model = None
    if report.complete and report.n_skipped == 0:
        model = compare_to_model(
            n_snps, n_snps, k_words, wall_seconds,
            params=blocking, symmetric=True,
        ).as_dict()
    payload = {
        "schema": PROFILE_SCHEMA,
        "workload": dict(workload),
        "wall_seconds": wall_seconds,
        "engine": report.engine,
        "engine_used": report.engine_used or report.engine,
        "workers": report.n_workers,
        "phases": phases,
        "tiles": tiles,
        "timeline": timeline,
        "roofline": roofline,
        "spans_dropped": profiler.n_dropped,
    }
    if model is not None:
        payload["model"] = model
    stall_hist = recorder.timers.get("prefetch.stall_seconds")
    payload["anomalies"] = _find_anomalies(
        timeline, tiles, report, profiler,
        stall_seconds=stall_hist.total if stall_hist is not None else 0.0,
        wall_seconds=wall_seconds,
        workload=workload,
    ) + packing_anomalies(recorder, n_snps, k_words, params)
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


def _render_profile(payload: dict) -> str:
    work = payload.get("workload", {})
    band = work.get("band") or {}
    band_note = ""
    if band.get("window"):
        band_note = f" | band {band['window']} SNPs"
    elif band.get("window_kb") is not None:
        band_note = f" | band {band['window_kb']:g} kb"
    lines = [
        f"profile ({payload['schema']}): engine={payload.get('engine', '?')} "
        f"workers={payload.get('workers', '?')} "
        f"stat={work.get('stat', '?')} "
        f"{work.get('n_snps', '?')} SNPs x {work.get('n_samples', '?')} "
        f"samples ({work.get('k_words', '?')} words/SNP)" + band_note,
    ]
    tiles = payload.get("tiles", {})
    coverage = tiles.get("phase_coverage")
    lines.append(
        f"wall {payload['wall_seconds']:.3f} s | "
        f"{tiles.get('n_computed', '?')}/{tiles.get('n_tiles', '?')} tiles "
        f"computed ({tiles.get('n_skipped', 0)} skipped, "
        f"{tiles.get('n_retries', 0)} retries, "
        f"{tiles.get('n_quarantined', 0)} quarantined) | "
        f"span coverage "
        f"{'--' if coverage is None else f'{coverage:.1%}'}"
    )
    lines.append("")
    lines.append(f"{'phase':<22} {'where':>6} {'seconds':>10} "
                 f"{'share':>7} {'count':>8}")
    phases = payload.get("phases", {})
    for name, row in sorted(
        phases.items(), key=lambda kv: -kv[1]["seconds"]
    ):
        lines.append(
            f"{name:<22} {row['where']:>6} {row['seconds']:>10.4g} "
            f"{_fmt_share(row.get('share')):>7} {row['count']:>8}"
        )
    roofline = payload.get("roofline", [])
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
    timeline = payload.get("timeline", {})
    workers = timeline.get("workers", [])
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
    else:
        lines.append("")
        lines.append("workers: no tile_computed events retained "
                     "(recorder ran without keep_events)")
    model = payload.get("model")
    if model is not None:
        lines.append("")
        lines.append(
            f"model: measured {model['measured_percent_of_peak']:.2f}% of "
            f"peak vs modeled {model['modeled_percent_of_peak']:.2f}% "
            f"({model['measured_vs_modeled']:.2f}x model)"
        )
    anomalies = payload.get("anomalies", [])
    lines.append("")
    if anomalies:
        lines.append(f"anomalies ({len(anomalies)}):")
        for anomaly in anomalies:
            lines.append(f"  - {anomaly['kind']}: {anomaly['detail']}")
    else:
        lines.append("anomalies: none")
    return "\n".join(lines)


def _render_metrics(payload: dict) -> str:
    lines = [
        f"metrics ({payload['schema']}): engine={payload.get('engine', '?')} "
        f"workers={payload.get('workers', '?')} "
        f"stat={payload.get('stat', '?')} "
        f"{payload.get('n_snps', '?')} SNPs x "
        f"{payload.get('n_samples', '?')} samples",
        f"wall {payload.get('wall_seconds', 0.0):.3f} s | "
        f"{payload.get('n_computed', '?')}/{payload.get('n_tiles', '?')} "
        f"tiles ({payload.get('n_skipped', 0)} skipped, "
        f"{payload.get('n_retries', 0)} retries, "
        f"{payload.get('n_quarantined', 0)} quarantined) | "
        f"{payload.get('pairs_per_second', 0.0):,.0f} pairs/s",
    ]
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
    band = payload.get("band")
    if band is not None:
        if band.get("window"):
            extent = f"window {band['window']} SNPs"
        else:
            extent = (
                f"window {band.get('max_distance', 0.0):g} bp "
                f"(index width {band.get('index_width', '?')})"
            )
        speedup = band.get("predicted_speedup")
        lines.append("")
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
    model = payload.get("model")
    if model is not None:
        lines.append("")
        lines.append(
            f"model: measured {model['measured_percent_of_peak']:.2f}% of "
            f"peak vs modeled {model['modeled_percent_of_peak']:.2f}% "
            f"({model['measured_vs_modeled']:.2f}x model)"
        )
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
    "repro-profile/1": _render_profile,
    "repro-ld-metrics/1": _render_metrics,
    "repro-bench-gemm/1": _render_bench_gemm,
    "repro-bench-banded/1": _render_bench_banded,
    "repro-bench-engine/1": _render_bench_engine,
    "repro-live/1": _render_live,
    "repro-run/1": _render_run,
}


def render_report(payload: dict | list) -> str:
    """Render any instrumentation artifact as text, dispatched by schema.

    Accepts a single payload dict (``repro-profile/1``,
    ``repro-ld-metrics/1``, ``repro-bench-gemm/1``,
    ``repro-bench-engine/1``) or a list of JSONL records — an event
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
