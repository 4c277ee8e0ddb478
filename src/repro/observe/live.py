"""Live run-status bus: a crash-safe snapshot file the engine publishes.

Post-hoc artifacts (the run report, the trace) answer *what happened*;
this module answers *what is happening* — the sustained-throughput monitoring
the out-of-core GEMM literature treats as table stakes ("Computing
Petaflops over Terabytes of Data"; "Streaming Data from HDD to GPUs for
Sustained Peak Performance": a 2-hour sweep that went I/O-bound at
minute 3 must say so at minute 3, not in the post-mortem).

The design is a single-writer status file, not a socket:

- :class:`LivePublisher` is a sink of the run's
  :class:`~repro.observe.metrics.MetricsRecorder`. It reads tile, pair,
  retry and respawn totals from the recorder's ``engine.*`` counters,
  per-worker rows from the run's
  :class:`~repro.observe.report.WorkerTimeline` sink, and the run
  totals and respawn log from the events, and serializes it all as one
  versioned JSON blob (``repro-live/1``) on a throttled cadence (~2 Hz
  by default).
- Every publish is an **atomic replace**: the blob is written to a
  sibling temp file and ``os.replace``-d over the target, so a reader
  polling concurrently — ``repro top``, the Prometheus exporter, a
  human with ``watch cat`` — always sees a complete JSON document,
  never a torn write. A crash leaves the last good snapshot behind.
- Disabled is free: a run without ``--live`` attaches no publisher, and
  a run without any recorder pays the engine's one ``recorder is not
  None`` comparison per tile.
- A run that raises never emits ``run_end``; closing the recorder then
  publishes a final snapshot with ``phase: "failed"``, so ``repro top``
  and the exporter never show a dead run as running.

Reader-side helpers live here too: :func:`read_snapshot` (tolerant
load), :func:`render_top` (the ``repro top`` terminal dashboard with
per-worker rows and a throughput sparkline), :func:`prometheus_text`
(text-format exposition mapping the snapshot to gauges/counters — the
metric surface the future LD query service daemon will reuse), and
:func:`serve_prometheus` (a stdlib HTTP exporter for ``repro export
--serve``).

The snapshot's %-of-peak and anomalies come from the run report's own
rules (:func:`repro.observe.report.model_row` and
:func:`repro.observe.report.find_anomalies`) applied to the running
totals, so the dashboard and the post-hoc report never disagree about
what counts as a smell; at ``run_end`` both judge the same totals over
the engine's run seconds. The imports resolve lazily because
report/modelcheck pull in :mod:`repro.core` (the cycle
:mod:`repro.observe`'s ``__init__`` documents).
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import deque
from pathlib import Path

__all__ = [
    "LIVE_SCHEMA",
    "LivePublisher",
    "new_run_id",
    "prometheus_text",
    "read_snapshot",
    "render_top",
    "serve_prometheus",
]

LIVE_SCHEMA = "repro-live/1"

#: Minimum seconds between published snapshots (~2 Hz).
DEFAULT_INTERVAL = 0.5

#: Published rate samples retained for the dashboard sparkline.
RATE_HISTORY = 32

#: A worker whose last heartbeat is older than this many publish
#: intervals renders as idle (heartbeats arrive on tile delivery, so
#: the scale is tiles, not milliseconds).
_IDLE_AFTER_INTERVALS = 4.0

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def new_run_id() -> str:
    """A sortable, collision-resistant run identifier."""
    return time.strftime("%Y%m%d-%H%M%S") + "-" + os.urandom(3).hex()


class LivePublisher:
    """Single-writer publisher of the ``repro-live/1`` snapshot file.

    A sink of one run's recorder, attached with
    ``recorder.sinks.append(publisher)`` after *timeline*; events arrive
    on the driver thread only.

    Parameters
    ----------
    path:
        Snapshot target. Each publish atomically replaces it.
    recorder:
        The :class:`~repro.observe.metrics.MetricsRecorder` this
        publisher is a sink of. Its ``engine.*`` counters give the
        snapshot's tile, pair, retry and respawn totals, its timers feed
        the anomaly rules, and its ``run_id`` (a fresh
        :func:`new_run_id` when it has none) names the snapshot; the
        publisher never writes to it.
    timeline:
        The run's :class:`~repro.observe.report.WorkerTimeline`, a sink
        of the same recorder attached *before* this publisher: the
        worker rows and the idle verdicts read it.
    config:
        Static run description carried verbatim into every snapshot
        (engine, stat, shape, band, memory budget, ...). When it names
        ``n_snps``/``k_words``, snapshots include a running %-of-peak
        estimate under the run report's model rule (no band, nothing
        skipped or quarantined), scored at the projected end-to-end
        time.
    interval:
        Throttle for :meth:`maybe_publish` (seconds; ~2 Hz default).
    """

    def __init__(
        self,
        path: str | Path,
        *,
        recorder,
        timeline,
        config: dict | None = None,
        interval: float = DEFAULT_INTERVAL,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.path = Path(path)
        self.recorder = recorder
        self.timeline = timeline
        self.run_id = recorder.run_id or new_run_id()
        self.config = dict(config) if config else {}
        self.interval = float(interval)
        self.phase = "starting"
        self.n_published = 0
        # Run totals, from the run_start event.
        self.tiles_total = 0
        self.tiles_pruned = 0
        self.pairs_total = 0
        self._respawn_log: deque[dict] = deque(maxlen=8)
        self._t0 = time.monotonic()
        self._started_unix = time.time()
        # The engine's run seconds, from run_end: the final snapshot's
        # verdicts judge the span the run report judges.
        self._run_seconds: float | None = None
        self._next_due = 0.0  # first maybe_publish always fires
        # (monotonic ts, pairs_done) samples taken at publish time; the
        # window rate spans the deque, so ~8 s at the default cadence.
        self._rate_samples: deque[tuple[float, int]] = deque(maxlen=16)
        self._rate_history: deque[float] = deque(maxlen=RATE_HISTORY)

    # -- sink interface (cheap unless a publish is due) --------------------

    def write(self, event: dict) -> None:
        """Fold one recorder event in, then publish if the throttle allows.

        ``run_start`` and ``run_end`` force a snapshot out (phase
        ``running`` / ``done``).
        """
        kind = event["kind"]
        if kind == "worker_respawn":
            self._respawn_log.append({
                "worker": int(event["worker"]),
                "elapsed_seconds": time.monotonic() - self._t0,
            })
        elif kind == "run_start":
            self.tiles_total = event["n_tiles"]
            self.pairs_total = event["pairs_total"]
            self.tiles_pruned = event.get("tiles_pruned", 0)
            self.phase = "running"
            self._t0 = time.monotonic()
            self._started_unix = time.time()
            self.publish()
            return
        elif kind == "run_end":
            self.phase = "done"
            self._run_seconds = event.get("seconds")
            self.publish()
            return
        self.maybe_publish()

    def close(self) -> None:
        """Publish ``phase: "failed"`` if the run never reached ``run_end``."""
        if self.phase in ("starting", "running"):
            self.phase = "failed"
            self.publish()

    # -- publication ------------------------------------------------------

    def maybe_publish(self) -> bool:
        """Publish if the throttle interval elapsed.

        One monotonic-clock read and a comparison when throttled — cheap
        enough to run on every event.
        """
        now = time.monotonic()
        if now < self._next_due:
            return False
        self.publish(now=now)
        return True

    def publish(self, *, now: float | None = None) -> None:
        """Assemble and atomically replace the snapshot file."""
        if now is None:
            now = time.monotonic()
        self._next_due = now + self.interval
        snapshot = self._snapshot(now)
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(
            json.dumps(snapshot, separators=(",", ":"), default=repr) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, self.path)
        self.n_published += 1

    def _snapshot(self, now: float) -> dict:
        if self._run_seconds is not None:
            elapsed = max(self._run_seconds, 1e-9)
        else:
            elapsed = max(now - self._t0, 1e-9)
        counters = self.recorder.counters
        pairs_done = counters.get("engine.pairs_computed", 0)
        self._rate_samples.append((now, pairs_done))
        t_old, pairs_old = self._rate_samples[0]
        window = (
            (pairs_done - pairs_old) / (now - t_old)
            if now > t_old else 0.0
        )
        self._rate_history.append(window)
        idle_after = max(2.0, _IDLE_AFTER_INTERVALS * self.interval)
        worker_rows = []
        for worker, row in sorted(self.timeline.workers.items()):
            age = now - row["last_seen"]
            worker_rows.append({
                "worker": worker,
                "n_tiles": row["n_tiles"],
                "busy_seconds": row["busy_seconds"],
                "last_seen_seconds": age,
                "state": (
                    "busy" if (self.phase == "running" and age < idle_after)
                    else "idle"
                ),
            })
        stall = self.recorder.timers.get("prefetch.stall_seconds")
        prefetch = {
            "bytes_read": counters.get("prefetch.bytes_read", 0),
            "stall_seconds": stall.total if stall is not None else 0.0,
        }
        # Lazy: report pulls in repro.core (see the module docstring).
        from repro.observe.report import find_anomalies

        return {
            "schema": LIVE_SCHEMA,
            "run_id": self.run_id,
            "pid": os.getpid(),
            "seq": self.n_published,
            "phase": self.phase,
            "updated_unix": time.time(),
            "started_unix": self._started_unix,
            "elapsed_seconds": elapsed,
            "config": self.config,
            "tiles": {
                "total": self.tiles_total,
                "done": counters.get("engine.tiles_computed", 0),
                "skipped": counters.get("engine.tiles_skipped", 0),
                "pruned": self.tiles_pruned,
                "quarantined": counters.get("engine.tiles_quarantined", 0),
            },
            "pairs": {
                "total": self.pairs_total,
                "done": pairs_done,
                "skipped": counters.get("engine.pairs_skipped", 0),
                "per_second": pairs_done / elapsed,
                "window_per_second": window,
            },
            "percent_of_peak": self._percent_of_peak(elapsed, pairs_done),
            "workers": worker_rows,
            "worker_respawns": counters.get("engine.worker_respawns", 0),
            "recent_respawns": list(self._respawn_log),
            "retries": counters.get("engine.retries", 0),
            "prefetch": prefetch,
            "anomalies": find_anomalies(self.recorder, self.timeline, elapsed),
            "rate_history": [round(r, 3) for r in self._rate_history],
        }

    def _percent_of_peak(
        self, elapsed: float, pairs_done: int
    ) -> float | None:
        """Running %-of-peak estimate under the run report's model rule.

        Projects the run's end-to-end time at the current average rate
        and scores the *whole* problem at that pace — the same currency
        as the run report. :func:`repro.observe.report.model_row` leaves
        banded, resumed and quarantining runs unpriced; runs whose config
        does not carry the GEMM shape have nothing to price.
        """
        n_snps = self.config.get("n_snps")
        k_words = self.config.get("k_words")
        if (not n_snps or not k_words or pairs_done <= 0
                or self.pairs_total <= 0):
            return None
        from repro.observe.report import model_row

        counters = self.recorder.counters
        row = model_row(
            int(n_snps), int(k_words), elapsed * self.pairs_total / pairs_done,
            banded=bool(self.config.get("band")),
            n_skipped=counters.get("engine.tiles_skipped", 0),
            n_quarantined=counters.get("engine.tiles_quarantined", 0),
        )
        return None if row is None else row["measured_percent_of_peak"]


# ---------------------------------------------------------------------------
# Reader side: repro top, the Prometheus exporter.
# ---------------------------------------------------------------------------


def read_snapshot(path: str | Path) -> dict | None:
    """Load a live snapshot; ``None`` when the file does not exist yet.

    The writer's atomic replace means a present file is always one
    complete JSON document — a parse error here is a real corruption
    (or not a snapshot file at all) and raises.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    payload = json.loads(text)
    if payload.get("schema") != LIVE_SCHEMA:
        raise ValueError(
            f"{path}: schema {payload.get('schema')!r} is not {LIVE_SCHEMA!r}"
        )
    return payload


def sparkline(values: list[float]) -> str:
    """Unicode block sparkline of *values* (empty string when empty)."""
    if not values:
        return ""
    top = max(values)
    if top <= 0:
        return _SPARK_CHARS[0] * len(values)
    steps = len(_SPARK_CHARS) - 1
    return "".join(
        _SPARK_CHARS[min(steps, int(v / top * steps + 0.5))] for v in values
    )


def _fmt_age(seconds: float) -> str:
    if seconds < 60.0:
        return f"{seconds:.1f}s ago"
    return f"{seconds / 60.0:.1f}m ago"


def render_top(snapshot: dict) -> str:
    """Render one live snapshot as the ``repro top`` dashboard."""
    cfg = snapshot.get("config", {})
    tiles = snapshot.get("tiles", {})
    pairs = snapshot.get("pairs", {})
    bits = [
        f"run {snapshot.get('run_id', '?')} [{snapshot.get('phase', '?')}]",
        f"engine={cfg.get('engine', '?')}",
    ]
    if cfg.get("workers"):
        bits.append(f"workers={cfg['workers']}")
    bits.append(
        f"{cfg.get('stat', '?')} {cfg.get('n_snps', '?')} SNPs x "
        f"{cfg.get('n_samples', '?')} samples"
    )
    if cfg.get("band"):
        bits.append(f"band {cfg['band']}")
    if cfg.get("memory_budget"):
        bits.append(f"budget {cfg['memory_budget']}")
    lines = [" | ".join(bits)]
    lines.append(
        f"tiles {tiles.get('done', 0)}/{tiles.get('total', 0)} done "
        f"({tiles.get('skipped', 0)} skipped, {tiles.get('pruned', 0)} "
        f"pruned, {tiles.get('quarantined', 0)} quarantined) | "
        f"elapsed {snapshot.get('elapsed_seconds', 0.0):.1f} s"
    )
    peak = snapshot.get("percent_of_peak")
    lines.append(
        f"pairs {pairs.get('done', 0):,}/{pairs.get('total', 0):,} | "
        f"{pairs.get('window_per_second', 0.0):,.0f} pairs/s now, "
        f"{pairs.get('per_second', 0.0):,.0f} avg"
        + (f" | {peak:.1f}% of peak" if peak is not None else "")
    )
    history = snapshot.get("rate_history", [])
    if history:
        lines.append(f"rate {sparkline(history)}")
    prefetch = snapshot.get("prefetch", {})
    if prefetch.get("bytes_read"):
        lines.append(
            f"prefetch {prefetch['bytes_read'] / 1e6:.1f} MB read, "
            f"{prefetch.get('stall_seconds', 0.0):.3g} s stalled"
        )
    workers = snapshot.get("workers", [])
    n_busy = sum(1 for w in workers if w.get("state") == "busy")
    lines.append("")
    lines.append(
        f"workers: {n_busy} busy, {len(workers) - n_busy} idle | "
        f"{snapshot.get('worker_respawns', 0)} respawns, "
        f"{snapshot.get('retries', 0)} retries"
    )
    if workers:
        lines.append(f"  {'worker':<20} {'state':>6} {'tiles':>6} "
                     f"{'busy s':>9} {'last seen':>12}")
        for row in workers:
            lines.append(
                f"  {row.get('worker', '?'):<20} {row.get('state', '?'):>6} "
                f"{row.get('n_tiles', 0):>6} "
                f"{row.get('busy_seconds', 0.0):>9.4g} "
                f"{_fmt_age(row.get('last_seen_seconds', 0.0)):>12}"
            )
    for event in snapshot.get("recent_respawns", []):
        lines.append(
            f"  respawned worker slot {event.get('worker')} at "
            f"{event.get('elapsed_seconds', 0.0):.1f} s"
        )
    anomalies = snapshot.get("anomalies", [])
    lines.append("")
    if anomalies:
        lines.append(f"anomalies ({len(anomalies)}):")
        for anomaly in anomalies:
            lines.append(f"  - {anomaly['kind']}: {anomaly['detail']}")
    else:
        lines.append("anomalies: none")
    return "\n".join(lines)


def _prom_escape(value: str) -> str:
    return (
        str(value).replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")
    )


def prometheus_text(snapshot: dict) -> str:
    """Map one snapshot to Prometheus text exposition format (0.0.4).

    Progress quantities export as gauges (a resumed run restarts them),
    monotone totals as counters. Every series carries the ``run_id``
    label so a long-lived scraper can tell runs apart.
    """
    run = _prom_escape(snapshot.get("run_id", "unknown"))
    label = f'{{run_id="{run}"}}'
    tiles = snapshot.get("tiles", {})
    pairs = snapshot.get("pairs", {})
    prefetch = snapshot.get("prefetch", {})

    def num(value: object) -> str:
        if value is None:
            return "NaN"
        value = float(value)
        if math.isnan(value):
            return "NaN"
        return format(value, ".10g")

    lines: list[str] = []

    def gauge(name: str, help_: str, value: object, labels: str = "") -> None:
        lines.append(f"# HELP {name} {help_}")
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name}{labels or label} {num(value)}")

    def counter(name: str, help_: str, value: object) -> None:
        lines.append(f"# HELP {name} {help_}")
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name}{label} {num(value)}")

    gauge("repro_live_up",
          "1 while the engine run is publishing (0 once done or failed)",
          1.0 if snapshot.get("phase") == "running" else 0.0)
    gauge("repro_elapsed_seconds", "Wall-clock seconds since run start",
          snapshot.get("elapsed_seconds"))
    for key in ("total", "done", "skipped", "pruned", "quarantined"):
        gauge(f"repro_tiles_{key}", f"Tiles {key} in the current run",
              tiles.get(key, 0))
    gauge("repro_pairs_total", "Pair cells the run will deliver",
          pairs.get("total", 0))
    gauge("repro_pairs_done", "Pair cells delivered so far",
          pairs.get("done", 0))
    gauge("repro_pairs_per_second",
          "Average delivered pair throughput since run start",
          pairs.get("per_second", 0.0))
    gauge("repro_pairs_per_second_window",
          "Delivered pair throughput over the recent sample window",
          pairs.get("window_per_second", 0.0))
    gauge("repro_percent_of_peak",
          "Running %-of-peak estimate vs the machine model (NaN if n/a)",
          snapshot.get("percent_of_peak"))
    counter("repro_retries_total", "Tile retries", snapshot.get("retries", 0))
    counter("repro_worker_respawns_total", "Workers respawned in place",
            snapshot.get("worker_respawns", 0))
    counter("repro_prefetch_bytes_read_total",
            "Panel bytes staged by the prefetcher",
            prefetch.get("bytes_read", 0))
    counter("repro_prefetch_stall_seconds_total",
            "Seconds compute spent blocked on prefetch",
            prefetch.get("stall_seconds", 0.0))
    workers = snapshot.get("workers", [])
    if workers:
        lines.append("# HELP repro_worker_busy 1 if the worker heartbeat is "
                     "fresh, 0 if idle")
        lines.append("# TYPE repro_worker_busy gauge")
        for row in workers:
            wlabel = (f'{{run_id="{run}",'
                      f'worker="{_prom_escape(row.get("worker", "?"))}"}}')
            busy = 1.0 if row.get("state") == "busy" else 0.0
            lines.append(f"repro_worker_busy{wlabel} {num(busy)}")
        lines.append("# HELP repro_worker_tiles_total Tiles delivered per "
                     "worker")
        lines.append("# TYPE repro_worker_tiles_total counter")
        for row in workers:
            wlabel = (f'{{run_id="{run}",'
                      f'worker="{_prom_escape(row.get("worker", "?"))}"}}')
            lines.append(
                f"repro_worker_tiles_total{wlabel} "
                f"{num(row.get('n_tiles', 0))}"
            )
    anomalies = snapshot.get("anomalies", [])
    lines.append("# HELP repro_anomaly 1 per live anomaly flag currently "
                 "raised")
    lines.append("# TYPE repro_anomaly gauge")
    if anomalies:
        for anomaly in anomalies:
            alabel = (f'{{run_id="{run}",'
                      f'kind="{_prom_escape(anomaly.get("kind", "?"))}"}}')
            lines.append(f"repro_anomaly{alabel} 1")
    else:
        lines.append(f'repro_anomaly{{run_id="{run}",kind="none"}} 0')
    return "\n".join(lines) + "\n"


def serve_prometheus(
    snapshot_path: str | Path, port: int, *, host: str = "127.0.0.1"
):
    """An HTTP server exposing the snapshot at ``/metrics`` (stdlib only).

    Returns the configured :class:`http.server.ThreadingHTTPServer`
    without starting it — the caller owns ``serve_forever()`` (the CLI
    blocks on it; tests drive it from a thread and ``shutdown()`` it).
    The snapshot file is re-read per scrape, so a long-lived exporter
    follows the run without restarting.
    """
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    target = Path(snapshot_path)

    class _Handler(BaseHTTPRequestHandler):
        def do_GET(self) -> None:  # noqa: N802 - http.server API
            if self.path.split("?", 1)[0] not in ("/metrics", "/"):
                self.send_error(404)
                return
            try:
                snapshot = read_snapshot(target)
            except (OSError, ValueError, json.JSONDecodeError):
                snapshot = None
            if snapshot is None:
                self.send_error(503, "no live snapshot")
                return
            body = prometheus_text(snapshot).encode("utf-8")
            self.send_response(200)
            self.send_header(
                "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
            )
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args: object) -> None:  # quiet by default
            pass

    return ThreadingHTTPServer((host, port), _Handler)
