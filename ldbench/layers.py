"""Per-layer timing from outside the program.

The traced run wraps each layer at a public boundary, from this file:

========== ============================================ =====================
layer      boundary                                     where it is looked up
========== ============================================ =====================
gemm       ``popcount_gemm``                            ``repro.core.engine``
tile       ``compute_tile`` (stats = tile minus gemm)   ``repro.core.engine``,
                                                        ``repro.core.executors``
sink       the sink object passed to ``run_engine``     (wrapped in place)
journal    ``TileManifest.record``                      class attribute
prefetch   ``PanelPrefetcher.acquire``                  class attribute
store      ``PanelStore.read_rows``                     class attribute
pool       ``PersistentPool`` construction              ``repro.core.executors``
========== ============================================ =====================

A layer's self time is its wrapped time minus the wrapped calls nested in
it on the same thread. Pool workers are forked after the wrappers are
installed, so they inherit them; each worker appends its records to a file
in the scratch directory, which the driver process reads after the run.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

WORKER_GLOB = "trace-worker-*.jsonl"


@dataclass
class Record:
    """One wrapped call: its layer, wall and self seconds, whether it ran
    on the driver thread, and its work counts (shape, cells or bytes)."""

    layer: str
    total: float
    self_s: float
    on_driver: bool
    extra: list


class Tracer:
    """Wraps boundaries and keeps one :class:`Record` per wrapped call."""

    def __init__(self, worker_dir: Path) -> None:
        self.records: list[Record] = []
        self._worker_dir = worker_dir
        self._worker_file: Path | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._driver = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.records = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._driver = threading.get_ident()
        self._worker_file = self._worker_dir / f"trace-worker-{os.getpid()}.jsonl"

    def timed(self, layer: str, fn, extra=None):
        """*fn* wrapped to record *layer*; ``extra(args, result)`` adds
        the call's work counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                total = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += total
            self._record(
                layer, total, total - children,
                extra(args, result) if extra is not None else [],
            )
            return result

        return wrapper

    def _record(self, layer: str, total: float, self_s: float, extra: list) -> None:
        if self._worker_file is not None:
            line = json.dumps([layer, total, self_s, extra])
            with open(self._worker_file, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
            return
        on_driver = threading.get_ident() == self._driver
        record = Record(layer, total, self_s, on_driver, extra)
        with self._lock:
            self.records.append(record)

    def patch(self, owner: object, attr: str, layer: str, extra=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.timed(layer, original, extra))

    def patch_class(self, owner: object, attr: str, layer: str) -> None:
        """Replace class *attr* with a subclass whose construction is timed."""
        original = getattr(owner, attr)
        tracer = self

        class Traced(original):
            def __init__(self, *args, **kwargs):
                tracer.timed(layer, super().__init__)(*args, **kwargs)

        Traced.__name__ = Traced.__qualname__ = original.__name__
        self._patches.append((owner, attr, original))
        setattr(owner, attr, Traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def worker_records(self) -> list[Record]:
        records = []
        for path in sorted(self._worker_dir.glob(WORKER_GLOB)):
            for line in path.read_text(encoding="utf-8").splitlines():
                layer, total, self_s, extra = json.loads(line)
                records.append(Record(layer, total, self_s, False, extra))
        return records

    def clear(self) -> None:
        """Forget every record so far, the workers' included."""
        self.records.clear()
        for path in self._worker_dir.glob(WORKER_GLOB):
            path.unlink()


class TracedSink:
    """The sink handed to ``run_engine`` in the traced run."""

    def __init__(self, sink, tracer: Tracer) -> None:
        self._call = tracer.timed("sink", sink, lambda args, _: [args[2].nbytes])
        self.flush = tracer.timed("sink.flush", sink.flush)

    def __call__(self, i0: int, j0: int, block) -> None:
        self._call(i0, j0, block)


def install(tracer: Tracer) -> None:
    """Wrap every boundary of the table above."""
    from repro.core import engine, executors, prefetch
    from repro.io import panelstore

    def gemm_shape(args, _):
        a, b = args[0], args[1]
        return [int(a.shape[0]), int(b.shape[0]), int(a.shape[1])]

    def tile_cells(args, block):
        return [int(block.size), int(block.nbytes)]

    tracer.patch(engine, "popcount_gemm", "gemm", gemm_shape)
    tracer.patch(engine, "compute_tile", "tile", tile_cells)
    tracer.patch(executors, "compute_tile", "tile", tile_cells)
    tracer.patch(engine.TileManifest, "record", "journal")
    tracer.patch(prefetch.PanelPrefetcher, "acquire", "prefetch")
    tracer.patch(
        panelstore.PanelStore, "read_rows", "store",
        lambda args, rows: [int(rows.nbytes)],
    )
    tracer.patch_class(executors, "PersistentPool", "pool")


def gemm_workspace_mib(words, shape: tuple[int, int, int]) -> float:
    """Peak memory one ``popcount_gemm`` call allocates at *shape*.

    Starts from an empty workspace, so the figure covers the scratch pools
    the kernel keeps between calls as well as its output.
    """
    from repro.core.gemm import popcount_gemm
    from repro.core.macrokernel import GemmWorkspace

    m, n, _ = shape
    a, b = words[:m], words[:n]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        popcount_gemm(a, b, workspace=GemmWorkspace())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / 2**20


@dataclass
class Layer:
    calls: int = 0
    total: float = 0.0
    self_s: float = 0.0
    driver_self: float = 0.0
    extras: list = field(default_factory=list)


def summarize(records: list[Record]) -> dict[str, Layer]:
    layers: dict[str, Layer] = {}
    for rec in records:
        layer = layers.setdefault(rec.layer, Layer())
        layer.calls += 1
        layer.total += rec.total
        layer.self_s += rec.self_s
        if rec.on_driver:
            layer.driver_self += rec.self_s
        layer.extras.append(rec.extra)
    return layers


# -- per-layer metrics ---------------------------------------------------------

#: Each boundary, what it is called in a "missing" report, and the metrics
#: that come from it. A metric is reported only if its boundary saw calls,
#: or as 0 if the workload does not use the layer at all.
BOUNDARIES = {
    "gemm": ("popcount_gemm", (
        "gemm.calls", "gemm.word_ops", "gemm.busy_s", "gemm.word_ops_per_s",
        "gemm.share", "gemm.vs_model", "gemm.workspace_mb",
    )),
    "tile": ("compute_tile", (
        "stats.cells", "stats.busy_s", "stats.share", "engine.useful_ratio",
    )),
    "sink": ("sink call", ("sink.calls", "sink.bytes", "sink.busy_s", "sink.share")),
    "sink.flush": ("sink flush", ("sink.flushes", "sink.flush_s")),
    "journal": ("TileManifest.record", ("journal.records", "journal.busy_s")),
    "prefetch": ("PanelPrefetcher.acquire", (
        "prefetch.acquires", "prefetch.wait_s", "prefetch.wait_ratio",
    )),
    "store": ("PanelStore.read_rows", (
        "store.reads", "store.bytes_read", "store.read_s",
    )),
    "pool": ("PersistentPool construction", ("pool.spawn_s", "pool.spawns")),
    "worker": ("compute_tile in pool workers", (
        "executors.bytes_returned", "executors.worker_busy_s", "executors.worker_util",
    )),
}

#: Layers whose self time on the driver thread counts towards coverage.
NAMED = ("gemm", "tile", "sink", "sink.open", "sink.close", "sink.flush",
         "journal", "prefetch", "store")


def required(runner) -> set[str]:
    """Boundaries this workload must cross."""
    needed = {"gemm", "tile", "sink", "sink.flush", "journal"}
    if runner.workload.engine == "persistent":
        needed |= {"pool", "worker"}
    if runner.workload.memory_budget is not None:
        needed |= {"prefetch", "store"}
    return needed


def _model_seconds(gemm: list[Record]) -> float:
    """The analytical model's seconds for the executed GEMM shapes."""
    from repro.core.gemm import DEFAULT_KERNEL, resolve_blocking
    from repro.observe import compare_to_model

    by_shape: dict[tuple, list[float]] = {}
    for rec in gemm:
        by_shape.setdefault(tuple(rec.extra), []).append(rec.self_s)
    params = resolve_blocking(None, DEFAULT_KERNEL)
    total = 0.0
    for (m, n, k), times in by_shape.items():
        model = compare_to_model(m, n, k, sum(times), params=params)
        total += model.modeled_seconds * len(times)
    return total


def per_layer(runner, result: dict, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of the traced run in *result*."""
    wall = result["trace_wall"]
    report = result["traced"]["report"]
    driver = result["driver_records"]
    workers = result["worker_records"]
    records = driver + workers
    by_layer = summarize(records)
    if workers:
        by_layer["worker"] = summarize([r for r in workers if r.layer == "tile"])["tile"]
    pool_run = runner.workload.engine == "persistent"
    lanes = runner.workload.n_workers if pool_run else 1

    def get(name: str) -> Layer:
        return by_layer.get(name, Layer())

    gemm, tile, sink, flush = get("gemm"), get("tile"), get("sink"), get("sink.flush")
    gemm_records = [r for r in records if r.layer == "gemm"]
    word_ops = sum(3 * m * n * k for m, n, k in gemm.extras)
    cells = sum(extra[0] for extra in tile.extras)
    sink_busy = sink.total + get("sink.open").total + get("sink.close").total
    covered = sum(get(name).driver_self for name in NAMED)
    worker = get("worker")
    largest = max(gemm.extras, key=lambda mnk: mnk[0] * mnk[1] * mnk[2], default=None)
    store = runner.store
    metrics = {
        "gemm.calls": gemm.calls,
        "gemm.word_ops": word_ops,
        "gemm.busy_s": gemm.self_s,
        "gemm.word_ops_per_s": word_ops / gemm.self_s if gemm.self_s else 0.0,
        "gemm.share": gemm.self_s / (wall * lanes),
        "gemm.vs_model": (
            gemm.self_s / _model_seconds(gemm_records) if gemm_records else 0.0
        ),
        "gemm.workspace_mb": (
            gemm_workspace_mib(runner.panel.words, largest) if largest else 0.0
        ),
        "stats.cells": cells,
        "stats.busy_s": tile.self_s,
        "stats.share": tile.self_s / (wall * lanes),
        "stats.r2_above_one": result["r2_above_one"],
        "sink.calls": sink.calls,
        "sink.bytes": sum(extra[0] for extra in sink.extras),
        "sink.busy_s": sink_busy,
        "sink.flushes": flush.calls,
        "sink.flush_s": flush.total,
        "sink.share": (sink_busy + flush.total) / wall,
        "engine.tiles": report.n_tiles,
        "engine.tiles_pruned": report.n_pruned,
        "engine.tiles_partial": report.n_partial,
        "engine.useful_ratio": runner.pairs / cells if cells else 0.0,
        "engine.retries": report.n_retries,
        "engine.quarantined": report.n_quarantined,
        "engine.driver_s": wall - covered,
        "journal.records": get("journal").calls,
        "journal.busy_s": get("journal").total,
        "pool.spawn_s": get("pool").total,
        "pool.spawns": get("pool").calls,
        "pool.respawns": report.n_worker_respawns,
        "executors.batches": report.n_batches,
        "executors.bytes_returned": sum(extra[1] for extra in worker.extras),
        "executors.worker_busy_s": worker.total,
        "executors.worker_util": worker.total / (wall * lanes),
        "executors.driver_busy_s": result["driver_cpu"] if pool_run else 0.0,
        "prefetch.acquires": get("prefetch").calls,
        "prefetch.wait_s": get("prefetch").total,
        "prefetch.wait_ratio": get("prefetch").total / wall,
        "store.pack_s": result["pack_s"],
        "store.bytes": store.path.stat().st_size if store is not None else 0,
        "store.reads": get("store").calls,
        "store.bytes_read": sum(extra[0] for extra in get("store").extras),
        "store.read_s": get("store").total,
        "trace.wall_s": wall,
        "trace.coverage": covered / wall,
        "trace.overhead": wall / untraced_wall - 1.0,
    }
    missing = [
        name for name in sorted(required(runner))
        if name not in by_layer or by_layer[name].calls == 0
    ]
    for name in missing:
        label, dropped = BOUNDARIES[name]
        print(
            f"trace: MISSING boundary {name} ({label}) on "
            f"{runner.workload.name}: {', '.join(dropped)} not reported",
            flush=True,
        )
        for metric in dropped:
            metrics.pop(metric, None)
    return metrics
