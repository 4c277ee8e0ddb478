"""The three workloads, driven the way ``repro ld --engine`` drives the library.

Each run opens the output sink, calls ``run_engine`` with a tile journal,
and closes the sink; its wall time runs from opening the sink to closing
it, as ``repro ld`` times a run. Runs go back to back in one closed loop
with a single client.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.banding import BandSpec
from repro.core.engine import EngineReport, run_engine
from repro.core.executors import stop_pools
from repro.core.streaming import BandedNpySink, NpyMemmapSink
from repro.encoding.bitmatrix import BitMatrix
from repro.io.panelstore import PanelStore
from repro.simulate.datasets import dataset_A, dataset_B

from layers import TracedSink, Tracer

#: Tile side of every workload (``repro ld --block-snps`` default).
BLOCK_SNPS = 512


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    engine: str
    n_workers: int
    banded: bool = False
    memory_budget: int | None = None

    def panel(self, seed: int) -> BitMatrix:
        make = dataset_A if self.dataset == "A" else dataset_B
        return make(seed=seed)

    @property
    def default_seed(self) -> int:
        """The dataset generator's own default seed."""
        return 1000 if self.dataset == "A" else 2000


WORKLOADS = {
    # Dataset A in memory, one thread: the plain single-threaded baseline
    # where gemm, stats and the dense sink show undiluted.
    "dense-a": Workload("dense-a", "A", "serial", 1),
    # Same problem on the warm persistent pool: the only workload that
    # enters the executors (arena hand-off, CRC checks, pipe dispatch).
    "dense-a-pool": Workload("dense-a-pool", "A", "persistent", 2),
    # Dataset B from a packed store under a budget of a third of the
    # panel, banded at W = n/8: prefetch windows, band masks, O(n·W) sink.
    "banded-b-store": Workload(
        "banded-b-store", "B", "serial", 1, banded=True, memory_budget=4 << 20
    ),
}


class Runner:
    """One workload's inputs, set-up and runs inside a scratch directory."""

    def __init__(self, workload: Workload, panel: BitMatrix, scratch: Path) -> None:
        self.workload = workload
        self.panel = panel
        self.scratch = scratch
        self.n_snps = panel.n_snps
        self.window = panel.n_snps // 8 if workload.banded else None
        self.band = BandSpec(window=self.window) if workload.banded else None
        self.store: PanelStore | None = None
        self.store_path = scratch / "panel.pnl"
        self.out = scratch / "ld.npy"
        self.journal = scratch / "ld.npy.manifest"

    @property
    def pairs(self) -> int:
        """Distinct SNP pairs (i >= j) a run delivers, from the shape alone."""
        n = self.n_snps
        if self.window is None:
            return n * (n + 1) // 2
        w = self.window
        return n * (w + 1) - w * (w + 1) // 2

    @property
    def data(self):
        return self.store if self.store is not None else self.panel

    def setup(self) -> tuple[float, float]:
        """Set the program up for timed runs; ``(seconds, pack seconds)``.

        Packs and opens the store, spawns the pool, and warms the tile
        path up, each as the workload needs.
        """
        start = time.perf_counter()
        pack_s = 0.0
        if self.workload.memory_budget is not None:
            if self.store is not None:
                self.store.close()
            self.store = PanelStore.create(self.store_path, self.panel)
            pack_s = time.perf_counter() - start
        if self.workload.engine == "persistent":
            # The pool is keyed by the panel, so it is spawned by a run on
            # the whole panel: a width-1 band keeps that run short.
            stop_pools()
            self._warm_up(self.panel, band=1)
        else:
            prefix = BitMatrix(
                words=self.panel.words[:BLOCK_SNPS], n_samples=self.panel.n_samples
            )
            self._warm_up(prefix, band=None)
        return time.perf_counter() - start, pack_s

    def _warm_up(self, panel: BitMatrix, band: int | None) -> None:
        path = self.scratch / "warm-up.npy"
        journal = self.scratch / "warm-up.npy.manifest"
        sink = (
            BandedNpySink(path, panel.n_snps, band)
            if band is not None
            else NpyMemmapSink(path, panel.n_snps)
        )
        with sink:
            run_engine(
                panel, sink,
                block_snps=BLOCK_SNPS,
                engine=self.workload.engine,
                n_workers=self.workload.n_workers,
                band=band,
                manifest_path=journal,
            )
        path.unlink()
        journal.unlink()

    def run(self, tracer: Tracer | None = None) -> tuple[float, EngineReport, float]:
        """One run: ``(wall seconds, report, driver-thread CPU seconds)``."""

        def open_sink():
            if self.window is not None:
                return BandedNpySink(self.out, self.n_snps, self.window)
            return NpyMemmapSink(self.out, self.n_snps)

        def close_sink(sink) -> None:
            sink.close()

        if tracer is not None:
            open_sink = tracer.timed("sink.open", open_sink)
            close_sink = tracer.timed("sink.close", close_sink)
        cpu_start = time.thread_time()
        start = time.perf_counter()
        sink = open_sink()
        try:
            report = run_engine(
                self.data,
                sink if tracer is None else TracedSink(sink, tracer),
                stat="r2",
                block_snps=BLOCK_SNPS,
                engine=self.workload.engine,
                n_workers=self.workload.n_workers,
                memory_budget=self.workload.memory_budget,
                band=self.window,
                manifest_path=self.journal,
            )
        finally:
            close_sink(sink)
        wall = time.perf_counter() - start
        return wall, report, time.thread_time() - cpu_start

    def clean(self) -> None:
        """Remove a run's output and journal, so tmpfs never holds two."""
        self.out.unlink(missing_ok=True)
        self.journal.unlink(missing_ok=True)

    def close(self) -> None:
        """Stop the pool and release the store (idempotent)."""
        stop_pools()
        if self.store is not None:
            self.store.close()
            self.store = None
