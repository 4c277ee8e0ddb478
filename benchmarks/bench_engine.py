"""Scaling benchmark for the sharded tiled execution engine.

Measures wall-clock and pair throughput of ``repro.core.engine`` across
its three executors (serial / threads / persistent) and several worker
counts, on two or more simulated panel shapes, and scores every run
against the analytical Haswell model (``repro.observe.compare_to_model``
— the paper's %-of-peak framing, Figs. 3–4). Results are serialized to
``BENCH_engine.json`` so the bench trajectory accumulates run over run.
Runnable two ways:

as a script (what CI's smoke test runs)::

    python benchmarks/bench_engine.py --quick
    python benchmarks/bench_engine.py --snps 2000 --samples 1000 --workers 4

under the pytest benchmark harness, with the other paper benches::

    pytest benchmarks/bench_engine.py --benchmark-only -s

On a single-vCPU container the parallel engines cannot beat serial (the
printout is the point: the harness reports the overhead floor); on real
multi-core hardware the persistent pool scales with cores, which is the
regime the ROADMAP's production-scale target cares about. The
``persistent`` row is timed *warm* — one untimed run builds the pool
first — because the backend's contract is that steady-state runs pay
zero spawn or attach cost; its cold cost is one pool build per panel.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.engine import ENGINES, enumerate_tiles, run_engine  # noqa: E402
from repro.core.gemm import DEFAULT_KERNEL, resolve_blocking  # noqa: E402
from repro.observe import MetricsRecorder, compare_to_model  # noqa: E402
from repro.simulate.datasets import simulate_sfs_panel  # noqa: E402

#: (n_samples, n_snps, block_snps) per benchmarked shape.
FULL_SHAPES = [(1024, 1200, 256), (512, 600, 128)]
QUICK_SHAPES = [(128, 220, 64), (96, 140, 48)]


def _null_sink(i0: int, j0: int, block: np.ndarray) -> None:
    """Measure engine scheduling + compute, not sink I/O."""


def run_once(
    panel, *, engine: str, n_workers: int, block_snps: int, repeats: int = 1
) -> tuple[float, int, MetricsRecorder]:
    """Median-of-*repeats* timed engine runs; returns (s, tiles, recorder).

    Taking the median over repetitions is the standard defence against
    scheduler noise — on a shared or single-vCPU box a single timing of
    a millisecond-scale run can be off by 2-3x, which would swamp the
    executor comparison the table exists to make. (The median, not the
    minimum: a spawn-dominated executor occasionally forks unusually
    fast, so min-of-N reports a best case no steady workload sees.)
    """
    samples = []
    for _ in range(max(1, repeats)):
        recorder = MetricsRecorder()
        start = time.perf_counter()
        report = run_engine(
            panel, _null_sink, engine=engine, n_workers=n_workers,
            block_snps=block_snps, recorder=recorder,
        )
        elapsed = time.perf_counter() - start
        assert report.complete
        assert recorder.event_count("tile_computed") == report.n_computed
        samples.append((elapsed, report.n_computed, recorder))
    samples.sort(key=lambda s: s[0])
    return samples[(len(samples) - 1) // 2]


def bench_engine_scaling(
    *, n_samples: int, n_snps: int, block_snps: int, workers: list[int],
    repeats: int = 1,
) -> list[dict]:
    """Time every (engine, workers) combination and print the table.

    Returns one JSON-serializable result row per run, including measured
    pairs/s and the measured/modeled %-of-peak pair.
    """
    rng = np.random.default_rng(2016)
    panel = simulate_sfs_panel(n_samples, n_snps, rng=rng)
    packed = panel  # simulate_sfs_panel returns a BitMatrix
    n_tiles = len(enumerate_tiles(n_snps, block_snps))
    n_pairs = n_snps * (n_snps + 1) // 2
    print(
        f"panel: {n_snps} SNPs x {n_samples} samples, "
        f"{block_snps}-SNP tiles ({n_tiles} tiles, {n_pairs:,} pairs)"
    )
    print(f"{'engine':>10} | {'workers':>7} | {'seconds':>8} | "
          f"{'Mpairs/s':>8} | {'%peak':>6} | {'vs serial':>9}")
    rows: list[dict] = []
    serial_s = None
    for engine in ENGINES:
        for n_workers in ([1] if engine == "serial" else workers):
            if engine == "persistent":
                # Warm the pool untimed: steady-state throughput is the
                # backend's contract (spawn cost is paid exactly once).
                run_once(
                    panel, engine=engine, n_workers=n_workers,
                    block_snps=block_snps,
                )
            seconds, computed, recorder = run_once(
                panel, engine=engine, n_workers=n_workers,
                block_snps=block_snps, repeats=repeats,
            )
            assert computed == n_tiles
            comparison = compare_to_model(
                n_snps, n_snps, packed.n_words, seconds,
                params=resolve_blocking(None, DEFAULT_KERNEL),
                symmetric=True,
            )
            if serial_s is None:
                serial_s = seconds
            rows.append({
                "n_snps": n_snps,
                "n_samples": n_samples,
                "k_words": packed.n_words,
                "block_snps": block_snps,
                "n_tiles": n_tiles,
                "engine": engine,
                "workers": n_workers,
                "warm": engine == "persistent",
                "repeats": repeats,
                "seconds": seconds,
                "pairs": n_pairs,
                "pairs_per_second": n_pairs / seconds,
                "measured_percent_of_peak":
                    comparison.measured_percent_of_peak,
                "modeled_percent_of_peak": comparison.modeled_percent_of_peak,
                "measured_vs_modeled": comparison.measured_vs_modeled,
                "compute_seconds_total":
                    recorder.timers["engine.tile_compute_seconds"].total,
                "deliver_seconds_total":
                    recorder.timers["engine.tile_deliver_seconds"].total,
            })
            print(
                f"{engine:>10} | {n_workers:>7} | {seconds:>8.3f} | "
                f"{n_pairs / seconds / 1e6:>8.2f} | "
                f"{comparison.measured_percent_of_peak:>6.2f} | "
                f"{serial_s / seconds:>8.2f}x"
            )
    return rows


def write_report(rows: list[dict], path: str | Path) -> dict:
    """Serialize the accumulated rows as ``BENCH_engine.json``."""
    payload = {
        "schema": "repro-bench-engine/1",
        "model": "HASWELL analytical (repro.machine), blocking of the "
                 f"{DEFAULT_KERNEL!r} kernel the engine runs, scalar64 peak",
        "results": rows,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n",
                          encoding="utf-8")
    print(f"wrote {len(rows)} result rows -> {path}")
    return payload


def append_history(payload: dict, path: str | Path) -> None:
    """Append one timestamped run record to the bench history JSONL.

    The history file accumulates across runs (CI appends on every
    engine-smoke pass), one full ``repro-bench-engine/1`` payload per
    line, so ``repro report benchmarks/BENCH_history.jsonl`` renders the
    throughput trajectory without any extra tooling.
    """
    record = dict(payload)
    record["timestamp"] = time.time()
    with Path(path).open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, separators=(",", ":")) + "\n")
    print(f"appended history record -> {path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small shapes (CI smoke test; a few seconds)")
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--snps", type=int, default=None)
    parser.add_argument("--block-snps", type=int, default=256)
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4])
    parser.add_argument("--repeat", type=int, default=None, metavar="N",
                        help="repetitions per row, keeping the median "
                             "(default: 3 under --quick, else 1)")
    parser.add_argument("--json", default="BENCH_engine.json", metavar="PATH",
                        help="result file (default: %(default)s)")
    parser.add_argument("--history", default=None, metavar="JSONL",
                        help="also append the timestamped payload to this "
                             "JSONL history file (one line per run)")
    args = parser.parse_args(argv)
    if args.samples is not None or args.snps is not None:
        # Explicit single shape from the command line.
        shapes = [(args.samples or 1024, args.snps or 1200, args.block_snps)]
    else:
        shapes = QUICK_SHAPES if args.quick else FULL_SHAPES
    if args.quick:
        args.workers = [2]
    repeats = args.repeat if args.repeat is not None else (
        3 if args.quick else 1
    )
    rows: list[dict] = []
    for n_samples, n_snps, block_snps in shapes:
        rows.extend(bench_engine_scaling(
            n_samples=n_samples, n_snps=n_snps,
            block_snps=block_snps, workers=args.workers, repeats=repeats,
        ))
    # Smoke criterion: every executor finished every tile, on every shape.
    n_pooled = len(ENGINES) - 1  # every engine but serial, per worker count
    assert len(rows) == len(shapes) * (1 + n_pooled * len(args.workers))
    payload = write_report(rows, args.json)
    if args.history:
        append_history(payload, args.history)
    from repro.core.executors import stop_pools

    stop_pools()
    print("ok: all engines completed")
    return 0


def test_bench_engine_scaling(benchmark):
    """pytest-benchmark entry: time the persistent engine at quick scale."""
    rng = np.random.default_rng(2016)
    panel = simulate_sfs_panel(128, 220, rng=rng)

    def run():
        return run_engine(
            panel, _null_sink, engine="persistent", n_workers=2, block_snps=64
        )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.complete


if __name__ == "__main__":
    raise SystemExit(main())
