"""Command-line interface: ``python -m repro <command> ...``.

Wraps the library the way the tools it reproduces are driven — file in,
file out:

===========  ================================================================
command      what it does
===========  ================================================================
simulate     generate a haplotype panel (SFS / coalescent / sweep) → ms/VCF
pack         pack a panel into a disk-backed store for out-of-core ``ld``
ld           all-pairs or banded LD matrix from ms/VCF/FASTA → .npy/.tsv
scan         ω-statistic selective-sweep scan → .tsv
prune        PLINK-style LD pruning → kept SNP indices
blocks       haplotype-block partition → .tsv
decay        LD-decay curve → .tsv
model        machine-model report (%-of-peak, SIMD analysis, GPU roofline)
report       render any run report/trace/bench/live/registry artifact as text
===========  ================================================================

Every command takes ``--seed`` where randomness is involved and prints a
one-line summary to stdout; data goes to the ``--out`` path.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.analysis.decay import ld_decay_curve
from repro.analysis.haplotype_blocks import find_haplotype_blocks
from repro.analysis.ldprune import ld_prune
from repro.analysis.sweeps import sweep_scan
from repro.core.banding import BandSpec
from repro.core.engine import ENGINE_ALIASES, ENGINES, run_engine
from repro.faults import FaultPlan
from repro.core.ldmatrix import ld_matrix
from repro.core.streaming import BandedNpySink, NpyMemmapSink
from repro.observe import (
    JsonlTraceSink,
    MetricsRecorder,
    ProgressReporter,
    SpanProfiler,
    profiling,
)
from repro.core.windowed import banded_ld
from repro.encoding.bitmatrix import BitMatrix
from repro.io.fasta import call_snps_from_alignment, read_fasta
from repro.io.msformat import read_ms, write_ms
from repro.io.vcf import read_vcf, write_vcf
from repro.machine.gpu import TESLA_K40, estimate_ld_gpu
from repro.machine.perfmodel import estimate_gemm_performance
from repro.machine.simd import analyze_simd_benefit
from repro.simulate.coalescent import simulate_chunked_region
from repro.simulate.datasets import simulate_sfs_panel
from repro.simulate.wrightfisher import simulate_sweep

__all__ = ["main"]


def load_panel(path: str | Path) -> tuple[BitMatrix, np.ndarray]:
    """Load a haplotype panel from .ms, .vcf, or .fasta by extension."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".ms":
        replicate = read_ms(path)[0]
        return (
            BitMatrix.from_dense(replicate.haplotypes),
            replicate.positions.astype(np.float64),
        )
    if suffix == ".vcf" or path.name.lower().endswith(".vcf.gz"):
        panel = read_vcf(path)
        return panel.to_bitmatrix(), panel.positions.astype(np.float64)
    if suffix in (".fa", ".fasta"):
        chars, _names = read_fasta(path)
        calls = call_snps_from_alignment(chars)
        return calls.matrix, calls.positions
    raise SystemExit(
        f"unsupported input format {suffix!r}; use .ms, .vcf, or .fasta"
    )


def _parse_size(text: str) -> int:
    """Parse a byte size like ``4096``, ``64M``, ``2G`` (binary suffixes)."""
    s = text.strip().upper()
    for tail in ("IB", "B"):
        if s.endswith(tail) and len(s) > len(tail):
            s = s[: -len(tail)]
            break
    scale = 1
    if s and s[-1] in "KMGT":
        scale = 1024 ** ("KMGT".index(s[-1]) + 1)
        s = s[:-1]
    try:
        value = float(s)
    except ValueError:
        raise SystemExit(
            f"invalid size {text!r}; use e.g. 4096, 64M, 2G"
        ) from None
    if value <= 0:
        raise SystemExit(f"size must be positive, got {text!r}")
    return int(value * scale)


def _save_matrix(matrix: np.ndarray, out: Path) -> None:
    if out.suffix == ".npy":
        np.save(out, matrix)
    elif out.suffix == ".tsv":
        np.savetxt(out, matrix, delimiter="\t", fmt="%.6g")
    else:
        raise SystemExit(f"unsupported output format {out.suffix!r}; use .npy/.tsv")


def _cmd_simulate(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    positions: np.ndarray
    if args.kind == "sfs":
        panel = simulate_sfs_panel(args.samples, args.snps, rng=rng)
        haps = panel.to_dense()
        positions = np.arange(args.snps, dtype=np.float64)
    elif args.kind == "coalescent":
        sample = simulate_chunked_region(
            args.samples, n_chunks=args.chunks, theta_per_chunk=args.theta,
            rng=rng, chunk_length=1000.0,
        )
        haps, positions = sample.haplotypes, sample.positions
    else:  # sweep
        result = simulate_sweep(
            args.samples, args.snps | 1, pop_size=max(2 * args.samples, 100),
            selection=1.0, mut_rate=1e-3, recomb_rate=8e-3, rng=rng,
        )
        haps, positions = result.haplotypes, result.positions
    out = Path(args.out)
    if out.suffix == ".ms":
        span = positions.max() if positions.size and positions.max() > 0 else 1.0
        write_ms(out, [(haps, positions / span)])
    elif out.suffix == ".vcf":
        ploidy = 2 if haps.shape[0] % 2 == 0 else 1
        write_vcf(out, haps, np.arange(haps.shape[1]) * 100 + 1, ploidy=ploidy)
    else:
        raise SystemExit(f"unsupported output format {out.suffix!r}; use .ms/.vcf")
    print(f"simulate: wrote {haps.shape[0]} haplotypes x {haps.shape[1]} SNPs "
          f"({args.kind}) to {out}")
    return 0


def _cmd_pack(args: argparse.Namespace) -> int:
    """Pack a panel into a disk-backed store for out-of-core ``ld``."""
    from repro.io.panelstore import PanelStore

    panel, _positions = load_panel(args.input)
    out = Path(args.out)
    with PanelStore.create(out, panel) as store:
        print(
            f"pack: {store.n_snps} SNPs x {store.n_samples} samples "
            f"({store.nbytes / 1e6:.1f} MB packed words, "
            f"{store.row_nbytes} B/row) -> {out} "
            f"digest={store.content_digest[:16]}"
        )
    return 0


def _resolve_band(
    args: argparse.Namespace, positions: np.ndarray | None
) -> BandSpec | None:
    """The ``--window``/``--window-kb`` band of an engine run, or ``None``."""
    window = getattr(args, "window", 0)
    window_kb = getattr(args, "window_kb", None)
    if window and window_kb is not None:
        raise SystemExit(
            "pass --window (SNP count) or --window-kb (genomic distance), "
            "not both"
        )
    if window < 0:
        raise SystemExit(f"--window must be >= 1 SNP, got {window}")
    if window:
        return BandSpec(window=window)
    if window_kb is not None:
        if window_kb <= 0:
            raise SystemExit(
                f"--window-kb must be positive, got {window_kb}"
            )
        if positions is None:
            raise SystemExit(
                "--window-kb resolves the band against panel positions, "
                "which a packed store does not carry; use --window "
                "(SNP count) with --panel"
            )
        return BandSpec(
            max_distance=window_kb * 1000.0, positions=positions
        )
    return None


def _cmd_ld_engine(
    args: argparse.Namespace,
    panel: BitMatrix,
    *,
    data=None,
    memory_budget: int | None = None,
    positions: np.ndarray | None = None,
) -> int:
    """Sharded tiled execution path of the ``ld`` command (``--engine``)."""
    if data is None:
        data = panel
    out = Path(args.out)
    if out.suffix != ".npy":
        raise SystemExit("--engine requires a .npy output (disk-backed matrix)")
    if args.stat not in ("r2", "D", "H"):
        raise SystemExit(f"--engine supports --stat r2/D/H, not {args.stat!r}")
    band = _resolve_band(args, positions)
    manifest = Path(args.manifest) if args.manifest else Path(f"{out}.manifest")
    mode = "r+" if args.resume and out.exists() else "w+"
    max_retries = 2 if args.max_retries is None else args.max_retries
    faults: FaultPlan | None = None
    if args.fault_plan:
        try:
            faults = FaultPlan.from_json(args.fault_plan)
        except FileNotFoundError:
            raise SystemExit(f"--fault-plan file not found: {args.fault_plan}")
        except ValueError as exc:
            raise SystemExit(str(exc))

    from repro.observe.live import LivePublisher, new_run_id
    from repro.observe.report import WorkerTimeline, build_run_report

    # One recorder per run, with a span profiler always on: the run
    # report, the registry record and every sink below count the same
    # events, and no verdict depends on which flags were passed.
    recorder = MetricsRecorder(run_id=new_run_id())
    timeline = WorkerTimeline()
    recorder.sinks.append(timeline)
    if args.trace_out:
        recorder.sinks.append(JsonlTraceSink(args.trace_out))
    if args.progress:
        recorder.sinks.append(ProgressReporter(label="ld"))
    live_path = args.live or os.environ.get("REPRO_LIVE") or None
    if live_path:
        recorder.sinks.append(LivePublisher(
            Path(live_path),
            recorder=recorder,
            timeline=timeline,
            config={
                "engine": args.engine,
                "workers": args.workers,
                "stat": args.stat,
                "n_snps": panel.n_snps,
                "n_samples": panel.n_samples,
                "k_words": panel.n_words,
                "block_snps": args.block_snps,
                "band": band.describe() if band is not None else None,
                "memory_budget": args.memory_budget,
            },
        ))
    profiler = SpanProfiler()

    band_width = band.index_width(panel.n_snps) if band is not None else 0
    start = time.perf_counter()
    try:
        if band is not None:
            sink_cm = BandedNpySink(out, panel.n_snps, band_width, mode=mode)
        else:
            sink_cm = NpyMemmapSink(out, panel.n_snps, mode=mode)
        with sink_cm as sink, profiling(profiler):
            report = run_engine(
                data, sink,
                stat=args.stat,
                block_snps=args.block_snps,
                engine=args.engine,
                n_workers=args.workers,
                memory_budget=memory_budget,
                batch_tiles=args.batch_tiles,
                band=band,
                resume=args.resume,
                manifest_path=manifest,
                max_retries=max_retries,
                tile_timeout=args.tile_timeout,
                allow_quarantine=args.allow_quarantine,
                faults=faults,
                recorder=recorder,
            )
    finally:
        # Closing the sinks also covers a run that raised: the live
        # snapshot then ends at phase "failed" instead of "running".
        recorder.close()
    wall = time.perf_counter() - start

    payload = build_run_report(
        recorder=recorder,
        profiler=profiler,
        timeline=timeline,
        report=report,
        wall_seconds=wall,
        stat=args.stat,
        n_snps=panel.n_snps,
        n_samples=panel.n_samples,
        k_words=panel.n_words,
        block_snps=args.block_snps,
        band=band,
        window_kb=args.window_kb,
    )
    _append_run_record(
        args, payload, band=band, live_path=live_path, out=out,
        manifest=manifest,
    )
    if args.metrics_out:
        Path(args.metrics_out).write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
    if band is not None:
        shape = f"banded ({panel.n_snps}, {band_width + 1}) " \
                f"[{band.describe()}, {report.n_pruned} tiles pruned]"
    else:
        shape = f"matrix ({panel.n_snps}, {panel.n_snps})"
    print(f"ld: engine={report.engine} workers={report.n_workers} "
          f"computed {report.n_computed}/{report.n_tiles} tiles "
          f"(skipped {report.n_skipped} journaled, {report.n_retries} retries) "
          f"{args.stat} {shape} -> {out}")
    if report.degraded:
        print(f"ld: WARNING executor degraded {report.engine} -> "
              f"{report.engine_used} (worker pool could not be kept alive)",
              file=sys.stderr)
    if report.n_quarantined > 0:
        tiles = ", ".join(str(t) for t in report.quarantined)
        print(f"ld: WARNING {report.n_quarantined} tile(s) quarantined after "
              f"{max_retries} retries: {tiles}; the matrix has holes — "
              f"journaled in {manifest} and retried on the next --resume run",
              file=sys.stderr)
        return 3
    return 0


def _append_run_record(
    args: argparse.Namespace,
    payload: dict,
    *,
    band: BandSpec | None,
    live_path: str | None,
    out: Path,
    manifest: Path,
) -> None:
    """Append this run's ``repro-run/1`` summary to the cross-run ledger.

    The record is a projection of the run report *payload*: its run id,
    totals, %-of-peak and anomaly kinds are the report's own. Best-effort
    by design: a read-only cache directory must not fail the run that
    just computed a matrix — the warning goes to stderr and the matrix
    still lands.
    """
    import socket

    from repro.observe.registry import (
        RUN_SCHEMA, append_run, shape_fingerprint,
    )

    band_desc = band.describe() if band is not None else None
    model = payload.get("model")
    record = {
        "schema": RUN_SCHEMA,
        "run_id": payload["run_id"],
        "timestamp_unix": time.time(),
        "host": socket.gethostname(),
        "fingerprint": shape_fingerprint(
            stat=payload["stat"], n_snps=payload["n_snps"],
            n_samples=payload["n_samples"],
            block_snps=payload["block_snps"], band=band_desc,
        ),
        "config": {
            "engine": payload["engine_used"],
            "workers": payload["workers"],
            "stat": payload["stat"],
            "n_snps": payload["n_snps"],
            "n_samples": payload["n_samples"],
            "block_snps": payload["block_snps"],
            "band": band_desc,
            "memory_budget": args.memory_budget,
        },
        "wall_seconds": payload["wall_seconds"],
        "pairs_computed": payload["pairs_computed"],
        "pairs_per_second": payload["pairs_per_second"],
        "percent_of_peak": (
            model["measured_percent_of_peak"] if model is not None else None
        ),
        "tiles": {
            "total": payload["n_tiles"],
            "computed": payload["n_computed"],
            "skipped": payload["n_skipped"],
            "pruned": payload["counters"].get("engine.tiles_pruned", 0),
            "quarantined": payload["n_quarantined"],
            "retries": payload["n_retries"],
        },
        "anomalies": sorted({a["kind"] for a in payload["anomalies"]}),
        "artifacts": {
            "out": str(out),
            "manifest": str(manifest),
            "metrics": args.metrics_out,
            "trace": args.trace_out,
            "live": live_path,
        },
    }
    try:
        append_run(record)
    except OSError as exc:
        print(f"ld: WARNING could not append to the run registry: {exc}",
              file=sys.stderr)


def _cmd_ld(args: argparse.Namespace) -> int:
    if args.panel is not None and args.input is not None:
        raise SystemExit("pass either an input panel file or --panel, not both")
    if args.panel is None and args.input is None:
        raise SystemExit("an input panel file (or --panel STORE) is required")
    memory_budget = (
        _parse_size(args.memory_budget)
        if args.memory_budget is not None else None
    )
    if memory_budget is not None and args.panel is None:
        raise SystemExit(
            "--memory-budget bounds resident rows of a packed store; it "
            "requires --panel (see `repro pack`)"
        )
    store = None
    if args.panel is not None:
        if not args.engine:
            raise SystemExit(
                "--panel streams a packed store through the tiled engine; "
                "add --engine serial|threads|persistent"
            )
        if args.maf > 0.0 or args.drop_monomorphic:
            raise SystemExit(
                "--maf/--drop-monomorphic rewrite the panel; filter the "
                "input before `repro pack` instead"
            )
        from repro.io.panelstore import PanelStore

        try:
            store = PanelStore.open(args.panel)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot open panel store {args.panel}: {exc}")
        panel = store.to_bitmatrix()
        positions = None
    else:
        panel, positions = load_panel(args.input)
        # Filters run as explicit index selections so *positions* stays
        # aligned with the surviving SNPs (--window-kb resolves the band
        # against them).
        if args.drop_monomorphic:
            idx = np.flatnonzero(panel.is_polymorphic())
            panel = panel.select(idx)
            positions = positions[idx]
        if args.maf > 0.0:
            freqs = panel.allele_frequencies()
            idx = np.flatnonzero(np.minimum(freqs, 1.0 - freqs) >= args.maf)
            panel = panel.select(idx)
            positions = positions[idx]
    if args.engine:
        try:
            return _cmd_ld_engine(
                args, panel,
                data=store if store is not None else panel,
                memory_budget=memory_budget,
                positions=positions,
            )
        finally:
            if store is not None:
                store.close()
    if args.window_kb is not None:
        raise SystemExit(
            "--window-kb resolves a genomic band through the tiled engine; "
            "add --engine serial|threads|persistent "
            "(or use --window for an in-memory SNP-index band)"
        )
    if args.progress or args.metrics_out or args.trace_out or args.live:
        raise SystemExit(
            "--progress/--metrics-out/--trace-out/--live instrument the "
            "tiled engine; add --engine serial|threads|persistent"
        )
    if (args.fault_plan or args.tile_timeout is not None
            or args.max_retries is not None or args.allow_quarantine
            or args.batch_tiles is not None):
        raise SystemExit(
            "--fault-plan/--tile-timeout/--max-retries/--allow-quarantine/"
            "--batch-tiles configure the tiled engine; add --engine "
            "serial|threads|persistent"
        )
    if args.window:
        band = banded_ld(panel, window=args.window, stat=args.stat)
        matrix = band.values
        kind = f"banded (window {args.window}, diagonal-major)"
    else:
        matrix = ld_matrix(panel, stat=args.stat)
        kind = "full"
    out = Path(args.out)
    _save_matrix(matrix, out)
    print(f"ld: {kind} {args.stat} matrix {matrix.shape} over "
          f"{panel.n_snps} SNPs x {panel.n_samples} samples -> {out}")
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    panel, positions = load_panel(args.input)
    scan = sweep_scan(
        panel, positions, grid_size=args.grid_size, max_window=args.max_window,
    )
    out = Path(args.out)
    table = np.column_stack([scan.grid, scan.omegas, scan.best_splits])
    np.savetxt(
        out, table, delimiter="\t", fmt="%.6g",
        header="position\tomega\tbest_split", comments="",
    )
    print(f"scan: peak omega {scan.peak_omega:.3f} at position "
          f"{scan.peak_position:.1f} ({args.grid_size} grid points) -> {out}")
    return 0


def _cmd_prune(args: argparse.Namespace) -> int:
    panel, _positions = load_panel(args.input)
    kept = ld_prune(
        panel, window=args.window, step=args.step,
        r2_threshold=args.r2_threshold,
    )
    out = Path(args.out)
    np.savetxt(out, kept, fmt="%d")
    print(f"prune: kept {kept.size} of {panel.n_snps} SNPs "
          f"(r2 < {args.r2_threshold}) -> {out}")
    return 0


def _cmd_blocks(args: argparse.Namespace) -> int:
    panel, _positions = load_panel(args.input)
    blocks = find_haplotype_blocks(
        panel, window=args.window, r2_threshold=args.r2_threshold,
        min_fraction=args.min_fraction,
    )
    out = Path(args.out)
    rows = [(b.start, b.stop, b.n_snps, b.mean_r2) for b in blocks]
    np.savetxt(
        out, np.array(rows, dtype=float).reshape(-1, 4), delimiter="\t",
        fmt="%.6g", header="start\tstop\tn_snps\tmean_r2", comments="",
    )
    covered = sum(b.n_snps for b in blocks)
    print(f"blocks: {len(blocks)} blocks covering {covered} of "
          f"{panel.n_snps} SNPs -> {out}")
    return 0


def _cmd_decay(args: argparse.Namespace) -> int:
    panel, positions = load_panel(args.input)
    curve = ld_decay_curve(panel, positions, n_bins=args.bins)
    out = Path(args.out)
    table = np.column_stack([curve.bin_centers, curve.mean_r2, curve.counts])
    np.savetxt(
        out, table, delimiter="\t", fmt="%.6g",
        header="distance\tmean_r2\tn_pairs", comments="",
    )
    print(f"decay: {args.bins} bins, half-decay distance "
          f"{curve.half_decay_distance():.4g} -> {out}")
    return 0


def _cmd_model(args: argparse.Namespace) -> int:
    k_words = (args.samples + 63) // 64
    est = estimate_gemm_performance(args.snps, args.snps, k_words)
    print(f"model: {args.snps} SNPs x {args.samples} samples "
          f"({k_words} words/SNP) on the Haswell model")
    print(f"  scalar kernel: {est.percent_of_peak:.1f} % of the 3-ops/cycle "
          f"peak, {est.seconds:.3f} s projected")
    print("  SIMD analysis (Section V):")
    for analysis in analyze_simd_benefit():
        print(f"    {analysis.config.name:>18}: "
              f"{analysis.speedup_vs_scalar:5.2f}x vs scalar")
    gpu = estimate_ld_gpu(args.snps, args.snps, k_words)
    print(f"  GPU roofline ({TESLA_K40.name}): {gpu.bound}-bound, "
          f"{gpu.seconds:.4f} s, {gpu.speedup_vs_cpu:.1f}x vs scalar CPU")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Render run report/trace/bench/live/registry artifacts as text."""
    from repro.observe.report import UnknownSchemaError, render_file

    status = 0
    for path in args.files:
        try:
            text = render_file(path)
        except UnknownSchemaError as exc:
            # Version skew between writer and reader gets its own,
            # scriptable exit code.
            print(f"report: {exc}", file=sys.stderr)
            return 2
        except (OSError, ValueError) as exc:
            print(f"report: {exc}", file=sys.stderr)
            status = 1
            continue
        try:
            if len(args.files) > 1:
                print(f"==> {path} <==")
            print(text)
            if len(args.files) > 1:
                print()
        except BrokenPipeError:
            # Downstream pager/head closed the pipe; that is not an error.
            # Reopen stdout on devnull so interpreter shutdown does not
            # raise while flushing.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return status
    return status


def _resolve_live_path(args: argparse.Namespace) -> Path:
    """Snapshot path from the positional argument or ``REPRO_LIVE``."""
    path = args.snapshot or os.environ.get("REPRO_LIVE")
    if not path:
        raise SystemExit(
            "no snapshot path: pass one or set REPRO_LIVE (the engine run "
            "must be started with `ld --engine ... --live PATH`)"
        )
    return Path(path)


def _cmd_top(args: argparse.Namespace) -> int:
    """Render the live dashboard from a ``repro-live/1`` snapshot."""
    from repro.observe.live import read_snapshot, render_top

    path = _resolve_live_path(args)
    if not args.watch:
        snapshot = read_snapshot(path)
        if snapshot is None:
            print(f"top: no snapshot at {path} (run not started, or started "
                  "without --live)", file=sys.stderr)
            return 1
        print(render_top(snapshot))
        return 0
    try:
        while True:
            snapshot = read_snapshot(path)
            # ANSI clear + home, like watch(1); harmless on a pipe.
            sys.stdout.write("\x1b[2J\x1b[H")
            if snapshot is None:
                print(f"top: waiting for a snapshot at {path} ...")
            else:
                print(render_top(snapshot))
            sys.stdout.flush()
            if snapshot is not None and snapshot.get("phase") == "done":
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_export(args: argparse.Namespace) -> int:
    """Expose a live snapshot in Prometheus text format."""
    from repro.observe.live import (
        prometheus_text, read_snapshot, serve_prometheus,
    )

    if not args.prometheus:
        raise SystemExit(
            "repro export needs an output format; pass --prometheus"
        )
    path = _resolve_live_path(args)
    if args.serve is not None:
        server = serve_prometheus(path, args.serve, host=args.host)
        host, port = server.server_address[:2]
        print(f"export: serving {path} at http://{host}:{port}/metrics "
              "(Ctrl-C to stop)", file=sys.stderr)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
        return 0
    snapshot = read_snapshot(path)
    if snapshot is None:
        print(f"export: no snapshot at {path}", file=sys.stderr)
        return 1
    sys.stdout.write(prometheus_text(snapshot))
    return 0


def _cmd_runs_list(args: argparse.Namespace) -> int:
    """List the cross-run registry ledger."""
    from repro.observe.registry import load_runs, render_runs_list

    try:
        records, n_torn = load_runs(args.registry)
    except ValueError as exc:
        raise SystemExit(f"runs: {exc}")
    print(render_runs_list(records, n_torn=n_torn))
    return 0


def _cmd_runs_show(args: argparse.Namespace) -> int:
    """Show one registry record in full."""
    from repro.observe.registry import find_run, load_runs, render_run

    try:
        records, _n_torn = load_runs(args.registry)
        record = find_run(records, args.run)
    except ValueError as exc:
        raise SystemExit(f"runs: {exc}")
    print(render_run(record))
    return 0


def _cmd_runs_diff(args: argparse.Namespace) -> int:
    """Diff two registry records; exit 1 on a flagged regression."""
    from repro.observe.registry import (
        diff_runs, find_run, load_runs, render_diff,
    )

    try:
        records, _n_torn = load_runs(args.registry)
        baseline = find_run(records, args.baseline)
        candidate = find_run(records, args.candidate)
        diff = diff_runs(baseline, candidate, threshold=args.threshold)
    except ValueError as exc:
        raise SystemExit(f"runs: {exc}")
    print(render_diff(diff))
    return 1 if diff["flagged"] else 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GEMM-based linkage disequilibrium toolkit (IPPS'16 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a haplotype panel")
    p.add_argument("--kind", choices=("sfs", "coalescent", "sweep"), default="sfs")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--snps", type=int, default=500,
                   help="SNP count (sfs) or site count (sweep)")
    p.add_argument("--theta", type=float, default=10.0,
                   help="per-chunk theta (coalescent)")
    p.add_argument("--chunks", type=int, default=5,
                   help="independent loci (coalescent)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help=".ms or .vcf output")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "pack",
        help="pack a panel into a disk-backed store for out-of-core ld",
    )
    p.add_argument("input", help=".ms/.vcf/.fasta panel")
    p.add_argument("--out", required=True,
                   help="packed panel store output path (e.g. panel.pnl)")
    p.set_defaults(func=_cmd_pack)

    p = sub.add_parser("ld", help="compute an LD matrix")
    p.add_argument("input", nargs="?", default=None,
                   help=".ms/.vcf/.fasta panel (or use --panel)")
    p.add_argument("--panel", default=None, metavar="STORE",
                   help="packed panel store from `repro pack`; streamed "
                        "from disk instead of loaded into RAM "
                        "(requires --engine)")
    p.add_argument("--memory-budget", default=None, metavar="SIZE",
                   help="driver-RAM budget for resident panel rows, e.g. "
                        "64M or 2G; panels larger than this are streamed "
                        "window by window with double-buffered prefetch "
                        "(requires --panel)")
    p.add_argument("--stat", choices=("r2", "D", "Dprime", "H"), default="r2")
    p.add_argument("--window", type=int, default=0,
                   help="banded mode: max pair distance in SNPs (0 = full)")
    p.add_argument("--window-kb", type=float, default=None, metavar="KB",
                   help="banded mode: max pair distance in kilobases, "
                        "resolved against the panel's positions "
                        "(requires --engine; tiles outside the band are "
                        "pruned, never computed)")
    p.add_argument("--maf", type=float, default=0.0,
                   help="drop SNPs below this minor-allele frequency")
    p.add_argument("--drop-monomorphic", action="store_true")
    p.add_argument("--out", required=True, help=".npy or .tsv output")
    p.add_argument("--engine", "--executor", dest="engine",
                   choices=(*ENGINES, *ENGINE_ALIASES), default=None,
                   help="sharded tiled execution with checkpoint journal "
                        "(out-of-core .npy path; default: in-memory). "
                        "'persistent' keeps a warm worker pool alive "
                        "across runs in one process; 'processes' is its "
                        "older spelling")
    p.add_argument("--workers", type=int, default=None,
                   help="worker count for --engine threads/persistent")
    p.add_argument("--block-snps", type=int, default=512,
                   help="tile side in SNPs for --engine")
    p.add_argument("--manifest", default=None,
                   help="tile journal path (default: <out>.manifest)")
    p.add_argument("--resume", action="store_true",
                   help="skip tiles already journaled in the manifest")
    p.add_argument("--max-retries", type=int, default=None, metavar="N",
                   help="recompute a failing tile up to N times before "
                        "quarantining or aborting (--engine only; default 2)")
    p.add_argument("--tile-timeout", type=float, default=None, metavar="SECONDS",
                   help="per-tile wall-clock budget; hung workers are killed "
                        "and their tiles retried (--engine only)")
    p.add_argument("--allow-quarantine", action="store_true",
                   help="journal poison tiles and finish with exit code 3 "
                        "instead of aborting (--engine only)")
    p.add_argument("--fault-plan", default=None, metavar="JSON",
                   help="inject deterministic faults from this plan file "
                        "(--engine only; testing/rehearsal)")
    p.add_argument("--progress", action="store_true",
                   help="live tiles/s, pairs/s and ETA line on stderr "
                        "(--engine only)")
    p.add_argument("--metrics-out", default=None, metavar="JSON",
                   help="write the run report here: metrics, phase "
                        "attribution, roofline, worker timeline, "
                        "measured-vs-modeled %%-of-peak and anomalies "
                        "(--engine only)")
    p.add_argument("--trace-out", default=None, metavar="JSONL",
                   help="write the per-tile JSONL event trace here "
                        "(--engine only)")
    p.add_argument("--live", default=None, metavar="JSON",
                   help="publish a repro-live/1 status snapshot here on a "
                        "throttled cadence for `repro top`/`repro export` "
                        "(--engine only; also honoured via $REPRO_LIVE)")
    p.add_argument("--batch-tiles", type=int, default=None, metavar="N",
                   help="tiles dispatched per worker submission "
                        "(--engine threads/persistent; default: auto)")
    p.set_defaults(func=_cmd_ld)

    p = sub.add_parser("scan", help="omega-statistic sweep scan")
    p.add_argument("input")
    p.add_argument("--grid-size", type=int, default=25)
    p.add_argument("--max-window", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("prune", help="LD pruning (PLINK --indep-pairwise)")
    p.add_argument("input")
    p.add_argument("--window", type=int, default=50)
    p.add_argument("--step", type=int, default=5)
    p.add_argument("--r2-threshold", type=float, default=0.2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("blocks", help="haplotype-block partition")
    p.add_argument("input")
    p.add_argument("--window", type=int, default=50)
    p.add_argument("--r2-threshold", type=float, default=0.5)
    p.add_argument("--min-fraction", type=float, default=0.7)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_blocks)

    p = sub.add_parser("decay", help="LD-decay curve")
    p.add_argument("input")
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_decay)

    p = sub.add_parser(
        "report",
        help="render run report/trace/bench/live/registry artifacts as text",
    )
    p.add_argument("files", nargs="+",
                   help="JSON or JSONL artifact path(s): repro-ld-metrics/1, "
                        "repro-trace/1, repro-bench-gemm/1, "
                        "repro-bench-engine/1, repro-live/1, a bench "
                        "history or a run registry JSONL")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("model", help="machine-model performance report")
    p.add_argument("--snps", type=int, default=4096)
    p.add_argument("--samples", type=int, default=10000)
    p.set_defaults(func=_cmd_model)

    p = sub.add_parser(
        "top",
        help="live dashboard over a repro-live/1 snapshot file",
    )
    p.add_argument("snapshot", nargs="?", default=None,
                   help="snapshot path (default: $REPRO_LIVE)")
    p.add_argument("--watch", action="store_true",
                   help="refresh until the run reports done (Ctrl-C stops)")
    p.add_argument("--interval", type=float, default=1.0, metavar="SECONDS",
                   help="refresh cadence for --watch (default: 1.0)")
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser(
        "export",
        help="export a live snapshot as Prometheus text format",
    )
    p.add_argument("snapshot", nargs="?", default=None,
                   help="snapshot path (default: $REPRO_LIVE)")
    p.add_argument("--prometheus", action="store_true",
                   help="text exposition format 0.0.4 (required; the only "
                        "format so far)")
    p.add_argument("--serve", type=int, default=None, metavar="PORT",
                   help="serve /metrics over HTTP instead of printing once "
                        "(re-reads the snapshot per scrape; port 0 picks a "
                        "free one)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address for --serve (default: 127.0.0.1)")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser(
        "runs",
        help="cross-run registry: list, show, and diff recorded engine runs",
    )
    runs_sub = p.add_subparsers(dest="runs_command", required=True)
    rp = runs_sub.add_parser("list", help="table of recorded runs")
    rp.add_argument("--registry", default=None, metavar="JSONL",
                    help="ledger path (default: $REPRO_RUNS_PATH or "
                         "~/.cache/repro/runs.jsonl)")
    rp.set_defaults(func=_cmd_runs_list)
    rp = runs_sub.add_parser("show", help="one recorded run in full")
    rp.add_argument("run", help="run index from `runs list` (negative from "
                                "the end) or a run-id prefix")
    rp.add_argument("--registry", default=None, metavar="JSONL")
    rp.set_defaults(func=_cmd_runs_show)
    rp = runs_sub.add_parser(
        "diff",
        help="compare two runs; exit 1 when a throughput regression is "
             "flagged",
    )
    rp.add_argument("baseline", help="baseline run (index or run-id prefix)")
    rp.add_argument("candidate", help="candidate run (index or run-id prefix)")
    rp.add_argument("--threshold", type=float, default=0.30, metavar="FRAC",
                    help="flag when candidate pairs/s drops by at least this "
                         "fraction vs baseline (default: 0.30)")
    rp.add_argument("--registry", default=None, metavar="JSONL")
    rp.set_defaults(func=_cmd_runs_diff)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv if argv is not None else sys.argv[1:])
    return int(args.func(args))


if __name__ == "__main__":
    raise SystemExit(main())
