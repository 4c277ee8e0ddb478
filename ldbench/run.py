"""Paper-scale layered LD benchmark.

Usage, from the root of a checkout::

    python3 ldbench/run.py --workload dense-a --seed 1000 --seconds 30 --trace 0

One invocation runs one workload (see ``workloads.py``): it generates the
seeded panel (excluded from every metric), sets the program up several
times, then runs timed runs back to back until ``--seconds`` of run time
have passed. Every timed run is checked by the output gate (``gate.py``)
outside the timed region. With ``--trace 0`` it reports the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` it follows the timed
runs with one traced run (``layers.py``) and reports the per-layer
metrics. The last line of standard output is the JSON result.

Environment rules that are part of every workload: BLAS and OpenMP run one
thread per process, numpy does not ask for transparent huge pages (whether
the kernel can grant them depends on the host's memory fragmentation, which
made whole runs faster or slower), and every file a run writes lives on a
memory-backed filesystem (``host.py``). The first two are set below, before
numpy is imported.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from multiprocessing import resource_tracker  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"ldbench: no program source at {SRC / 'repro'}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import gate  # noqa: E402
import host  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS, Runner  # noqa: E402

#: Untimed set-ups per invocation; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: An invocation stops starting timed runs once the next one could end
#: past this many seconds, leaving room for the traced run and clean-up.
DEADLINE_S = 120.0


def parse_args(spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=None,
        help="panel seed (default: the dataset generator's own seed, "
             "1000 for Dataset A and 2000 for Dataset B)",
    )
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def main() -> int:
    # On SIGTERM, exit through the finally blocks so the pool is stopped
    # and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(spec)
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    wanted = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    started = time.perf_counter()

    scratch, fs_type, memory_backed = host.make_scratch(
        workload.name, ROOT / ".ldbench-scratch"
    )
    os.environ["REPRO_POOL_STATE"] = str(scratch / "pool-state.json")
    runner = None
    try:
        env = host.environment(seed, scratch, fs_type, memory_backed)
        print("env " + json.dumps(env, sort_keys=True), flush=True)
        if not memory_backed:
            print(
                f"ldbench: WARNING no writable memory-backed filesystem; "
                f"scratch is on {fs_type} at {scratch}, so disk time is "
                "part of every number",
                file=sys.stderr,
            )
        runner = Runner(workload, workload.panel(seed), scratch)
        result = measure(runner, args.seconds, args.trace, seed, started)
        if args.trace:
            untraced = [r["wall"] for r in result["runs"][:-1]]
            metrics = layers.per_layer(runner, result, statistics.median(untraced))
        else:
            metrics = end_to_end_metrics(result)
        print_table(metrics, wanted)
        failed = sum(1 for r in result["runs"] if r["problems"])
        output = {
            "correct": failed == 0,
            "attempted": len(result["runs"]),
            "failed": failed,
            "metrics": {
                name: {"value": metrics[name], "unit": m["unit"]}
                for name, m in wanted.items() if name in metrics
            },
        }
        print(json.dumps(output), flush=True)
        return 0 if failed == 0 else 1
    finally:
        if runner is not None:
            runner.close()
        # The pool's shared memory starts multiprocessing's resource
        # tracker, a child of this process: stop it and wait for it too.
        resource_tracker._resource_tracker._stop()
        shutil.rmtree(scratch, ignore_errors=True)


def measure(runner: Runner, seconds: float, trace: int, seed: int,
            started: float) -> dict:
    """Set-ups, timed runs with their gates, and the traced run if asked."""
    setups = [runner.setup() for _ in range(SETUP_REPEATS)]
    runs = []
    timed = 0.0
    while not runs or timed < seconds:
        if runs and time.perf_counter() - started + 1.5 * runs[-1]["wall"] > DEADLINE_S:
            break
        pids = host.process_tree()
        host.reset_peak_rss(pids)
        wall, report, _ = runner.run()
        rss = host.peak_rss_kib(pids) / 1024
        runs.append(gated(runner, report, wall, rss, seed, len(runs)))
        runner.clean()
        timed += wall
    result = {
        "runs": runs,
        "setup_s": statistics.median(s for s, _ in setups),
        "pack_s": statistics.median(p for _, p in setups),
    }
    if trace:
        result.update(traced_run(runner, seed, len(runs)))
        runs.append(result["traced"])
        runner.clean()
    return result


def gated(runner: Runner, report, wall: float, rss_mib: float | None,
          seed: int, index: int) -> dict:
    """A run's figures, after the output gate has checked it."""
    problems = gate.check_run(runner, report, np.random.default_rng([seed, index]))
    attempts = report.n_computed + report.n_retries + report.n_quarantined
    run = {
        "wall": wall,
        "pairs_per_s": runner.pairs / wall,
        "peak_rss_mb": rss_mib,
        "tile_ok_ratio": 0.0 if problems else report.n_computed / attempts,
        "problems": problems,
        "report": report,
    }
    status = "ok" if not problems else "FAILED: " + "; ".join(problems)
    rss = f"peak rss {rss_mib:.1f} MiB" if rss_mib is not None else "traced"
    print(
        f"run {index + 1}: {wall:.3f} s, {run['pairs_per_s']:.6g} pairs/s, "
        f"{rss}, gate {status}",
        flush=True,
    )
    return run


def traced_run(runner: Runner, seed: int, index: int) -> dict:
    """One run with every layer boundary wrapped (``layers.py``)."""
    tracer = layers.Tracer(runner.scratch)
    layers.install(tracer)
    try:
        pool_records = []
        if runner.workload.engine == "persistent":
            # Workers inherit the wrappers only if forked after them.
            runner.setup()
            pool_records = [r for r in tracer.records if r.layer == "pool"]
        tracer.clear()
        wall, report, driver_cpu = runner.run(tracer)
    finally:
        tracer.restore()
    above_one = gate.r2_above_one(runner)
    return {
        "traced": gated(runner, report, wall, None, seed, index),
        "r2_above_one": above_one,
        "trace_wall": wall,
        "driver_cpu": driver_cpu,
        "driver_records": tracer.records + pool_records,
        "worker_records": tracer.worker_records(),
    }


def end_to_end_metrics(result: dict) -> dict[str, float]:
    runs = result["runs"]
    return {
        "pairs_per_s": statistics.median(r["pairs_per_s"] for r in runs),
        "setup_s": result["setup_s"],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        "tile_ok_ratio": min(r["tile_ok_ratio"] for r in runs),
    }


def print_table(metrics: dict[str, float], wanted: dict[str, dict]) -> None:
    print(f"{'metric':<28} {'value':>18} {'unit':<12} better")
    for name, m in wanted.items():
        value = f"{metrics[name]:.6g}" if name in metrics else "MISSING"
        print(f"{name:<28} {value:>18} {m['unit']:<12} {m['better']}")


if __name__ == "__main__":
    sys.exit(main())
