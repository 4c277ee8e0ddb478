"""Cross-run registry: a durable JSONL ledger of every engine run.

The live bus (:mod:`repro.observe.live`) is a window into *one* run;
this module is the memory *across* runs — the regression story. Every
``repro ld --engine`` invocation appends one ``repro-run/1`` summary
record (identity, config, wall, pairs/s, %-of-peak, anomaly kinds,
artifact paths) to a ledger, and ``repro runs list|show|diff`` reads it
back. The record is a projection of the run's report
(:func:`repro.observe.report.build_run_report`): its run id, %-of-peak
and anomaly kinds are the report's, never derived a second time. ``diff`` flags throughput regressions beyond a threshold between
runs, warning when their *shape fingerprints* differ (comparing a
4096-SNP banded sweep against a 512-SNP smoke run is not a regression,
it is a category error).

Durability discipline mirrors the tile manifest (v2):

- appends take a best-effort ``fcntl`` advisory lock, write one
  newline-terminated line, and fsync — concurrent runs on one host
  interleave whole records, never bytes;
- loading tolerates (and counts) a *torn final line* — an unterminated
  tail from a run killed mid-append — but treats interior corruption as
  an error, exactly the manifest's crash-consistency contract;
- the ledger path defaults to ``~/.cache/repro/runs.jsonl`` (honouring
  ``XDG_CACHE_HOME``) and is overridable via ``REPRO_RUNS_PATH`` so
  tests and multi-project setups stay isolated.

No :mod:`repro.core` imports here — the module is reader-side plumbing
(:mod:`repro.observe.report` renders through it lazily).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

__all__ = [
    "RUN_SCHEMA",
    "append_run",
    "diff_runs",
    "find_run",
    "load_runs",
    "render_diff",
    "render_run",
    "render_runs_list",
    "runs_path",
    "shape_fingerprint",
]

RUN_SCHEMA = "repro-run/1"

#: Environment override for the ledger path.
RUNS_PATH_ENV = "REPRO_RUNS_PATH"

#: Default regression threshold: a run this much slower (in pairs/s)
#: than its baseline is flagged.
DEFAULT_REGRESSION_THRESHOLD = 0.30


def runs_path() -> Path:
    """The ledger path: ``$REPRO_RUNS_PATH`` or ``~/.cache/repro/runs.jsonl``."""
    override = os.environ.get(RUNS_PATH_ENV)
    if override:
        return Path(override)
    cache = os.environ.get("XDG_CACHE_HOME")
    base = Path(cache) if cache else Path.home() / ".cache"
    return base / "repro" / "runs.jsonl"


def shape_fingerprint(
    *,
    stat: str,
    n_snps: int,
    n_samples: int,
    block_snps: int,
    band: object = None,
) -> str:
    """Identity of the *problem*, not the execution.

    Engine/workers/budget are deliberately excluded: a persistent-pool
    run and a serial run over the same panel and band are comparable
    throughput-wise — that comparison is the point of ``runs diff``.
    """
    token = json.dumps(
        {
            "stat": stat,
            "n_snps": int(n_snps),
            "n_samples": int(n_samples),
            "block_snps": int(block_snps),
            "band": band,
        },
        sort_keys=True,
        separators=(",", ":"),
        default=repr,
    )
    return hashlib.blake2b(token.encode(), digest_size=8).hexdigest()


def append_run(record: dict, path: str | Path | None = None) -> Path:
    """Append one ``repro-run/1`` record to the ledger (locked, fsynced)."""
    if record.get("schema") != RUN_SCHEMA:
        raise ValueError(
            f"run record schema must be {RUN_SCHEMA!r}, "
            f"got {record.get('schema')!r}"
        )
    target = Path(path) if path is not None else runs_path()
    target.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(record, separators=(",", ":"), default=repr) + "\n"
    with open(target, "a", encoding="utf-8") as fh:
        _flock(fh, lock=True)
        try:
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())
        finally:
            _flock(fh, lock=False)
    return target


def _flock(fh, *, lock: bool) -> None:
    """Advisory whole-file lock; best-effort (NFS etc. may lack flock)."""
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-POSIX
        return
    try:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX if lock else fcntl.LOCK_UN)
    except OSError:  # pragma: no cover - filesystem without lock support
        pass


def load_runs(
    path: str | Path | None = None,
) -> tuple[list[dict], int]:
    """Load the ledger; returns ``(records, n_torn)``.

    A final line missing its newline terminator that fails to parse is
    a torn append from a killed run: dropped and counted, same as
    manifest v2. Any other unparseable line raises — interior corruption
    is not survivable silently.
    """
    target = Path(path) if path is not None else runs_path()
    try:
        text = target.read_text(encoding="utf-8")
    except FileNotFoundError:
        return [], 0
    records: list[dict] = []
    n_torn = 0
    lines = text.splitlines()
    last_index = len(lines) - 1
    for index, line in enumerate(lines):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            record = json.loads(stripped)
        except json.JSONDecodeError as exc:
            if index == last_index and not text.endswith("\n"):
                n_torn += 1
                continue
            raise ValueError(
                f"{target}: line {index + 1} is corrupt mid-ledger ({exc}); "
                "refusing to skip interior records"
            ) from exc
        if not isinstance(record, dict) or record.get("schema") != RUN_SCHEMA:
            raise ValueError(
                f"{target}: line {index + 1} is not a {RUN_SCHEMA} record "
                f"(schema {record.get('schema') if isinstance(record, dict) else type(record).__name__!r})"
            )
        records.append(record)
    return records, n_torn


def find_run(records: list[dict], ref: str) -> dict:
    """Resolve *ref* to one record: an index into the list (negative from
    the end, as listed by ``runs list``) or a run-id prefix."""
    try:
        index = int(ref)
    except ValueError:
        pass
    else:
        try:
            return records[index]
        except IndexError:
            raise ValueError(
                f"run index {index} out of range (ledger holds "
                f"{len(records)} runs)"
            ) from None
    matches = [
        r for r in records if str(r.get("run_id", "")).startswith(ref)
    ]
    if not matches:
        raise ValueError(f"no run matches {ref!r}")
    if len({r.get("run_id") for r in matches}) > 1:
        ids = ", ".join(sorted(str(r.get("run_id")) for r in matches)[:4])
        raise ValueError(f"run ref {ref!r} is ambiguous ({ids}, ...)")
    return matches[-1]


def diff_runs(
    baseline: dict,
    candidate: dict,
    *,
    threshold: float = DEFAULT_REGRESSION_THRESHOLD,
) -> dict:
    """Compare two run records; flag a throughput regression.

    ``regression`` is the fractional pairs/s drop from *baseline* to
    *candidate* (negative when the candidate is faster); the diff is
    ``flagged`` when the drop meets *threshold* — but only a
    fingerprint-matched pair makes that claim, otherwise the diff
    reports the shape mismatch instead of a bogus regression.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(
            f"threshold must be a fraction in (0, 1), got {threshold}"
        )
    base_pps = float(baseline.get("pairs_per_second") or 0.0)
    cand_pps = float(candidate.get("pairs_per_second") or 0.0)
    regression = 1.0 - cand_pps / base_pps if base_pps > 0 else 0.0
    same_shape = (
        baseline.get("fingerprint") is not None
        and baseline.get("fingerprint") == candidate.get("fingerprint")
    )
    return {
        "baseline": baseline.get("run_id"),
        "candidate": candidate.get("run_id"),
        "fingerprint_match": same_shape,
        "threshold": threshold,
        "baseline_pairs_per_second": base_pps,
        "candidate_pairs_per_second": cand_pps,
        "regression": regression,
        "flagged": bool(same_shape and regression >= threshold),
        "wall_seconds": [
            baseline.get("wall_seconds"), candidate.get("wall_seconds"),
        ],
        "percent_of_peak": [
            baseline.get("percent_of_peak"), candidate.get("percent_of_peak"),
        ],
        "anomalies": [
            baseline.get("anomalies", []), candidate.get("anomalies", []),
        ],
    }


# ---------------------------------------------------------------------------
# Rendering (the report.py renderer family dispatches here).
# ---------------------------------------------------------------------------


def _fmt_when(record: dict) -> str:
    stamp = record.get("timestamp_unix")
    if stamp is None:
        return "?"
    return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(float(stamp)))


def _fmt_shape(record: dict) -> str:
    cfg = record.get("config", {})
    shape = f"{cfg.get('n_snps', '?')}x{cfg.get('n_samples', '?')}"
    if cfg.get("band"):
        shape += " banded"
    return shape


def render_runs_list(records: list[dict], *, n_torn: int = 0) -> str:
    """The ``repro runs list`` table (also ``repro report runs.jsonl``)."""
    lines = [
        f"runs ({RUN_SCHEMA}): {len(records)} recorded"
        + (f" | WARNING: {n_torn} torn final record dropped "
           "(run killed mid-append)" if n_torn else "")
    ]
    if not records:
        lines.append("(empty ledger — run `repro ld --engine ...` first)")
        return "\n".join(lines)
    lines.append(
        f"{'#':>3} {'run id':<22} {'when':<19} {'engine':<10} "
        f"{'shape':<14} {'fingerprint':<16} {'wall s':>8} {'pairs/s':>12} "
        f"{'%peak':>6} {'flags':>5}"
    )
    for index, record in enumerate(records):
        peak = record.get("percent_of_peak")
        lines.append(
            f"{index:>3} {str(record.get('run_id', '?')):<22} "
            f"{_fmt_when(record):<19} "
            f"{str(record.get('config', {}).get('engine', '?')):<10} "
            f"{_fmt_shape(record):<14} "
            f"{str(record.get('fingerprint', '?')):<16} "
            f"{record.get('wall_seconds', 0.0):>8.3f} "
            f"{record.get('pairs_per_second', 0.0):>12,.0f} "
            f"{'--' if peak is None else format(peak, '.1f'):>6} "
            f"{len(record.get('anomalies', [])):>5}"
        )
    return "\n".join(lines)


def render_run(record: dict) -> str:
    """One record in full — ``repro runs show``."""
    cfg = record.get("config", {})
    tiles = record.get("tiles", {})
    peak = record.get("percent_of_peak")
    lines = [
        f"run {record.get('run_id', '?')} ({RUN_SCHEMA}) at "
        f"{_fmt_when(record)} on {record.get('host', '?')}",
        f"  fingerprint {record.get('fingerprint', '?')} | "
        f"engine={cfg.get('engine', '?')} workers={cfg.get('workers', '?')} "
        f"stat={cfg.get('stat', '?')} {cfg.get('n_snps', '?')} SNPs x "
        f"{cfg.get('n_samples', '?')} samples "
        f"block={cfg.get('block_snps', '?')}"
        + (f" band={cfg['band']}" if cfg.get("band") else "")
        + (f" budget={cfg['memory_budget']}" if cfg.get("memory_budget")
           else ""),
        f"  wall {record.get('wall_seconds', 0.0):.3f} s | "
        f"{record.get('pairs_computed', 0):,} pairs | "
        f"{record.get('pairs_per_second', 0.0):,.0f} pairs/s | "
        f"{'--' if peak is None else format(peak, '.2f') + '%'} of peak",
        f"  tiles {tiles.get('computed', '?')}/{tiles.get('total', '?')} "
        f"computed ({tiles.get('skipped', 0)} skipped, "
        f"{tiles.get('pruned', 0)} pruned, "
        f"{tiles.get('quarantined', 0)} quarantined, "
        f"{tiles.get('retries', 0)} retries)",
    ]
    anomalies = record.get("anomalies", [])
    lines.append(
        "  anomalies: " + (", ".join(anomalies) if anomalies else "none")
    )
    artifacts = {
        k: v for k, v in (record.get("artifacts") or {}).items() if v
    }
    if artifacts:
        lines.append("  artifacts:")
        for key, value in sorted(artifacts.items()):
            lines.append(f"    {key}: {value}")
    return "\n".join(lines)


def render_diff(diff: dict) -> str:
    """The ``repro runs diff A B`` verdict."""
    base_pps = diff["baseline_pairs_per_second"]
    cand_pps = diff["candidate_pairs_per_second"]
    walls = diff.get("wall_seconds", [None, None])
    lines = [
        f"diff baseline {diff.get('baseline', '?')} -> candidate "
        f"{diff.get('candidate', '?')} "
        f"(threshold {diff['threshold']:.0%})",
        f"  pairs/s {base_pps:,.0f} -> {cand_pps:,.0f} "
        f"({-diff['regression']:+.1%})",
    ]
    if walls[0] is not None and walls[1] is not None:
        lines.append(f"  wall    {walls[0]:.3f} s -> {walls[1]:.3f} s")
    peaks = diff.get("percent_of_peak", [None, None])
    if peaks[0] is not None and peaks[1] is not None:
        lines.append(f"  %-peak  {peaks[0]:.2f} -> {peaks[1]:.2f}")
    base_anoms, cand_anoms = diff.get("anomalies", [[], []])
    new_anoms = sorted(set(cand_anoms) - set(base_anoms))
    if new_anoms:
        lines.append(f"  new anomalies: {', '.join(new_anoms)}")
    if not diff["fingerprint_match"]:
        lines.append(
            "  NOTE: shape fingerprints differ — throughput is not "
            "comparable; no regression verdict"
        )
    elif diff["flagged"]:
        lines.append(
            f"  REGRESSION: candidate is {diff['regression']:.1%} slower "
            f"than baseline (>= {diff['threshold']:.0%})"
        )
    else:
        lines.append("  ok: no throughput regression beyond threshold")
    return "\n".join(lines)
