"""Sharded tiled LD execution engine: restartable out-of-core ``GᵀG``.

The blocked popcount-GEMM (Figure 1) already expresses the r² matrix as
independent lower-triangle tiles; this module turns that observation into
an execution layer that scales past one process and survives
interruption — the shard-and-restart discipline second-generation PLINK
uses to reach biobank sizes:

- :func:`enumerate_tiles` decomposes the lower triangle into an explicit
  list of :class:`TileTask` units;
- :func:`run_engine` schedules those tiles over one of three executors —
  ``serial`` (in-process loop), ``threads`` (GIL-released numpy workers),
  or ``persistent`` (a warm process pool from :mod:`repro.core.executors`
  whose workers attach the packed words via
  ``multiprocessing.shared_memory`` once, so the genomic matrix is mapped
  instead of pickled per task, and which outlives the run, so successive
  calls against the same panel pay zero spawn or attach cost).
  ``processes`` is accepted as the older spelling of ``persistent``.
  Every executor computes a tile with the one runner,
  :func:`repro.core.executors.run_tile` (fault sites, ``tile`` span,
  :func:`compute_tile`, CRC), on one :class:`repro.core.executors.TileConfig`
  built per run; the strategies themselves live behind the
  :class:`repro.core.executors.ExecutorBackend` interface and share one
  :func:`repro.core.executors.drive` loop, which
  :func:`repro.core.streaming.stream_ld_blocks` runs serially too;
- :class:`TileManifest` journals every completed tile to disk (JSON lines
  with an input fingerprint and a per-record CRC32), so an interrupted run
  restarted with ``resume=True`` recomputes only the missing tiles;
- failures are survived, not just reported: failing tiles are retried
  with exponential backoff and deterministic jitter, a crashed pool
  worker is respawned in place, a pool that cannot be spawned degrades
  ``persistent → threads → serial``, tiles stuck past ``tile_timeout``
  trip a hung-worker watchdog, corrupted tile payloads are caught by a
  CRC32 on the worker→driver handoff and recomputed, and a tile that
  exhausts ``max_retries`` can be *quarantined* (journaled, reported,
  never written to the sink) instead of aborting the run.

Deterministic fault injection for all of the above lives in
:mod:`repro.faults`; pass a :class:`repro.faults.FaultPlan` as
``faults=`` to rehearse any failure schedule. Results are always
delivered to the caller's sink in the driver process, so any
:mod:`repro.core.streaming` sink works unchanged and needs no locking.
Tiles may arrive in any order under ``threads``/``persistent``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import zlib
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.banding import BandSpec, dense_tile_count
from repro.core.blocking import BlockingParams
from repro.core.carriers import CarrierIndex, build_carrier_index
from repro.core.gemm import DEFAULT_KERNEL, popcount_gemm
from repro.core.ldmatrix import as_bitmatrix
from repro.core.stats import STATS, stat_block
from repro.encoding.bitmatrix import BitMatrix
from repro.faults import FaultPlan, InjectedCrash
from repro.observe.spans import current_profiler, span

if TYPE_CHECKING:  # recorder typing only (observe.metrics pulls in nothing
    # from core; spans resolves eagerly above without a cycle)
    from repro.observe.metrics import MetricsRecorder

__all__ = [
    "ENGINES",
    "ENGINE_ALIASES",
    "EngineReport",
    "TileCorruptionError",
    "TileManifest",
    "TileResult",
    "TileTask",
    "TileTimeoutError",
    "compute_tile",
    "enumerate_tiles",
    "input_fingerprint",
    "run_engine",
    "store_fingerprint",
]

#: Supported execution strategies, in increasing order of isolation.
ENGINES = ("serial", "threads", "persistent")

#: Older spellings :func:`run_engine` still accepts: ``processes`` named a
#: per-run process pool, which the warm ``persistent`` pool replaced.
ENGINE_ALIASES = {"processes": "persistent"}

#: Degradation chain: where each executor falls back to when its worker
#: pool repeatedly fails to spawn.
_FALLBACK = {
    "persistent": "threads",
    "threads": "serial",
    "serial": None,
}

class TileCorruptionError(RuntimeError):
    """A tile payload failed its CRC32 on the worker→driver handoff."""


class TileTimeoutError(RuntimeError):
    """A tile exceeded the per-tile wall-clock budget (``tile_timeout``)."""


@dataclass(frozen=True, order=True)
class TileTask:
    """One schedulable unit: the statistic block ``[i0:i1, j0:j1]``.

    Tiles produced by :func:`enumerate_tiles` satisfy ``j0 <= i0`` (lower
    triangle) and carry their exclusive end indices so workers need no
    knowledge of the global blocking.
    """

    i0: int
    i1: int
    j0: int
    j1: int

    @property
    def key(self) -> tuple[int, int]:
        """Manifest identity of the tile (its top-left corner)."""
        return (self.i0, self.j0)

    @property
    def n_pairs(self) -> int:
        """Matrix cells this tile covers (work estimate for scheduling)."""
        return (self.i1 - self.i0) * (self.j1 - self.j0)


def enumerate_tiles(
    n_snps: int,
    block_snps: int,
    *,
    band: "BandSpec | None" = None,
) -> list[TileTask]:
    """Lower-triangle block decomposition shared by streaming and the engine.

    Row-major over block rows, so sequential consumption matches the order
    :func:`repro.core.streaming.stream_ld_blocks` has always delivered.

    With a *band*, each block row starts at the first tile column that can
    meet the band instead of column 0 — tiles entirely outside the band
    are never materialized, which is the engine's O(n·W) work bound. Every
    in-band pair stays covered: a tile's closest pair is ``(i0, j1-1)``,
    so any tile holding an in-band pair also meets the band itself.
    """
    if n_snps < 0:
        raise ValueError(f"n_snps must be non-negative, got {n_snps}")
    if block_snps < 1:
        raise ValueError(f"block_snps must be >= 1, got {block_snps}")
    if band is not None:
        band.validate_for(n_snps)
    tiles = []
    for i0 in range(0, n_snps, block_snps):
        i1 = min(i0 + block_snps, n_snps)
        j_start = 0 if band is None else band.first_block_col(i0, block_snps)
        for j0 in range(j_start, i0 + 1, block_snps):
            tiles.append(
                TileTask(i0=i0, i1=i1, j0=j0, j1=min(j0 + block_snps, n_snps))
            )
    return tiles


def compute_tile(
    words: np.ndarray,
    freqs: np.ndarray,
    n_samples: int,
    tile: TileTask,
    *,
    stat: str = "r2",
    params: BlockingParams | None = None,
    kernel: str = DEFAULT_KERNEL,
    undefined: float = np.nan,
    carriers: CarrierIndex | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Compute one statistic block from the packed words.

    This is the whole per-tile work unit — the tile's shared-allele
    counts plus the elementwise statistic, which
    :func:`repro.core.stats.stat_block` writes into *out* (a pool
    worker's arena slot) or a fresh array, and returns. Its one caller
    is the tile runner, :func:`repro.core.executors.run_tile`, which the
    serial loop, thread workers and pool workers all share.

    The counts come from one rectangular popcount GEMM, except that the
    ``fused`` kernel, given a *carriers* index
    (:class:`repro.core.carriers.CarrierIndex`), splits a tile holding
    rare SNPs: the GEMM sees only its common rows and columns, and every
    count that touches a rare SNP is summed over that SNP's minor-allele
    carriers (under the ``carriers`` span). The counts stay exact
    integers, so the block is bit-identical either way. The ``numpy``
    and ``scalar`` kernels ignore *carriers*: they are the
    data-oblivious oracles.
    """
    rows, cols = words[tile.i0 : tile.i1], words[tile.j0 : tile.j1]

    def gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return popcount_gemm(a, b, params=params, kernel=kernel)

    if carriers is not None and kernel == "fused":
        counts = carriers.tile_counts(tile, rows, cols, gemm)
    else:
        counts = gemm(rows, cols)
    with span("stat"):
        return stat_block(
            counts,
            freqs[tile.i0 : tile.i1],
            freqs[tile.j0 : tile.j1],
            stat=stat,
            n_samples=n_samples,
            undefined=undefined,
            out=out,
        )


def _crc32_array(block: np.ndarray) -> int:
    """CRC32 over a block's payload bytes (contiguous view, no copy)."""
    return zlib.crc32(memoryview(np.ascontiguousarray(block)).cast("B"))


@dataclass(frozen=True)
class TileResult:
    """One computed tile plus its provenance (who computed it, how long).

    The transport unit between workers and the driver: the statistic
    block itself, the compute wall-clock measured *inside* the worker
    (so pool scheduling latency is excluded), a worker identity —
    thread name in-process, ``pid-<n>`` for pool processes — and an
    optional CRC32 of the payload taken in the worker, verified in the
    driver before the sink sees the block. The checksum is always on for
    the process-pool handoff (the shared-memory arena is the corruption
    surface) and whenever a fault plan is active.

    With span profiling enabled, ``phase_seconds`` carries the tile's
    per-phase self-time breakdown (``pack_a``, ``pack_b``,
    ``plane_matmul``, ``stat``, ...) collected from the worker's
    profiler — the transport by which per-worker attribution reaches
    the driver across the process boundary.
    """

    block: np.ndarray
    compute_seconds: float
    worker: str
    checksum: int | None = None
    phase_seconds: dict | None = None


# ---------------------------------------------------------------------------
# Manifest: a crash-safe journal of completed tiles.
# ---------------------------------------------------------------------------


def input_fingerprint(
    matrix: BitMatrix,
    *,
    stat: str,
    block_snps: int,
    undefined: float = np.nan,
    band: BandSpec | None = None,
) -> str:
    """Digest identifying one (input, parameters) combination.

    Covers the packed words bit-for-bit plus every parameter that changes
    tile contents or tile geometry, so a manifest can refuse to resume a
    run whose inputs silently changed. A band changes both (tiles are
    pruned and straddling tiles masked), so its token joins the header —
    appended only when a band is set, keeping pre-band manifests valid.
    """
    digest = hashlib.sha256()
    header = (
        f"repro-engine-v1|{matrix.n_samples}|{matrix.n_snps}|{matrix.n_words}"
        f"|{stat}|{block_snps}|{undefined!r}"
    )
    if band is not None:
        header += f"|{band.token()}"
    digest.update(header.encode())
    digest.update(np.ascontiguousarray(matrix.words).tobytes())
    return digest.hexdigest()


def store_fingerprint(
    store,
    *,
    stat: str,
    block_snps: int,
    undefined: float = np.nan,
    band: BandSpec | None = None,
) -> str:
    """Manifest fingerprint for a disk-backed panel store.

    Same role as :func:`input_fingerprint` but built from the store's
    pack-time content digest instead of re-reading the words — a resumed
    out-of-core sweep must not scan terabytes just to check identity.
    (The two fingerprints deliberately differ: a manifest written for an
    in-RAM run does not resume a store-backed one, and vice versa, since
    the store's digest — not the driver's RAM — is what was verified.)
    """
    digest = hashlib.sha256()
    header = (
        f"repro-engine-store-v1|{store.n_samples}|{store.n_snps}"
        f"|{store.n_words}|{stat}|{block_snps}|{undefined!r}"
    )
    if band is not None:
        header += f"|{band.token()}"
    digest.update(header.encode())
    digest.update(store.content_digest.encode())
    return digest.hexdigest()


def _resolve_store(data):
    """A :class:`repro.io.panelstore.PanelStore` for *data*, or ``None``.

    Accepts an already-open store or a filesystem path to one; every
    other input (dense array, BitMatrix) stays on the in-core path.
    """
    from repro.io.panelstore import PanelStore

    if isinstance(data, PanelStore):
        return data
    if isinstance(data, (str, Path)):
        return PanelStore.open(data)
    return None


def _record_crc(record: dict) -> int:
    """CRC32 of a manifest record's canonical serialization (sans crc)."""
    return zlib.crc32(
        json.dumps(record, separators=(",", ":"), sort_keys=True).encode()
    )


@dataclass
class TileManifest:
    """Append-only JSON-lines journal of completed and quarantined tiles.

    Line 1 is a header carrying the input fingerprint; each subsequent line
    records one tile outcome — completed (``{"tile": [i0, j0]}``) or
    quarantined (``{"tile": ..., "status": "quarantined", "error": ...}``).
    Version 2 adds a ``crc`` field to every line (CRC32 of the record's
    canonical serialization), so a bit-flipped or otherwise corrupted
    record is *detected* on load instead of silently trusted or skipped.

    Records are flushed and fsynced per tile, so after a crash the journal
    holds exactly the tiles whose sink delivery finished. A torn final
    line — the crash happened mid-append, so the line has no terminating
    newline — is tolerated on load (that tile simply reruns) and truncated
    away before appending resumes; a corrupt *interior* record raises,
    because it means the journal can no longer be trusted.
    """

    path: Path
    fingerprint: str
    completed: set[tuple[int, int]] = field(default_factory=set)
    quarantined: dict[tuple[int, int], str] = field(default_factory=dict)
    _fh: object | None = field(default=None, repr=False)

    MAGIC = "repro-tile-manifest"
    VERSION = 2
    #: Versions this loader still reads (v1 lacked per-record CRCs).
    SUPPORTED_VERSIONS = (1, 2)

    @classmethod
    def open(
        cls, path: str | Path, fingerprint: str, *, resume: bool = False
    ) -> "TileManifest":
        """Open a manifest for writing, optionally resuming an existing one.

        With ``resume=True`` and an existing journal, the completed- and
        quarantined-tile sets are loaded and appending continues (after
        truncating any torn final line); a fingerprint mismatch raises
        ``ValueError`` (the inputs or parameters changed, so the old tiles
        cannot be trusted). Without ``resume``, any existing journal is
        truncated.
        """
        path = Path(path)
        if resume and path.exists() and path.stat().st_size > 0:
            completed, quarantined, keep_bytes = cls._load(path, fingerprint)
            if keep_bytes < path.stat().st_size:
                # Drop the torn tail so the next append starts on a fresh
                # line instead of concatenating into the partial record.
                with path.open("r+b") as raw:
                    raw.truncate(keep_bytes)
            manifest = cls(
                path=path,
                fingerprint=fingerprint,
                completed=completed,
                quarantined=quarantined,
            )
            manifest._fh = path.open("a", encoding="utf-8")
            return manifest
        manifest = cls(path=path, fingerprint=fingerprint)
        manifest._fh = path.open("w", encoding="utf-8")
        manifest._write_line(
            {"magic": cls.MAGIC, "version": cls.VERSION, "fingerprint": fingerprint}
        )
        return manifest

    @classmethod
    def _load(
        cls, path: Path, fingerprint: str
    ) -> tuple[set[tuple[int, int]], dict[tuple[int, int], str], int]:
        """Parse a journal; returns (completed, quarantined, good bytes)."""
        raw = path.read_bytes()
        text = raw.decode("utf-8", errors="replace")
        keep_bytes = len(raw)
        if text and not text.endswith("\n"):
            # Unterminated final line: a crash mid-append. Everything
            # after the last newline is the torn tail; ignore it (that
            # tile reruns) and remember where the good prefix ends.
            cut = text.rfind("\n") + 1
            keep_bytes = len(text[:cut].encode("utf-8"))
            text = text[:cut]
        lines = text.splitlines()
        try:
            header = json.loads(lines[0])
            if not isinstance(header, dict):
                raise ValueError("header is not an object")
        except (json.JSONDecodeError, IndexError, ValueError) as exc:
            raise ValueError(f"corrupt tile manifest header in {path}") from exc
        version = header.get("version")
        if header.get("magic") != cls.MAGIC or version not in cls.SUPPORTED_VERSIONS:
            raise ValueError(
                f"{path} is not a version-{'/'.join(map(str, cls.SUPPORTED_VERSIONS))}"
                " tile manifest"
            )
        if version >= 2:
            cls._check_crc(header, path, 1)
        if header.get("fingerprint") != fingerprint:
            raise ValueError(
                f"manifest {path} was written for different inputs/parameters "
                "(fingerprint mismatch); rerun without resume"
            )
        completed: set[tuple[int, int]] = set()
        quarantined: dict[tuple[int, int], str] = {}
        for lineno, line in enumerate(lines[1:], start=2):
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("record is not an object")
            except (json.JSONDecodeError, ValueError) as exc:
                raise ValueError(
                    f"corrupt manifest record at {path}:{lineno} ({exc}); "
                    "the journal cannot be trusted — rerun without resume"
                ) from exc
            if version >= 2:
                cls._check_crc(record, path, lineno)
            tile = record.get("tile")
            if not (isinstance(tile, list) and len(tile) == 2):
                raise ValueError(
                    f"corrupt manifest record at {path}:{lineno} "
                    f"(no tile key in {record!r}); rerun without resume"
                )
            key = (int(tile[0]), int(tile[1]))
            if record.get("status") == "quarantined":
                if key not in completed:
                    quarantined[key] = str(record.get("error", ""))
            else:
                completed.add(key)
                quarantined.pop(key, None)
        return completed, quarantined, keep_bytes

    @classmethod
    def _check_crc(cls, record: dict, path: Path, lineno: int) -> None:
        stored = record.pop("crc", None)
        actual = _record_crc(record)
        if stored != actual:
            raise ValueError(
                f"manifest record checksum mismatch at {path}:{lineno} "
                f"(stored {stored!r}, computed {actual}); the journal is "
                "corrupt — rerun without resume"
            )

    def _write_line(self, record: dict, *, torn: bool = False) -> None:
        assert self._fh is not None
        payload = dict(record)
        payload["crc"] = _record_crc(record)
        line = json.dumps(payload, separators=(",", ":"))
        if torn:
            line = line[: max(1, len(line) // 2)]
        else:
            line += "\n"
        self._fh.write(line)
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def record(self, tile: TileTask) -> None:
        """Journal *tile* as durably completed (flush + fsync)."""
        self._write_line({"tile": [tile.i0, tile.j0]})
        self.completed.add(tile.key)
        self.quarantined.pop(tile.key, None)

    def record_quarantine(self, tile: TileTask, error: str) -> None:
        """Journal *tile* as quarantined (retries exhausted; never written)."""
        self._write_line(
            {"tile": [tile.i0, tile.j0], "status": "quarantined", "error": error}
        )
        self.quarantined[tile.key] = error

    def record_torn(self, tile: TileTask) -> None:
        """Write a deliberately truncated record (fault injection only).

        Simulates a crash mid-append: half a record, no newline, flushed
        to disk. The caller raises :class:`repro.faults.InjectedCrash`
        immediately after; a resumed run must tolerate the torn tail.
        """
        self._write_line({"tile": [tile.i0, tile.j0]}, torn=True)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TileManifest":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@dataclass(frozen=True)
class EngineReport:
    """Outcome summary of one :func:`run_engine` invocation."""

    engine: str
    n_workers: int
    n_tiles: int
    n_computed: int
    n_skipped: int
    n_retries: int
    engine_used: str = ""
    n_quarantined: int = 0
    quarantined: tuple[tuple[int, int], ...] = ()
    #: Tiles dispatched to a worker pool, resubmissions included; the
    #: serial engine computes inline and dispatches none.
    n_batches: int = 0
    n_pool_spawns: int = 0
    n_worker_respawns: int = 0
    #: Band accounting (zero on dense runs): tiles the band enumeration
    #: never materialized, tiles straddling the band edge (masked on
    #: delivery), and the in-band pair-cell count the run delivers.
    n_pruned: int = 0
    n_partial: int = 0
    band_pairs: int = 0

    @property
    def complete(self) -> bool:
        """All tiles accounted for (computed now or journaled earlier).

        Quarantined tiles are neither, so a run with quarantines is
        never complete — the matrix has holes the caller must not trust.
        """
        return self.n_computed + self.n_skipped == self.n_tiles

    @property
    def degraded(self) -> bool:
        """True when the run finished on a weaker executor than requested."""
        return bool(self.engine_used) and self.engine_used != self.engine


def run_engine(
    data: "BitMatrix | np.ndarray | str | Path",
    sink: Callable[[int, int, np.ndarray], None],
    *,
    stat: str = "r2",
    block_snps: int = 512,
    engine: str = "serial",
    n_workers: int | None = None,
    memory_budget: int | None = None,
    params: BlockingParams | None = None,
    kernel: str = DEFAULT_KERNEL,
    undefined: float = np.nan,
    band: "int | BandSpec | None" = None,
    manifest_path: str | Path | None = None,
    resume: bool = False,
    max_retries: int = 2,
    tile_timeout: float | None = None,
    allow_quarantine: bool = False,
    faults: FaultPlan | None = None,
    recorder: "MetricsRecorder | None" = None,
) -> EngineReport:
    """Compute the lower-triangle LD matrix tile by tile into *sink*.

    Parameters
    ----------
    data:
        Dense binary ``(n_samples, n_snps)`` matrix, packed
        :class:`BitMatrix`, an open
        :class:`repro.io.panelstore.PanelStore`, or a filesystem path to
        one (produced by ``repro pack``). Store-backed inputs run
        *out-of-core*: no engine copies the panel into RAM or shared
        memory — serial/threads compute against budgeted prefetch
        windows, and process-pool workers map the store read-only by
        path. A store whose stored frequency contradicts the words of
        a rare SNP (:mod:`repro.core.carriers`) raises ``ValueError``
        before any tile is computed.
    memory_budget:
        Byte budget for panel windows (store-backed inputs only); tiles
        run panel-major under it. On ``serial`` / ``threads`` it caps
        resident panel bytes: the double-buffered prefetch pipeline
        (:mod:`repro.core.prefetch`) stages the next tile's A/B windows
        from disk while the fused GEMM computes the current one, with
        ``io.prefetch``/``io.wait`` spans and ``prefetch.*`` metrics
        attributing the I/O. A failed window read fails the tile that
        needed the window, which costs that tile a retry. On
        ``persistent`` the pool workers map the store themselves, so
        the budget only orders their tiles. ``None`` (default) reads
        the memmap on demand with no explicit windowing.
    sink:
        Callable ``(i0, j0, block)``; always invoked in the driver process
        (single-threaded), in arbitrary tile order under ``threads``/
        ``persistent``.
    stat:
        ``"r2"``, ``"D"``, or ``"H"``.
    engine:
        ``"serial"`` (in-process loop), ``"threads"`` (GIL-released numpy
        workers), or ``"persistent"`` (a warm shared-memory worker pool
        that survives across ``run_engine`` calls — see
        :mod:`repro.core.executors`; a second run against the same panel
        performs zero pool spawns). ``"processes"`` is the older spelling
        of ``"persistent"`` and is reported as ``"persistent"``. When a
        worker pool repeatedly fails to spawn, execution degrades
        ``persistent → threads → serial`` rather than aborting; the
        executor that finished is reported as ``engine_used``.
    n_workers:
        Worker count for ``threads``/``persistent`` (default: CPU count).
    band:
        Optional distance band: an ``int`` window (pairs with
        ``i - j <= band`` SNPs) or a :class:`repro.core.banding.BandSpec`
        (index or genomic). Tiles entirely outside the band are never
        enumerated (reported as ``n_pruned`` and the
        ``engine.tiles_pruned`` counter); tiles straddling the band edge
        compute the full tile GEMM — the rectangular product is what
        keeps the kernel at full efficiency — but out-of-band cells are
        overwritten with *undefined* before the sink sees the block. The
        band is folded into the manifest fingerprint, so resume /
        quarantine / chaos semantics carry over unchanged; out-of-core
        runs prefetch only the window pairs that meet the band.
    manifest_path:
        Path of the tile journal. Required for ``resume``; when set, every
        delivered tile is durably recorded so a later run can skip it.
    resume:
        Skip tiles already journaled in *manifest_path* for identical
        inputs and parameters (fingerprint-checked). Tiles journaled as
        *quarantined* are retried, not skipped.
    max_retries:
        Times a failing tile is recomputed (and a failed pool spawn
        retried) before the tile is quarantined or the run abandoned.
        A failed panel-window read on a budgeted run is charged to the
        tile that needed the window. Retries back off exponentially
        from :data:`repro.core.executors.RETRY_BACKOFF_BASE` seconds up
        to :data:`repro.core.executors.RETRY_BACKOFF_CAP`, with
        deterministic jitter per (tile, attempt).
    tile_timeout:
        Per-tile wall-clock budget in seconds. Under ``persistent`` the
        stuck worker is killed and respawned in place; under
        ``threads`` the stuck future is orphaned and the tile
        resubmitted; a serial tile cannot be preempted, so one that ran
        past the budget is charged a timeout when it returns. ``None``
        (default) disables the watchdog.
    allow_quarantine:
        After ``max_retries``, journal the poison tile as quarantined and
        finish the run (reporting it in :class:`EngineReport`) instead of
        aborting. The sink never receives a quarantined tile.
    faults:
        Optional :class:`repro.faults.FaultPlan` — deterministic fault
        injection at the ``tile_compute`` / ``tile_deliver`` /
        ``manifest_append`` / ``pool_spawn`` / ``prefetch`` sites.
        ``None`` (default) costs one pointer comparison per site.
    recorder:
        Optional :class:`repro.observe.MetricsRecorder`, the run's one
        telemetry stream. When set, the run emits structured events —
        ``run_start`` (with the run's ``n_tiles`` and ``pairs_total``,
        and the recorder's ``run_id`` when it has one),
        one ``tile_computed`` per delivered tile (tile key, compute
        seconds, deliver/flush seconds, bytes written, worker id), one
        ``tile_skipped`` per journaled tile honoured on resume,
        ``tile_retry`` / ``worker_respawn`` per recovery action plus
        ``tile_corrupt`` / ``tile_timeout`` / ``tile_quarantined`` /
        ``pool_spawn_failed`` / ``executor_degraded`` for the hardened
        paths, and ``run_end`` — plus matching ``engine.*`` counters and
        timers (``docs/METRICS.md`` lists every field). The progress
        line, the JSONL trace and the ``repro-live/1`` snapshot are
        sinks of the recorder. The default ``None`` costs one pointer
        comparison per tile.

    Span profiling follows the active profiler: run the engine inside
    ``with repro.observe.profiling(profiler):`` and the driver phases
    (``driver.dispatch``, ``driver.wait``, ``driver.deliver``,
    ``driver.manifest_append``, ``driver.backoff``) and in-process tile
    phases record into it, while pool workers install their own
    profiler and ship each tile's phase breakdown back in
    ``TileResult.phase_seconds`` (the ``phase.*`` timers and the
    ``phases`` field of ``tile_computed`` events).

    Returns
    -------
    :class:`EngineReport` with tile/retry/quarantine accounting.
    """
    engine = ENGINE_ALIASES.get(engine, engine)
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    if stat not in STATS:
        raise ValueError(f"unknown LD statistic {stat!r}; choose r2/D/H")
    if max_retries < 0:
        raise ValueError(f"max_retries must be non-negative, got {max_retries}")
    if tile_timeout is not None and tile_timeout <= 0:
        raise ValueError(f"tile_timeout must be positive, got {tile_timeout}")
    if resume and manifest_path is None:
        raise ValueError("resume=True requires a manifest_path")
    band_spec: BandSpec | None
    if band is None or isinstance(band, BandSpec):
        band_spec = band
    else:
        band_spec = BandSpec(window=int(band))
    store = _resolve_store(data)
    if store is not None:
        matrix = store.to_bitmatrix()
    else:
        matrix = as_bitmatrix(data)
    if memory_budget is not None and store is None:
        raise ValueError(
            "memory_budget applies to panel-store inputs only; pack the "
            "panel first (repro pack) and pass the store path"
        )
    if matrix.n_samples == 0:
        raise ValueError("LD undefined for zero samples")
    if n_workers is None:
        n_workers = os.cpu_count() or 1
    if n_workers <= 0:
        raise ValueError(f"n_workers must be positive, got {n_workers}")

    tiles = enumerate_tiles(matrix.n_snps, block_snps, band=band_spec)
    n_pruned = 0
    n_partial = 0
    band_pairs = 0
    if band_spec is not None:
        n_pruned = dense_tile_count(matrix.n_snps, block_snps) - len(tiles)
        for tile in tiles:
            if band_spec.classify(tile) == "partial":
                n_partial += 1
            band_pairs += band_spec.pairs_in(tile)

    def tile_pairs(tile: TileTask) -> int:
        """Pairs a tile *delivers* — in-band cells under a band, the
        full rectangle otherwise — the unit all pair accounting
        (counters, events, progress) shares."""
        if band_spec is None:
            return tile.n_pairs
        return band_spec.pairs_in(tile)

    # Store-backed runs never scan the memmap for frequencies — they were
    # computed once at pack time and live in the header.
    freqs = store.freqs if store is not None else matrix.allele_frequencies()
    words = matrix.words
    window_rows = block_snps
    if store is not None and memory_budget is not None:
        # Validate the budget geometry up front (before any manifest is
        # opened), and size the windows the tile order follows.
        from repro.core import prefetch as _pf

        _, window_rows = _pf.plan_windows(
            matrix.n_snps,
            block_snps,
            row_nbytes=store.row_nbytes,
            memory_budget=memory_budget,
            banded=band_spec is not None,
        )
    # Rare SNPs' minor-allele carriers, gathered once per run; every
    # executor gets them inside the run's TileConfig. A store's SNPs are
    # classified from its stored frequencies and only its rare rows are
    # read, through the store's read primitive, at most one prefetch
    # window of rows at a time.
    carriers = None
    if kernel == "fused":
        index = build_carrier_index(
            freqs,
            matrix.n_samples,
            store.read_rows if store is not None else lambda snps: words[snps],
            chunk_rows=window_rows,
            source="panel" if store is None else f"panel store {store.path}",
        )
        carriers = index if index.n_rare else None
    # Lazy: executors imports this module at its top level, so the
    # dependency must point one way at import time.
    from repro.core import executors as _ex

    config = _ex.TileConfig(
        stat=stat,
        params=params,
        kernel=kernel,
        undefined=undefined,
        carriers=carriers,
        faults=faults,
        profile=current_profiler().enabled,
    )

    manifest: TileManifest | None = None
    if manifest_path is not None:
        if store is not None:
            fingerprint = store_fingerprint(
                store, stat=stat, block_snps=block_snps, undefined=undefined,
                band=band_spec,
            )
        else:
            fingerprint = input_fingerprint(
                matrix, stat=stat, block_snps=block_snps, undefined=undefined,
                band=band_spec,
            )
        manifest = TileManifest.open(manifest_path, fingerprint, resume=resume)
    run_start = time.perf_counter()
    try:
        if manifest is not None and manifest.completed:
            todo = [t for t in tiles if t.key not in manifest.completed]
        else:
            todo = list(tiles)
        if store is not None:
            # Panel-major consumption order: every loaded window pair is
            # fully used before the sweep moves on, so out-of-core runs
            # evict windows exactly once (no budget, same locality win).
            from repro.core import prefetch as _pf

            todo = _pf.order_panel_major(todo, window_rows)
        n_skipped = len(tiles) - len(todo)
        #: Round-scoped prefetcher (budgeted serial/threads runs only).
        prefetcher = None
        n_computed = 0
        quarantined: list[tuple[TileTask, str]] = []
        done_keys: set[tuple[int, int]] = set()

        if recorder is not None:
            start_extra = {}
            if recorder.run_id is not None:
                start_extra["run_id"] = recorder.run_id
            if band_spec is not None:
                recorder.inc("engine.tiles_pruned", n_pruned)
                start_extra.update(
                    band=band_spec.describe(),
                    tiles_pruned=n_pruned,
                    tiles_partial=n_partial,
                    band_pairs=band_pairs,
                )
            recorder.event(
                "run_start",
                engine=engine,
                stat=stat,
                n_snps=matrix.n_snps,
                n_samples=matrix.n_samples,
                k_words=matrix.n_words,
                block_snps=block_snps,
                n_tiles=len(tiles),
                n_todo=len(todo),
                pairs_total=sum(tile_pairs(t) for t in tiles),
                **start_extra,
            )
            skipped = (
                [t for t in tiles if t.key in manifest.completed]
                if n_skipped else []
            )
            for tile in skipped:
                pairs = tile_pairs(tile)
                recorder.inc("engine.tiles_skipped")
                recorder.inc("engine.pairs_skipped", pairs)
                recorder.event(
                    "tile_skipped", tile=[tile.i0, tile.j0], pairs=pairs
                )

        def deliver(tile: TileTask, result: TileResult) -> None:
            nonlocal n_computed
            deliver_start = time.perf_counter()
            # Straddling tiles computed the full rectangle (that is what
            # keeps the GEMM dense); only in-band cells reach the sink.
            # Masked here, in the driver, *after* the CRC verification on
            # the worker handoff — so it is executor-agnostic and the
            # checksum still covers the raw computed payload. A masked
            # copy, not in-place: process results can alias arena memory.
            block = result.block
            if band_spec is not None and band_spec.classify(tile) == "partial":
                block = np.where(band_spec.mask(tile), block, undefined)
            with span("driver.deliver"):
                sink(tile.i0, tile.j0, block)
                if manifest is not None:
                    # Make the sink's effects durable before journaling
                    # the tile, so resume never trusts an unflushed block.
                    flush = getattr(sink, "flush", None)
                    if callable(flush):
                        flush()
            if manifest is not None:
                with span("driver.manifest_append"):
                    if faults is not None:
                        if faults.should_tear(tile.key):
                            manifest.record_torn(tile)
                            raise InjectedCrash(
                                "injected torn manifest append, tile "
                                f"{tile.key}"
                            )
                        faults.fire("manifest_append", tile.key, 0)
                    manifest.record(tile)
            n_computed += 1
            done_keys.add(tile.key)
            if recorder is not None:
                deliver_seconds = time.perf_counter() - deliver_start
                recorder.inc("engine.tiles_computed")
                recorder.inc("engine.pairs_computed", tile_pairs(tile))
                recorder.inc("engine.bytes_delivered", int(block.nbytes))
                recorder.observe_time(
                    "engine.tile_compute_seconds", result.compute_seconds
                )
                recorder.observe_time(
                    "engine.tile_deliver_seconds", deliver_seconds
                )
                if result.phase_seconds:
                    for phase_name, secs in result.phase_seconds.items():
                        recorder.observe_time(f"phase.{phase_name}", secs)
                extra = (
                    {"phases": result.phase_seconds}
                    if result.phase_seconds else {}
                )
                recorder.event(
                    "tile_computed",
                    tile=[tile.i0, tile.j0],
                    pairs=tile_pairs(tile),
                    compute_s=result.compute_seconds,
                    deliver_s=deliver_seconds,
                    bytes=int(block.nbytes),
                    worker=result.worker,
                    **extra,
                )

        def quarantine_tile(tile: TileTask, error: BaseException) -> None:
            quarantined.append((tile, repr(error)))
            done_keys.add(tile.key)
            if manifest is not None:
                manifest.record_quarantine(tile, repr(error))
            if recorder is not None:
                recorder.inc("engine.tiles_quarantined")
                recorder.event(
                    "tile_quarantined",
                    tile=[tile.i0, tile.j0],
                    error=repr(error),
                )

        ctx = _ex.RetryContext(
            max_retries=max_retries,
            tile_timeout=tile_timeout,
            allow_quarantine=allow_quarantine,
            deliver=deliver,
            quarantine=quarantine_tile,
            recorder=recorder,
        )

        def local_task(tile: TileTask, epoch: int) -> TileResult:
            # Budgeted out-of-core runs compute against the prefetcher's
            # resident windows (acquire blocks — and records io.wait —
            # only when the loader has not stayed ahead); everything
            # else reads the in-RAM or memmapped words directly.
            # Acquired before the runner starts the compute clock, so
            # stall time never masquerades as tile compute time. A
            # failed window read raises here and fails this tile.
            pf = prefetcher
            source = words if pf is None else pf.acquire(tile)
            try:
                return _ex.run_tile(
                    config, source, freqs, matrix.n_samples, tile, epoch
                )
            finally:
                if pf is not None:
                    pf.release(tile)

        def make_backend(
            current: str, work: list[TileTask]
        ) -> tuple["_ex.ExecutorBackend", list[TileTask]]:
            """Backend + schedule for one dispatch round."""
            if current == "serial":
                return _ex.SerialBackend(local_task), list(work)
            workers = min(n_workers, len(work))
            # Out-of-core sweeps keep the panel-major order (window
            # locality beats LPT balance when windows cost disk reads);
            # in-core runs schedule largest-first as before.
            schedule = (
                list(work) if store is not None else _ex._largest_first(work)
            )
            if current == "threads":
                return _ex.ThreadsBackend(local_task, workers, ctx), schedule
            backend = _ex.PersistentBackend(
                words=words,
                freqs=freqs,
                n_samples=matrix.n_samples,
                config=config,
                n_workers=workers,
                max_tile_elems=max(t.n_pairs for t in work),
                ctx=ctx,
                # Store-backed runs hand workers the store *path*: each
                # worker maps it read-only, so no panel-sized
                # shared-memory copy is ever made.
                panel_path=str(store.path) if store is not None else None,
            )
            return backend, schedule

        def start_prefetch(current: str, work: list[TileTask]) -> None:
            """Stand up the round's prefetcher (budgeted store runs on
            serial/threads; pool workers map the store by path)."""
            nonlocal prefetcher
            if (
                store is None or memory_budget is None or not work
                or current == "persistent"
            ):
                return
            from repro.core import prefetch as _pf

            prefetcher = _pf.PanelPrefetcher(
                store,
                work,
                block_snps=block_snps,
                memory_budget=memory_budget,
                faults=faults,
                recorder=recorder,
                banded=band_spec is not None,
            )

        def stop_prefetch() -> None:
            nonlocal prefetcher
            if prefetcher is not None:
                prefetcher.close()
                prefetcher = None

        retries = 0
        dispatched = 0
        pool_spawns = 0
        worker_respawns = 0
        current = engine
        work = todo
        while work:
            try:
                backend, schedule = make_backend(current, work)
                start_prefetch(current, schedule)
                try:
                    retries += _ex.drive(backend, schedule, ctx)
                    dispatched += getattr(backend, "dispatched_this_run", 0)
                finally:
                    stop_prefetch()
                    pool_spawns += getattr(backend, "spawns_this_run", 0)
                    worker_respawns += getattr(
                        backend, "respawns_this_run", 0
                    )
                break
            except _ex.ExecutorBroken as broken:
                fallback = _FALLBACK[current]
                if fallback is None:  # pragma: no cover - serial never breaks
                    raise RuntimeError(
                        "serial executor broke; cannot degrade further"
                    ) from broken.cause
                if recorder is not None:
                    recorder.inc("engine.degradations")
                    recorder.event(
                        "executor_degraded",
                        from_engine=current,
                        to_engine=fallback,
                        error=repr(broken.cause),
                    )
                current = fallback
                work = [t for t in work if t.key not in done_keys]
    finally:
        if manifest is not None:
            manifest.close()
        if store is not None and store is not data:
            # Opened here from a path, so closed here; caller-supplied
            # PanelStore instances stay open (the caller owns them).
            store.close()

    if recorder is not None:
        run_seconds = time.perf_counter() - run_start
        recorder.observe_time("engine.run_seconds", run_seconds)
        if dispatched:
            recorder.inc("engine.batches_dispatched", dispatched)
        recorder.event(
            "run_end",
            n_computed=n_computed,
            n_skipped=n_skipped,
            n_retries=retries,
            n_quarantined=len(quarantined),
            n_batches=dispatched,
            seconds=run_seconds,
        )
    return EngineReport(
        engine=engine,
        n_workers=1 if engine == "serial" else min(n_workers, max(len(todo), 1)),
        n_tiles=len(tiles),
        n_computed=n_computed,
        n_skipped=n_skipped,
        n_retries=retries,
        engine_used=current,
        n_quarantined=len(quarantined),
        quarantined=tuple(sorted(t.key for t, _ in quarantined)),
        n_batches=dispatched,
        n_pool_spawns=pool_spawns,
        n_worker_respawns=worker_respawns,
        n_pruned=n_pruned,
        n_partial=n_partial,
        band_pairs=band_pairs,
    )
