"""Out-of-core LD: stream the matrix block by block to a sink.

At the paper's Dataset scale a full r² matrix is 10,000² × 8 bytes =
800 MB — fine — but a million-SNP chromosome would need 8 TB, so
production use streams results instead of materializing them. This module
runs the same blocked GEMM engine tile by tile and hands each finished
block of the (lower-triangle) statistic matrix to a caller-supplied sink:

- :class:`NpyMemmapSink` writes into a disk-backed ``.npy`` memmap (the
  full-matrix-on-disk mode);
- :class:`ThresholdCollector` keeps only pairs above a threshold (the
  sparse "report interesting pairs" mode PLINK's ``--r2`` output uses);
- any callable ``sink(i0, j0, block)`` works.

:func:`stream_ld_blocks` is the plain entry point: one in-process
:func:`repro.core.engine.run_engine` pass with no retries and no journal.
The sinks here serve every engine run alike, including the worker-pool
and checkpoint/resume ones.

Peak memory is one ``block × block`` tile plus the packed inputs,
independent of the number of SNPs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.blocking import BlockingParams
from repro.core.gemm import DEFAULT_KERNEL
from repro.core.engine import run_engine
from repro.core.windowed import write_banded_block
from repro.encoding.bitmatrix import BitMatrix
from repro.faults import FaultPlan
from repro.observe.spans import span

if TYPE_CHECKING:  # imported lazily to keep core free of observe at runtime
    from repro.observe.metrics import MetricsRecorder

__all__ = [
    "BandedNpySink",
    "NpyMemmapSink",
    "ThresholdCollector",
    "stream_ld_blocks",
]

#: Strict-upper-triangle boolean masks by block size, for mirroring
#: diagonal blocks. A run sees at most two sizes (full blocks plus one
#: fringe), so caching removes the O(block²) index-array allocation the
#: old ``tril_indices`` mirror paid on *every* diagonal tile.
_UPPER_MASKS: dict[int, np.ndarray] = {}


def _upper_mask(size: int) -> np.ndarray:
    mask = _UPPER_MASKS.get(size)
    if mask is None:
        mask = np.triu(np.ones((size, size), dtype=bool), k=1)
        _UPPER_MASKS[size] = mask
    return mask


def _open_npy(
    path: str | Path, shape: tuple[int, int], mode: str, what: str
) -> np.memmap:
    """Create (``"w+"``) or reopen (``"r+"``) a float64 ``.npy`` memmap.

    A resumed run reopens whatever is on disk and then writes through
    it, so ``"r+"`` refuses anything that is not exactly the *what* a
    previous run of this shape would have produced — silently
    memmapping a mismatched file would scatter tiles into garbage
    offsets.
    """
    if mode not in ("w+", "r+"):
        raise ValueError(f"mode must be 'w+' or 'r+', got {mode!r}")
    if mode == "w+":
        return np.lib.format.open_memmap(
            str(path), mode="w+", dtype=np.float64, shape=shape,
        )
    try:
        memmap = np.lib.format.open_memmap(str(path), mode="r+")
    except FileNotFoundError as exc:
        raise ValueError(
            f"cannot reopen {path} with mode='r+': file does "
            "not exist (rerun without resume to create it)"
        ) from exc
    except ValueError as exc:
        raise ValueError(
            f"cannot reopen {path} with mode='r+': not a "
            f"readable .npy file ({exc}); delete it or rerun "
            "without resume"
        ) from exc
    if memmap.shape != shape or memmap.dtype != np.float64:
        found_shape, found_dtype = memmap.shape, memmap.dtype
        del memmap  # release before raising
        raise ValueError(
            f"existing {what} at {path} has shape "
            f"{found_shape} dtype {found_dtype}; expected "
            f"{shape} float64 — it was not produced by an "
            "equivalent run; delete it or rerun without resume"
        )
    if not memmap.flags["C_CONTIGUOUS"]:
        del memmap
        raise ValueError(
            f"existing {what} at {path} is Fortran-ordered; "
            f"expected C-ordered {shape} float64 — delete it or "
            "rerun without resume"
        )
    return memmap


class _MemmapSink:
    """Deterministic flush/close shared by the ``.npy`` memmap sinks."""

    _memmap: np.memmap | None

    def flush(self) -> None:
        """Force written blocks to disk (no-op once closed)."""
        if self._memmap is not None:
            self._memmap.flush()

    def close(self) -> None:
        """Flush and release the memmap; idempotent."""
        if self._memmap is not None:
            self._memmap.flush()
            self._memmap = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@dataclass
class NpyMemmapSink(_MemmapSink):
    """Sink writing blocks into a disk-backed full matrix (``.npy``).

    The lower-triangle blocks delivered by :func:`stream_ld_blocks` are
    mirrored on write, so the finished file holds the full symmetric
    matrix.

    The sink is a context manager; leaving the ``with`` block flushes and
    releases the memmap deterministically (CPython's memmap finalizer only
    flushes at garbage-collection time, which is too late for a resumed
    run that reopens the file to read completed tiles back).

    Parameters
    ----------
    path:
        Output ``.npy`` path.
    n_snps:
        Matrix side length.
    mode:
        ``"w+"`` (default) creates/truncates the file; ``"r+"`` reopens an
        existing matrix in place — the mode checkpoint/resume runs use so
        previously completed tiles survive the reopen.
    """

    path: str | Path
    n_snps: int
    mode: str = "w+"
    _memmap: np.memmap | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.n_snps <= 0:
            raise ValueError(f"n_snps must be positive, got {self.n_snps}")
        self._memmap = _open_npy(
            self.path, (self.n_snps, self.n_snps), self.mode, "matrix"
        )

    def __call__(self, i0: int, j0: int, block: np.ndarray) -> None:
        if self._memmap is None:
            raise ValueError(f"sink for {self.path} is closed")
        mm = self._memmap
        mm[i0 : i0 + block.shape[0], j0 : j0 + block.shape[1]] = block
        with span("mirror"):
            if i0 != j0:
                mm[j0 : j0 + block.shape[1], i0 : i0 + block.shape[0]] = (
                    block.T
                )
            else:
                # Diagonal block: fill its strict upper triangle with the
                # transpose of the computed lower triangle. A masked
                # transposed write touches exactly the cells the old
                # fancy-indexed assignment did (bit-identical), without
                # allocating per-call index arrays.
                size = block.shape[0]
                sub = mm[i0 : i0 + size, j0 : j0 + size]
                np.copyto(sub, block.T, where=_upper_mask(size))


@dataclass
class BandedNpySink(_MemmapSink):
    """Sink writing banded runs into a diagonal-major ``.npy`` memmap.

    The on-disk array is the ``(n_snps, window + 1)`` layout
    :class:`repro.core.windowed.BandedLDMatrix` defines — ``values[i, d]``
    holds the statistic for pair ``(i, i + d)`` — so a banded engine run
    writes O(n·W) bytes instead of the O(n²) a dense memmap would cost.
    Out-of-band cells of delivered tiles are ignored on write; slots the
    band never covers (trailing diagonals past the last SNP, genomic
    bands narrower than *window* at some loci) stay NaN.

    Same contract as :class:`NpyMemmapSink`: a context manager with
    deterministic flush/close, ``"w+"`` to create (NaN-filled) and
    ``"r+"`` to reopen for checkpoint/resume, with the same refuse-loudly
    validation of a mismatched existing file.

    Parameters
    ----------
    path:
        Output ``.npy`` path.
    n_snps:
        Number of SNPs (first dimension).
    window:
        Maximum stored index distance; the second dimension is
        ``window + 1``. For genomic bands pass the band's
        ``index_width(n_snps)``.
    mode:
        ``"w+"`` (default) creates/truncates; ``"r+"`` reopens in place.
    """

    path: str | Path
    n_snps: int
    window: int
    mode: str = "w+"
    _memmap: np.memmap | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.n_snps <= 0:
            raise ValueError(f"n_snps must be positive, got {self.n_snps}")
        if self.window < 0:
            raise ValueError(
                f"window must be non-negative, got {self.window}"
            )
        self._memmap = _open_npy(
            self.path, (self.n_snps, self.window + 1), self.mode,
            "banded matrix",
        )
        if self.mode == "w+":
            # NaN is the band's "never covered" value (the BandedLDMatrix
            # convention); a fresh zero-filled memmap would read as r²=0.
            self._memmap[:] = np.nan

    def __call__(self, i0: int, j0: int, block: np.ndarray) -> None:
        if self._memmap is None:
            raise ValueError(f"sink for {self.path} is closed")
        write_banded_block(self._memmap, self.window, i0, j0, block)


@dataclass
class ThresholdCollector:
    """Sink keeping only pairs with statistic ≥ threshold (sparse mode).

    Collects each qualifying unordered SNP pair exactly once, as
    ``(i, j, value)`` with ``i > j``; self-pairs are excluded.

    Delivery is *idempotent per tile*: results are keyed by the tile's
    ``(i0, j0)`` corner, and a re-delivered tile (a retried engine tile,
    a resumed run recomputing an unjournaled tile, a torn-manifest
    replay) replaces its previous hits instead of appending duplicates.
    Hit extraction is vectorized — no per-hit Python loop.
    """

    threshold: float
    _tiles: dict[tuple[int, int], tuple] = field(
        default_factory=dict, repr=False
    )

    def __call__(self, i0: int, j0: int, block: np.ndarray) -> None:
        bi, bj = np.nonzero(block >= self.threshold)
        i, j = bi + i0, bj + j0
        keep = i > j  # strict lower triangle only (dedup + no self-pairs)
        self._tiles[(i0, j0)] = (
            i[keep],
            j[keep],
            block[bi[keep], bj[keep]].astype(np.float64, copy=False),
        )

    @property
    def pairs(self) -> list[tuple[int, int, float]]:
        """Collected ``(i, j, value)`` pairs, in tile-then-row-major order.

        Deterministic regardless of delivery order (parallel engines
        deliver tiles as they finish), and matches the historical
        serial-streaming order exactly.
        """
        out: list[tuple[int, int, float]] = []
        for key in sorted(self._tiles):
            ii, jj, vv = self._tiles[key]
            out.extend(zip(ii.tolist(), jj.tolist(), vv.tolist()))
        return out


def stream_ld_blocks(
    data: "BitMatrix | np.ndarray | str | Path",
    sink,
    *,
    stat: str = "r2",
    block_snps: int = 512,
    params: BlockingParams | None = None,
    kernel: str = DEFAULT_KERNEL,
    undefined: float = np.nan,
    memory_budget: int | None = None,
    faults: FaultPlan | None = None,
    recorder: "MetricsRecorder | None" = None,
) -> int:
    """Stream the lower-triangle LD matrix through *sink* block by block.

    For every block pair ``(I, J)`` with ``I >= J`` the statistic block is
    computed with one rectangular GEMM and passed as ``sink(i0, j0,
    block)``. Returns the number of blocks delivered.

    Parameters
    ----------
    data:
        Dense binary ``(n_samples, n_snps)`` matrix, packed
        :class:`BitMatrix`, a :class:`repro.io.panelstore.PanelStore`, or
        a path to a packed panel file (out-of-core mode).
    sink:
        Callable ``(i0, j0, block) -> None``.
    stat:
        ``"r2"``, ``"D"``, or ``"H"``.
    block_snps:
        Block side in SNPs; peak temporary memory is
        ``block_snps² × 8`` bytes.
    memory_budget:
        Driver-RAM byte budget for resident panel rows; only valid when
        *data* is a packed panel store (or a path to one). The run then
        streams SNP-row windows from disk through a double-buffered
        :class:`repro.core.prefetch.PanelPrefetcher` instead of holding
        the whole panel in RAM, visiting tiles panel-major so each
        loaded window is fully consumed before eviction.
    faults:
        Optional :class:`repro.faults.FaultPlan`, consulted at the
        ``tile_compute`` and ``tile_deliver`` sites of every block. There
        are no retries, so the first failure propagates to the caller; an
        injected ``bitflip`` is caught by a payload checksum and raised
        as :class:`repro.core.engine.TileCorruptionError` before the sink
        sees the block. ``None`` (default) costs one comparison per
        block.
    recorder:
        Optional :class:`repro.observe.MetricsRecorder`; receives the
        engine's ``run_start`` / ``tile_computed`` / ``run_end`` events
        and ``engine.*`` counters, and forwards the events to its sinks
        (a :class:`repro.observe.ProgressReporter` among them for a
        progress line). ``None`` (the default) costs one comparison per
        block.
    """
    report = run_engine(
        data,
        sink,
        engine="serial",
        max_retries=0,
        stat=stat,
        block_snps=block_snps,
        params=params,
        kernel=kernel,
        undefined=undefined,
        memory_budget=memory_budget,
        faults=faults,
        recorder=recorder,
    )
    return report.n_computed
