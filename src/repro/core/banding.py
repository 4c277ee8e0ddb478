"""Distance-band geometry for the tiled LD engine.

LD decays with distance, so production sweeps restrict pairs to a band:
pair ``(i, j)`` with ``i >= j`` is *in band* when ``i - j <= W`` (an
index band of ``W`` SNPs) or ``pos[i] - pos[j] <= D`` (a genomic band of
``D`` base pairs resolved against sorted variant positions).

:class:`BandSpec` classifies engine tiles against the band so the
enumerator can skip tiles that lie entirely outside it, the driver can
mask the out-of-band corner of straddling tiles, and planners can
predict how many pairs a banded run actually delivers.  All of the
geometry lives here — the engine only asks three questions: *where does
this tile row start*, *is this tile outside/partial/full*, and *which
cells of this tile are in band*.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "BandSpec",
    "dense_pair_cells",
    "dense_tile_count",
    "genomic_index_width",
]


def dense_tile_count(n_snps: int, block_snps: int) -> int:
    """Tiles a dense lower-triangle enumeration would produce."""
    nb = (n_snps + block_snps - 1) // block_snps
    return nb * (nb + 1) // 2


def dense_pair_cells(n_snps: int, block_snps: int) -> int:
    """Tile cells a dense enumeration would dispatch (the engine's
    "pairs" currency: full tile rectangles, including the upper-triangle
    cells of diagonal tiles)."""
    total = 0
    for i0 in range(0, n_snps, block_snps):
        i1 = min(i0 + block_snps, n_snps)
        for j0 in range(0, i0 + 1, block_snps):
            j1 = min(j0 + block_snps, n_snps)
            total += (i1 - i0) * (j1 - j0)
    return total


def genomic_index_width(positions: np.ndarray, max_distance: float) -> int:
    """Widest index gap any genomic-band pair can span.

    This is the ``W`` a diagonal-major ``(n, W+1)`` store needs to hold
    every in-band pair of a ``pos[i] - pos[j] <= max_distance`` band.
    """
    pos = np.asarray(positions, dtype=np.float64)
    if pos.size == 0:
        return 0
    hi = np.searchsorted(pos, pos + max_distance, side="right") - 1
    return int(np.max(hi - np.arange(pos.size)))


class BandSpec:
    """A distance band over the lower triangle of SNP pairs.

    Exactly one of *window* (index band: ``i - j <= window``) or
    *max_distance* (genomic band: ``pos[i] - pos[j] <= max_distance``,
    requiring sorted *positions*) must be given.  Instances cache the
    edge masks of straddling tiles, so one spec should be shared across
    a whole run.
    """

    def __init__(self, *, window: int | None = None,
                 max_distance: float | None = None,
                 positions: np.ndarray | None = None) -> None:
        if (window is None) == (max_distance is None):
            raise ValueError(
                "exactly one of window/max_distance must be given"
            )
        if window is not None:
            window = int(window)
            if window < 1:
                raise ValueError(f"window must be >= 1, got {window}")
            if positions is not None:
                raise ValueError("positions only apply to genomic bands")
        else:
            max_distance = float(max_distance)
            if max_distance <= 0:
                raise ValueError(
                    f"max_distance must be positive, got {max_distance}"
                )
            if positions is None:
                raise ValueError("a genomic band requires positions")
            positions = np.ascontiguousarray(positions, dtype=np.float64)
            if positions.ndim != 1:
                raise ValueError("positions must be one-dimensional")
            if positions.size > 1 and np.any(np.diff(positions) < 0):
                raise ValueError("positions must be sorted ascending")
        self.window = window
        self.max_distance = max_distance
        self.positions = positions
        self._masks: dict = {}
        self._pair_counts: dict = {}

    # -- validation -------------------------------------------------------

    def validate_for(self, n_snps: int) -> None:
        """Check the spec can cover a panel of *n_snps* SNPs."""
        if self.positions is not None and len(self.positions) != n_snps:
            raise ValueError(
                f"band positions cover {len(self.positions)} SNPs "
                f"but the panel has {n_snps}"
            )

    # -- geometry ---------------------------------------------------------

    def _first_col(self, i0: int) -> int:
        """Smallest column index that can pair in-band with row *i0*.

        Rows below ``i0`` in the same tile only reach *further* columns,
        so a tile whose column range ends before this index is entirely
        outside the band.
        """
        if self.window is not None:
            return max(0, i0 - self.window)
        pos = self.positions
        return int(np.searchsorted(pos, pos[i0] - self.max_distance, "left"))

    def first_block_col(self, i0: int, block_snps: int) -> int:
        """First tile column start ``j0`` whose tile can meet the band
        for the row block starting at *i0*."""
        q = self._first_col(i0)
        first = max(0, q - block_snps + 1)
        return (first + block_snps - 1) // block_snps * block_snps

    def classify(self, tile) -> str:
        """``"outside"`` / ``"full"`` / ``"partial"`` for an engine tile.

        The closest pair of a lower-triangle tile is ``(i0, j1-1)`` and
        the farthest is ``(i1-1, j0)``; distance is monotone in both
        coordinates, so those two pairs bound every cell.
        """
        i0, i1, j0, j1 = tile.i0, tile.i1, tile.j0, tile.j1
        if self.window is not None:
            if i0 - (j1 - 1) > self.window:
                return "outside"
            if (i1 - 1) - j0 <= self.window:
                return "full"
            return "partial"
        pos, dist = self.positions, self.max_distance
        if pos[i0] - pos[j1 - 1] > dist:
            return "outside"
        if pos[i1 - 1] - pos[j0] <= dist:
            return "full"
        return "partial"

    def mask(self, tile) -> np.ndarray:
        """Boolean ``(rows, cols)`` mask of in-band cells of *tile*.

        Uses absolute distance so the upper-triangle cells of diagonal
        tiles (which mirror the lower triangle for symmetric stats) are
        kept exactly when their mirrored pair is in band.
        """
        i0, i1, j0, j1 = tile.i0, tile.i1, tile.j0, tile.j1
        if self.window is not None:
            # The mask depends only on the diagonal offset and shape, so
            # interior tile rows of a big panel all share one array.
            key = (i0 - j0, i1 - i0, j1 - j0)
        else:
            key = (i0, j0, i1, j1)
        cached = self._masks.get(key)
        if cached is not None:
            return cached
        if self.window is not None:
            rows = np.arange(i0, i1)[:, None]
            cols = np.arange(j0, j1)[None, :]
            mask = np.abs(rows - cols) <= self.window
        else:
            rows = self.positions[i0:i1][:, None]
            cols = self.positions[j0:j1][None, :]
            mask = np.abs(rows - cols) <= self.max_distance
        mask.setflags(write=False)
        self._masks[key] = mask
        return mask

    def pairs_in(self, tile) -> int:
        """In-band cells of *tile* — the banded "pairs" a tile delivers."""
        kind = self.classify(tile)
        if kind == "outside":
            return 0
        if kind == "full":
            return tile.n_pairs
        key = (tile.i0, tile.j0)
        cached = self._pair_counts.get(key)
        if cached is None:
            cached = int(self.mask(tile).sum())
            self._pair_counts[key] = cached
        return cached

    def index_width(self, n_snps: int) -> int:
        """Max index gap of any in-band pair — the ``W`` of a diagonal-
        major ``(n_snps, W+1)`` store covering this band."""
        if self.window is not None:
            return min(self.window, max(n_snps - 1, 0))
        return genomic_index_width(self.positions, self.max_distance)

    # -- identity ---------------------------------------------------------

    def token(self) -> str:
        """Fingerprint fragment identifying this band exactly.

        Genomic bands hash the positions array: the same distance over
        different coordinates selects different pairs.
        """
        if self.window is not None:
            return f"band=w{self.window}"
        digest = hashlib.sha256(self.positions.tobytes()).hexdigest()[:16]
        return f"band=d{self.max_distance!r}:p{digest}"

    def describe(self) -> str:
        if self.window is not None:
            return f"window {self.window} SNPs"
        return f"window {self.max_distance:g} bp"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.window is not None:
            return f"BandSpec(window={self.window})"
        return (f"BandSpec(max_distance={self.max_distance}, "
                f"positions=<{len(self.positions)}>)")
