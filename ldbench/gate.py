"""Output gate, run after each timed run, outside the timed region.

A run passes when

- its ``EngineReport`` is complete, with no quarantined tiles;
- a seeded sample of tiles in the output is bit-identical to
  ``compute_tile(..., kernel="numpy")`` on the same words, NaNs matched:
  one diagonal tile, one interior tile, the fringe tile (the bottom-right
  corner, whose side is not a multiple of the block) and, on a banded
  run, one masked band-edge tile. Only delivered cells are compared:
  pairs ``i >= j``, and on a banded run only those inside the band;
- a seeded sample of SNP pairs is within ``|x - ref| <= ATOL + RTOL·|ref|``
  of the per-pair vector dot products of ``repro.baselines.naive``, NaNs
  matched.

r² <= 1 is deliberately not gated (see :func:`r2_above_one`).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.naive import naive_ld_matrix
from repro.core.engine import compute_tile, enumerate_tiles
from repro.encoding.bitmatrix import BitMatrix

from workloads import BLOCK_SNPS, Runner

#: Tolerance against the naive baseline, which sums in another order.
RTOL = 1e-9
ATOL = 1e-12

#: SNP pairs checked against the naive baseline per run.
N_PAIRS = 48


def _same(got: np.ndarray, ref: np.ndarray) -> bool:
    """Bit-identical, with NaNs matched by position."""
    got_nan, ref_nan = np.isnan(got), np.isnan(ref)
    if not np.array_equal(got_nan, ref_nan):
        return False
    keep = ~got_nan
    return np.array_equal(got[keep].view(np.uint64), ref[keep].view(np.uint64))


def sample_tiles(runner: Runner, rng: np.random.Generator) -> dict:
    tiles = enumerate_tiles(runner.n_snps, BLOCK_SNPS, band=runner.band)
    full = [t for t in tiles if t.i1 - t.i0 == t.j1 - t.j0 == BLOCK_SNPS]

    def kind(tile) -> str:
        return runner.band.classify(tile) if runner.band is not None else "full"

    groups = {
        "diagonal": [t for t in full if t.i0 == t.j0],
        "interior": [t for t in full if t.i0 != t.j0 and kind(t) == "full"],
        "fringe": [t for t in tiles if t.i1 == runner.n_snps and t.i0 == t.j0],
    }
    if runner.band is not None:
        groups["band-edge"] = [t for t in tiles if kind(t) == "partial"]
    return {name: group[rng.integers(len(group))] for name, group in groups.items()}


def _delivered(runner: Runner, out: np.ndarray, tile) -> tuple[np.ndarray, np.ndarray]:
    """``(mask, values)``: delivered cells of *tile* and what the output holds."""
    rows = np.arange(tile.i0, tile.i1)[:, None]
    cols = np.arange(tile.j0, tile.j1)[None, :]
    dist = rows - cols
    if runner.window is None:
        mask = dist >= 0
        return mask, np.asarray(out[tile.i0 : tile.i1, tile.j0 : tile.j1])[mask]
    mask = (dist >= 0) & (dist <= runner.window)
    cols = np.broadcast_to(cols, mask.shape)
    return mask, np.asarray(out[cols[mask], dist[mask]])


def check_tiles(runner: Runner, out: np.ndarray, rng: np.random.Generator) -> list[str]:
    words = runner.panel.words
    freqs = runner.panel.allele_frequencies()
    problems = []
    for name, tile in sample_tiles(runner, rng).items():
        ref = compute_tile(words, freqs, runner.panel.n_samples, tile, kernel="numpy")
        mask, got = _delivered(runner, out, tile)
        if not _same(got, ref[mask]):
            problems.append(f"{name} tile {tile.key} differs from the numpy kernel")
    return problems


def sample_pairs(runner: Runner, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Seeded pairs ``(i, j)``, ``i >= j``, that the run delivers."""
    n = runner.n_snps
    reach = n - 1 if runner.window is None else runner.window
    pairs = []
    for j in rng.integers(0, n, N_PAIRS):
        i = int(j) + int(rng.integers(0, min(reach, n - 1 - int(j)) + 1))
        pairs.append((i, int(j)))
    return pairs


def check_pairs(runner: Runner, out: np.ndarray, rng: np.random.Generator) -> list[str]:
    panel = runner.panel
    problems = []
    for i, j in sample_pairs(runner, rng):
        two = BitMatrix(words=panel.words[[j, i]], n_samples=panel.n_samples)
        ref = naive_ld_matrix(two)[1, 0]
        got = out[i, j] if runner.window is None else out[j, i - j]
        if np.isnan(ref) != np.isnan(got) or (
            not np.isnan(ref) and abs(got - ref) > ATOL + RTOL * abs(ref)
        ):
            problems.append(f"pair ({i}, {j}): {got!r} vs naive {ref!r}")
    return problems


def check_run(runner: Runner, report, rng: np.random.Generator) -> list[str]:
    """Every problem the gate finds in the run just finished (empty: pass)."""
    problems = []
    if not report.complete or report.n_quarantined:
        problems.append(
            f"incomplete report: {report.n_computed}+{report.n_skipped} of "
            f"{report.n_tiles} tiles, {report.n_quarantined} quarantined"
        )
    out = np.load(runner.out, mmap_mode="r")
    try:
        problems += check_tiles(runner, out, rng)
        problems += check_pairs(runner, out, rng)
    finally:
        del out
    return problems


def r2_above_one(runner: Runner) -> int:
    """Delivered cells whose r² exceeds 1.

    A known defect (rounding lets a few cells, most on the diagonal, read
    1 + a few ulps). It is counted and reported, not gated, so it stays
    visible until the statistic is fixed.
    """
    out = np.load(runner.out, mmap_mode="r")
    count = 0
    try:
        n = runner.n_snps
        if runner.window is None:
            for r0 in range(0, n, BLOCK_SNPS):
                r1 = min(r0 + BLOCK_SNPS, n)
                count += int(np.count_nonzero(np.tril(out[r0:r1, :r1], k=r0) > 1.0))
        else:
            for r0 in range(0, n, BLOCK_SNPS):
                rows = np.asarray(out[r0 : r0 + BLOCK_SNPS])
                start = np.arange(r0, r0 + rows.shape[0])[:, None]
                valid = start + np.arange(rows.shape[1])[None, :] < n
                count += int(np.count_nonzero(valid & (rows > 1.0)))
    finally:
        del out
    return count
