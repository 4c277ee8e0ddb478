"""Carrier-proportional counts: rare SNPs leave the bit-plane GEMM.

The fused kernel charges every SNP pair ``N`` bit products whatever the
alleles are, but under a neutral site-frequency spectrum most SNPs have
only a handful of minor-allele carriers. Splitting the genotype matrix by
value — the genotype value decomposition of "Fast computation of kernel
statistics…" (PAPERS.md) — makes that work follow the rare entries:

- a SNP is *rare* when its minor-allele count (MAC) is at most the
  panel's threshold ``t``; its carriers are the samples holding its
  minor allele;
- for a rare SNP ``i`` whose minor allele is the derived one, the shared
  count with any partner ``j`` is the sum of ``j``'s bits at ``i``'s
  carriers;
- when the minor allele is the ancestral one, the carriers are the
  samples *without* the derived allele (never a padding bit past
  ``n_samples``), and the count is ``c_j − s``: the partner's derived
  count ``c_j`` (one popcount of its operand row) minus that carrier sum;
- only common × common pairs go through the GEMM.

Every count stays an exact integer, so the statistics built from them are
bit-identical to the fused kernel's. :class:`CarrierIndex` holds the
carriers of every rare SNP (CSR over sample indices); it is built once per
run by :func:`build_carrier_index` and travels with the run's tile
configuration, so no tile ever rebuilds it.

Whether a panel splits at all, and at which ``t``, follows from its
sample count and minor-allele counts through one cost ratio,
:data:`repro.core.blocking.CARRIER_COST_RATIO` (see
:func:`rare_threshold`).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.blocking import CARRIER_COST_RATIO
from repro.observe.spans import span

if TYPE_CHECKING:  # engine imports this module at its top level
    from repro.core.engine import TileTask

__all__ = ["CarrierIndex", "build_carrier_index", "rare_threshold"]


def rare_threshold(n_samples: int, mac: np.ndarray) -> int:
    """The MAC at or below which a SNP goes down the carrier path, or -1.

    With ``R = CARRIER_COST_RATIO``, a carrier lookup costs ``R`` bit
    products, so a SNP is worth moving when its lookups per partner cost
    less than the ``N`` bit products the GEMM spends on it:
    ``t = ⌊N / R⌋``. Splitting a tile costs too: assembling its pieces
    takes two element operations per cell, priced at ``R`` each. With
    ``ρ`` the share of SNPs with MAC ≤ t and ``μ`` their mean MAC, an
    average tile leaves ``ρ(2 − ρ)`` of its cells to the carrier path,
    each saving ``N_bits = 64·⌈N/64⌉`` bit products and costing ``R·μ``
    in lookups, so the panel splits only when

        ρ(2 − ρ) · N_bits  >  R · (ρ(2 − ρ) · μ + 2).

    Returns -1 (nothing is rare) when it does not.
    """
    mac = np.asarray(mac)
    t = n_samples // CARRIER_COST_RATIO
    rare = mac <= t
    n_rare = int(np.count_nonzero(rare))
    if n_rare == 0:
        return -1
    rho = n_rare / mac.size
    moved = rho * (2.0 - rho)
    mu = float(mac[rare].mean())
    n_bits = 64 * -(-n_samples // 64)
    if moved * n_bits <= CARRIER_COST_RATIO * (moved * mu + 2.0):
        return -1
    return t


@dataclass(frozen=True, eq=False)
class CarrierIndex:
    """Minor-allele carriers of every rare SNP of one panel (CSR).

    Attributes
    ----------
    threshold:
        ``t``: SNPs with a minor-allele count of at most ``t`` are rare
        (-1: none is).
    snps:
        Sorted global indices of the rare SNPs.
    complement:
        Per rare SNP: its minor allele is the ancestral one, so its
        carriers are the samples without the derived allele.
    indptr:
        ``samples[indptr[r]:indptr[r + 1]]`` are rare SNP ``r``'s carriers.
    samples:
        Carrier sample indices, ascending within each SNP.
    """

    threshold: int
    snps: np.ndarray
    complement: np.ndarray
    indptr: np.ndarray
    samples: np.ndarray

    @property
    def n_rare(self) -> int:
        return int(self.snps.size)

    def _range(self, start: int, stop: int) -> tuple[int, int]:
        lo, hi = np.searchsorted(self.snps, (start, stop))
        return int(lo), int(hi)

    def _split(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Tile-local ``(rare, common)`` positions of SNPs in a range."""
        lo, hi = self._range(start, stop)
        rare = self.snps[lo:hi] - start
        common = np.ones(stop - start, dtype=bool)
        common[rare] = False
        return rare, np.flatnonzero(common)

    def tile_counts(
        self,
        tile: "TileTask",
        rows: np.ndarray,
        cols: np.ndarray,
        gemm: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ) -> np.ndarray:
        """Exact ``(m, n)`` shared counts of *tile*'s operand words.

        ``gemm(a, b)`` computes the ``a·bᵀ`` counts of whatever reaches
        the GEMM: the whole tile when it holds no rare SNP, otherwise
        the common columns against the common rows — the common block
        transposed, once per tile that has both. Every other count is a
        carrier sum (the ``carriers`` span). Pieces are placed by whole
        rows of the transposed block, which numpy scatters far faster
        than single columns.
        """
        with span("carriers"):
            rare_rows, common_rows = self._split(tile.i0, tile.i1)
            rare_cols, common_cols = self._split(tile.j0, tile.j1)
        if rare_rows.size == 0 and rare_cols.size == 0:
            return gemm(rows, cols)
        common_t = None
        if common_rows.size and common_cols.size:
            common_t = gemm(cols[common_cols], rows[common_rows])
        with span("carriers"):
            counts = np.empty((rows.shape[0], cols.shape[0]), dtype=np.int64)
            if rare_rows.size:
                counts[rare_rows] = self._counts(tile.i0, tile.i1, cols)
            if common_rows.size:
                block_t = np.empty(
                    (cols.shape[0], common_rows.size), dtype=np.int64
                )
                if common_t is not None:
                    block_t[common_cols] = common_t
                if rare_cols.size:
                    block_t[rare_cols] = self._counts(
                        tile.j0, tile.j1, rows[common_rows]
                    )
                counts[common_rows] = block_t.T
        return counts

    def _counts(
        self, start: int, stop: int, partners: np.ndarray
    ) -> np.ndarray:
        """``(rare SNPs in [start, stop), partners)`` exact shared counts."""
        lo, hi = self._range(start, stop)
        bounds = self.indptr[lo : hi + 1]
        lens = np.diff(bounds)
        counts = np.zeros((hi - lo, partners.shape[0]), dtype=np.int64)
        if lens.size and lens.max() > 0:
            # Longest carrier lists first, so the SNPs still summing at
            # rank r are a prefix; carriers are visited rank by rank, so
            # each step adds one contiguous slab. A prefix sum over the
            # carriers in CSR order gives the same integers in fewer
            # lines but measured ~3x slower at Dataset B's 512² tiles
            # (1.1 ms for this loop; 3.0–3.4 ms for an int32 cumsum
            # along either axis or np.add.reduceat; numpy 2.4, 2-vCPU
            # Xeon guest).
            order = np.argsort(-lens, kind="stable")
            starts = bounds[:-1][order]
            ranks = np.arange(lens.max())
            live = np.searchsorted(-lens[order], -ranks, "left")
            carriers = self.samples[
                np.concatenate([starts[:k] + r for r, k in zip(ranks, live)])
            ]
            partner_bytes = np.ascontiguousarray(partners).view(np.uint8)
            # One row per carrier: the byte holding that sample's bit in
            # every partner, shifted down to the bit.
            bits = np.ascontiguousarray(partner_bytes[:, carriers >> 3].T)
            shifts = (carriers & 7).astype(np.uint8)
            np.right_shift(bits, shifts[:, None], out=bits)
            np.bitwise_and(bits, 1, out=bits)
            acc = np.zeros(counts.shape, dtype=np.int32)
            first = 0
            for k in live:
                acc[:k] += bits[first : first + k]
                first += k
            counts[order] = acc
        flip = self.complement[lo:hi]
        if flip.any():
            derived = np.bitwise_count(partners).sum(axis=1, dtype=np.int64)
            counts[flip] = derived[None, :] - counts[flip]
        return counts


def build_carrier_index(
    freqs: np.ndarray,
    n_samples: int,
    read_rows: Callable[[np.ndarray], np.ndarray],
    *,
    chunk_rows: int,
    source: str = "panel",
    threshold: int | None = None,
) -> CarrierIndex:
    """Classify SNPs by frequency and collect the rare ones' carriers.

    Only rare rows are read, ``read_rows(indices)`` at most *chunk_rows*
    at a time, so a budgeted out-of-core run never holds more than one
    prefetch window of extra rows. Each rare row's derived count is
    checked against its frequency: a mismatch raises ``ValueError``
    naming *source* and the SNP, before any tile is computed. *threshold*
    overrides :func:`rare_threshold` (``-1``: nothing is rare).
    """
    freqs = np.asarray(freqs, dtype=np.float64)
    derived = np.rint(freqs * n_samples).astype(np.int64)
    mac = np.minimum(derived, n_samples - derived)
    if threshold is None:
        threshold = rare_threshold(n_samples, mac)
    snps = np.flatnonzero(mac <= threshold)
    complement = derived[snps] > n_samples - derived[snps]
    # Complemented rows keep only real sample bits, never the padding.
    full, tail = divmod(n_samples, 64)
    valid = np.zeros(-(-n_samples // 64), dtype=np.uint64)
    valid[:full] = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
    if tail:
        valid[full] = np.uint64((1 << tail) - 1)
    parts = [np.zeros(0, dtype=np.int64)]
    owners = [np.zeros(0, dtype=np.int64)]
    for first in range(0, snps.size, chunk_rows):
        chosen = snps[first : first + chunk_rows]
        rows = np.array(read_rows(chosen), dtype=np.uint64)
        counted = np.bitwise_count(rows).sum(axis=1, dtype=np.int64)
        bad = np.flatnonzero(counted / float(n_samples) != freqs[chosen])
        if bad.size:
            snp = int(chosen[bad[0]])
            raise ValueError(
                f"{source}: SNP {snp} has {int(counted[bad[0]])} derived "
                f"alleles of {n_samples}, but its stored frequency is "
                f"{freqs[snp]!r}; repack the panel"
            )
        flip = complement[first : first + chunk_rows]
        if flip.any():
            rows[flip] = ~rows[flip] & valid
        r, w = np.nonzero(rows)
        bits = np.unpackbits(
            rows[r, w].view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
        )
        hit, bit = np.nonzero(bits)
        parts.append(w[hit] * 64 + bit)
        owners.append(first + r[hit])
    samples = np.concatenate(parts)
    indptr = np.zeros(snps.size + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(np.concatenate(owners), minlength=snps.size),
        out=indptr[1:],
    )
    return CarrierIndex(
        threshold=int(threshold),
        snps=snps,
        complement=complement,
        indptr=indptr,
        samples=samples,
    )
