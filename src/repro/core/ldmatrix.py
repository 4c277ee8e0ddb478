"""Public high-level API for GEMM-based LD computation.

The typical call is one line::

    r2 = ld_matrix(G)                      # all-pairs r², Equation 2
    d  = ld_matrix(G, stat="D")            # all-pairs D,  Equation 1
    x  = ld_cross(G_left, G_right)         # long-range / two-region LD (Fig. 4)

``G`` may be a dense binary ``(n_samples, n_snps)`` array or an
already-packed :class:`~repro.encoding.bitmatrix.BitMatrix`. Internally the
pipeline is exactly the paper's DLA sequence (Section II-B)::

    H = (1/N_seq) GᵀG        (blocked popcount GEMM — the O(n³) term)
    D = H − p pᵀ             (rank-1 update — the O(n²) term)
    r²/D' = elementwise maps of D and p

:class:`LDResult` exposes every intermediate (counts, H, p, D, r², D') so
applications like the ω statistic or LD pruning can reuse the expensive GEMM
output without recomputation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.blocking import BlockingParams
from repro.core.gemm import DEFAULT_KERNEL, popcount_gemm, popcount_gram
from repro.core.stats import d_prime_matrix, stat_block
from repro.encoding.bitmatrix import BitMatrix

__all__ = ["LDResult", "as_bitmatrix", "ld_cross", "ld_matrix", "ld_pairs"]

_STATS = ("r2", "D", "Dprime", "H")


def as_bitmatrix(data: BitMatrix | np.ndarray) -> BitMatrix:
    """Coerce a dense binary ``(n_samples, n_snps)`` array to a :class:`BitMatrix`."""
    if isinstance(data, BitMatrix):
        return data
    return BitMatrix.from_dense(np.asarray(data))


@dataclass
class LDResult:
    """All intermediates of one LD computation, with lazy derived statistics.

    Attributes
    ----------
    counts:
        Shared-derived-allele count matrix ``GᵀG`` (int64) — the raw GEMM
        output before normalization.
    p, q:
        Allele-frequency vectors of the row / column SNP sets (identical
        object in the single-matrix case).
    n_samples:
        Sample count used for normalization.
    """

    counts: np.ndarray
    p: np.ndarray
    q: np.ndarray
    n_samples: int
    _h: np.ndarray | None = field(default=None, repr=False)

    @property
    def h(self) -> np.ndarray:
        """Haplotype-frequency matrix ``H`` (Equation 4, all pairs)."""
        if self._h is None:
            self._h = self._from_counts("H")
        return self._h

    @property
    def d(self) -> np.ndarray:
        """LD coefficient matrix ``D = H − p qᵀ`` (Equation 5)."""
        return self._from_counts("D")

    def r2(self, *, undefined: float = np.nan) -> np.ndarray:
        """r² matrix (Equation 2); *undefined* fills monomorphic pairs."""
        return self._from_counts("r2", undefined)

    def _from_counts(self, stat: str, undefined: float = np.nan) -> np.ndarray:
        # Straight from the counts, strip by strip: D and r² never hold
        # a whole H beside their output.
        return stat_block(
            self.counts, self.p, self.q, stat=stat,
            n_samples=self.n_samples, undefined=undefined,
        )

    def d_prime(self, *, undefined: float = np.nan) -> np.ndarray:
        """Lewontin's D' matrix; *undefined* fills monomorphic pairs."""
        return d_prime_matrix(self.h, self.p, self.q, undefined=undefined)

    def stat(self, name: str, *, undefined: float = np.nan) -> np.ndarray:
        """Dispatch by statistic name: ``"r2"``, ``"D"``, ``"Dprime"``, ``"H"``."""
        if name == "r2":
            return self.r2(undefined=undefined)
        if name == "D":
            return self.d
        if name == "Dprime":
            return self.d_prime(undefined=undefined)
        if name == "H":
            return self.h
        raise ValueError(f"unknown LD statistic {name!r}; choose from {_STATS}")


def compute_ld(
    data: BitMatrix | np.ndarray,
    other: BitMatrix | np.ndarray | None = None,
    *,
    params: BlockingParams | None = None,
    kernel: str = DEFAULT_KERNEL,
) -> LDResult:
    """Run the GEMM pipeline and return the full :class:`LDResult`.

    With *other* omitted this is the symmetric single-region case (Fig. 3),
    computed as a Gram over the lower triangle and mirrored; with *other*
    given, the two-region cross case (Fig. 4). Threading comes from the
    BLAS library behind the fused kernel's ``sgemm``.
    """
    a = as_bitmatrix(data)
    if a.n_samples == 0:
        raise ValueError("LD undefined for zero samples")
    if other is None:
        counts = popcount_gram(a.words, params=params, kernel=kernel)
        p = a.allele_frequencies()
        return LDResult(counts=counts, p=p, q=p, n_samples=a.n_samples)
    b = as_bitmatrix(other)
    if b.n_samples != a.n_samples:
        raise ValueError(
            f"sample counts differ: {a.n_samples} vs {b.n_samples}; "
            "cross-LD requires one shared sample set"
        )
    counts = popcount_gemm(a.words, b.words, params=params, kernel=kernel)
    return LDResult(
        counts=counts,
        p=a.allele_frequencies(),
        q=b.allele_frequencies(),
        n_samples=a.n_samples,
    )


def ld_matrix(
    data: BitMatrix | np.ndarray,
    stat: str = "r2",
    *,
    params: BlockingParams | None = None,
    kernel: str = DEFAULT_KERNEL,
    undefined: float = np.nan,
) -> np.ndarray:
    """All-pairs LD matrix over one SNP region (the headline operation).

    Parameters
    ----------
    data:
        Dense binary ``(n_samples, n_snps)`` matrix or packed
        :class:`BitMatrix`.
    stat:
        ``"r2"`` (default, Equation 2), ``"D"`` (Equation 1), ``"Dprime"``,
        or ``"H"`` (raw haplotype frequencies).
    params, kernel:
        GEMM engine knobs (blocking parameters, micro-kernel).
    undefined:
        Fill value for pairs involving monomorphic SNPs (r²/D' only).
    """
    return compute_ld(data, params=params, kernel=kernel).stat(
        stat, undefined=undefined
    )


def ld_cross(
    a: BitMatrix | np.ndarray,
    b: BitMatrix | np.ndarray,
    stat: str = "r2",
    *,
    params: BlockingParams | None = None,
    kernel: str = DEFAULT_KERNEL,
    undefined: float = np.nan,
) -> np.ndarray:
    """LD between SNPs of two regions/matrices over the same samples (Fig. 4).

    Computes the full ``m × n`` rectangle (no symmetry), supporting the
    paper's long-range-LD and distant-gene-association use case.
    """
    return compute_ld(a, b, params=params, kernel=kernel).stat(
        stat, undefined=undefined
    )


def ld_pairs(
    data: BitMatrix | np.ndarray,
    pairs: np.ndarray,
    stat: str = "r2",
    *,
    undefined: float = np.nan,
) -> np.ndarray:
    """LD for an explicit list of SNP pairs, without forming the full matrix.

    This is the vector-operation path the paper's Section II-B pseudocode
    describes (and that OmegaPlus-style region-restricted scans need): each
    pair costs one AND+POPCNT pass over the packed words.

    Parameters
    ----------
    pairs:
        Integer array of shape ``(n_pairs, 2)`` of SNP index pairs.
    """
    matrix = as_bitmatrix(data)
    pairs = np.asarray(pairs)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"pairs must have shape (n_pairs, 2), got {pairs.shape}")
    if pairs.size and (pairs.min() < 0 or pairs.max() >= matrix.n_snps):
        raise ValueError("pair indices out of range")
    n = float(matrix.n_samples)
    left = matrix.words[pairs[:, 0]]
    right = matrix.words[pairs[:, 1]]
    joint = np.bitwise_count(left & right).sum(axis=1, dtype=np.int64)
    freqs = matrix.allele_frequencies()
    p = freqs[pairs[:, 0]]
    q = freqs[pairs[:, 1]]
    h = joint / n
    d = h - p * q
    if stat == "D":
        return d
    if stat == "H":
        return h
    if stat == "r2":
        denom = p * q * (1.0 - p) * (1.0 - q)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = d * d / denom
        np.minimum(ratio, 1.0, out=ratio)  # linked pairs round to 1 + ulps
        return np.where(denom > 0.0, ratio, undefined)
    if stat == "Dprime":
        pos_max = np.minimum(p * (1.0 - q), (1.0 - p) * q)
        neg_max = np.minimum(p * q, (1.0 - p) * (1.0 - q))
        d_max = np.where(d >= 0.0, pos_max, neg_max)
        polymorphic = (p > 0) & (p < 1) & (q > 0) & (q < 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            d_prime = np.where(d_max > 0.0, d / d_max, 0.0)
        return np.where(polymorphic, d_prime, undefined)
    raise ValueError(f"unknown LD statistic {stat!r}; choose from {_STATS}")
