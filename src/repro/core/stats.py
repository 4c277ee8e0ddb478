"""LD statistics: D, D', and r² (paper Section II, Equations 1–2).

Given allele frequencies ``p`` and the haplotype-frequency matrix ``H``:

    D    = H − p pᵀ                                    (Equation 1 / 5)
    r²   = D² / (p_i p_j (1 − p_i)(1 − p_j))           (Equation 2)
    D'   = D / D_max   (Lewontin's normalization)

``D − p pᵀ`` is the O(n²) rank-1 update the paper notes is dominated by the
O(n³) GEMM. Monomorphic SNPs make the r²/D' denominators zero; the functions
return NaN there by default (the statistic is undefined), with an option to
substitute 0.0 as PLINK-style tools do when pruning.

H, D and r² (Equations 1–2) have one implementation, :func:`stat_block`,
which the engine's tiles, :func:`d_matrix`, :func:`r_squared_matrix` and
through them ``ld_matrix`` and the naive baselines all run.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "STATS",
    "d_matrix",
    "d_prime_matrix",
    "ld_chi2_matrix",
    "ld_coefficient",
    "r_squared",
    "r_squared_adjusted",
    "r_squared_matrix",
    "stat_block",
]

#: The statistics :func:`stat_block` computes.
STATS = ("r2", "D", "H")

#: Output bytes per row strip of :func:`stat_block`; its scratch is
#: three strips of this size. Swept on 30 sampled split Dataset A 512²
#: tiles, r² from counts into a fresh destination, best of 5 interleaved
#: passes, three sweeps (2-vCPU Xeon guest with 48 KiB L1d and 2 MiB L2 a
#: core, numpy 2.4): 16 KiB 2.43–2.59 ms, 32 KiB 1.91–1.99, 64 KiB
#: 1.65–1.72, 128 KiB 1.54–1.59, 256 KiB 1.51–1.54, 512 KiB 1.58–1.63,
#: the whole tile at once 2.03–2.15, and the whole-array expressions
#: 4.65–5.41 ms (their seven tile-sized temporaries included).
STRIP_BYTES = 256 * 1024


def stat_block(
    values: np.ndarray,
    p: np.ndarray,
    q: np.ndarray,
    *,
    stat: str = "r2",
    n_samples: int | None = None,
    undefined: float = np.nan,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """H, D or r² of one ``(m, n)`` block, written into *out* strip by strip.

    *values* are shared-allele counts when *n_samples* is given (``H =
    counts / n_samples``) and H itself otherwise; *p* and *q* are the
    rows' and columns' allele frequencies, in [0, 1]. *out* is a fresh
    float64 array when omitted, and may be *values* when those are a
    float64 H. The block is processed one :data:`STRIP_BYTES` row strip
    at a time, running the whole-array expressions' elementwise
    operations in their order — ``counts / N``, ``− p qᵀ``, square,
    ``/ (p(1−p)·q(1−q))``, ``min(·, 1)``, then *undefined* wherever that
    denominator is not positive — so every output bit matches them.
    """
    if stat not in STATS:
        raise ValueError(f"unknown LD statistic {stat!r}; choose r2/D/H")
    m, n = values.shape
    if out is None:
        out = np.empty((m, n), dtype=np.float64)
    if stat == "H":
        if n_samples is None:
            np.copyto(out, values)
        else:
            np.divide(values, float(n_samples), out=out)
        return out
    rows = max(1, min(m, STRIP_BYTES // (8 * max(n, 1))))
    # Outer products are taken as same-shape products of a strip with
    # the row factor spread along each row and one with the column
    # vector down each column: numpy multiplies by a broadcast column
    # ~2x slower at 512 columns. Same operands, same bits.
    spread = np.empty((rows, n))
    q_down = np.empty((rows, n))
    q_down[...] = q
    if stat == "r2":
        var_p, var_q = p * (1.0 - p), q * (1.0 - q)
        var_q_down = np.empty((rows, n))
        var_q_down[...] = var_q
    with np.errstate(divide="ignore", invalid="ignore"):
        for r0 in range(0, m, rows):
            r1 = min(r0 + rows, m)
            src, dst, tmp = values[r0:r1], out[r0:r1], spread[: r1 - r0]
            if n_samples is not None:
                src = np.divide(src, float(n_samples), out=dst)
            np.copyto(tmp, p[r0:r1, None])
            np.subtract(src, np.multiply(tmp, q_down[: r1 - r0], out=tmp), out=dst)
            if stat == "D":
                continue
            np.multiply(dst, dst, out=dst)
            np.copyto(tmp, var_p[r0:r1, None])
            np.divide(
                dst, np.multiply(tmp, var_q_down[: r1 - r0], out=tmp), out=dst
            )
            np.minimum(dst, 1.0, out=dst)
            np.copyto(dst, undefined, where=~(tmp > 0.0))
    return out


def _check_freqs(h: np.ndarray, p: np.ndarray, q: np.ndarray | None) -> tuple[
    np.ndarray, np.ndarray, np.ndarray
]:
    h = np.asarray(h, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    q = p if q is None else np.asarray(q, dtype=np.float64)
    if h.ndim != 2:
        raise ValueError(f"H must be 2-D, got shape {h.shape}")
    if p.ndim != 1 or q.ndim != 1:
        raise ValueError("allele-frequency vectors must be 1-D")
    if h.shape != (p.size, q.size):
        raise ValueError(
            f"H shape {h.shape} does not match frequency vectors ({p.size}, {q.size})"
        )
    if np.any((p < 0) | (p > 1)) or np.any((q < 0) | (q > 1)):
        raise ValueError("allele frequencies must lie in [0, 1]")
    return h, p, q


def ld_coefficient(p_ab: float, p_a: float, p_b: float) -> float:
    """Scalar ``D = P(AB) − P(A) P(B)`` (Equation 1)."""
    return float(p_ab) - float(p_a) * float(p_b)


def r_squared(p_ab: float, p_a: float, p_b: float) -> float:
    """Scalar squared Pearson coefficient (Equation 2); NaN if undefined."""
    denom = p_a * p_b * (1.0 - p_a) * (1.0 - p_b)
    if denom == 0.0:
        return float("nan")
    d = ld_coefficient(p_ab, p_a, p_b)
    return d * d / denom


def d_matrix(
    h: np.ndarray, p: np.ndarray, q: np.ndarray | None = None
) -> np.ndarray:
    """LD coefficient matrix ``D = H − p qᵀ`` (Equation 5's rank-1 update).

    ``q`` defaults to ``p`` (single-matrix case); pass the second matrix's
    frequencies for cross-LD.
    """
    h, p, q = _check_freqs(h, p, q)
    return stat_block(h, p, q, stat="D")


def r_squared_matrix(
    h: np.ndarray,
    p: np.ndarray,
    q: np.ndarray | None = None,
    *,
    undefined: float = np.nan,
) -> np.ndarray:
    """Elementwise r² matrix (Equation 2).

    Parameters
    ----------
    h:
        Haplotype-frequency matrix.
    p, q:
        Allele-frequency vectors (``q`` defaults to ``p``).
    undefined:
        Value for pairs whose denominator is zero (a monomorphic SNP on
        either side). NaN marks the statistic undefined; pass ``0.0`` for
        PLINK-compatible behaviour.

    Defined entries lie in [0, 1]: perfectly linked pairs (the diagonal
    above all) would otherwise round to 1 plus a few ulps.
    """
    h, p, q = _check_freqs(h, p, q)
    return stat_block(h, p, q, undefined=undefined)


def r_squared_adjusted(
    r2: np.ndarray | float, n_samples: int
) -> np.ndarray | float:
    """Sampling-bias-adjusted r²: ``max(r² − 1/n, 0)``.

    Even in perfect linkage equilibrium the *sample* r² has expectation
    ≈ 1/n (Hill & Weir); LD-decay baselines and r̄² summaries subtract it.
    NaNs pass through.
    """
    if n_samples < 2:
        raise ValueError(f"need n_samples >= 2, got {n_samples}")
    return np.maximum(np.asarray(r2, dtype=np.float64) - 1.0 / n_samples, 0.0)


def ld_chi2_matrix(
    r2: np.ndarray, n_samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair LD significance: χ² = n·r² with 1 df, and its p-values.

    The classic two-locus allelic test (the statistic PLINK reports as
    ``CHISQ`` for haploid/phased data). Returns ``(chi2, p_values)``;
    NaN r² entries stay NaN.
    """
    from scipy import stats as sp_stats

    if n_samples < 2:
        raise ValueError(f"need n_samples >= 2, got {n_samples}")
    r2 = np.asarray(r2, dtype=np.float64)
    chi2 = n_samples * r2
    with np.errstate(invalid="ignore"):
        p_values = np.where(np.isnan(chi2), np.nan, sp_stats.chi2.sf(chi2, df=1))
    return chi2, p_values


def d_prime_matrix(
    h: np.ndarray,
    p: np.ndarray,
    q: np.ndarray | None = None,
    *,
    undefined: float = np.nan,
) -> np.ndarray:
    """Lewontin's normalized ``D' = D / D_max`` matrix.

    ``D_max = min(p_i (1−p_j), (1−p_i) p_j)`` when ``D > 0`` and
    ``min(p_i p_j, (1−p_i)(1−p_j))`` when ``D < 0``; pairs with ``D = 0``
    yield 0, and monomorphic pairs yield *undefined*.
    """
    h, p, q = _check_freqs(h, p, q)
    d = h - np.outer(p, q)
    pos_max = np.minimum(np.outer(p, 1.0 - q), np.outer(1.0 - p, q))
    neg_max = np.minimum(np.outer(p, q), np.outer(1.0 - p, 1.0 - q))
    d_max = np.where(d >= 0.0, pos_max, neg_max)
    polymorphic = np.outer((p > 0) & (p < 1), (q > 0) & (q < 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        d_prime = np.where(d_max > 0.0, d / d_max, 0.0)
    return np.where(polymorphic, d_prime, undefined)
