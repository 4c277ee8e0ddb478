"""Naive per-pair LD: the paper's Section II-B pseudocode, verbatim.

The paper motivates the GEMM formulation by first showing the obvious
implementation::

    for i in range(n):
        for j in range(n):
            D[i, j] = (1/N) s_iᵀ s_j  −  (1/N²) (s_iᵀ s_i)(s_jᵀ s_j)

"each SNP is treated as a column vector, and the required computations ...
are cast in terms of vector operations. This approach is highly inefficient"
— every pair re-streams both SNP columns through the memory hierarchy with no
reuse.

Two fidelity levels are provided:

``naive_ld_matrix``
    Per-pair *vector* operations (one dot product per pair over dense
    columns) — the literal pseudocode. Exploits the D-matrix symmetry only,
    as the pseudocode's loop bounds allow.
``naive_ld_matrix_scalar``
    Fully scalar inner loops (one Python multiply-add per sample per pair);
    the pedagogical floor, usable only on tiny inputs.
"""

from __future__ import annotations

import numpy as np

from repro.core.stats import d_matrix, r_squared_matrix
from repro.encoding.bitmatrix import BitMatrix
from repro.util.validation import check_binary

__all__ = ["naive_ld_matrix", "naive_ld_matrix_scalar"]


def _to_dense(data: BitMatrix | np.ndarray) -> np.ndarray:
    if isinstance(data, BitMatrix):
        return data.to_dense()
    return check_binary(data, "genomic matrix")


def naive_ld_matrix(
    data: BitMatrix | np.ndarray,
    stat: str = "r2",
    *,
    undefined: float = np.nan,
) -> np.ndarray:
    """All-pairs LD via one vector dot product per SNP pair (Section II-B).

    Parameters
    ----------
    data:
        Dense binary ``(n_samples, n_snps)`` matrix or packed
        :class:`BitMatrix` (unpacked internally — the naive method works on
        dense columns).
    stat:
        ``"r2"`` or ``"D"``.
    """
    dense = _to_dense(data).astype(np.float64)
    n_samples, n_snps = dense.shape
    if n_samples == 0:
        raise ValueError("LD undefined for zero samples")
    h = np.empty((n_snps, n_snps), dtype=np.float64)
    inv_n = 1.0 / n_samples
    # The pseudocode's doubly nested per-pair loop; symmetry halves it.
    for i in range(n_snps):
        s_i = dense[:, i]
        for j in range(i + 1):
            h[i, j] = h[j, i] = float(s_i @ dense[:, j]) * inv_n
    p = np.array([float(dense[:, i] @ dense[:, i]) * inv_n for i in range(n_snps)])
    if stat == "D":
        return d_matrix(h, p)
    if stat == "r2":
        return r_squared_matrix(h, p, undefined=undefined)
    raise ValueError(f"unknown LD statistic {stat!r}; choose 'r2' or 'D'")


def naive_ld_matrix_scalar(
    data: BitMatrix | np.ndarray,
    stat: str = "r2",
    *,
    undefined: float = np.nan,
) -> np.ndarray:
    """All-pairs LD with fully scalar Python arithmetic (reference floor)."""
    dense = _to_dense(data)
    n_samples, n_snps = dense.shape
    if n_samples == 0:
        raise ValueError("LD undefined for zero samples")
    cols = [list(map(int, dense[:, i])) for i in range(n_snps)]
    h = np.empty((n_snps, n_snps), dtype=np.float64)
    inv_n = 1.0 / n_samples
    for i in range(n_snps):
        col_i = cols[i]
        for j in range(i + 1):
            col_j = cols[j]
            acc = 0
            for k in range(n_samples):
                acc += col_i[k] * col_j[k]
            h[i, j] = h[j, i] = acc * inv_n
    p = np.array([sum(cols[i]) * inv_n for i in range(n_snps)])
    if stat == "D":
        return d_matrix(h, p)
    if stat == "r2":
        return r_squared_matrix(h, p, undefined=undefined)
    raise ValueError(f"unknown LD statistic {stat!r}; choose 'r2' or 'D'")
