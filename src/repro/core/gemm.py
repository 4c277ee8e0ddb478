"""Blocked popcount-GEMM driver (the GotoBLAS five-loop nest, Figure 1).

This is the paper's computational core: the haplotype-count matrix

    C[i, j] = Σ_w POPCNT(A[i, w] & B[j, w])

computed with the GotoBLAS/BLIS layered algorithm. Loop structure (outermost
to innermost), identical to dense GEMM with elements = packed uint64 words:

    loop 5: jc over n      in steps of n_c   (B panel selection)
    loop 4: pc over k      in steps of k_c   -> pack B panel  (L3 resident)
    loop 3: ic over m      in steps of m_c   -> pack A block  (L2 resident)
    loop 2: jr over n_c    in steps of n_r   (B micro-panel,   L1 resident)
    loop 1: ir over m_c    in steps of m_r   (A micro-panel streamed)
    micro-kernel: m_r × n_r tile of C, k_c rank-1 AND/POPCNT/ADD updates

Because the genomic matrix arrives SNP-major (rows are SNPs, columns are
packed words — Figure 2), computing ``GᵀG`` is already the rank-k update
shape GotoBLAS optimizes (Section III-B): both inputs here are ``(snps,
words)`` and the contraction runs over words.

Three interchangeable kernels drive the nest (:data:`GEMM_KERNELS`):

- ``"fused"`` (default): the bit-plane BLAS macro-kernel
  (:func:`repro.core.macrokernel.macrokernel_fused`) — whole cache blocks
  per call, zero hot-loop allocation, exact by the float32 integer-range
  argument documented there.
- ``"numpy"`` / ``"scalar"``: the original per-micro-tile kernels from
  :mod:`repro.core.microkernel`, kept as the executable specification and
  differential-test oracles.

Edge handling follows BLIS: packed fringe slivers are zero-padded, and zero
words are inert under AND/POPCNT, so kernels need no fringe cases. The
output C is allocated at its exact ``(m, n)`` shape — fringe padding lives
only in workspace scratch, never in a full padded C.

:func:`gemm_operation_counts` walks the same loop bounds without executing
the kernels, producing the exact instruction/traffic counts the machine model
(:mod:`repro.machine`) converts into cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.blocking import DEFAULT_BLOCKING, FUSED_BLOCKING, BlockingParams
from repro.core.macrokernel import (
    GemmWorkspace,
    macrokernel_fused,
    shared_workspace,
)
from repro.core.microkernel import MICRO_KERNELS
from repro.core.packing import pack_block_a, pack_panel_b
from repro.observe.spans import span

__all__ = [
    "DEFAULT_KERNEL",
    "GEMM_KERNELS",
    "GemmCounts",
    "popcount_gemm",
    "popcount_gemm_flat",
    "popcount_gram",
    "gemm_operation_counts",
    "resolve_blocking",
]

#: All kernels accepted by the blocked drivers, fastest first.
GEMM_KERNELS = ("fused", *MICRO_KERNELS)

#: Production default: the bit-plane BLAS macro-kernel.
DEFAULT_KERNEL = "fused"


def resolve_blocking(
    params: BlockingParams | None, kernel: str = DEFAULT_KERNEL
) -> BlockingParams:
    """The blocking to use for *kernel* when the caller passed ``None``.

    The fused macro-kernel wants large ``mc``/``nc`` blocks and short
    ``kc`` chunks (:data:`repro.core.blocking.FUSED_BLOCKING`); the per-tile
    micro kernels keep the historical
    :data:`~repro.core.blocking.DEFAULT_BLOCKING`.
    """
    if params is not None:
        return params
    return FUSED_BLOCKING if kernel == "fused" else DEFAULT_BLOCKING


def _check_operands(a_words: np.ndarray, b_words: np.ndarray) -> tuple[int, int, int]:
    a_words = np.asarray(a_words)
    b_words = np.asarray(b_words)
    if a_words.dtype != np.uint64 or b_words.dtype != np.uint64:
        raise TypeError("operands must be packed uint64 word matrices")
    if a_words.ndim != 2 or b_words.ndim != 2:
        raise ValueError("operands must be 2-D (snps, words)")
    if a_words.shape[1] != b_words.shape[1]:
        raise ValueError(
            f"word counts differ: A has {a_words.shape[1]}, B has {b_words.shape[1]} "
            "(inputs must be packed over the same sample set width)"
        )
    return a_words.shape[0], b_words.shape[0], a_words.shape[1]


def _check_kernel(kernel: str) -> None:
    if kernel not in GEMM_KERNELS:
        raise ValueError(
            f"unknown kernel {kernel!r}; expected one of {', '.join(GEMM_KERNELS)}"
        )


def _gemm_micro(
    a_words: np.ndarray,
    b_words: np.ndarray,
    c: np.ndarray,
    params: BlockingParams,
    kernel: str,
    workspace: GemmWorkspace,
    *,
    symmetric: bool = False,
) -> int:
    """Legacy per-micro-tile driver for the ``numpy``/``scalar`` kernels.

    Accumulates into the exact ``(m, n)`` output: interior tiles update C
    views directly; fringe tiles stage through a workspace-carved padded
    tile and add back the valid region. Returns micro-tile visits.
    """
    m, n = c.shape
    k = a_words.shape[1]
    micro = MICRO_KERNELS[kernel]
    mr, nr = params.mr, params.nr
    b_kn = np.ascontiguousarray(b_words.T)  # (k, n) panel orientation
    tile_visits = 0
    fringe = workspace.carve("micro.c_fringe", np.int64, (mr, nr))
    for jc in range(0, n, params.nc):
        nc_eff = min(params.nc, n - jc)
        for pc in range(0, k, params.kc):
            kc_eff = min(params.kc, k - pc)
            packed_b = pack_panel_b(b_kn[pc : pc + kc_eff, jc : jc + nc_eff], nr)
            for ic in range(0, m, params.mc):
                mc_eff = min(params.mc, m - ic)
                if symmetric and ic + mc_eff <= jc:
                    continue
                packed_a = pack_block_a(
                    a_words[ic : ic + mc_eff, pc : pc + kc_eff], mr
                )
                for jr_sliver in range(packed_b.shape[0]):
                    j0 = jc + jr_sliver * nr
                    cols = min(nr, n - j0)
                    b_micro = packed_b[jr_sliver]
                    for ir_sliver in range(packed_a.shape[0]):
                        i0 = ic + ir_sliver * mr
                        if symmetric and i0 + mr <= j0:
                            continue
                        tile_visits += 1
                        rows = min(mr, m - i0)
                        if rows == mr and cols == nr:
                            micro(
                                packed_a[ir_sliver],
                                b_micro,
                                c[i0 : i0 + mr, j0 : j0 + nr],
                            )
                        else:
                            fringe[...] = 0
                            micro(packed_a[ir_sliver], b_micro, fringe)
                            c[i0 : i0 + rows, j0 : j0 + cols] += fringe[
                                :rows, :cols
                            ]
    return tile_visits


def _run_kernel(
    a_words: np.ndarray,
    b_rows: np.ndarray,
    c: np.ndarray,
    params: BlockingParams,
    kernel: str,
    workspace: GemmWorkspace,
    *,
    symmetric: bool,
) -> int:
    """Dispatch one full GEMM over column strips.

    Returns the micro-tile visits of the ``numpy``/``scalar`` drivers; the
    fused kernel has no micro-tiles and returns 0.
    """
    if kernel in MICRO_KERNELS:
        return _gemm_micro(
            a_words, b_rows, c, params, kernel, workspace, symmetric=symmetric
        )
    n = c.shape[1]
    for jc in range(0, n, params.nc):
        nc_eff = min(params.nc, n - jc)
        macrokernel_fused(
            a_words,
            b_rows[jc : jc + nc_eff],
            c[:, jc : jc + nc_eff],
            params,
            workspace,
            col_offset=jc,
            symmetric=symmetric,
        )
    return 0


def popcount_gemm(
    a_words: np.ndarray,
    b_words: np.ndarray,
    *,
    params: BlockingParams | None = None,
    kernel: str = DEFAULT_KERNEL,
    workspace: GemmWorkspace | None = None,
) -> np.ndarray:
    """All-pairs popcount inner products via the blocked GotoBLAS nest.

    Parameters
    ----------
    a_words, b_words:
        Packed SNP-major word matrices of shapes ``(m, k)`` and ``(n, k)``
        (``k`` = words per SNP). The result contracts over words.
    params:
        Blocking parameters (cache/register tile sizes); ``None`` selects
        the per-kernel default via :func:`resolve_blocking`.
    kernel:
        One of :data:`GEMM_KERNELS` — ``"fused"`` (bit-plane BLAS macro,
        default), ``"numpy"``, or ``"scalar"``. All produce bit-identical
        results.
    workspace:
        Scratch pools to carve from; ``None`` uses the calling thread's
        persistent :func:`~repro.core.macrokernel.shared_workspace`.

    Returns
    -------
    ``(m, n)`` ``int64`` matrix of shared-derived-allele counts
    ``C[i, j] = s_iᵀ s_j``.
    """
    m, n, _ = _check_operands(a_words, b_words)
    _check_kernel(kernel)
    params = resolve_blocking(params, kernel)
    ws = shared_workspace() if workspace is None else workspace
    with span("gemm"):  # parent span; self-time = driver overhead
        c = np.zeros((m, n), dtype=np.int64)
        _run_kernel(a_words, b_words, c, params, kernel, ws, symmetric=False)
    return c


def popcount_gram(
    a_words: np.ndarray,
    *,
    params: BlockingParams | None = None,
    kernel: str = DEFAULT_KERNEL,
    workspace: GemmWorkspace | None = None,
) -> np.ndarray:
    """Symmetric case ``C = A Aᵀ`` (the ``GᵀG`` of Equation 5).

    Skips blocks and micro-tiles strictly above the diagonal and mirrors the
    lower triangle in place afterwards — the N(N+1)/2 pairwise-count
    traversal the paper reports for the GEMM implementation (Section VI),
    without the two full ``m × m`` temporaries the old ``np.tril`` mirror
    allocated.
    """
    from repro.core.macrokernel import mirror_lower_inplace

    a_words = np.asarray(a_words)
    m, _, _ = _check_operands(a_words, a_words)
    _check_kernel(kernel)
    params = resolve_blocking(params, kernel)
    ws = shared_workspace() if workspace is None else workspace
    with span("gram"):  # parent span; self-time = driver overhead
        c = np.zeros((m, m), dtype=np.int64)
        _run_kernel(a_words, a_words, c, params, kernel, ws, symmetric=True)
        mirror_lower_inplace(c)
    return c


def popcount_gemm_flat(
    a_words: np.ndarray,
    b_words: np.ndarray,
    *,
    max_temp_bytes: int = 1 << 26,
) -> np.ndarray:
    """Un-blocked baseline: one broadcast pass, row-chunked only for memory.

    This is the "no cache blocking" ablation partner of
    :func:`popcount_gemm`: it performs the identical AND/POPCNT/ADD work but
    streams the full B operand for every row chunk, so its memory traffic
    grows with ``m·n·k`` instead of being amortized by packing.
    """
    m, n, k = _check_operands(a_words, b_words)
    c = np.empty((m, n), dtype=np.int64)
    if m == 0 or n == 0:
        return c
    per_row_bytes = max(1, n * k * 8)
    chunk = max(1, min(m, max_temp_bytes // per_row_bytes))
    for i0 in range(0, m, chunk):
        a_chunk = a_words[i0 : i0 + chunk]
        joint = a_chunk[:, None, :] & b_words[None, :, :]
        c[i0 : i0 + chunk] = np.bitwise_count(joint).sum(axis=2, dtype=np.int64)
    return c


@dataclass(frozen=True)
class GemmCounts:
    """Exact operation and traffic counts for one blocked GEMM execution.

    All word-level counts include fringe zero-padding, exactly as executed
    by the popcount-formulation kernels — the machine model charges padded
    work the way real silicon would. (The ``"fused"`` BLAS kernel performs
    the same logical contraction through bit planes; the model prices the
    popcount instruction mix, which is the paper's cost unit.)

    Attributes
    ----------
    and_ops, popcnt_ops, add_ops:
        Word-level AND / POPCNT / accumulate operations in the micro-kernels.
    kernel_calls:
        Micro-kernel invocations (micro-tile visits × pc chunks).
    a_pack_words, b_pack_words:
        Words moved (read+write once each) while packing A blocks / B panels.
    a_load_words, b_load_words:
        Words streamed into the micro-kernels from the packed buffers.
    c_update_words:
        C-tile elements written back across all kernel calls.
    """

    and_ops: int
    popcnt_ops: int
    add_ops: int
    kernel_calls: int
    a_pack_words: int
    b_pack_words: int
    a_load_words: int
    b_load_words: int
    c_update_words: int

    @property
    def total_ops(self) -> int:
        """Total AND+POPCNT+ADD operations (the paper's 3-ops-per-step unit)."""
        return self.and_ops + self.popcnt_ops + self.add_ops


def gemm_operation_counts(
    m: int,
    n: int,
    k: int,
    params: BlockingParams = DEFAULT_BLOCKING,
    *,
    symmetric: bool = False,
) -> GemmCounts:
    """Walk the blocked loop nest symbolically and return exact counts.

    Mirrors the popcount drivers block for block (including fringe padding
    and the symmetric block- and tile-skipping rules) without touching
    data — ``kernel_calls`` equals the tile visits the executing driver
    (``_run_kernel``) returns (one visit per micro-tile per pc chunk),
    and tests pin that equivalence.

    The walk is closed-form over the pc loop and the ir sliver loop (their
    contributions are arithmetic in the loop bounds), so paper-scale shapes
    (m = n = 16384) evaluate in milliseconds rather than walking ~10⁷ tiles.
    """
    if min(m, n, k) < 0:
        raise ValueError("dimensions must be non-negative")
    mr, nr = params.mr, params.nr
    kernel_calls = 0
    triple_ops = 0  # per-class AND (= POPCNT = ADD) operations
    a_pack = b_pack = 0
    a_load = b_load = c_update = 0
    # The pc loop only modulates kc_eff; its aggregates are sum(kc_eff) = k
    # and the chunk count.
    n_pc_chunks = (k + params.kc - 1) // params.kc if k else 0
    for jc in range(0, n, params.nc):
        nc_eff = min(params.nc, n - jc)
        n_slivers_b = (nc_eff + nr - 1) // nr
        b_pack += n_slivers_b * nr * k
        for ic in range(0, m, params.mc):
            mc_eff = min(params.mc, m - ic)
            if symmetric and ic + mc_eff <= jc:
                continue
            n_slivers_a = (mc_eff + mr - 1) // mr
            a_pack += n_slivers_a * mr * k
            if not symmetric:
                tiles = n_slivers_a * n_slivers_b
            else:
                # Count (ir, jr) sliver pairs whose tile touches the lower
                # triangle: ic + (ir+1)*mr > jc + jr*nr.
                tiles = 0
                for jr_sliver in range(n_slivers_b):
                    j0 = jc + jr_sliver * nr
                    # smallest ir with ic + (ir+1)*mr > j0:
                    ir_min = max(0, -(-(j0 - ic - mr + 1) // mr))
                    tiles += max(0, n_slivers_a - min(n_slivers_a, ir_min))
            kernel_calls += tiles * n_pc_chunks
            triple_ops += tiles * mr * nr * k
            a_load += tiles * mr * k
            b_load += tiles * nr * k
            c_update += tiles * n_pc_chunks * mr * nr
    and_ops = popcnt_ops = add_ops = triple_ops
    return GemmCounts(
        and_ops=and_ops,
        popcnt_ops=popcnt_ops,
        add_ops=add_ops,
        kernel_calls=kernel_calls,
        a_pack_words=a_pack,
        b_pack_words=b_pack,
        a_load_words=a_load,
        b_load_words=b_load,
        c_update_words=c_update,
    )
