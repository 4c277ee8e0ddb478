"""Fused macro-kernel: whole cache blocks per call, zero hot-loop allocation.

The micro-kernel layer (:mod:`repro.core.microkernel`) pays interpreter and
allocator overhead per ``m_r × n_r`` tile. This module raises the unit of
work to an entire ``m_c × n_c`` cache block (one *macro-kernel* call per
block, chunked over k), with every temporary carved from a caller-owned
:class:`GemmWorkspace` — after warm-up the hot loop performs **zero**
allocations.

:func:`macrokernel_fused` expands each k-chunk of packed words to 0/1
*bit planes* in float32 — one gather per operand from a constant
256 × 8 byte-to-planes table — and contracts each ``m_c`` block with one
BLAS ``sgemm`` (``np.matmul``) per k-chunk. This is exact, not
approximate: every partial product is 0 or 1 and every partial sum is an
integer bounded by ``64 · k_chunk ≤ 2²⁴``, below the float32
integer-exactness limit, so the result is bit-identical to the popcount
formulation regardless of BLAS summation order or threading. It restates
the paper's thesis — LD *is* dense linear algebra — by handing the inner
loop to the best dense kernel on the machine.

It operates on SNP-major operands: ``a_words (m, k)`` and ``b_rows (n, k)``
uint64, accumulating into an exact ``(m, n_c)`` int64 column strip of C —
no full padded C matrix exists anywhere (the bit-plane panels and the
float32 block accumulator live only in the workspace).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.blocking import BlockingParams
from repro.observe.spans import span

__all__ = [
    "GemmWorkspace",
    "shared_workspace",
    "macrokernel_fused",
    "mirror_lower_inplace",
]

#: Byte → bit-plane table: row ``v`` holds the eight 0/1 bits of byte value
#: ``v``, LSB first, as float32. numpy uint64 is little-endian in memory, so
#: byte b, bit s of a word is allele index 8·b + s — both operands use the
#: same order, and the contraction is order-invariant anyway.
_BYTE_PLANES = (
    (np.arange(256)[:, None] >> np.arange(8)) & 1
).astype(np.float32)

#: Exactness cap: one k-chunk may contribute at most 64 · kc counts to a
#: float32 partial sum, which must stay ≤ 2²⁴ (the float32 integer limit).
_EXACT_KC_WORDS = 1 << 18

#: Memory guard: the expanded float32 bit-plane panel for one operand is
#: ``rows · kstep · 64 · 4`` bytes; cap the per-operand panel at
#: ``_PANEL_BUDGET_WORDS · 64`` bits (= 128 MiB of float32) regardless of how
#: large a ``kc`` the caller requests.
_PANEL_BUDGET_WORDS = 1 << 19


class GemmWorkspace:
    """Grow-only scratch pools for the blocked GEMM drivers.

    ``carve(name, dtype, shape)`` returns a contiguous view of a named flat
    pool, growing the pool only when the request exceeds its current size.
    After the first block of a steady-state shape every carve is a pure view
    — no allocation — which is what the zero-allocation acceptance test
    pins. One workspace serves any mix of shapes, kernels, and blocking
    parameters because pools are keyed by role, not by geometry.

    Not thread-safe by design: each thread gets its own instance via
    :func:`shared_workspace` (the engine's ``threads`` executor runs one
    GEMM per tile per thread).
    """

    __slots__ = ("_pools", "n_allocations", "n_reuses", "bytes_allocated")

    def __init__(self) -> None:
        self._pools: dict[tuple[str, str], np.ndarray] = {}
        self.n_allocations = 0
        self.n_reuses = 0
        self.bytes_allocated = 0

    def carve(
        self, name: str, dtype: np.dtype | type, shape: tuple[int, ...]
    ) -> np.ndarray:
        """A ``shape`` view of the pool *name*, allocating only on growth."""
        dt = np.dtype(dtype)
        n = 1
        for extent in shape:
            n *= int(extent)
        key = (name, dt.char)
        pool = self._pools.get(key)
        if pool is None or pool.size < n:
            pool = np.empty(max(n, 1), dtype=dt)
            self._pools[key] = pool
            self.n_allocations += 1
            self.bytes_allocated += pool.nbytes
        else:
            self.n_reuses += 1
        return pool[:n].reshape(shape)

    @property
    def pool_bytes(self) -> int:
        """Current total footprint of all pools."""
        return sum(p.nbytes for p in self._pools.values())

    def release(self) -> None:
        """Drop all pools (memory returns to the allocator)."""
        self._pools.clear()


_THREAD_LOCAL = threading.local()


def shared_workspace() -> GemmWorkspace:
    """The calling thread's persistent :class:`GemmWorkspace`.

    Allocated on first use per thread and reused for every subsequent GEMM
    call on that thread, so repeated calls at a steady shape do no scratch
    allocation at all.
    """
    ws = getattr(_THREAD_LOCAL, "workspace", None)
    if ws is None:
        ws = GemmWorkspace()
        _THREAD_LOCAL.workspace = ws
    return ws


def _unpack_bits_f32(
    workspace: GemmWorkspace,
    tag: str,
    words: np.ndarray,
    out_f32: np.ndarray,
) -> None:
    """Expand ``(rows, kw)`` uint64 words into ``(rows, kw·64)`` 0/1 float32.

    One gather from :data:`_BYTE_PLANES`: the (possibly strided) word slice
    is staged contiguous, its bytes are widened to ``intp`` indices, and
    ``np.take`` writes each byte's eight planes straight into *out_f32*.
    Both temporaries are workspace-carved, and ``mode="clip"`` lets
    ``np.take`` write into *out_f32* without buffering it (the default
    ``mode="raise"`` does); byte indices never leave 0–255, so nothing is
    ever clipped.
    """
    rows, kw = words.shape
    staged = workspace.carve(tag + ".words", np.uint64, (rows, kw))
    staged[...] = words
    idx = workspace.carve(tag + ".idx", np.intp, (rows, kw * 8))
    np.copyto(idx, staged.view(np.uint8))
    np.take(
        _BYTE_PLANES, idx, axis=0,
        out=out_f32.reshape(rows, kw * 8, 8), mode="clip",
    )


def _fused_k_step(kc: int, rows_max: int) -> int:
    """k-chunk (words) honouring both the exactness cap and memory budget."""
    step = min(kc, _EXACT_KC_WORDS)
    if rows_max > 0:
        step = min(step, max(1, _PANEL_BUDGET_WORDS // rows_max))
    return max(1, step)


def macrokernel_fused(
    a_words: np.ndarray,
    b_rows: np.ndarray,
    c_strip: np.ndarray,
    params: BlockingParams,
    workspace: GemmWorkspace,
    *,
    row_offset: int = 0,
    col_offset: int = 0,
    symmetric: bool = False,
) -> None:
    """Accumulate ``C_strip += A · Bᵀ`` over one n_c column strip, exactly.

    Parameters
    ----------
    a_words:
        ``(m, k)`` uint64 — all A rows for this strip.
    b_rows:
        ``(n_eff, k)`` uint64 — the strip's B rows (SNP-major, same
        orientation as A; the contraction transposes implicitly).
    c_strip:
        ``(m, n_eff)`` int64 view of the exact output, updated in place.
    row_offset, col_offset:
        Global coordinates of ``c_strip[0, 0]``; with ``symmetric=True``,
        ``m_c`` row blocks strictly above the diagonal are skipped (the
        Gram traversal of Section VI).
    """
    m, k = a_words.shape
    n_eff = b_rows.shape[0]
    if m == 0 or n_eff == 0 or k == 0:
        return
    mc = params.mc
    kstep = _fused_k_step(params.kc, max(min(mc, m), n_eff))
    for pc in range(0, k, kstep):
        kc_eff = min(kstep, k - pc)
        kb = kc_eff * 64
        with span("pack_b"):
            b_f32 = workspace.carve("fused.b_f32", np.float32, (n_eff, kb))
            _unpack_bits_f32(
                workspace, "fused.b", b_rows[:, pc : pc + kc_eff], b_f32
            )
        for ic in range(0, m, mc):
            mc_eff = min(mc, m - ic)
            if symmetric and row_offset + ic + mc_eff <= col_offset:
                continue
            with span("pack_a"):
                a_f32 = workspace.carve("fused.a_f32", np.float32, (mc_eff, kb))
                _unpack_bits_f32(
                    workspace, "fused.a",
                    a_words[ic : ic + mc_eff, pc : pc + kc_eff], a_f32,
                )
            with span("plane_matmul"):
                c_f32 = workspace.carve(
                    "fused.c_f32", np.float32, (mc_eff, n_eff)
                )
                np.matmul(a_f32, b_f32.T, out=c_f32)
            with span("copy_out"):
                block = c_strip[ic : ic + mc_eff]
                np.add(block, c_f32, out=block, casting="unsafe")


def mirror_lower_inplace(c: np.ndarray, *, block: int = 256) -> np.ndarray:
    """Reflect the lower triangle of square *c* onto the upper, in place.

    Replaces the ``np.tril(c) + np.tril(c, -1).T`` idiom, which materializes
    two full ``m × m`` copies; this walks diagonal blocks with bounded
    ``block × block`` staging (off-diagonal strips are disjoint transposed
    assignments with no staging at all).
    """
    m = c.shape[0]
    if c.ndim != 2 or c.shape[1] != m:
        raise ValueError(f"expected a square matrix, got shape {c.shape}")
    with span("mirror"):
        for j0 in range(0, m, block):
            j1 = min(j0 + block, m)
            # Strip to the right of the diagonal block: rows j0:j1 above
            # columns j1:, sourced from the disjoint lower region below
            # the block.
            c[j0:j1, j1:] = c[j1:, j0:j1].T
            diag = c[j0:j1, j0:j1]
            low = np.tril_indices(j1 - j0, -1)
            diag.T[low] = diag[low]
    return c
