"""Operand packing for the blocked LD GEMM (GotoBLAS layers, Figure 1).

GotoBLAS packs each cache block of A and each cache panel of B into
contiguous buffers laid out in *micro-panel* order, so that the micro-kernel
streams both operands with unit stride:

- the packed A block stores ``mr``-row slivers back to back: element order is
  ``(row-sliver, k, row-within-sliver)``;
- the packed B panel stores ``nr``-column slivers back to back: element order
  is ``(col-sliver, k, col-within-sliver)``.

Slivers at the fringe (when the block size is not a multiple of ``mr``/``nr``)
are zero-padded to full width — zero words are inert under AND/POPCNT, so the
micro-kernel never needs a fringe case, mirroring how BLIS handles edge tiles.

Packing is vectorized: full slivers move through one view-preserving
``reshape``/``transpose`` assignment instead of a per-sliver Python loop.
When a B sliver is already contiguous in micro-panel order the copy is
skipped entirely and a view is returned.

Elements here are ``uint64`` packed-allele words; the layout math is identical
to the double-precision original.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pack_block_a",
    "pack_panel_b",
    "micropanel_a",
    "micropanel_b",
]


def pack_block_a(a_words: np.ndarray, mr: int) -> np.ndarray:
    """Pack an ``(m, k)`` block of A into micro-panel order.

    Returns an array of shape ``(ceil(m / mr), k, mr)`` — sliver-major,
    then k, then row-within-sliver — zero-padded in the last sliver.
    The micro-kernel reads ``packed[s, p, :]`` as the ``mr`` A-words of
    rank-1-update step ``p``; those reads are unit-stride.
    """
    a_words = np.asarray(a_words, dtype=np.uint64)
    if a_words.ndim != 2:
        raise ValueError(f"A block must be 2-D, got shape {a_words.shape}")
    m, k = a_words.shape
    n_full = m // mr
    packed = np.empty(((m + mr - 1) // mr, k, mr), dtype=np.uint64)
    if n_full:
        # (n_full, k, mr) viewed as (n_full, mr, k): axis-0 split keeps the
        # source a view, so the assignment is one strided copy.
        packed[:n_full].transpose(0, 2, 1)[...] = a_words[
            : n_full * mr
        ].reshape(n_full, mr, k)
    rem = m - n_full * mr
    if rem:
        packed[n_full, :, :rem] = a_words[n_full * mr :].T
        packed[n_full, :, rem:] = 0
    return packed


def pack_panel_b(b_words: np.ndarray, nr: int) -> np.ndarray:
    """Pack a ``(k, n)`` panel of B into micro-panel order.

    Returns shape ``(ceil(n / nr), k, nr)`` — sliver-major, then k, then
    column-within-sliver — zero-padded in the last sliver. When the panel
    is a single full sliver (``n == nr``) and already C-contiguous, it *is*
    its own micro-panel: the copy is skipped and a reshaped view of the
    input is returned.
    """
    b_words = np.asarray(b_words, dtype=np.uint64)
    if b_words.ndim != 2:
        raise ValueError(f"B panel must be 2-D, got shape {b_words.shape}")
    k, n = b_words.shape
    if n == nr and b_words.flags.c_contiguous:
        return b_words.reshape(1, k, nr)
    n_full = n // nr
    packed = np.empty(((n + nr - 1) // nr, k, nr), dtype=np.uint64)
    if n_full:
        # Splitting the unit-stride column axis keeps the source a view, so
        # the assignment is one strided copy with no temporary.
        src = b_words[:, : n_full * nr].reshape(k, n_full, nr)
        packed[:n_full][...] = src.transpose(1, 0, 2)
    rem = n - n_full * nr
    if rem:
        packed[n_full, :, :rem] = b_words[:, n_full * nr :]
        packed[n_full, :, rem:] = 0
    return packed


def micropanel_a(packed_a: np.ndarray, sliver: int) -> np.ndarray:
    """The ``(k, mr)`` A micro-panel for one row sliver."""
    return packed_a[sliver]


def micropanel_b(packed_b: np.ndarray, sliver: int) -> np.ndarray:
    """The ``(k, nr)`` B micro-panel for one column sliver."""
    return packed_b[sliver]
