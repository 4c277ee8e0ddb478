"""Tests for the fused macro-kernel layer (repro.core.macrokernel).

Pins the three tentpole guarantees: bit-identity of the fused
macro-kernel with the legacy scalar micro-kernel on every fringe shape,
zero scratch allocation in the hot loop after workspace warm-up, and the
operation-count model (`gemm_operation_counts`) mirroring the blocked
drivers tile visit for tile visit.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.blocking import FUSED_BLOCKING, BlockingParams
from repro.core.gemm import (
    GEMM_KERNELS,
    _run_kernel,
    gemm_operation_counts,
    popcount_gemm,
    popcount_gram,
    resolve_blocking,
)
from repro.core.macrokernel import (
    GemmWorkspace,
    macrokernel_fused,
    mirror_lower_inplace,
    shared_workspace,
)

#: (m, n, k) shapes covering interior-only, fringe-in-every-dimension,
#: k smaller than any kc, single-row/column, and empty operands.
SHAPES = [
    (16, 16, 4),    # aligned to the tiny blocking below
    (17, 19, 3),    # fringe in m, n, and k
    (5, 33, 1),     # single-word contraction
    (1, 1, 7),      # single tile
    (8, 0, 4),      # empty n
    (0, 9, 4),      # empty m
    (9, 8, 0),      # empty k: the zero matrix
    (40, 23, 11),   # multiple cache blocks with fringe everywhere
]

#: Small enough that every loop level (jc/pc/ic/jr/ir) iterates.
TINY = BlockingParams(mc=8, nc=8, kc=4, mr=4, nr=4)


#: Operands the bit-plane expansion must serve beyond random C-contiguous
#: words: every bit set (bit 63 included), a Fortran-ordered A, and a
#: column-sliced B like the kernels' own k-chunk slices.
LAYOUTS = ["all-ones-words", "fortran-a", "sliced-b"]


def make_words(m: int, k: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**64, size=(m, k), dtype=np.uint64)


def make_operands(case) -> tuple[np.ndarray, np.ndarray]:
    """Random ``(m, n, k)`` words for a SHAPES entry, else a LAYOUTS case."""
    if case not in LAYOUTS:
        m, n, k = case
        a = make_words(m, k, seed=m * 101 + k)
        return a, make_words(n, k, seed=n * 103 + k)
    m, n, k = 40, 23, 11
    if case == "all-ones-words":
        ones = np.iinfo(np.uint64).max
        return (
            np.full((m, k), ones, dtype=np.uint64),
            np.full((n, k), ones, dtype=np.uint64),
        )
    if case == "fortran-a":
        a = np.asfortranarray(make_words(m, k, seed=31))
        return a, make_words(n, k, seed=32)
    return make_words(m, k, seed=33), make_words(n, k + 5, seed=34)[:, 3 : 3 + k]


class TestBitIdentity:
    @pytest.mark.parametrize("case", SHAPES + LAYOUTS, ids=str)
    @pytest.mark.parametrize("kernel", sorted(GEMM_KERNELS))
    def test_gemm_matches_scalar_oracle(self, case, kernel):
        a, b = make_operands(case)
        expected = popcount_gemm(a, b, kernel="scalar", params=TINY)
        result = popcount_gemm(a, b, kernel=kernel, params=TINY)
        np.testing.assert_array_equal(result, expected)

    @pytest.mark.parametrize("m,k", [(16, 4), (29, 3), (1, 5), (0, 2)])
    @pytest.mark.parametrize("kernel", sorted(GEMM_KERNELS))
    def test_gram_matches_scalar_oracle(self, m, k, kernel):
        a = make_words(m, k, seed=m * 107 + k)
        expected = popcount_gram(a, kernel="scalar", params=TINY)
        result = popcount_gram(a, kernel=kernel, params=TINY)
        np.testing.assert_array_equal(result, expected)

    def test_kc_larger_than_k(self):
        # The pc loop must clamp, not read past the operand.
        a = make_words(10, 2, seed=7)
        b = make_words(12, 2, seed=8)
        big_kc = BlockingParams(mc=8, nc=8, kc=512, mr=4, nr=4)
        np.testing.assert_array_equal(
            popcount_gemm(a, b, kernel="fused", params=big_kc),
            popcount_gemm(a, b, kernel="scalar", params=TINY),
        )

    def test_default_blocking_per_kernel(self):
        # resolve_blocking picks FUSED_BLOCKING for the macro-kernels and
        # the results still agree at production parameters.
        assert resolve_blocking(None, "fused") is FUSED_BLOCKING
        assert resolve_blocking(TINY, "fused") is TINY
        a = make_words(50, 3, seed=11)
        np.testing.assert_array_equal(
            popcount_gram(a, kernel="fused"),
            popcount_gram(a, kernel="numpy"),
        )


class TestWorkspace:
    def test_carve_reuses_pools(self):
        ws = GemmWorkspace()
        first = ws.carve("x", np.float32, (4, 8))
        assert ws.n_allocations == 1 and ws.n_reuses == 0
        second = ws.carve("x", np.float32, (2, 8))
        assert ws.n_allocations == 1 and ws.n_reuses == 1
        # Same pool: the smaller carve is a view of the same memory.
        assert second.base is first.base
        ws.carve("x", np.float32, (16, 16))  # growth
        assert ws.n_allocations == 2
        ws.release()
        assert ws.pool_bytes == 0

    def test_same_name_different_dtype_gets_own_pool(self):
        ws = GemmWorkspace()
        ws.carve("x", np.uint8, (8,))
        ws.carve("x", np.float32, (8,))
        assert ws.n_allocations == 2

    def test_shared_workspace_is_per_thread_singleton(self):
        assert shared_workspace() is shared_workspace()

    def test_second_call_allocates_nothing_from_workspace(self):
        ws = GemmWorkspace()
        a = make_words(64, 4, seed=3)
        b = make_words(48, 4, seed=4)
        popcount_gemm(a, b, kernel="fused", params=TINY, workspace=ws)
        allocs = ws.n_allocations
        popcount_gemm(a, b, kernel="fused", params=TINY, workspace=ws)
        assert ws.n_allocations == allocs
        assert ws.n_reuses > 0

    @pytest.mark.parametrize(
        "shape",
        # A small block, a Dataset A tile (2,504 samples = 40 words) and a
        # Dataset B tile (157 words: three k-chunks at FUSED_BLOCKING).
        [(256, 256, 8), (512, 512, 40), (512, 512, 157)],
        ids=str,
    )
    def test_hot_loop_is_allocation_free_after_warmup(self, shape):
        """The zero-allocation acceptance test (tracemalloc-measured).

        After one warm-up call at a steady shape, a further call may
        allocate the exact (m, n) int64 output and interpreter noise —
        but no workspace-scale scratch. The threshold is the output size
        plus a small slack; a single leaked bit-plane panel, index
        conversion or padded C copy would exceed it at production shapes.
        """
        ws = GemmWorkspace()
        m, n, k = shape
        a = make_words(m, k, seed=5)
        b = make_words(n, k, seed=6)
        popcount_gemm(a, b, kernel="fused", workspace=ws)  # warm the pools
        tracemalloc.start()
        popcount_gemm(a, b, kernel="fused", workspace=ws)
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        output_bytes = m * n * 8
        assert peak < output_bytes + (256 << 10), (
            f"hot-loop peak {peak} bytes exceeds output ({output_bytes}) "
            f"+ 256 KiB slack; scratch is being allocated per call"
        )


class TestOperationCountMirror:
    """The symbolic walk counts exactly the tile visits the executing
    driver (``_run_kernel``, behind popcount_gemm/popcount_gram) makes."""

    @pytest.mark.parametrize("kernel", ["numpy", "scalar"])
    @pytest.mark.parametrize("shape", [(17, 19, 3), (40, 23, 11), (9, 8, 0)])
    def test_gemm_tile_visits_match_model(self, kernel, shape):
        m, n, k = shape
        a = make_words(m, k, seed=21)
        b = make_words(n, k, seed=22)
        c = np.zeros((m, n), dtype=np.int64)
        visits = _run_kernel(
            a, b, c, TINY, kernel, GemmWorkspace(), symmetric=False
        )
        counts = gemm_operation_counts(m, n, k, TINY)
        assert visits == counts.kernel_calls

    @pytest.mark.parametrize("kernel", ["numpy", "scalar"])
    @pytest.mark.parametrize("m,k", [(29, 3), (40, 5)])
    def test_gram_tile_visits_match_symmetric_model(self, kernel, m, k):
        a = make_words(m, k, seed=23)
        c = np.zeros((m, m), dtype=np.int64)
        visits = _run_kernel(
            a, a, c, TINY, kernel, GemmWorkspace(), symmetric=True
        )
        counts = gemm_operation_counts(m, m, k, TINY, symmetric=True)
        assert visits == counts.kernel_calls


class TestMirrorLowerInplace:
    @pytest.mark.parametrize("m", [0, 1, 5, 64, 100, 300])
    def test_matches_tril_idiom(self, m):
        rng = np.random.default_rng(m)
        c = rng.integers(-50, 50, size=(m, m)).astype(np.int64)
        expected = np.tril(c) + np.tril(c, -1).T
        result = mirror_lower_inplace(c.copy(), block=64)
        np.testing.assert_array_equal(result, expected)

    def test_in_place_and_returns_same_object(self):
        c = np.arange(16, dtype=np.int64).reshape(4, 4)
        out = mirror_lower_inplace(c)
        assert out is c
        np.testing.assert_array_equal(c, c.T)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            mirror_lower_inplace(np.zeros((3, 4)))

    def test_gram_output_is_symmetric(self):
        a = make_words(33, 4, seed=77)
        c = popcount_gram(a, params=TINY)
        np.testing.assert_array_equal(c, c.T)
