"""Tests for the public LD API (repro.core.ldmatrix, repro.core.frequencies)."""

import numpy as np
import pytest

from repro.core.blocking import MICRO_BLOCKING
from repro.core.frequencies import (
    allele_frequencies,
    haplotype_frequencies,
    haplotype_frequencies_cross,
)
from repro.core.ldmatrix import (
    LDResult,
    as_bitmatrix,
    compute_ld,
    ld_cross,
    ld_matrix,
    ld_pairs,
)
from repro.encoding.bitmatrix import BitMatrix
from tests.conftest import assert_allclose_nan, reference_ld, reference_ld_cross


class TestFrequencies:
    def test_allele_frequencies(self, small_panel):
        bm = BitMatrix.from_dense(small_panel)
        np.testing.assert_allclose(
            allele_frequencies(bm), small_panel.mean(axis=0)
        )

    def test_haplotype_frequencies(self, small_panel):
        bm = BitMatrix.from_dense(small_panel)
        np.testing.assert_allclose(
            haplotype_frequencies(bm), reference_ld(small_panel)["h"]
        )

    def test_haplotype_frequencies_cross(self, rng):
        a = rng.integers(0, 2, size=(90, 7)).astype(np.uint8)
        b = rng.integers(0, 2, size=(90, 5)).astype(np.uint8)
        got = haplotype_frequencies_cross(
            BitMatrix.from_dense(a), BitMatrix.from_dense(b)
        )
        np.testing.assert_allclose(got, reference_ld_cross(a, b)["h"])

    def test_cross_rejects_sample_mismatch(self, rng):
        a = BitMatrix.from_dense(rng.integers(0, 2, (10, 3)).astype(np.uint8))
        b = BitMatrix.from_dense(rng.integers(0, 2, (12, 3)).astype(np.uint8))
        with pytest.raises(ValueError, match="sample counts differ"):
            haplotype_frequencies_cross(a, b)

    def test_zero_samples_rejected(self):
        bm = BitMatrix(words=np.zeros((2, 0), dtype=np.uint64), n_samples=0)
        with pytest.raises(ValueError, match="zero samples"):
            haplotype_frequencies(bm)


class TestLdMatrix:
    @pytest.mark.parametrize("stat", ["r2", "D", "H"])
    def test_matches_reference(self, small_panel, stat):
        ref = reference_ld(small_panel)
        got = ld_matrix(small_panel, stat=stat)
        key = {"r2": "r2", "D": "d", "H": "h"}[stat]
        assert_allclose_nan(got, ref[key], atol=1e-12)

    def test_accepts_bitmatrix(self, small_panel):
        bm = BitMatrix.from_dense(small_panel)
        assert_allclose_nan(ld_matrix(bm), ld_matrix(small_panel))

    def test_dprime_stat_dispatch(self, small_panel):
        dp = ld_matrix(small_panel, stat="Dprime")
        finite = dp[~np.isnan(dp)]
        assert np.all(np.abs(finite) <= 1.0 + 1e-9)

    def test_unknown_stat_rejected(self, small_panel):
        with pytest.raises(ValueError, match="unknown LD statistic"):
            ld_matrix(small_panel, stat="zeta")

    def test_undefined_fill(self):
        dense = np.zeros((20, 3), dtype=np.uint8)
        dense[:10, 0] = 1  # SNP 0 polymorphic; 1, 2 monomorphic
        r2 = ld_matrix(dense, undefined=-7.0)
        assert r2[0, 1] == -7.0 and r2[1, 2] == -7.0
        assert r2[0, 0] == pytest.approx(1.0)

    def test_scalar_kernel_path(self, tiny_panel):
        assert_allclose_nan(
            ld_matrix(tiny_panel, params=MICRO_BLOCKING, kernel="scalar"),
            ld_matrix(tiny_panel),
        )

    def test_zero_samples_rejected(self):
        bm = BitMatrix(words=np.zeros((2, 0), dtype=np.uint64), n_samples=0)
        with pytest.raises(ValueError, match="zero samples"):
            ld_matrix(bm)


class TestLdCross:
    def test_matches_reference(self, rng):
        a = rng.integers(0, 2, size=(150, 9)).astype(np.uint8)
        b = rng.integers(0, 2, size=(150, 4)).astype(np.uint8)
        ref = reference_ld_cross(a, b)
        assert_allclose_nan(ld_cross(a, b), ref["r2"], atol=1e-12)
        np.testing.assert_allclose(ld_cross(a, b, stat="D"), ref["d"])

    def test_rejects_sample_mismatch(self, rng):
        a = rng.integers(0, 2, size=(10, 3)).astype(np.uint8)
        b = rng.integers(0, 2, size=(12, 3)).astype(np.uint8)
        with pytest.raises(ValueError, match="sample counts differ"):
            ld_cross(a, b)

    def test_cross_equals_full_matrix_block(self, small_panel):
        """Cross-LD of two slices equals the corresponding block of full LD."""
        left, right = small_panel[:, :20], small_panel[:, 20:]
        full = ld_matrix(small_panel)
        block = ld_cross(left, right)
        assert_allclose_nan(block, full[:20, 20:], atol=1e-12)


class TestLdPairs:
    def test_matches_matrix_entries(self, small_panel):
        full = ld_matrix(small_panel)
        pairs = np.array([[0, 1], [5, 40], [12, 12], [52, 0]])
        vals = ld_pairs(small_panel, pairs)
        assert_allclose_nan(vals, full[pairs[:, 0], pairs[:, 1]], atol=1e-12)

    @pytest.mark.parametrize("stat", ["D", "H", "Dprime"])
    def test_stats_match_matrix(self, small_panel, stat):
        full = ld_matrix(small_panel, stat=stat)
        pairs = np.array([[3, 7], [11, 2]])
        assert_allclose_nan(
            ld_pairs(small_panel, pairs, stat=stat),
            full[pairs[:, 0], pairs[:, 1]],
            atol=1e-12,
        )

    def test_rejects_bad_pairs_shape(self, small_panel):
        with pytest.raises(ValueError, match=r"\(n_pairs, 2\)"):
            ld_pairs(small_panel, np.array([1, 2, 3]))

    def test_rejects_out_of_range(self, small_panel):
        with pytest.raises(ValueError, match="out of range"):
            ld_pairs(small_panel, np.array([[0, 999]]))

    def test_unknown_stat(self, small_panel):
        with pytest.raises(ValueError, match="unknown LD statistic"):
            ld_pairs(small_panel, np.array([[0, 1]]), stat="nope")

    def test_empty_pairs(self, small_panel):
        assert ld_pairs(small_panel, np.empty((0, 2), dtype=int)).size == 0


class TestLDResult:
    def test_lazy_h_computed_once(self, small_panel):
        result = compute_ld(small_panel)
        h1 = result.h
        assert result.h is h1  # cached

    def test_all_statistics_available(self, small_panel):
        result = compute_ld(small_panel)
        ref = reference_ld(small_panel)
        np.testing.assert_allclose(result.d, ref["d"], atol=1e-12)
        assert_allclose_nan(result.r2(), ref["r2"], atol=1e-12)
        assert result.d_prime().shape == ref["r2"].shape
        assert_allclose_nan(result.stat("r2"), ref["r2"], atol=1e-12)

    def test_stat_dispatch_unknown(self, small_panel):
        with pytest.raises(ValueError, match="unknown LD statistic"):
            compute_ld(small_panel).stat("w")

    def test_counts_are_integers(self, small_panel):
        result = compute_ld(small_panel)
        assert result.counts.dtype == np.int64


class TestAsBitmatrix:
    def test_passthrough(self, small_panel):
        bm = BitMatrix.from_dense(small_panel)
        assert as_bitmatrix(bm) is bm

    def test_converts_dense(self, small_panel):
        assert as_bitmatrix(small_panel) == BitMatrix.from_dense(small_panel)
