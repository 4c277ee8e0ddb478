"""Differential test harness: every r² execution path must agree exactly.

One seeded generator produces panels across awkward shapes (sample counts
off 64-bit word boundaries, monomorphic all-zero/all-one columns, more
SNPs than samples and vice versa), and every implementation in the repo —
the naive Section II-B baseline, the blocked Gram and cross GEMMs under
every registered kernel (the fused macro-kernel and both legacy
micro-kernels) at the default and at a small blocking, the streaming
loop, and all three sharded-engine executors — is required to reproduce
the same r² matrix to float64 round-off.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.naive import naive_ld_matrix
from repro.core.blocking import BlockingParams
from repro.core.engine import run_engine
from repro.core.ldmatrix import compute_ld, ld_cross, ld_matrix
from repro.core.gemm import GEMM_KERNELS
from repro.core.microkernel import MICRO_KERNELS
from repro.core.streaming import stream_ld_blocks

from tests.conftest import assert_allclose_nan, reference_ld

#: (n_samples, n_snps) grid: word-aligned and non-aligned sample counts,
#: tall/square/wide SNP panels, and single-word/single-SNP degenerates.
SHAPES = [
    (64, 20),    # exactly one packed word
    (128, 10),   # two exact words
    (1, 6),      # single sample
    (3, 17),     # far below one word
    (63, 24),    # one bit short of a word
    (65, 24),    # one bit past a word
    (90, 41),    # generic non-aligned
    (130, 33),   # two words + fringe bits
    (37, 64),    # more SNPs than samples
    (200, 7),    # deep thin panel
    (70, 1),     # single SNP
    (31, 90),    # wide panel, partial word
]

#: Small enough that popcount_gram's above-diagonal block skip (on panels
#: wider than 16 SNPs), its per-word k-chunk loop and its in-place mirror
#: run under compute_ld.
SMALL = BlockingParams(mc=16, nc=16, kc=1, mr=8, nr=8)


def make_panel(n_samples: int, n_snps: int, seed: int) -> np.ndarray:
    """Seeded binary panel with forced monomorphic edge columns."""
    rng = np.random.default_rng(0xD1FF + seed)
    dense = rng.integers(0, 2, size=(n_samples, n_snps)).astype(np.uint8)
    # Plant an all-zero and (when room allows) an all-one column: their r²
    # rows are entirely undefined, the NaN pattern every path must share.
    dense[:, 0] = 0
    if n_snps > 2:
        dense[:, n_snps // 2] = 1
    return dense


def reference_r2(dense: np.ndarray) -> np.ndarray:
    return reference_ld(dense)["r2"]


@pytest.fixture(params=range(len(SHAPES)), ids=lambda i: f"{SHAPES[i]}")
def case(request) -> tuple[np.ndarray, np.ndarray]:
    n_samples, n_snps = SHAPES[request.param]
    dense = make_panel(n_samples, n_snps, seed=request.param)
    return dense, reference_r2(dense)


class TestDifferentialR2:
    def test_naive_matches_reference(self, case):
        dense, expected = case
        assert_allclose_nan(naive_ld_matrix(dense), expected, atol=1e-12)

    @pytest.mark.parametrize("kernel", sorted(GEMM_KERNELS))
    def test_every_micro_kernel(self, case, kernel):
        dense, expected = case
        for params in (None, SMALL):
            result = compute_ld(dense, kernel=kernel, params=params)
            assert_allclose_nan(result.r2(), expected, atol=1e-12)

    def test_streaming_blocks(self, case):
        dense, expected = case
        n = dense.shape[1]
        assembled = np.full((n, n), np.nan)

        def sink(i0, j0, block):
            assembled[i0 : i0 + block.shape[0], j0 : j0 + block.shape[1]] = block

        stream_ld_blocks(dense, sink, stat="r2", block_snps=5)
        il = np.tril_indices(n)
        assert_allclose_nan(assembled[il], expected[il], atol=1e-12)

    @pytest.mark.parametrize("engine", ["serial", "threads", "persistent"])
    @pytest.mark.parametrize("kernel", sorted(GEMM_KERNELS))
    def test_kernel_engine_cross_product(self, kernel, engine):
        """Every micro-kernel under every executor, one awkward shape."""
        dense = make_panel(70, 23, seed=1234)
        expected = reference_r2(dense)
        assembled = np.full((23, 23), np.nan)

        def sink(i0, j0, block):
            assembled[i0 : i0 + block.shape[0], j0 : j0 + block.shape[1]] = block

        run_engine(
            dense, sink, engine=engine, kernel=kernel, block_snps=6,
            n_workers=2,
        )
        il = np.tril_indices(23)
        assert_allclose_nan(assembled[il], expected[il], atol=1e-12)

    @pytest.mark.parametrize("engine", ["serial", "threads", "persistent"])
    def test_engine_executors(self, case, engine):
        dense, expected = case
        n = dense.shape[1]
        assembled = np.full((n, n), np.nan)

        def sink(i0, j0, block):
            assembled[i0 : i0 + block.shape[0], j0 : j0 + block.shape[1]] = block

        report = run_engine(
            dense, sink, engine=engine, block_snps=7, n_workers=2
        )
        assert report.complete and report.n_computed == report.n_tiles
        il = np.tril_indices(n)
        assert_allclose_nan(assembled[il], expected[il], atol=1e-12)


def test_all_paths_bit_identical_to_each_other():
    """The GEMM-family paths must agree bit-for-bit, not merely closely.

    All of them reduce to the same int64 counts and the same float64
    normalization expressions, so equality is exact, NaNs included. (The
    naive baseline normalizes with a reciprocal multiply as the pseudocode
    writes it, so it is compared within round-off above, not here.)
    """
    dense = make_panel(101, 29, seed=99)
    baseline = ld_matrix(dense)
    il = np.tril_indices(29)

    results = {}
    for kernel in GEMM_KERNELS:
        results[f"kernel:{kernel}"] = ld_matrix(dense, kernel=kernel)[il]
    results["gram:small-blocking"] = ld_matrix(dense, params=SMALL)[il]
    results["cross"] = ld_cross(dense, dense)[il]
    assembled = np.full((29, 29), np.nan)

    def sink(i0, j0, block):
        assembled[i0 : i0 + block.shape[0], j0 : j0 + block.shape[1]] = block

    stream_ld_blocks(dense, sink, block_snps=6)
    results["streaming"] = assembled[il]
    for engine in ("serial", "threads", "persistent"):
        tiled = np.full((29, 29), np.nan)

        def esink(i0, j0, block):
            tiled[i0 : i0 + block.shape[0], j0 : j0 + block.shape[1]] = block

        run_engine(dense, esink, engine=engine, block_snps=6, n_workers=2)
        results[f"engine:{engine}"] = tiled[il]

    for name, values in results.items():
        np.testing.assert_array_equal(values, baseline[il], err_msg=name)
