"""Property-based invariance tests for the LD pipeline.

These pin down mathematical invariances of LD that any correct
implementation must satisfy, independent of the reference comparison:

- sample-permutation invariance (LD is a set statistic over samples);
- allele-relabeling invariance of r² (swapping ancestral/derived at any
  SNP cannot change squared correlation);
- duplicated SNPs are in complete LD (r² = 1);
- r² lies in [0, 1] wherever defined — exactly, on every entry point —
  and equals the caller's ``undefined`` on pairs with a monomorphic SNP;
- blocked GEMM is exact integer arithmetic: results are identical for any
  blocking parameters and any kernel.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocking import BlockingParams
from repro.core.engine import TileTask, compute_tile
from repro.core.gemm import popcount_gemm
from repro.core.ldmatrix import as_bitmatrix, ld_matrix, ld_pairs
from repro.encoding.bitmatrix import pack_bits

PANEL = st.tuples(
    st.integers(min_value=3, max_value=120),
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=2**31),
).map(
    lambda args: np.random.default_rng(args[2]).integers(
        0, 2, size=(args[0], args[1])
    ).astype(np.uint8)
)

BLOCKINGS = st.tuples(
    st.sampled_from([1, 2, 3, 4]),   # mr
    st.sampled_from([1, 2, 3, 4]),   # nr
    st.integers(min_value=1, max_value=4),  # mc multiplier
    st.integers(min_value=1, max_value=4),  # nc multiplier
    st.integers(min_value=1, max_value=8),  # kc
).map(
    lambda t: BlockingParams(
        mc=t[0] * t[2], nc=t[1] * t[3], kc=t[4], mr=t[0], nr=t[1]
    )
)


@given(panel=PANEL, seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=30, deadline=None)
def test_sample_permutation_invariance(panel, seed):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(panel.shape[0])
    a = ld_matrix(panel, undefined=-1.0)
    b = ld_matrix(panel[perm], undefined=-1.0)
    np.testing.assert_allclose(a, b, atol=1e-12)


@given(panel=PANEL, seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=30, deadline=None)
def test_allele_relabeling_invariance_of_r2(panel, seed):
    rng = np.random.default_rng(seed)
    flip = rng.integers(0, 2, size=panel.shape[1]).astype(np.uint8)
    relabeled = panel ^ flip[None, :]
    a = ld_matrix(panel, undefined=-1.0)
    b = ld_matrix(relabeled, undefined=-1.0)
    np.testing.assert_allclose(a, b, atol=1e-9)


@given(panel=PANEL)
@settings(max_examples=30, deadline=None)
def test_duplicated_snp_in_complete_ld(panel):
    doubled = np.concatenate([panel, panel[:, :1]], axis=1)
    r2 = ld_matrix(doubled)
    counts = panel[:, 0].sum()
    if 0 < counts < panel.shape[0]:  # polymorphic
        np.testing.assert_allclose(r2[0, -1], 1.0, atol=1e-9)
    else:
        assert np.isnan(r2[0, -1])


@given(panel=PANEL)
@settings(max_examples=30, deadline=None)
def test_r2_bounds(panel):
    r2 = ld_matrix(panel)
    finite = r2[~np.isnan(r2)]
    assert np.all(finite >= -1e-12)
    assert np.all(finite <= 1.0 + 1e-9)


@given(
    panel=PANEL,
    mono_seed=st.integers(min_value=0, max_value=2**31),
    undefined=st.sampled_from([-1.0, 7.0]),
)
@settings(max_examples=50, deadline=None)
def test_r2_in_unit_interval_on_every_entry_point(panel, mono_seed, undefined):
    """No rounding above 1 (perfectly linked pairs, the diagonal above
    all) and no value below 0 from ld_matrix, compute_tile or ld_pairs;
    pairs touching a monomorphic SNP are exactly *undefined*."""
    rng = np.random.default_rng(mono_seed)
    panel = panel.copy()
    mono = rng.random(panel.shape[1]) < 0.3
    panel[:, mono] = rng.integers(0, 2, size=int(mono.sum()), dtype=np.uint8)
    n = panel.shape[1]
    counts = panel.sum(axis=0)
    polymorphic = (counts > 0) & (counts < panel.shape[0])
    defined = np.outer(polymorphic, polymorphic)

    matrix = as_bitmatrix(panel)
    tile = compute_tile(
        matrix.words, matrix.allele_frequencies(), matrix.n_samples,
        TileTask(0, n, 0, n), undefined=undefined,
    )
    ii, jj = np.tril_indices(n)
    pairs = ld_pairs(panel, np.column_stack([ii, jj]), undefined=undefined)
    for values, mask in (
        (ld_matrix(panel, undefined=undefined), defined),
        (tile, defined),
        (pairs, defined[ii, jj]),
    ):
        assert np.all(values[mask] >= 0.0)
        assert np.all(values[mask] <= 1.0)
        assert np.all(values[~mask] == undefined)


@given(panel=PANEL)
@settings(max_examples=30, deadline=None)
def test_symmetry(panel):
    r2 = np.nan_to_num(ld_matrix(panel), nan=-1.0)
    np.testing.assert_allclose(r2, r2.T, atol=1e-12)


@given(panel=PANEL, params=BLOCKINGS)
@settings(max_examples=30, deadline=None)
def test_blocking_invariance(panel, params):
    """Any blocking produces bit-identical counts (integer arithmetic)."""
    words = pack_bits(panel)
    baseline = popcount_gemm(words, words)
    np.testing.assert_array_equal(
        popcount_gemm(words, words, params=params), baseline
    )


@given(panel=PANEL)
@settings(max_examples=10, deadline=None)
def test_kernel_invariance(panel):
    """Scalar reference kernel and numpy kernel are bit-identical."""
    words = pack_bits(panel)
    params = BlockingParams(mc=4, nc=4, kc=2, mr=2, nr=2)
    np.testing.assert_array_equal(
        popcount_gemm(words, words, params=params, kernel="scalar"),
        popcount_gemm(words, words, params=params, kernel="numpy"),
    )


@given(panel=PANEL)
@settings(max_examples=30, deadline=None)
def test_subsetting_consistency(panel):
    """LD of a SNP subset equals the corresponding submatrix."""
    full = ld_matrix(panel, undefined=-1.0)
    half = panel.shape[1] // 2
    sub = ld_matrix(panel[:, :half], undefined=-1.0) if half >= 1 else None
    if sub is not None:
        np.testing.assert_allclose(sub, full[:half, :half], atol=1e-12)
