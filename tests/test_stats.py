"""Tests for the LD statistics (repro.core.stats)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import (
    STATS,
    STRIP_BYTES,
    d_matrix,
    d_prime_matrix,
    ld_chi2_matrix,
    ld_coefficient,
    r_squared,
    r_squared_adjusted,
    r_squared_matrix,
    stat_block,
)
from tests.conftest import assert_allclose_nan, reference_ld


def ld_inputs(dense):
    g = dense.astype(np.float64)
    n = g.shape[0]
    h = (g.T @ g) / n
    p = g.mean(axis=0)
    return h, p


class TestScalarForms:
    def test_ld_coefficient_definition(self):
        assert ld_coefficient(0.5, 0.5, 0.5) == pytest.approx(0.25)
        assert ld_coefficient(0.25, 0.5, 0.5) == pytest.approx(0.0)

    def test_r_squared_perfect_ld(self):
        # P(AB)=P(A)=P(B)=0.5: D=0.25, denom=(0.25)^2 => r2=1.
        assert r_squared(0.5, 0.5, 0.5) == pytest.approx(1.0)

    def test_r_squared_equilibrium(self):
        assert r_squared(0.25, 0.5, 0.5) == pytest.approx(0.0)

    def test_r_squared_monomorphic_is_nan(self):
        assert np.isnan(r_squared(0.0, 0.0, 0.5))
        assert np.isnan(r_squared(1.0, 1.0, 1.0))

    @given(
        p=st.floats(min_value=0.05, max_value=0.95),
        q=st.floats(min_value=0.05, max_value=0.95),
        lam=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_r_squared_bounded(self, p, q, lam):
        """r2 in [0, 1] for any feasible haplotype frequency."""
        lo = max(0.0, p + q - 1.0)
        hi = min(p, q)
        p_ab = lo + lam * (hi - lo)
        value = r_squared(p_ab, p, q)
        assert -1e-9 <= value <= 1.0 + 1e-9


class TestDMatrix:
    def test_matches_reference(self, small_panel):
        h, p = ld_inputs(small_panel)
        expected = reference_ld(small_panel)["d"]
        np.testing.assert_allclose(d_matrix(h, p), expected)

    def test_cross_frequencies(self, rng):
        a = rng.integers(0, 2, size=(50, 4)).astype(float)
        b = rng.integers(0, 2, size=(50, 6)).astype(float)
        h = (a.T @ b) / 50
        d = d_matrix(h, a.mean(0), b.mean(0))
        assert d.shape == (4, 6)
        np.testing.assert_allclose(d, h - np.outer(a.mean(0), b.mean(0)))

    def test_diagonal_is_p_times_one_minus_p(self, small_panel):
        h, p = ld_inputs(small_panel)
        np.testing.assert_allclose(np.diag(d_matrix(h, p)), p * (1 - p))

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="2-D"):
            d_matrix(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match="does not match"):
            d_matrix(np.zeros((2, 2)), np.zeros(3))
        with pytest.raises(ValueError, match="1-D"):
            d_matrix(np.zeros((2, 2)), np.zeros((2, 1)))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            d_matrix(np.zeros((1, 1)), np.array([1.5]))


class TestRSquaredMatrix:
    def test_matches_reference(self, small_panel):
        h, p = ld_inputs(small_panel)
        assert_allclose_nan(
            r_squared_matrix(h, p), reference_ld(small_panel)["r2"]
        )

    def test_diagonal_of_polymorphic_is_one(self, small_panel):
        h, p = ld_inputs(small_panel)
        r2 = r_squared_matrix(h, p)
        poly = (p > 0) & (p < 1)
        np.testing.assert_allclose(np.diag(r2)[poly], 1.0)

    def test_undefined_fill(self):
        dense = np.ones((10, 2), dtype=np.uint8)  # both monomorphic
        h, p = ld_inputs(dense)
        r2 = r_squared_matrix(h, p, undefined=0.0)
        np.testing.assert_array_equal(r2, 0.0)

    def test_peak_memory_is_about_its_output(self):
        """r² of a 2,000² H allocates its output and strips of scratch,
        no whole-matrix temporaries."""
        rng = np.random.default_rng(7)
        n = 2000
        h = rng.integers(0, 101, (n, n)) / 100.0
        p = rng.integers(0, 101, n) / 100.0
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            r2 = r_squared_matrix(h, p)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * r2.nbytes, (peak, r2.nbytes)

    def test_matches_pearson_correlation(self, rng):
        """r2 equals squared Pearson correlation of the allele indicators."""
        dense = rng.integers(0, 2, size=(400, 5)).astype(float)
        h, p = ld_inputs(dense)
        r2 = r_squared_matrix(h, p)
        corr = np.corrcoef(dense.T) ** 2
        np.testing.assert_allclose(r2, corr, atol=1e-12)


def whole_array_stat(values, p, q, stat, n_samples, undefined):
    """The specification :func:`stat_block` must match bit for bit: the
    whole-array expressions it replaced, verbatim."""
    h = values / float(n_samples) if n_samples is not None else values
    if stat == "H":
        return h
    if stat == "D":
        return h - np.outer(p, q)
    d = h - np.outer(p, q)
    denom = np.outer(p * (1.0 - p), q * (1.0 - q))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (d * d) / denom
    np.minimum(ratio, 1.0, out=ratio)
    return np.where(denom > 0.0, ratio, undefined)


@st.composite
def stat_blocks(draw):
    """A block, its frequencies and a destination for :func:`stat_block`.

    Row counts sit on and around strip boundaries (1 row, one strip
    less or more a row, two strips and a bit); frequencies hold exact 0
    and 1, and sometimes a pair whose variance product underflows.
    """
    n = draw(st.sampled_from([1, 2, 7, 64, 513, 1500, 4096]))
    strip_rows = max(1, STRIP_BYTES // (8 * n))
    m = draw(st.sampled_from(
        sorted({1, max(1, strip_rows - 1), strip_rows, strip_rows + 1,
                2 * strip_rows + 3})
    ))
    n_samples = draw(st.integers(min_value=1, max_value=3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.integers(0, n_samples + 1, m) / n_samples
    q = rng.integers(0, n_samples + 1, n) / n_samples
    for vec in (p, q):
        if draw(st.booleans()):
            vec[rng.integers(vec.size)] = 0.0
        if draw(st.booleans()):
            vec[rng.integers(vec.size)] = 1.0
    if draw(st.booleans()):
        p[rng.integers(m)], q[rng.integers(n)] = 5e-324, 1e-170
    counts = draw(st.booleans())
    if counts:
        values = rng.integers(0, n_samples + 1, (m, n))
    else:
        values, n_samples = rng.random((m, n)), None
    destination = draw(st.sampled_from(
        ["fresh", "strided"] + ([] if counts else ["values"])
    ))
    return values, p, q, n_samples, destination


class TestStatBlock:
    @given(
        case=stat_blocks(),
        stat=st.sampled_from(STATS),
        undefined=st.sampled_from([np.nan, 0.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_whole_array_expressions_bit_for_bit(
        self, case, stat, undefined
    ):
        values, p, q, n_samples, destination = case
        m, n = values.shape
        expected = whole_array_stat(values, p, q, stat, n_samples, undefined)
        canvas = np.full((2 * m, n + 3), 7.0)
        out = {
            "fresh": None,
            "strided": canvas[::2, 2 : n + 2],
            "values": values,
        }[destination]
        got = stat_block(
            values, p, q, stat=stat, n_samples=n_samples,
            undefined=undefined, out=out,
        )
        if out is not None:
            assert got is out
        assert got.dtype == np.float64 and got.shape == (m, n)
        np.testing.assert_array_equal(
            got.view(np.uint64), expected.view(np.uint64)
        )
        # A strided destination is written and nothing around it.
        canvas[::2, 2 : n + 2] = 7.0
        assert np.all(canvas == 7.0)

    def test_rejects_unknown_statistic(self):
        with pytest.raises(ValueError, match="unknown LD statistic"):
            stat_block(np.zeros((2, 2)), np.zeros(2), np.zeros(2), stat="Dprime")


class TestRSquaredAdjusted:
    def test_subtracts_null_expectation(self):
        assert r_squared_adjusted(0.5, 100) == pytest.approx(0.49)
        assert r_squared_adjusted(0.005, 100) == 0.0  # clipped at zero

    def test_nan_passthrough(self):
        out = r_squared_adjusted(np.array([np.nan, 0.2]), 50)
        assert np.isnan(out[0]) and out[1] == pytest.approx(0.18)

    def test_null_expectation_calibration(self, rng):
        """On equilibrium data, mean adjusted r² is far below mean raw r²."""
        dense = rng.integers(0, 2, size=(80, 40)).astype(np.uint8)
        h, p = ld_inputs(dense)
        r2 = r_squared_matrix(h, p)
        iu = np.triu_indices(40, k=1)
        raw = np.nanmean(r2[iu])
        adjusted = np.nanmean(r_squared_adjusted(r2[iu], 80))
        assert adjusted < raw / 2

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError, match="n_samples"):
            r_squared_adjusted(0.5, 1)


class TestLdChi2Matrix:
    def test_statistic_and_pvalues(self):
        from scipy import stats as sp_stats

        r2 = np.array([[1.0, 0.1], [0.1, 1.0]])
        chi2, p = ld_chi2_matrix(r2, 50)
        np.testing.assert_allclose(chi2, 50 * r2)
        np.testing.assert_allclose(p, sp_stats.chi2.sf(50 * r2, df=1))

    def test_nan_propagation(self):
        chi2, p = ld_chi2_matrix(np.array([np.nan, 0.5]), 20)
        assert np.isnan(chi2[0]) and np.isnan(p[0])
        assert not np.isnan(p[1])

    def test_null_calibration(self, rng):
        """Equilibrium data: ~5 % of pairs significant at alpha = 0.05."""
        dense = rng.integers(0, 2, size=(200, 60)).astype(np.uint8)
        h, p_vec = ld_inputs(dense)
        r2 = r_squared_matrix(h, p_vec)
        iu = np.triu_indices(60, k=1)
        _chi2, p = ld_chi2_matrix(r2[iu], 200)
        defined = p[~np.isnan(p)]
        assert (defined < 0.05).mean() == pytest.approx(0.05, abs=0.04)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError, match="n_samples"):
            ld_chi2_matrix(np.array([0.5]), 0)


class TestDPrimeMatrix:
    def test_bounds(self, small_panel):
        h, p = ld_inputs(small_panel)
        dp = d_prime_matrix(h, p)
        finite = dp[~np.isnan(dp)]
        assert np.all(finite <= 1.0 + 1e-9)
        assert np.all(finite >= -1.0 - 1e-9)

    def test_diagonal_is_one_for_polymorphic(self, small_panel):
        h, p = ld_inputs(small_panel)
        dp = d_prime_matrix(h, p)
        poly = (p > 0) & (p < 1)
        np.testing.assert_allclose(np.diag(dp)[poly], 1.0)

    def test_monomorphic_pairs_undefined(self):
        dense = np.zeros((8, 2), dtype=np.uint8)
        dense[:, 1] = [0, 1, 0, 1, 0, 1, 0, 1]
        h, p = ld_inputs(dense)
        dp = d_prime_matrix(h, p)
        assert np.isnan(dp[0, 0]) and np.isnan(dp[0, 1])
        assert not np.isnan(dp[1, 1])

    def test_complete_ld_gives_one(self):
        """Two identical SNPs: |D'| = 1."""
        col = np.array([0, 0, 1, 1, 1, 0, 1, 0], dtype=np.uint8)
        dense = np.stack([col, col], axis=1)
        h, p = ld_inputs(dense)
        dp = d_prime_matrix(h, p)
        np.testing.assert_allclose(dp, 1.0)

    def test_opposite_coupling_gives_minus_one(self):
        col = np.array([0, 0, 1, 1, 1, 0, 1, 0], dtype=np.uint8)
        dense = np.stack([col, 1 - col], axis=1)
        h, p = ld_inputs(dense)
        dp = d_prime_matrix(h, p)
        assert dp[0, 1] == pytest.approx(-1.0)

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20)
    def test_sign_matches_d(self, seed):
        rng = np.random.default_rng(seed)
        dense = rng.integers(0, 2, size=(60, 6)).astype(np.uint8)
        h, p = ld_inputs(dense)
        d = d_matrix(h, p)
        dp = d_prime_matrix(h, p)
        strong = ~np.isnan(dp) & (np.abs(d) > 1e-12)
        np.testing.assert_array_equal(np.sign(dp[strong]), np.sign(d[strong]))
        weak = ~np.isnan(dp) & (np.abs(d) <= 1e-12)
        np.testing.assert_allclose(dp[weak], 0.0, atol=1e-9)
