"""Tests for GotoBLAS-style operand packing (repro.core.packing)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.packing import (
    micropanel_a,
    micropanel_b,
    pack_block_a,
    pack_panel_b,
)

WORDS = hnp.arrays(
    dtype=np.uint64,
    shape=st.tuples(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=40),
    ),
    elements=st.integers(min_value=0, max_value=2**64 - 1),
)


class TestPackBlockA:
    @given(a=WORDS, mr=st.sampled_from([1, 2, 4, 8]))
    @settings(max_examples=40)
    def test_contents_and_padding(self, a, mr):
        m, k = a.shape
        packed = pack_block_a(a, mr)
        n_slivers = (m + mr - 1) // mr
        assert packed.shape == (n_slivers, k, mr)
        for s in range(n_slivers):
            rows = a[s * mr : (s + 1) * mr]
            np.testing.assert_array_equal(packed[s, :, : rows.shape[0]], rows.T)
            # Fringe padding is zero (inert under AND/POPCNT).
            np.testing.assert_array_equal(
                packed[s, :, rows.shape[0] :], 0
            )

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError, match="2-D"):
            pack_block_a(np.zeros(4, dtype=np.uint64), 2)

    def test_micropanel_view(self):
        a = np.arange(12, dtype=np.uint64).reshape(6, 2)
        packed = pack_block_a(a, 2)
        np.testing.assert_array_equal(micropanel_a(packed, 1), a[2:4].T)


class TestPackPanelB:
    @given(b=WORDS, nr=st.sampled_from([1, 2, 4, 8]))
    @settings(max_examples=40)
    def test_contents_and_padding(self, b, nr):
        k, n = b.shape
        packed = pack_panel_b(b, nr)
        n_slivers = (n + nr - 1) // nr
        assert packed.shape == (n_slivers, k, nr)
        for s in range(n_slivers):
            cols = b[:, s * nr : (s + 1) * nr]
            np.testing.assert_array_equal(packed[s, :, : cols.shape[1]], cols)
            np.testing.assert_array_equal(packed[s, :, cols.shape[1] :], 0)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError, match="2-D"):
            pack_panel_b(np.zeros(4, dtype=np.uint64), 2)

    def test_micropanel_view(self):
        b = np.arange(12, dtype=np.uint64).reshape(2, 6)
        packed = pack_panel_b(b, 4)
        np.testing.assert_array_equal(micropanel_b(packed, 0), b[:, :4])


class TestPackInto:
    """The contiguous single-sliver B skip."""

    def test_contiguous_single_sliver_b_is_a_view(self):
        # A full-width contiguous panel is already in micro-panel order:
        # no copy, the result aliases the input.
        b = np.arange(24, dtype=np.uint64).reshape(6, 4)
        packed = pack_panel_b(b, 4)
        assert np.shares_memory(packed, b)
        np.testing.assert_array_equal(packed[0], b)

    def test_strided_single_sliver_b_is_copied(self):
        # A non-contiguous slice must take the copy path.
        wide = np.arange(48, dtype=np.uint64).reshape(6, 8)
        b = wide[:, ::2]  # strided view, 4 columns
        packed = pack_panel_b(b, 4)
        assert not np.shares_memory(packed, b)
        np.testing.assert_array_equal(packed[0], b)
