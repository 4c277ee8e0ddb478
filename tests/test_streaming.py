"""Tests for out-of-core streaming LD (repro.core.streaming)."""

import numpy as np
import pytest

from repro.core.ldmatrix import ld_matrix
from repro.core.streaming import (
    NpyMemmapSink,
    ThresholdCollector,
    stream_ld_blocks,
)


@pytest.fixture
def panel(rng):
    return rng.integers(0, 2, size=(80, 37)).astype(np.uint8)


class TestStreamLdBlocks:
    @pytest.mark.parametrize("block_snps", [5, 16, 37, 100])
    @pytest.mark.parametrize("stat", ["r2", "D", "H"])
    def test_blocks_reassemble_full_matrix(self, panel, block_snps, stat):
        n = panel.shape[1]
        assembled = np.full((n, n), np.nan)

        def sink(i0, j0, block):
            assembled[i0 : i0 + block.shape[0], j0 : j0 + block.shape[1]] = block

        delivered = stream_ld_blocks(
            panel, sink, stat=stat, block_snps=block_snps
        )
        full = ld_matrix(panel, stat=stat)
        il = np.tril_indices(n)
        np.testing.assert_allclose(
            np.nan_to_num(assembled[il]), np.nan_to_num(full[il]), atol=1e-12
        )
        n_blocks = -(-n // block_snps)
        assert delivered == n_blocks * (n_blocks + 1) // 2

    def test_validation(self, panel):
        with pytest.raises(ValueError, match="unknown LD statistic"):
            stream_ld_blocks(panel, lambda *a: None, stat="Dprime")
        with pytest.raises(ValueError, match="block_snps"):
            stream_ld_blocks(panel, lambda *a: None, block_snps=0)


class TestNpyMemmapSink:
    def test_full_matrix_on_disk(self, panel, tmp_path):
        n = panel.shape[1]
        path = tmp_path / "ld.npy"
        sink = NpyMemmapSink(path, n)
        stream_ld_blocks(panel, sink, stat="r2", block_snps=8, undefined=0.0)
        sink.close()
        on_disk = np.load(path)
        full = ld_matrix(panel, undefined=0.0)
        np.testing.assert_allclose(on_disk, full, atol=1e-12)
        # Symmetric including mirrored diagonal blocks.
        np.testing.assert_allclose(on_disk, on_disk.T)

    def test_rejects_bad_size(self, tmp_path):
        with pytest.raises(ValueError, match="positive"):
            NpyMemmapSink(tmp_path / "x.npy", 0)

    def test_context_manager_flushes_deterministically(self, panel, tmp_path):
        """Regression: blocks must be on disk the moment the sink closes.

        The old sink relied on the memmap finalizer running at garbage
        collection, so a resumed run reopening the file could read stale
        tiles; `with` + explicit flush/close makes durability deterministic.
        """
        n = panel.shape[1]
        path = tmp_path / "ld.npy"
        with NpyMemmapSink(path, n) as sink:
            stream_ld_blocks(panel, sink, block_snps=8, undefined=0.0)
            sink.flush()
            # Readable mid-run by an independent open, without closing.
            np.testing.assert_allclose(
                np.load(path, mmap_mode="r"),
                ld_matrix(panel, undefined=0.0),
                atol=1e-12,
            )
        assert sink._memmap is None  # released, not waiting on GC
        np.testing.assert_allclose(
            np.load(path), ld_matrix(panel, undefined=0.0), atol=1e-12
        )

    def test_close_is_idempotent_and_write_after_close_fails(
        self, panel, tmp_path
    ):
        sink = NpyMemmapSink(tmp_path / "ld.npy", panel.shape[1])
        sink.close()
        sink.close()
        sink.flush()  # no-op after close
        with pytest.raises(ValueError, match="closed"):
            sink(0, 0, np.zeros((2, 2)))

    def test_reopen_mode_preserves_existing_tiles(self, panel, tmp_path):
        """`mode="r+"` reopens in place — the resume path's requirement."""
        n = panel.shape[1]
        path = tmp_path / "ld.npy"
        with NpyMemmapSink(path, n) as sink:
            stream_ld_blocks(panel, sink, block_snps=8, undefined=0.0)
        before = np.load(path).copy()
        with NpyMemmapSink(path, n, mode="r+") as sink:
            pass  # write nothing: reopening must not truncate
        np.testing.assert_array_equal(np.load(path), before)

    def test_reopen_rejects_shape_mismatch(self, panel, tmp_path):
        path = tmp_path / "ld.npy"
        with NpyMemmapSink(path, 10):
            pass
        with pytest.raises(ValueError, match="shape"):
            NpyMemmapSink(path, 12, mode="r+")

    def test_reopen_shape_mismatch_message_is_actionable(self, tmp_path):
        """Regression: the r+ error must name both shapes and a way out."""
        path = tmp_path / "ld.npy"
        with NpyMemmapSink(path, 10):
            pass
        with pytest.raises(ValueError) as excinfo:
            NpyMemmapSink(path, 12, mode="r+")
        message = str(excinfo.value)
        assert "(10, 10)" in message and "(12, 12)" in message
        assert "rerun without resume" in message

    def test_reopen_rejects_missing_file(self, tmp_path):
        """Regression: r+ on a nonexistent path must not silently create it."""
        path = tmp_path / "never_written.npy"
        with pytest.raises(ValueError, match="does not exist"):
            NpyMemmapSink(path, 8, mode="r+")
        assert not path.exists()

    def test_reopen_rejects_wrong_dtype(self, tmp_path):
        path = tmp_path / "ld.npy"
        np.save(path, np.zeros((6, 6), dtype=np.float32))
        with pytest.raises(ValueError, match="float64"):
            NpyMemmapSink(path, 6, mode="r+")

    def test_reopen_rejects_non_npy_file(self, tmp_path):
        path = tmp_path / "ld.npy"
        path.write_bytes(b"this is not a numpy file")
        with pytest.raises(ValueError, match="not a readable .npy file"):
            NpyMemmapSink(path, 6, mode="r+")

    def test_reopen_rejects_fortran_order(self, tmp_path):
        path = tmp_path / "ld.npy"
        np.save(path, np.asfortranarray(np.zeros((6, 6))))
        with pytest.raises(ValueError, match="Fortran"):
            NpyMemmapSink(path, 6, mode="r+")

    def test_rejects_unknown_mode(self, tmp_path):
        with pytest.raises(ValueError, match="mode"):
            NpyMemmapSink(tmp_path / "x.npy", 5, mode="a+")


class TestThresholdCollector:
    def test_collects_each_pair_once(self, panel):
        collector = ThresholdCollector(threshold=0.2)
        stream_ld_blocks(
            panel, collector, stat="r2", block_snps=7, undefined=0.0
        )
        full = ld_matrix(panel, undefined=0.0)
        il = np.tril_indices(panel.shape[1], k=-1)
        expected = {
            (int(i), int(j))
            for i, j in zip(*il)
            if full[i, j] >= 0.2
        }
        got = {(i, j) for i, j, _v in collector.pairs}
        assert got == expected
        assert len(collector.pairs) == len(got)  # no duplicates

    def test_values_match_matrix(self, panel):
        collector = ThresholdCollector(threshold=0.1)
        stream_ld_blocks(panel, collector, block_snps=9, undefined=0.0)
        full = ld_matrix(panel, undefined=0.0)
        for i, j, value in collector.pairs:
            assert value == pytest.approx(full[i, j], abs=1e-12)

    def test_no_self_pairs(self, panel):
        collector = ThresholdCollector(threshold=0.0)
        stream_ld_blocks(panel, collector, block_snps=6, undefined=0.0)
        assert all(i != j for i, j, _v in collector.pairs)

    def test_redelivery_is_idempotent(self, panel):
        """Regression: a re-delivered tile must not duplicate its pairs.

        The engine's retry/resume machinery can deliver the same tile
        more than once (a retried batch, a torn-manifest replay). The
        old list-append collector accumulated a duplicate ``(i, j, v)``
        triple per redelivery; keyed-by-tile storage makes delivery
        idempotent.
        """
        collector = ThresholdCollector(threshold=0.1)
        stream_ld_blocks(panel, collector, block_snps=9, undefined=0.0)
        before = collector.pairs
        full = ld_matrix(panel, undefined=0.0)
        # Redeliver two tiles (one diagonal, one off-diagonal), twice.
        for _ in range(2):
            collector(0, 0, full[0:9, 0:9])
            collector(18, 9, full[18:27, 9:18])
        assert collector.pairs == before

    def test_pairs_order_is_deterministic(self, panel):
        """Tile-keyed assembly must equal serial streaming order even
        when tiles arrive shuffled (parallel engines deliver on finish)."""
        serial = ThresholdCollector(threshold=0.1)
        stream_ld_blocks(panel, serial, block_snps=9, undefined=0.0)
        shuffled = ThresholdCollector(threshold=0.1)
        deliveries = []
        stream_ld_blocks(
            panel,
            lambda i0, j0, b: deliveries.append((i0, j0, b.copy())),
            block_snps=9,
            undefined=0.0,
        )
        for i0, j0, block in reversed(deliveries):
            shuffled(i0, j0, block)
        assert shuffled.pairs == serial.pairs

    def test_pairs_are_python_scalars(self, panel):
        collector = ThresholdCollector(threshold=0.1)
        stream_ld_blocks(panel, collector, block_snps=9, undefined=0.0)
        assert collector.pairs
        for i, j, value in collector.pairs:
            assert type(i) is int and type(j) is int
            assert type(value) is float


class TestDiagonalMirror:
    def test_masked_mirror_matches_tril_reference(self, rng, tmp_path):
        """Regression: the index-free diagonal mirror is bit-identical to
        the old ``tril_indices`` fancy-indexed assignment."""
        for size in (1, 2, 7, 16):
            block = rng.random((size, size))
            with NpyMemmapSink(tmp_path / f"new{size}.npy", size) as sink:
                sink(0, 0, block)
                got = np.array(sink._memmap)
            # The historical implementation, verbatim.
            ref = np.zeros((size, size))
            ref[0:size, 0:size] = block
            il = np.tril_indices(size, k=-1)
            ref[0 + il[1], 0 + il[0]] = block[il]
            np.testing.assert_array_equal(got, ref)
