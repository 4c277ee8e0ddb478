"""Differential battery for the band-aware tiled engine.

The band contract: ``run_engine(band=...)`` must deliver every in-band
pair bit-identically to a dense run's band slice — on every executor,
in-core and out-of-core, through crashes and resumes — while never
enumerating tiles that lie entirely outside the band. The oracle is the
single-call :func:`repro.core.ldmatrix.ld_matrix` path (a different code
path end to end), compared exactly on power-of-two sample counts where
``counts / n`` admits no rounding slack.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.banding import (
    BandSpec,
    dense_pair_cells,
    dense_tile_count,
    genomic_index_width,
)
from repro.core.engine import (
    ENGINES,
    enumerate_tiles,
    run_engine,
)
from repro.core.executors import stop_pools
from repro.core.ldmatrix import ld_matrix
from repro.core.prefetch import min_memory_budget
from repro.core.streaming import BandedNpySink, NpyMemmapSink
from repro.core.windowed import banded_ld, write_banded_block
from repro.encoding.bitmatrix import BitMatrix
from repro.faults import FaultPlan, FaultSpec, InjectedCrash
from repro.io.panelstore import pack_panel
from repro.observe import MetricsRecorder, ProgressReporter

#: Power-of-two sample count: ``counts / n`` is exact, so every code
#: path computing the same statistic must agree to the last bit.
N_SAMPLES = 64
N_SNPS = 120
WINDOW = 15
BLOCK = 8


@pytest.fixture(scope="module")
def dense_panel():
    rng = np.random.default_rng(0xBA2D)
    return rng.integers(0, 2, size=(N_SAMPLES, N_SNPS)).astype(np.uint8)


@pytest.fixture(scope="module")
def packed(dense_panel):
    return BitMatrix.from_dense(dense_panel)


@pytest.fixture(scope="module")
def dense_band(packed, tmp_path_factory):
    """Band slice of a dense serial engine run (the engine-side reference)."""
    path = tmp_path_factory.mktemp("band-ref") / "dense.npy"
    with NpyMemmapSink(path, N_SNPS) as sink:
        report = run_engine(packed, sink, engine="serial", block_snps=BLOCK)
    assert report.complete and report.n_pruned == 0 and report.band_pairs == 0
    full = np.load(path)
    values = np.full((N_SNPS, WINDOW + 1), np.nan)
    for i in range(N_SNPS):
        for d in range(min(WINDOW, N_SNPS - 1 - i) + 1):
            values[i, d] = full[i + d, i]
    return values


def _banded_values(panel, *, engine="serial", window=WINDOW, block=BLOCK,
                   n_snps=None, **kwargs):
    n = n_snps if n_snps is not None else panel.n_snps
    values = np.full((n, window + 1), np.nan)
    report = run_engine(
        panel,
        lambda i0, j0, blk: write_banded_block(values, window, i0, j0, blk),
        engine=engine, block_snps=block, band=window, **kwargs,
    )
    return values, report


class TestBandGeometry:
    def test_enumeration_skips_exactly_the_outside_tiles(self):
        band = BandSpec(window=WINDOW)
        tiles = enumerate_tiles(N_SNPS, BLOCK, band=band)
        assert all(band.classify(t) != "outside" for t in tiles)
        dense = enumerate_tiles(N_SNPS, BLOCK)
        skipped = {(t.i0, t.j0) for t in dense} - {(t.i0, t.j0) for t in tiles}
        by_key = {(t.i0, t.j0): t for t in dense}
        assert skipped and all(
            band.classify(by_key[key]) == "outside" for key in skipped
        )
        assert len(tiles) == dense_tile_count(N_SNPS, BLOCK) - len(skipped)

    def test_every_in_band_pair_is_covered_exactly_once(self):
        band = BandSpec(window=WINDOW)
        tiles = enumerate_tiles(N_SNPS, BLOCK, band=band)
        covered = np.zeros((N_SNPS, N_SNPS), dtype=int)
        for t in tiles:
            mask = band.mask(t)
            covered[t.i0:t.i1, t.j0:t.j1] += mask.astype(int)
        for i in range(N_SNPS):
            for j in range(i + 1):
                expected = 1 if i - j <= WINDOW else 0
                assert covered[i, j] == expected, (i, j)

    @pytest.mark.parametrize("window", [1, 7, 64, 119, 400])
    def test_classify_and_mask_match_brute_force(self, window):
        band = BandSpec(window=window)
        for tile in enumerate_tiles(N_SNPS, 17, band=band):
            rows = np.arange(tile.i0, tile.i1)[:, None]
            cols = np.arange(tile.j0, tile.j1)[None, :]
            brute = np.abs(rows - cols) <= window
            lower = rows >= cols
            kind = band.classify(tile)
            if kind == "full":
                assert (brute | ~lower).all()
            else:
                assert kind == "partial"
                assert not brute[lower].all()
            np.testing.assert_array_equal(band.mask(tile), brute)
            assert band.pairs_in(tile) == int(brute.sum())

    def test_genomic_classify_and_mask_match_brute_force(self):
        rng = np.random.default_rng(11)
        positions = np.sort(rng.uniform(0, 5e4, size=N_SNPS))
        dist = 2500.0
        band = BandSpec(max_distance=dist, positions=positions)
        tiles = enumerate_tiles(N_SNPS, 17, band=band)
        assert len(tiles) < dense_tile_count(N_SNPS, 17)
        for tile in tiles:
            rows = positions[tile.i0:tile.i1][:, None]
            cols = positions[tile.j0:tile.j1][None, :]
            brute = np.abs(rows - cols) <= dist
            np.testing.assert_array_equal(band.mask(tile), brute)
        width = band.index_width(N_SNPS)
        assert width == genomic_index_width(positions, dist)
        gaps = [
            i - j
            for i in range(N_SNPS)
            for j in range(i + 1)
            if positions[i] - positions[j] <= dist
        ]
        assert width == max(gaps)

    def test_dense_pair_cells_matches_enumeration(self):
        tiles = enumerate_tiles(N_SNPS, BLOCK)
        assert dense_pair_cells(N_SNPS, BLOCK) == sum(t.n_pairs for t in tiles)


class TestBandedCorrectness:
    def test_wrapper_matches_oracle_bitwise(self, dense_panel, packed):
        """banded_ld == the single-call ld_matrix band, to the last bit."""
        band = banded_ld(dense_panel, window=WINDOW, block_snps=BLOCK)
        full = ld_matrix(packed)
        for i in range(N_SNPS):
            for d in range(min(WINDOW, N_SNPS - 1 - i) + 1):
                a, b = band.values[i, d], full[i, i + d]
                assert (np.isnan(a) and np.isnan(b)) or a == b, (i, d)

    def test_wrapper_matches_dense_engine_band(self, packed, dense_band):
        band = banded_ld(packed, window=WINDOW, block_snps=BLOCK)
        np.testing.assert_array_equal(band.values, dense_band)

    @pytest.mark.parametrize("stat", ["r2", "D", "H"])
    def test_stats_match_dense_engine_band(self, packed, stat):
        """Each statistic's banded run equals its dense band slice."""
        dense = np.full((N_SNPS, N_SNPS), np.nan)

        def sink(i0, j0, blk):
            dense[i0:i0 + blk.shape[0], j0:j0 + blk.shape[1]] = blk

        report = run_engine(packed, sink, stat=stat, engine="serial",
                            block_snps=BLOCK)
        assert report.complete
        band = banded_ld(packed, window=WINDOW, stat=stat, block_snps=BLOCK)
        for i in range(N_SNPS):
            for d in range(min(WINDOW, N_SNPS - 1 - i) + 1):
                a, b = band.values[i, d], dense[i + d, i]
                assert (np.isnan(a) and np.isnan(b)) or a == b, (i, d)

    def test_outside_band_is_undefined(self, packed):
        values, report = _banded_values(packed)
        assert report.complete
        for i in range(N_SNPS):
            past_end = np.arange(WINDOW + 1) + i >= N_SNPS
            assert np.all(np.isnan(values[i, past_end]))
        # A window+1 store of a window-W run keeps the extra diagonal NaN.
        wide, _ = _banded_values(packed, window=WINDOW)
        store = np.full((N_SNPS, WINDOW + 2), np.nan)
        run_engine(
            packed,
            lambda i0, j0, blk: write_banded_block(
                store, WINDOW + 1, i0, j0, blk
            ),
            engine="serial", block_snps=BLOCK, band=WINDOW,
        )
        assert np.all(np.isnan(store[: N_SNPS - WINDOW - 1, WINDOW + 1]))

    def test_report_band_accounting(self, packed):
        band = BandSpec(window=WINDOW)
        tiles = enumerate_tiles(N_SNPS, BLOCK, band=band)
        recorder = MetricsRecorder()
        values, report = _banded_values(packed, recorder=recorder)
        assert report.n_tiles == len(tiles)
        assert report.n_pruned == dense_tile_count(N_SNPS, BLOCK) - len(tiles)
        assert report.n_pruned > 0
        assert report.n_partial == sum(
            1 for t in tiles if band.classify(t) == "partial"
        )
        assert report.band_pairs == sum(band.pairs_in(t) for t in tiles)
        assert recorder.counters["engine.tiles_pruned"] == report.n_pruned

    def test_genomic_band_matches_dense_slice(self, packed):
        rng = np.random.default_rng(13)
        positions = np.sort(rng.uniform(0, 4e4, size=N_SNPS))
        dist = 3000.0
        band = BandSpec(max_distance=dist, positions=positions)
        width = band.index_width(N_SNPS)
        dense = np.full((N_SNPS, N_SNPS), np.nan)

        def dense_sink(i0, j0, blk):
            dense[i0:i0 + blk.shape[0], j0:j0 + blk.shape[1]] = blk

        run_engine(packed, dense_sink, engine="serial", block_snps=BLOCK)
        values = np.full((N_SNPS, width + 1), np.nan)
        report = run_engine(
            packed,
            lambda i0, j0, blk: write_banded_block(
                values, width, i0, j0, blk
            ),
            engine="serial", block_snps=BLOCK, band=band,
        )
        assert report.complete and report.n_pruned > 0
        for i in range(N_SNPS):
            for d in range(min(width, N_SNPS - 1 - i) + 1):
                a, b = values[i, d], dense[i + d, i]
                if positions[i + d] - positions[i] <= dist:
                    assert (np.isnan(a) and np.isnan(b)) or a == b, (i, d)
                else:
                    assert np.isnan(a), (i, d)


class TestBandedExecutors:
    @pytest.fixture(autouse=True)
    def fresh_pools(self):
        yield
        stop_pools()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_every_executor_matches_dense_band(
        self, packed, dense_band, engine
    ):
        values, report = _banded_values(packed, engine=engine, n_workers=2)
        assert report.complete
        assert report.n_pruned > 0
        np.testing.assert_array_equal(values, dense_band)


class TestBandedAcceptance:
    """The ISSUE's acceptance shape: W = n/8 prunes >= 70% of tiles."""

    N, B, W = 512, 8, 64

    def test_tile_count_is_under_thirty_percent_of_dense(self):
        dense = dense_tile_count(self.N, self.B)
        banded = enumerate_tiles(self.N, self.B, band=BandSpec(window=self.W))
        assert len(banded) <= 0.30 * dense

    def test_all_executors_match_dense_band_slice(self, tmp_path):
        rng = np.random.default_rng(0xACC)
        panel = BitMatrix.from_dense(
            rng.integers(0, 2, size=(64, self.N)).astype(np.uint8)
        )
        out = tmp_path / "dense.npy"
        with NpyMemmapSink(out, self.N) as sink:
            assert run_engine(
                panel, sink, engine="serial", block_snps=self.B
            ).complete
        full = np.load(out)
        reference = np.full((self.N, self.W + 1), np.nan)
        write_banded_block(reference, self.W, 0, 0, full)
        try:
            for engine in ENGINES:
                values, report = _banded_values(
                    panel, engine=engine, window=self.W, block=self.B,
                    n_workers=2,
                )
                assert report.complete
                np.testing.assert_array_equal(values, reference)
        finally:
            stop_pools()


class TestBandedOutOfCore:
    @pytest.fixture(scope="class")
    def store_path(self, tmp_path_factory):
        rng = np.random.default_rng(0x00CB)
        packed = BitMatrix.from_dense(
            (rng.random((96, 700)) < 0.3).astype(np.uint8)
        )
        path = tmp_path_factory.mktemp("banded-store") / "panel.pnl"
        pack_panel(path, packed).close()
        return path, packed

    def test_banded_floor_is_below_dense_floor(self):
        assert min_memory_budget(64, 16, banded=True) < min_memory_budget(
            64, 16
        )

    def test_banded_completes_under_the_dense_floor(self, store_path):
        """A budget the dense planner rejects still runs a banded sweep."""
        path, packed = store_path
        block, window = 64, 96
        row_nbytes = packed.n_words * 8
        budget = int(2.5 * block * row_nbytes)
        assert budget < min_memory_budget(block, row_nbytes)
        with pytest.raises(ValueError, match="memory budget"):
            run_engine(str(path), lambda *a: None, engine="serial",
                       block_snps=block, memory_budget=budget)
        values, report = _banded_values(
            str(path), window=window, block=block, memory_budget=budget,
            n_snps=packed.n_snps,
        )
        assert report.complete and report.n_pruned > 0
        reference = banded_ld(packed, window=window, block_snps=block)
        np.testing.assert_array_equal(values, reference.values)


class TestBandedResume:
    @pytest.mark.usefixtures("instant_retries")
    def test_torn_manifest_then_resume_is_bit_identical(
        self, packed, dense_band, tmp_path
    ):
        plan = FaultPlan(seed=7, specs=(
            FaultSpec(site="manifest_append", action="torn", tile=(56, 48)),
        ))
        out = tmp_path / "band.npy"
        manifest = tmp_path / "band.manifest"
        with pytest.raises(InjectedCrash):
            with BandedNpySink(out, N_SNPS, WINDOW) as sink:
                run_engine(packed, sink, engine="serial", block_snps=BLOCK,
                           band=WINDOW, manifest_path=manifest, faults=plan)
        with BandedNpySink(out, N_SNPS, WINDOW, mode="r+") as sink:
            report = run_engine(packed, sink, engine="serial",
                                block_snps=BLOCK, band=WINDOW,
                                manifest_path=manifest, resume=True)
        assert report.complete
        assert report.n_skipped > 0
        np.testing.assert_array_equal(np.load(out), dense_band)

    @pytest.mark.usefixtures("instant_retries")
    def test_kill_mid_run_then_resume_on_processes(
        self, packed, dense_band, tmp_path
    ):
        plan = FaultPlan(seed=9, specs=(
            FaultSpec(site="manifest_append", action="torn", tile=(40, 40)),
        ))
        out = tmp_path / "band.npy"
        manifest = tmp_path / "band.manifest"
        try:
            with pytest.raises(InjectedCrash):
                with BandedNpySink(out, N_SNPS, WINDOW) as sink:
                    run_engine(packed, sink, engine="persistent", n_workers=2,
                               block_snps=BLOCK, band=WINDOW,
                               manifest_path=manifest, faults=plan)
            with BandedNpySink(out, N_SNPS, WINDOW, mode="r+") as sink:
                report = run_engine(packed, sink, engine="persistent",
                                    n_workers=2, block_snps=BLOCK,
                                    band=WINDOW, manifest_path=manifest,
                                    resume=True)
        finally:
            stop_pools()
        assert report.complete and report.n_skipped > 0
        np.testing.assert_array_equal(np.load(out), dense_band)

    def test_band_change_invalidates_the_manifest(self, packed, tmp_path):
        manifest = tmp_path / "band.manifest"
        _banded_values(packed, manifest_path=manifest)
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            _banded_values(packed, window=WINDOW + 1,
                           manifest_path=manifest, resume=True)
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            run_engine(packed, lambda *a: None, engine="serial",
                       block_snps=BLOCK, manifest_path=manifest, resume=True)


class TestBandedProgress:
    def test_progress_totals_use_in_band_pairs(self, packed):
        """The bar must reach exactly 100% of the *banded* pair count."""
        band = BandSpec(window=WINDOW)
        tiles = enumerate_tiles(N_SNPS, BLOCK, band=band)
        pairs_total = sum(band.pairs_in(t) for t in tiles)
        assert pairs_total < dense_pair_cells(N_SNPS, BLOCK)
        progress = ProgressReporter(stream=None)
        _, report = _banded_values(
            packed, recorder=MetricsRecorder(sinks=[progress])
        )
        assert report.complete
        assert progress.tiles_done == len(tiles)
        assert progress.pairs_done == pairs_total
        assert progress.snapshot().eta_seconds == 0.0


class TestBandedSink:
    def test_round_trip_matches_wrapper(self, packed, tmp_path):
        out = tmp_path / "band.npy"
        with BandedNpySink(out, N_SNPS, WINDOW) as sink:
            report = run_engine(packed, sink, engine="serial",
                                block_snps=BLOCK, band=WINDOW)
        assert report.complete
        stored = np.load(out)
        assert stored.shape == (N_SNPS, WINDOW + 1)
        reference = banded_ld(packed, window=WINDOW, block_snps=BLOCK)
        np.testing.assert_array_equal(stored, reference.values)

    def test_reopen_requires_existing_matching_file(self, tmp_path):
        with pytest.raises(ValueError, match="rerun without resume"):
            BandedNpySink(tmp_path / "missing.npy", 10, 5, mode="r+")
        out = tmp_path / "band.npy"
        BandedNpySink(out, 10, 5).close()
        with pytest.raises(ValueError, match="delete it or rerun"):
            BandedNpySink(out, 10, 6, mode="r+")
        reopened = BandedNpySink(out, 10, 5, mode="r+")
        assert np.all(np.isnan(reopened._memmap))
        reopened.close()

    def test_rejects_bad_construction(self, tmp_path):
        with pytest.raises(ValueError):
            BandedNpySink(tmp_path / "x.npy", 0, 5)
        with pytest.raises(ValueError):
            BandedNpySink(tmp_path / "x.npy", 10, -1)
        with pytest.raises(ValueError):
            BandedNpySink(tmp_path / "x.npy", 10, 5, mode="a+")
