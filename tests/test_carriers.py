"""Carrier path: rare SNPs' counts summed over their minor-allele carriers.

The fused kernel, given a :class:`repro.core.carriers.CarrierIndex`,
sends every count that touches a rare SNP down the carrier path and only
common × common through the GEMM. Counts stay exact integers, so every
statistic must equal the data-oblivious ``scalar``/``numpy`` oracles bit
for bit — checked here on frequency-extreme panels at the
``compute_tile`` level, and end to end on every engine, band mode and
storage mode of a panel on which ``run_engine``'s own rule engages.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import engine as engine_mod
from repro.core.banding import BandSpec
from repro.core.carriers import build_carrier_index, rare_threshold
from repro.core.engine import (
    ENGINES,
    TileTask,
    compute_tile,
    enumerate_tiles,
    run_engine,
)
from repro.core.executors import stop_pools
from repro.core.prefetch import min_memory_budget
from repro.encoding.bitmatrix import BitMatrix
from repro.io.panelstore import PanelStore, pack_panel
from repro.observe import MetricsRecorder, SpanProfiler, profiling
from repro.simulate.datasets import neutral_sfs_frequencies, simulate_sfs_panel

#: Frequency-extreme tiles over a 40-SNP panel in 16-SNP blocks.
TILES = {
    "diagonal": TileTask(16, 32, 16, 32),
    "off-diagonal": TileTask(16, 32, 0, 16),
    "fringe": TileTask(32, 40, 0, 16),
    "fringe-diagonal": TileTask(32, 40, 32, 40),
}


def extreme_panel(n_samples: int, rng: np.random.Generator) -> BitMatrix:
    """40 SNPs: monomorphic, fixed-derived, singleton, ancestral singleton
    (N − 1 derived), MAF 0.02 and 0.98, and common, shuffled."""
    n = n_samples
    low = max(1, round(0.02 * n))
    kinds = [0, n, 1, n - 1, low, n - low, n // 2, (2 * n) // 3]
    counts = np.array([min(max(c, 0), n) for c in kinds] * 5)
    rng.shuffle(counts)
    dense = np.zeros((n, counts.size), dtype=np.uint8)
    for snp, count in enumerate(counts):
        dense[rng.choice(n, count, replace=False), snp] = 1
    return BitMatrix.from_dense(dense)


def index_for(panel: BitMatrix, threshold: int | None = None):
    return build_carrier_index(
        panel.allele_frequencies(),
        panel.n_samples,
        lambda snps: panel.words[snps],
        chunk_rows=7,
        threshold=threshold,
    )


@pytest.fixture(scope="module")
def sfs_panel() -> BitMatrix:
    """An SFS panel wide enough for run_engine's own rule to engage."""
    return simulate_sfs_panel(6000, 300, rng=np.random.default_rng(7))


class TestFrequencyExtremes:
    @pytest.mark.parametrize("threshold", [0, 1, 2, "N"])
    @pytest.mark.parametrize("n_samples", [1, 3, 63, 64, 65, 130])
    def test_tiles_match_the_scalar_oracle(self, n_samples, threshold):
        panel = extreme_panel(n_samples, np.random.default_rng(n_samples))
        t = n_samples if threshold == "N" else threshold
        index = index_for(panel, threshold=t)
        freqs = panel.allele_frequencies()
        for stat in ("r2", "D", "H"):
            for name, tile in TILES.items():
                ref = compute_tile(
                    panel.words, freqs, n_samples, tile, stat=stat, kernel="scalar"
                )
                got = compute_tile(
                    panel.words, freqs, n_samples, tile, stat=stat, carriers=index
                )
                assert np.array_equal(got, ref, equal_nan=True), (stat, name)

    @pytest.mark.parametrize("n_samples", [1, 3, 63, 64, 65, 130])
    def test_carrier_lists_are_the_minor_allele_and_skip_padding(self, n_samples):
        panel = extreme_panel(n_samples, np.random.default_rng(n_samples))
        index = index_for(panel, threshold=n_samples)
        counts = panel.allele_counts()
        dense = panel.to_dense()
        assert index.n_rare == panel.n_snps
        for rank, snp in enumerate(index.snps):
            carriers = index.samples[index.indptr[rank] : index.indptr[rank + 1]]
            minor = 0 if index.complement[rank] else 1
            expected = np.flatnonzero(dense[:, snp] == minor)
            assert index.complement[rank] == (counts[snp] > n_samples - counts[snp])
            np.testing.assert_array_equal(carriers, expected)

    def test_numpy_and_scalar_kernels_ignore_the_index(self):
        panel = extreme_panel(65, np.random.default_rng(1))
        index = index_for(panel, threshold=65)
        freqs = panel.allele_frequencies()
        tile = TILES["diagonal"]
        for kernel in ("numpy", "scalar"):
            with_index = compute_tile(
                panel.words, freqs, 65, tile, kernel=kernel, carriers=index
            )
            plain = compute_tile(panel.words, freqs, 65, tile, kernel=kernel)
            assert np.array_equal(with_index, plain, equal_nan=True)


class TestRule:
    @pytest.mark.parametrize(
        "n_samples, expected", [(2504, -1), (10000, 16), (100000, 166)]
    )
    def test_paper_shapes(self, n_samples, expected):
        # Dataset A stays on the plain GEMM; B and C split at N // 600.
        rng = np.random.default_rng(n_samples)
        derived = np.rint(
            neutral_sfs_frequencies(10000, n_samples, rng) * n_samples
        ).astype(np.int64)
        mac = np.minimum(derived, n_samples - derived)
        assert rare_threshold(n_samples, mac) == expected

    def test_all_common_panel_builds_an_empty_index(self):
        rng = np.random.default_rng(3)
        freqs = rng.uniform(0.2, 0.8, 200)
        dense = (rng.random((6000, 200)) < freqs).astype(np.uint8)
        panel = BitMatrix.from_dense(dense)
        assert index_for(panel).n_rare == 0

    def test_index_reads_only_rare_rows_one_window_at_a_time(self, sfs_panel):
        calls = []

        def read_rows(snps):
            calls.append(np.array(snps))
            return sfs_panel.words[snps]

        index = build_carrier_index(
            sfs_panel.allele_frequencies(), sfs_panel.n_samples, read_rows,
            chunk_rows=32,
        )
        assert index.threshold == sfs_panel.n_samples // 600
        assert 0 < index.n_rare < sfs_panel.n_snps
        assert all(0 < chunk.size <= 32 for chunk in calls)
        np.testing.assert_array_equal(np.concatenate(calls), index.snps)

    def test_index_rejects_a_frequency_its_carriers_contradict(self, sfs_panel):
        freqs = sfs_panel.allele_frequencies().copy()
        snp = int(np.flatnonzero(sfs_panel.allele_counts() == 1)[0])
        freqs[snp] = 2 / sfs_panel.n_samples
        with pytest.raises(ValueError, match=f"SNP {snp} "):
            build_carrier_index(
                freqs, sfs_panel.n_samples, lambda snps: sfs_panel.words[snps],
                chunk_rows=64, source="test panel",
            )


def _collect(results: dict):
    def sink(i0, j0, block):
        results[(i0, j0)] = np.array(block)

    return sink


class TestEngine:
    @pytest.fixture(scope="class")
    def store_path(self, sfs_panel, tmp_path_factory):
        path = tmp_path_factory.mktemp("carriers") / "sfs.pnl"
        pack_panel(path, sfs_panel).close()
        return path

    @pytest.fixture(scope="class", autouse=True)
    def _stop_pools_after(self):
        yield
        stop_pools()

    @pytest.mark.parametrize("storage", ["in-core", "store"])
    @pytest.mark.parametrize("band", [None, 90])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_bit_identical_to_numpy_and_carrier_path_runs(
        self, sfs_panel, store_path, engine, band, storage, monkeypatch
    ):
        block = 64
        kwargs = dict(block_snps=block, engine=engine, n_workers=2, band=band)
        data = sfs_panel
        if storage == "store":
            data = store_path
            kwargs["memory_budget"] = min_memory_budget(
                block, 8 * sfs_panel.n_words, banded=band is not None
            )
        shapes = []
        original = engine_mod.popcount_gemm

        def recording_gemm(a, b, **kw):
            shapes.append((a.shape[0], b.shape[0]))
            return original(a, b, **kw)

        monkeypatch.setattr(engine_mod, "popcount_gemm", recording_gemm)
        ref: dict = {}
        run_engine(data, _collect(ref), kernel="numpy", **kwargs)
        shapes.clear()
        got: dict = {}
        recorder = MetricsRecorder()
        with profiling(SpanProfiler()):
            report = run_engine(data, _collect(got), recorder=recorder, **kwargs)
        assert report.complete
        assert got.keys() == ref.keys()
        for key in ref:
            assert np.array_equal(got[key], ref[key], equal_nan=True), key
        # The carrier span reached the driver from every executor...
        assert "phase.carriers" in recorder.timers
        if engine != "persistent":
            # ...and in-process, the GEMMs saw fewer cells than the tiles.
            spec = None if band is None else BandSpec(window=band)
            tiles = enumerate_tiles(sfs_panel.n_snps, block, band=spec)
            assert len(shapes) == len(tiles)
            assert sum(m * n for m, n in shapes) < sum(t.n_pairs for t in tiles)

    def test_all_common_panel_keeps_full_tile_gemms(self, monkeypatch):
        rng = np.random.default_rng(5)
        freqs = rng.uniform(0.2, 0.8, 130)
        panel = BitMatrix.from_dense(
            (rng.random((6000, 130)) < freqs).astype(np.uint8)
        )
        shapes = []
        original = engine_mod.popcount_gemm

        def recording_gemm(a, b, **kw):
            shapes.append((a.shape[0], b.shape[0]))
            return original(a, b, **kw)

        monkeypatch.setattr(engine_mod, "popcount_gemm", recording_gemm)
        report = run_engine(panel, lambda i, j, b: None, block_snps=64)
        assert report.complete
        tiles = [(64, 64), (64, 64), (64, 64), (2, 64), (2, 64), (2, 2)]
        assert sorted(shapes) == sorted(tiles)

    def test_profiled_phases_carry_the_span_and_sum_to_compute_time(
        self, sfs_panel
    ):
        recorder = MetricsRecorder(keep_events=True)
        with profiling(SpanProfiler()):
            report = run_engine(
                sfs_panel, lambda i, j, b: None, block_snps=64, recorder=recorder
            )
        assert report.complete
        events = [e for e in recorder.events if e["kind"] == "tile_computed"]
        assert events and all("carriers" in e["phases"] for e in events)
        for event in events:
            attributed = sum(event["phases"].values())
            assert attributed == pytest.approx(event["compute_s"], rel=0.10)


def _rewrite_freq(path, snp: int, value: float) -> None:
    """Overwrite one stored frequency in place (the words stay intact)."""
    raw = path.read_bytes()
    header_len = int.from_bytes(raw[8:12], "little")
    header = json.loads(raw[12 : 12 + header_len])
    with open(path, "r+b") as fh:
        fh.seek(header["freqs_offset"] + 8 * snp)
        fh.write(np.float64(value).tobytes())


class TestStoreFrequencies:
    def test_verify_catches_a_rewritten_frequency(self, tmp_path):
        rng = np.random.default_rng(11)
        dense = (rng.random((130, 20)) < 0.4).astype(np.uint8)
        dense[:, 5] = 0
        dense[17, 5] = 1
        path = tmp_path / "panel.pnl"
        pack_panel(path, BitMatrix.from_dense(dense)).close()
        with PanelStore.open(path) as store:
            assert store.verify()
        _rewrite_freq(path, 5, 2 / 130)
        with PanelStore.open(path) as store:
            assert store.freqs[5] == 2 / 130
            assert not store.verify()

    def test_engine_refuses_a_store_whose_frequency_lies(self, sfs_panel, tmp_path):
        path = tmp_path / "sfs.pnl"
        pack_panel(path, sfs_panel).close()
        snp = int(np.flatnonzero(sfs_panel.allele_counts() == 1)[0])
        _rewrite_freq(path, snp, 2 / sfs_panel.n_samples)
        delivered = []
        with pytest.raises(ValueError, match=rf"{path}.*SNP {snp} "):
            run_engine(
                path, lambda i, j, b: delivered.append((i, j)), block_snps=64,
                engine="serial",
            )
        assert delivered == []
