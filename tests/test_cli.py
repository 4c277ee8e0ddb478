"""Tests for the command-line interface (repro.cli)."""

import json

import numpy as np
import pytest

from repro.cli import load_panel, main
from repro.core.engine import ENGINE_ALIASES
from repro.io.msformat import write_ms
from repro.io.vcf import write_vcf


@pytest.fixture
def ms_panel(tmp_path, rng):
    haps = rng.integers(0, 2, size=(40, 60)).astype(np.uint8)
    positions = np.sort(rng.random(60))
    path = tmp_path / "panel.ms"
    write_ms(path, [(haps, positions)])
    return path, haps


class TestLoadPanel:
    def test_loads_ms(self, ms_panel):
        path, haps = ms_panel
        panel, positions = load_panel(path)
        np.testing.assert_array_equal(panel.to_dense(), haps)
        assert positions.size == 60

    def test_loads_vcf(self, tmp_path, rng):
        haps = rng.integers(0, 2, size=(10, 5)).astype(np.uint8)
        path = tmp_path / "panel.vcf"
        write_vcf(path, haps, np.arange(5) + 1)
        panel, positions = load_panel(path)
        np.testing.assert_array_equal(panel.to_dense(), haps)

    def test_loads_fasta(self, tmp_path, rng):
        from repro.io.fasta import write_fasta

        base = rng.choice(list("ACGT"), size=100)
        aln = np.tile(base, (12, 1))
        for col in range(0, 100, 9):
            carriers = rng.random(12) < 0.5
            aln[carriers, col] = "T" if base[col] != "T" else "G"
        path = tmp_path / "aln.fasta"
        write_fasta(path, aln)
        panel, positions = load_panel(path)
        assert panel.n_samples == 12
        assert panel.n_snps == positions.size > 0

    def test_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "panel.xyz"
        path.write_text("")
        with pytest.raises(SystemExit, match="unsupported input"):
            load_panel(path)


class TestSimulateCommand:
    @pytest.mark.parametrize("kind", ["sfs", "coalescent"])
    def test_simulate_to_ms(self, tmp_path, kind, capsys):
        out = tmp_path / "sim.ms"
        code = main([
            "simulate", "--kind", kind, "--samples", "30",
            "--snps", "40", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        assert out.exists()
        assert "simulate: wrote 30 haplotypes" in capsys.readouterr().out
        panel, _ = load_panel(out)
        assert panel.n_samples == 30

    def test_simulate_to_vcf(self, tmp_path):
        out = tmp_path / "sim.vcf"
        assert main([
            "simulate", "--samples", "20", "--snps", "15",
            "--seed", "1", "--out", str(out),
        ]) == 0
        panel, _ = load_panel(out)
        assert panel.shape == (20, 15)

    def test_simulate_sweep_kind(self, tmp_path):
        out = tmp_path / "sweep.ms"
        assert main([
            "simulate", "--kind", "sweep", "--samples", "30",
            "--snps", "21", "--seed", "2", "--out", str(out),
        ]) == 0
        panel, _ = load_panel(out)
        assert panel.n_samples == 30

    def test_rejects_bad_extension(self, tmp_path):
        with pytest.raises(SystemExit, match="unsupported output"):
            main(["simulate", "--out", str(tmp_path / "x.bin")])


class TestLdCommand:
    def test_full_matrix_npy(self, ms_panel, tmp_path, capsys):
        path, haps = ms_panel
        out = tmp_path / "ld.npy"
        assert main(["ld", str(path), "--out", str(out)]) == 0
        matrix = np.load(out)
        assert matrix.shape == (60, 60)
        from repro.core.ldmatrix import ld_matrix

        np.testing.assert_allclose(
            np.nan_to_num(matrix), np.nan_to_num(ld_matrix(haps))
        )
        assert "full r2 matrix" in capsys.readouterr().out

    def test_banded_tsv(self, ms_panel, tmp_path):
        path, _haps = ms_panel
        out = tmp_path / "band.tsv"
        assert main([
            "ld", str(path), "--window", "5", "--out", str(out),
        ]) == 0
        band = np.loadtxt(out)
        assert band.shape == (60, 6)

    def test_maf_and_monomorphic_filters(self, tmp_path, rng):
        haps = rng.integers(0, 2, size=(40, 20)).astype(np.uint8)
        haps[:, 0] = 0          # monomorphic
        haps[:, 1] = 0
        haps[0, 1] = 1          # singleton (MAF 1/40)
        path = tmp_path / "f.ms"
        write_ms(path, [(haps, np.linspace(0, 1, 20))])
        out = tmp_path / "f.npy"
        assert main([
            "ld", str(path), "--drop-monomorphic", "--maf", "0.1",
            "--out", str(out),
        ]) == 0
        assert np.load(out).shape[0] < 20

    def test_stat_option(self, ms_panel, tmp_path):
        path, haps = ms_panel
        out = tmp_path / "d.npy"
        assert main(["ld", str(path), "--stat", "D", "--out", str(out)]) == 0
        from repro.core.ldmatrix import ld_matrix

        np.testing.assert_allclose(np.load(out), ld_matrix(haps, stat="D"))

    def test_rejects_unknown_output_format(self, ms_panel, tmp_path):
        path, _ = ms_panel
        with pytest.raises(SystemExit, match="unsupported output"):
            main(["ld", str(path), "--out", str(tmp_path / "m.parquet")])


class TestLdEngineOption:
    @pytest.mark.parametrize("engine", ["serial", "threads", "processes"])
    def test_engine_matches_in_memory_path(
        self, ms_panel, tmp_path, engine, capsys
    ):
        path, haps = ms_panel
        out, metrics = tmp_path / "ld.npy", tmp_path / "m.json"
        assert main([
            "ld", str(path), "--engine", engine, "--workers", "2",
            "--block-snps", "16", "--out", str(out),
            "--metrics-out", str(metrics),
        ]) == 0
        from repro.core.ldmatrix import ld_matrix

        np.testing.assert_array_equal(np.load(out), ld_matrix(haps))
        assert (tmp_path / "ld.npy.manifest").exists()
        # "processes" is the older spelling of the warm pool.
        resolved = ENGINE_ALIASES.get(engine, engine)
        assert f"engine={resolved}" in capsys.readouterr().out
        # Every engine's run report carries the attribution sections.
        payload = json.loads(metrics.read_text())
        assert payload["schema"] == "repro-ld-metrics/1" and payload["run_id"]
        assert "plane_matmul" in payload["phases"] and payload["roofline"]
        assert sum(
            row["n_tiles"] for row in payload["timeline"]["workers"]
        ) == payload["n_computed"] == 10
        assert "model" in payload and isinstance(payload["anomalies"], list)
        assert main(["report", str(metrics)]) == 0
        assert "roofline" in capsys.readouterr().out

    def test_resume_skips_journaled_tiles(self, ms_panel, tmp_path, capsys):
        path, haps = ms_panel
        out = tmp_path / "ld.npy"
        args = [
            "ld", str(path), "--engine", "serial", "--block-snps", "16",
            "--out", str(out),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--resume"]) == 0
        assert "computed 0/10 tiles (skipped 10 journaled" in capsys.readouterr().out
        from repro.core.ldmatrix import ld_matrix

        np.testing.assert_array_equal(np.load(out), ld_matrix(haps))

    def test_engine_requires_npy_output(self, ms_panel, tmp_path):
        path, _ = ms_panel
        with pytest.raises(SystemExit, match="npy"):
            main([
                "ld", str(path), "--engine", "serial",
                "--out", str(tmp_path / "ld.tsv"),
            ])

    def test_engine_rejects_dprime_and_band_conflicts(
        self, ms_panel, tmp_path
    ):
        path, _ = ms_panel
        out = str(tmp_path / "ld.npy")
        with pytest.raises(SystemExit, match="r2/D/H"):
            main(["ld", str(path), "--engine", "serial", "--stat", "Dprime",
                  "--out", out])
        # --window now runs banded through the engine; what is rejected
        # is combining the two band flavours in one run.
        with pytest.raises(SystemExit, match="not both"):
            main(["ld", str(path), "--engine", "serial", "--window", "5",
                  "--window-kb", "2.5", "--out", out])

    @pytest.mark.parametrize(
        "flag", [["--progress"], ["--metrics-out", "m.json"],
                 ["--trace-out", "t.jsonl"]],
        ids=["progress", "metrics-out", "trace-out"],
    )
    def test_instrumentation_flags_require_engine(
        self, ms_panel, tmp_path, flag
    ):
        path, _ = ms_panel
        if len(flag) == 2:
            flag = [flag[0], str(tmp_path / flag[1])]
        with pytest.raises(SystemExit, match="add --engine"):
            main(["ld", str(path), "--out", str(tmp_path / "ld.npy"), *flag])

    def test_metrics_out_agrees_with_engine_report(
        self, ms_panel, tmp_path, capsys
    ):
        import json

        path, haps = ms_panel
        out = tmp_path / "ld.npy"
        metrics = tmp_path / "m.json"
        trace = tmp_path / "trace.jsonl"
        assert main([
            "ld", str(path), "--engine", "persistent", "--workers", "2",
            "--block-snps", "16", "--out", str(out), "--progress",
            "--metrics-out", str(metrics), "--trace-out", str(trace),
        ]) == 0
        payload = json.loads(metrics.read_text())
        assert payload["schema"] == "repro-ld-metrics/1"
        assert payload["engine"] == "persistent"
        assert payload["n_snps"] == haps.shape[1]
        n_tiles = 10  # 60 SNPs in 16-SNP blocks -> 4 block rows
        assert payload["n_tiles"] == payload["n_computed"] == n_tiles
        assert payload["n_skipped"] == payload["n_retries"] == 0
        from repro.core.engine import enumerate_tiles

        expected_pairs = sum(t.n_pairs for t in enumerate_tiles(60, 16))
        assert payload["pairs_computed"] == expected_pairs
        assert payload["pairs_per_second"] > 0
        # Counters inside the same payload must agree with the top level.
        assert payload["counters"]["engine.tiles_computed"] == n_tiles
        assert payload["timers"]["engine.tile_compute_seconds"]["count"] == n_tiles
        # Complete single-shot run -> measured-vs-modeled section present.
        assert payload["model"]["m"] == haps.shape[1]
        assert payload["model"]["measured_percent_of_peak"] > 0
        # The JSONL trace brackets the run and carries one line per tile.
        kinds = [
            json.loads(line)["kind"]
            for line in trace.read_text().splitlines()
        ]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        assert kinds.count("tile_computed") == n_tiles

    def test_metrics_out_on_resume_counts_skips_and_omits_model(
        self, ms_panel, tmp_path, capsys
    ):
        import json

        path, _ = ms_panel
        out = tmp_path / "ld.npy"
        args = [
            "ld", str(path), "--engine", "serial", "--block-snps", "16",
            "--out", str(out),
        ]
        assert main(args) == 0
        metrics = tmp_path / "resumed.json"
        assert main(args + ["--resume", "--metrics-out", str(metrics)]) == 0
        payload = json.loads(metrics.read_text())
        assert payload["n_computed"] == 0
        assert payload["n_skipped"] == payload["n_tiles"] == 10
        assert payload["counters"]["engine.tiles_skipped"] == 10
        # The wall-clock covered none of the tiles, so a %-of-peak claim
        # would be meaningless; the section must be absent, not wrong.
        assert "model" not in payload

    def test_model_prices_the_blocking_the_engine_ran(
        self, ms_panel, tmp_path
    ):
        """The run report's model row counts the fused kernel's
        blocking, not the numpy micro-kernel's 128 x 128 tile."""
        from repro.core.gemm import (
            DEFAULT_KERNEL, gemm_operation_counts, resolve_blocking,
        )

        path, haps = ms_panel
        metrics = tmp_path / "m.json"
        assert main([
            "ld", str(path), "--engine", "serial", "--block-snps", "16",
            "--out", str(tmp_path / "ld.npy"), "--metrics-out", str(metrics),
        ]) == 0
        n, k = haps.shape[1], (haps.shape[0] + 63) // 64
        expected = gemm_operation_counts(
            n, n, k, resolve_blocking(None, DEFAULT_KERNEL), symmetric=True,
        ).total_ops
        payload = json.loads(metrics.read_text())
        assert payload["model"]["total_ops"] == expected

    def test_custom_manifest_path(self, ms_panel, tmp_path):
        path, _ = ms_panel
        out = tmp_path / "ld.npy"
        manifest = tmp_path / "journal.jsonl"
        assert main([
            "ld", str(path), "--engine", "serial", "--block-snps", "16",
            "--manifest", str(manifest), "--out", str(out),
        ]) == 0
        assert manifest.exists()
        assert not (tmp_path / "ld.npy.manifest").exists()

    def test_budget_below_the_floor_exits_before_any_output(
        self, ms_panel, tmp_path
    ):
        path, _ = ms_panel
        store = tmp_path / "panel.pnl"
        assert main(["pack", str(path), "--out", str(store)]) == 0
        out = tmp_path / "ld.npy"
        with pytest.raises(SystemExit) as exc:
            main([
                "ld", "--panel", str(store), "--engine", "serial",
                "--block-snps", "16", "--memory-budget", "256",
                "--out", str(out),
            ])
        # One line, not a traceback: the floor is 3 windows of 16 rows.
        assert exc.value.code == (
            "memory budget 256 bytes cannot hold 3 windows of 16 packed "
            "SNP rows (384 bytes); raise the budget or lower block_snps"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "panel.ms", "panel.pnl",
        ]


class TestLdFaultToleranceFlags:
    @pytest.mark.parametrize(
        "flag", [
            ["--fault-plan", "plan.json"],
            ["--tile-timeout", "5"],
            ["--max-retries", "3"],
            ["--allow-quarantine"],
        ],
    )
    def test_fault_flags_require_engine(self, ms_panel, tmp_path, flag):
        path, _ = ms_panel
        with pytest.raises(SystemExit, match="add --engine"):
            main(["ld", str(path), "--out", str(tmp_path / "ld.npy"), *flag])

    def test_fault_plan_within_budget_exits_zero(
        self, ms_panel, tmp_path, capsys
    ):
        path, haps = ms_panel
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "seed": 7,
            "specs": [{"site": "tile_compute", "action": "raise",
                       "tile": [16, 0], "attempts_below": 2}],
        }))
        out = tmp_path / "ld.npy"
        assert main([
            "ld", str(path), "--engine", "serial", "--block-snps", "16",
            "--fault-plan", str(plan), "--max-retries", "2",
            "--out", str(out),
        ]) == 0
        assert "2 retries" in capsys.readouterr().out
        from repro.core.ldmatrix import ld_matrix

        np.testing.assert_array_equal(np.load(out), ld_matrix(haps))

    def test_quarantine_surfaces_exit_code_three(
        self, ms_panel, tmp_path, capsys
    ):
        path, _ = ms_panel
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "specs": [{"site": "tile_deliver", "action": "bitflip",
                       "tile": [16, 0]}],
        }))
        assert main([
            "ld", str(path), "--engine", "serial", "--block-snps", "16",
            "--fault-plan", str(plan), "--max-retries", "1",
            "--allow-quarantine", "--out", str(tmp_path / "ld.npy"),
        ]) == 3
        err = capsys.readouterr().err
        assert "quarantined" in err and "(16, 0)" in err

    def test_missing_and_invalid_fault_plan_files(self, ms_panel, tmp_path):
        path, _ = ms_panel
        base = [
            "ld", str(path), "--engine", "serial",
            "--out", str(tmp_path / "ld.npy"),
        ]
        with pytest.raises(SystemExit, match="not found"):
            main(base + ["--fault-plan", str(tmp_path / "absent.json")])
        bad = tmp_path / "bad.json"
        bad.write_text('{"specs": [{"site": "warp_core"}]}')
        with pytest.raises(SystemExit, match="invalid fault plan"):
            main(base + ["--fault-plan", str(bad)])

    def test_tile_timeout_flag_passes_through(self, ms_panel, tmp_path):
        path, haps = ms_panel
        out = tmp_path / "ld.npy"
        assert main([
            "ld", str(path), "--engine", "serial", "--block-snps", "16",
            "--tile-timeout", "60", "--out", str(out),
        ]) == 0
        from repro.core.ldmatrix import ld_matrix

        np.testing.assert_array_equal(np.load(out), ld_matrix(haps))


class TestAnalysisCommands:
    def test_scan(self, ms_panel, tmp_path, capsys):
        path, _ = ms_panel
        out = tmp_path / "scan.tsv"
        assert main([
            "scan", str(path), "--grid-size", "5", "--max-window", "20",
            "--out", str(out),
        ]) == 0
        table = np.loadtxt(out, skiprows=1)
        assert table.shape == (5, 3)
        assert "peak omega" in capsys.readouterr().out

    def test_prune(self, ms_panel, tmp_path):
        path, _ = ms_panel
        out = tmp_path / "kept.txt"
        assert main([
            "prune", str(path), "--window", "10", "--step", "2",
            "--r2-threshold", "0.5", "--out", str(out),
        ]) == 0
        kept = np.loadtxt(out, dtype=int, ndmin=1)
        assert kept.size >= 1

    def test_blocks(self, tmp_path, rng):
        # Build a panel with one obvious block.
        base = rng.integers(0, 2, 200).astype(np.uint8)
        cols = [base.copy() for _ in range(5)]
        cols += [rng.integers(0, 2, 200).astype(np.uint8) for _ in range(5)]
        haps = np.stack(cols, axis=1)
        path = tmp_path / "b.ms"
        write_ms(path, [(haps, np.linspace(0, 1, 10))])
        out = tmp_path / "blocks.tsv"
        assert main(["blocks", str(path), "--out", str(out)]) == 0
        table = np.loadtxt(out, skiprows=1, ndmin=2)
        assert table.shape[0] >= 1

    def test_decay(self, ms_panel, tmp_path):
        path, _ = ms_panel
        out = tmp_path / "decay.tsv"
        assert main(["decay", str(path), "--bins", "6", "--out", str(out)]) == 0
        table = np.loadtxt(out, skiprows=1)
        assert table.shape == (6, 3)

    def test_model_report(self, capsys):
        assert main(["model", "--snps", "512", "--samples", "2048"]) == 0
        out = capsys.readouterr().out
        assert "% of the 3-ops/cycle" in out
        assert "GPU roofline" in out
        assert "avx512" in out


class TestProfileAndReportCommands:
    def test_ld_metrics_out_carries_phase_attribution(
        self, ms_panel, tmp_path
    ):
        path, haps = ms_panel
        metrics = tmp_path / "metrics.json"
        assert main([
            "ld", str(path), "--engine", "serial", "--block-snps", "16",
            "--out", str(tmp_path / "ld.npy"),
            "--metrics-out", str(metrics),
        ]) == 0
        payload = json.loads(metrics.read_text())
        assert payload["schema"] == "repro-ld-metrics/1"
        assert payload["n_snps"] == haps.shape[1]
        # Acceptance bar: kernel and driver phases are both attributed,
        # and every phase row is classified against the model.
        assert {"pack_a", "pack_b", "plane_matmul", "mirror",
                "driver.deliver"} <= set(payload["phases"])
        roofline = {row["name"]: row for row in payload["roofline"]}
        for name in ("pack_a", "pack_b", "plane_matmul", "mirror"):
            assert roofline[name]["kind"] in ("compute", "memory")
            assert roofline[name]["modeled_seconds"] > 0
        assert payload["phase_coverage"] > 0.9
        assert payload["timeline"]["workers"]
        assert payload["anomalies"] == []

    def test_profile_command_and_flag_are_gone(self, ms_panel, tmp_path):
        path, _ = ms_panel
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", "--out", str(tmp_path / "p.json")])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["ld", str(path), "--engine", "serial",
                  "--out", str(tmp_path / "ld.npy"),
                  "--profile-out", str(tmp_path / "p.json")])
        assert excinfo.value.code == 2

    def test_report_renders_profile_metrics_and_trace(
        self, ms_panel, tmp_path, capsys
    ):
        path, _ = ms_panel
        metrics = tmp_path / "metrics.json"
        trace = tmp_path / "trace.jsonl"
        assert main([
            "ld", str(path), "--engine", "serial", "--block-snps", "16",
            "--out", str(tmp_path / "ld.npy"),
            "--metrics-out", str(metrics), "--trace-out", str(trace),
        ]) == 0
        capsys.readouterr()
        assert main(["report", str(metrics), str(trace)]) == 0
        text = capsys.readouterr().out
        # Multi-file mode labels each rendering with its source path.
        assert text.count("==>") == 2
        assert "repro-ld-metrics/1" in text
        assert "plane_matmul" in text and "roofline" in text
        assert "repro-trace/1" in text

    def test_report_rejects_unreadable_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not json\n")
        assert main(["report", str(bad)]) == 1
        assert "bad.txt" in capsys.readouterr().err


@pytest.fixture(scope="module")
def panel_300(tmp_path_factory):
    """`repro simulate --samples 300 --snps 2000 --seed 3`."""
    path = tmp_path_factory.mktemp("panel300") / "panel.ms"
    assert main(["simulate", "--samples", "300", "--snps", "2000",
                 "--seed", "3", "--out", str(path)]) == 0
    return path


def _registry_records():
    from repro.observe.registry import load_runs

    records, _n_torn = load_runs()
    return records


class TestOneRunReport:
    """The run report, the registry record, the live snapshot and the
    trace of one run take their verdicts and identity from one place."""

    def test_banded_run_is_unpriced_in_every_view(
        self, panel_300, tmp_path, capsys
    ):
        metrics, live = tmp_path / "m.json", tmp_path / "l.json"
        assert main([
            "ld", str(panel_300), "--engine", "serial", "--window", "100",
            "--out", str(tmp_path / "band.npy"),
            "--metrics-out", str(metrics), "--live", str(live),
        ]) == 0
        payload = json.loads(metrics.read_text())
        # The model prices the dense triangle, which a band never ran.
        assert "phases" in payload and "model" not in payload
        assert _registry_records()[-1]["percent_of_peak"] is None
        snapshot = json.loads(live.read_text())
        assert snapshot["phase"] == "done"
        assert snapshot["percent_of_peak"] is None

    @pytest.mark.parametrize("with_live", [False, True],
                             ids=["no-live", "live"])
    def test_registry_anomalies_are_the_reports(
        self, panel_300, tmp_path, with_live, capsys
    ):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"specs": [
            {"site": "tile_compute", "action": "raise", "tile": [512, 0],
             "attempts_below": 1},
        ]}))
        metrics, live = tmp_path / "m.json", tmp_path / "l.json"
        assert main([
            "ld", str(panel_300), "--engine", "serial",
            "--out", str(tmp_path / "ld.npy"), "--fault-plan", str(plan),
            "--metrics-out", str(metrics),
            *(["--live", str(live)] if with_live else []),
        ]) == 0
        reported = sorted(
            {a["kind"] for a in json.loads(metrics.read_text())["anomalies"]}
        )
        assert "tile_retries" in reported
        assert _registry_records()[-1]["anomalies"] == reported
        if with_live:
            snapshot = json.loads(live.read_text())
            assert sorted(
                {a["kind"] for a in snapshot["anomalies"]}
            ) == reported

    def test_one_run_id_in_every_artifact(self, ms_panel, tmp_path, capsys):
        path, _ = ms_panel
        metrics, trace, live = (
            tmp_path / "m.json", tmp_path / "t.jsonl", tmp_path / "l.json"
        )
        assert main([
            "ld", str(path), "--engine", "serial", "--block-snps", "16",
            "--out", str(tmp_path / "ld.npy"), "--metrics-out", str(metrics),
            "--trace-out", str(trace), "--live", str(live),
        ]) == 0
        run_id = json.loads(metrics.read_text())["run_id"]
        assert run_id
        first = json.loads(trace.read_text().splitlines()[0])
        assert first["kind"] == "run_start" and first["run_id"] == run_id
        assert json.loads(live.read_text())["run_id"] == run_id
        record = _registry_records()[-1]
        assert record["run_id"] == run_id
        assert "profile" not in record["artifacts"]


class TestLiveCli:
    """The --live flag, `repro top`, and `repro export`."""

    def _run_live(self, ms_panel, tmp_path, extra=()):
        path, _ = ms_panel
        live = tmp_path / "live.json"
        assert main([
            "ld", str(path), "--engine", "serial", "--block-snps", "16",
            "--out", str(tmp_path / "ld.npy"), "--live", str(live), *extra,
        ]) == 0
        return live

    def test_live_flag_requires_engine(self, ms_panel, tmp_path):
        path, _ = ms_panel
        with pytest.raises(SystemExit, match="add --engine"):
            main(["ld", str(path), "--out", str(tmp_path / "ld.npy"),
                  "--live", str(tmp_path / "live.json")])

    def test_live_run_publishes_final_snapshot(self, ms_panel, tmp_path):
        live = self._run_live(ms_panel, tmp_path)
        snapshot = json.loads(live.read_text())
        assert snapshot["schema"] == "repro-live/1"
        assert snapshot["phase"] == "done"
        assert snapshot["tiles"]["done"] == snapshot["tiles"]["total"] > 0
        assert snapshot["config"]["engine"] == "serial"
        assert snapshot["config"]["n_snps"] == 60

    def test_repro_live_env_activates_without_flag(
        self, ms_panel, tmp_path, monkeypatch
    ):
        path, _ = ms_panel
        live = tmp_path / "env-live.json"
        monkeypatch.setenv("REPRO_LIVE", str(live))
        assert main([
            "ld", str(path), "--engine", "serial", "--block-snps", "16",
            "--out", str(tmp_path / "ld.npy"),
        ]) == 0
        assert json.loads(live.read_text())["phase"] == "done"

    def test_top_renders_snapshot(self, ms_panel, tmp_path, capsys):
        live = self._run_live(ms_panel, tmp_path)
        capsys.readouterr()
        assert main(["top", str(live)]) == 0
        out = capsys.readouterr().out
        assert "engine=serial" in out and "tiles" in out

    def test_top_missing_snapshot_is_exit_1(self, tmp_path, capsys):
        assert main(["top", str(tmp_path / "absent.json")]) == 1
        assert "no snapshot" in capsys.readouterr().err

    def test_top_requires_a_path(self, monkeypatch):
        monkeypatch.delenv("REPRO_LIVE", raising=False)
        with pytest.raises(SystemExit, match="REPRO_LIVE"):
            main(["top"])

    def test_export_prometheus_one_shot(self, ms_panel, tmp_path, capsys):
        live = self._run_live(ms_panel, tmp_path)
        capsys.readouterr()
        assert main(["export", str(live), "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_tiles_done gauge" in out
        assert "repro_pairs_per_second{" in out

    def test_export_requires_format_flag(self, tmp_path):
        with pytest.raises(SystemExit, match="--prometheus"):
            main(["export", str(tmp_path / "live.json")])

    def test_report_renders_live_snapshot(self, ms_panel, tmp_path, capsys):
        live = self._run_live(ms_panel, tmp_path)
        capsys.readouterr()
        assert main(["report", str(live)]) == 0
        assert "engine=serial" in capsys.readouterr().out


class TestReportExitCodes:
    def test_unknown_schema_is_exit_2_with_one_line(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"schema": "repro-mystery/7"}\n')
        assert main(["report", str(bogus)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "repro-mystery/7" in err
        assert "repro-trace/1" in err  # names the supported tags

    def test_torn_final_trace_line_tolerated(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            '{"schema":"repro-trace/1","seq":0,"kind":"run_start","ts":0.0}\n'
            '{"schema":"repro-trace/1","seq":1,"kind":"tile_comp'
        )
        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "1 events" in out
        assert "torn final line" in out

    def test_interior_trace_corruption_still_fails(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            'garbage here\n'
            '{"schema":"repro-trace/1","seq":0,"kind":"run_start","ts":0.0}\n'
        )
        assert main(["report", str(trace)]) == 1
        assert "line 1" in capsys.readouterr().err
