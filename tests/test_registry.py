"""Tests for the cross-run registry ledger (repro.observe.registry)."""

from __future__ import annotations

import json

import pytest

from repro.observe.registry import (
    RUN_SCHEMA,
    append_run,
    diff_runs,
    find_run,
    load_runs,
    render_diff,
    render_run,
    render_runs_list,
    runs_path,
    shape_fingerprint,
)


def make_record(
    run_id: str = "r-0001",
    pairs_per_second: float = 1_000_000.0,
    fingerprint: str | None = None,
    **overrides,
) -> dict:
    record = {
        "schema": RUN_SCHEMA,
        "run_id": run_id,
        "timestamp_unix": 1_754_000_000.0,
        "host": "testhost",
        "fingerprint": fingerprint or shape_fingerprint(
            stat="r2", n_snps=300, n_samples=64, block_snps=64,
        ),
        "config": {
            "engine": "threads", "workers": 2, "stat": "r2",
            "n_snps": 300, "n_samples": 64, "block_snps": 64,
            "band": None, "memory_budget": None,
        },
        "wall_seconds": 0.05,
        "pairs_computed": 50_000,
        "pairs_per_second": pairs_per_second,
        "percent_of_peak": 1.5,
        "tiles": {
            "total": 15, "computed": 15, "skipped": 0, "pruned": 0,
            "quarantined": 0, "retries": 0,
        },
        "anomalies": [],
        "artifacts": {"out": "ld.npy"},
    }
    record.update(overrides)
    return record


class TestLedger:
    def test_runs_path_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_PATH", str(tmp_path / "r.jsonl"))
        assert runs_path() == tmp_path / "r.jsonl"

    def test_append_and_load_round_trip(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        append_run(make_record("r-a"), path)
        append_run(make_record("r-b"), path)
        records, n_torn = load_runs(path)
        assert [r["run_id"] for r in records] == ["r-a", "r-b"]
        assert n_torn == 0

    def test_append_rejects_wrong_schema(self, tmp_path):
        with pytest.raises(ValueError, match="repro-run/1"):
            append_run({"schema": "bogus"}, tmp_path / "runs.jsonl")

    def test_missing_ledger_is_empty(self, tmp_path):
        assert load_runs(tmp_path / "absent.jsonl") == ([], 0)

    def test_torn_final_line_tolerated_and_counted(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        append_run(make_record("r-a"), path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"schema": "repro-run/1", "run_id": "r-torn')
        records, n_torn = load_runs(path)
        assert [r["run_id"] for r in records] == ["r-a"]
        assert n_torn == 1

    def test_interior_corruption_raises(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        good = json.dumps(make_record("r-a"))
        path.write_text(f"not json at all\n{good}\n")
        with pytest.raises(ValueError, match="corrupt mid-ledger"):
            load_runs(path)

    def test_wrong_schema_record_raises(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text('{"schema": "repro-live/1"}\n')
        with pytest.raises(ValueError, match="not a repro-run/1"):
            load_runs(path)


class TestFingerprint:
    def test_same_problem_same_print(self):
        a = shape_fingerprint(
            stat="r2", n_snps=1000, n_samples=100, block_snps=128,
        )
        b = shape_fingerprint(
            stat="r2", n_snps=1000, n_samples=100, block_snps=128,
        )
        assert a == b

    @pytest.mark.parametrize("change", [
        {"stat": "D"}, {"n_snps": 1001}, {"n_samples": 101},
        {"block_snps": 64}, {"band": "window 50"},
    ])
    def test_any_shape_change_changes_print(self, change):
        base = dict(stat="r2", n_snps=1000, n_samples=100, block_snps=128)
        assert shape_fingerprint(**base) != shape_fingerprint(
            **{**base, **change}
        )


class TestFindRun:
    def test_by_index_and_negative_index(self):
        records = [make_record("r-a"), make_record("r-b")]
        assert find_run(records, "0")["run_id"] == "r-a"
        assert find_run(records, "-1")["run_id"] == "r-b"

    def test_by_id_prefix(self):
        records = [make_record("alpha-1"), make_record("beta-2")]
        assert find_run(records, "beta")["run_id"] == "beta-2"

    def test_errors(self):
        records = [make_record("run-a"), make_record("run-b")]
        with pytest.raises(ValueError, match="out of range"):
            find_run(records, "7")
        with pytest.raises(ValueError, match="no run matches"):
            find_run(records, "zzz")
        with pytest.raises(ValueError, match="ambiguous"):
            find_run(records, "run-")


class TestDiff:
    def test_detects_30_percent_regression(self):
        base = make_record("r-base", pairs_per_second=1_000_000.0)
        slow = make_record("r-slow", pairs_per_second=650_000.0)
        diff = diff_runs(base, slow)
        assert diff["flagged"] is True
        assert diff["regression"] == pytest.approx(0.35)
        assert "REGRESSION" in render_diff(diff)

    def test_small_drop_not_flagged(self):
        base = make_record("r-base", pairs_per_second=1_000_000.0)
        meh = make_record("r-meh", pairs_per_second=900_000.0)
        diff = diff_runs(base, meh)
        assert diff["flagged"] is False
        assert "ok:" in render_diff(diff)

    def test_faster_candidate_not_flagged(self):
        base = make_record("r-base", pairs_per_second=1_000_000.0)
        fast = make_record("r-fast", pairs_per_second=2_000_000.0)
        assert diff_runs(base, fast)["flagged"] is False

    def test_shape_mismatch_blocks_verdict(self):
        base = make_record("r-base", pairs_per_second=1_000_000.0)
        other = make_record(
            "r-other", pairs_per_second=100_000.0,
            fingerprint=shape_fingerprint(
                stat="r2", n_snps=9999, n_samples=64, block_snps=64,
            ),
        )
        diff = diff_runs(base, other)
        assert diff["flagged"] is False
        assert diff["fingerprint_match"] is False
        assert "fingerprints differ" in render_diff(diff)

    def test_threshold_validation(self):
        base = make_record("a")
        with pytest.raises(ValueError, match="threshold"):
            diff_runs(base, base, threshold=0.0)
        with pytest.raises(ValueError, match="threshold"):
            diff_runs(base, base, threshold=1.5)

    def test_new_anomalies_surface(self):
        base = make_record("r-base")
        cand = make_record(
            "r-cand", pairs_per_second=100_000.0, anomalies=["io_bound"],
        )
        text = render_diff(diff_runs(base, cand))
        assert "new anomalies: io_bound" in text


class TestRenderers:
    def test_list_table(self):
        text = render_runs_list([make_record("r-a"), make_record("r-b")])
        assert "2 recorded" in text
        assert "r-a" in text and "r-b" in text
        assert "pairs/s" in text

    def test_list_empty_and_torn(self):
        assert "empty ledger" in render_runs_list([])
        assert "1 torn final record" in render_runs_list(
            [make_record("r-a")], n_torn=1
        )

    def test_show_record(self):
        text = render_run(make_record("r-a", anomalies=["tile_retries"]))
        assert "r-a" in text
        assert "testhost" in text
        assert "anomalies: tile_retries" in text
        assert "out: ld.npy" in text


class TestCliRegistryFlow:
    """The `ld --engine` -> ledger -> `runs list|show|diff` loop."""

    def _run_ld(self, tmp_path, out_name, extra=()):
        from repro.cli import main

        ms = tmp_path / "panel.ms"
        if not ms.exists():
            assert main([
                "simulate", "--kind", "sfs", "--samples", "32", "--snps",
                "120", "--out", str(ms),
            ]) == 0
        return main([
            "ld", str(ms), "--engine", "serial", "--block-snps", "40",
            "--out", str(tmp_path / out_name), *extra,
        ])

    def test_engine_run_appends_record(self, tmp_path, capsys):
        from repro.cli import main

        assert self._run_ld(tmp_path, "ld1.npy") == 0
        records, n_torn = load_runs()  # conftest isolates REPRO_RUNS_PATH
        assert n_torn == 0 and len(records) == 1
        record = records[0]
        assert record["schema"] == RUN_SCHEMA
        assert record["tiles"]["computed"] == record["tiles"]["total"] > 0
        assert record["pairs_per_second"] > 0
        assert main(["runs", "list"]) == 0
        assert record["run_id"] in capsys.readouterr().out

    def test_runs_show_and_diff_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        assert self._run_ld(tmp_path, "ld1.npy") == 0
        assert self._run_ld(tmp_path, "ld2.npy") == 0
        assert main(["runs", "show", "0"]) == 0
        assert "fingerprint" in capsys.readouterr().out
        # Same shape, real timings: not a >=30% regression in general is
        # not guaranteed, so force the verdict by editing the ledger.
        records, _ = load_runs()
        records[1]["pairs_per_second"] = (
            records[0]["pairs_per_second"] * 0.5
        )
        target = runs_path()
        target.write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )
        assert main(["runs", "diff", "0", "1"]) == 1
        assert "REGRESSION" in capsys.readouterr().out
        assert main([
            "runs", "diff", "0", "1", "--threshold", "0.9",
        ]) == 0
