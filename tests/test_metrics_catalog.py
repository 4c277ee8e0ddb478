"""docs/METRICS.md is a contract: emitted names must all be cataloged."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from repro.core.engine import run_engine
from repro.observe import MetricsRecorder

CATALOG = Path(__file__).resolve().parent.parent / "docs" / "METRICS.md"

#: Trace event kinds documented in the catalog's event table; the
#: ``events.<kind>`` auto-counters and the emitted ``kind`` fields are
#: both checked against this vocabulary.
_WILDCARDS = ("events.", "phase.")


def catalog_names() -> set[str]:
    """Every backticked dotted name / bare identifier in the catalog."""
    text = CATALOG.read_text(encoding="utf-8")
    return set(re.findall(r"`([a-z_][a-z0-9_.<>]*)`", text))


def is_cataloged(name: str, names: set[str]) -> bool:
    if name in names:
        return True
    # events.<kind> and phase.<span> are cataloged as one wildcard row
    # plus an explicit vocabulary of kinds / span names.
    for prefix in _WILDCARDS:
        if name.startswith(prefix):
            wildcard = f"{prefix}<{'kind' if prefix == 'events.' else 'span'}>"
            suffix = name[len(prefix):]
            return wildcard in names and (
                suffix in names or suffix == "worker.idle"
            )
    return False


@pytest.fixture(scope="module")
def instrumented_recorder():
    rng = np.random.default_rng(0xCA7A)
    panel = rng.integers(0, 2, size=(50, 41)).astype(np.uint8)
    recorder = MetricsRecorder(keep_events=True)
    run_engine(
        panel, lambda *a: None, engine="threads", n_workers=2,
        block_snps=9, recorder=recorder,
    )
    yield recorder
    recorder.close()


class TestCatalog:
    def test_catalog_exists_and_is_substantial(self):
        names = catalog_names()
        # Spot checks: one of each family must be present.
        for expected in (
            "engine.tiles_computed", "engine.run_seconds", "gemm.calls",
            "prefetch.bytes_read",
            "phase.worker.idle", "events.<kind>", "phase.<span>",
            "tile_computed", "worker_respawn", "pack_a", "driver.wait",
        ):
            assert expected in names, f"catalog lost {expected!r}"

    def test_every_emitted_counter_and_timer_is_cataloged(
        self, instrumented_recorder
    ):
        names = catalog_names()
        emitted = set(instrumented_recorder.counters) | set(
            instrumented_recorder.timers
        )
        assert emitted, "instrumented run emitted nothing?"
        missing = sorted(
            n for n in emitted if not is_cataloged(n, names)
        )
        assert not missing, (
            f"emitted metrics missing from docs/METRICS.md: {missing}"
        )

    def test_every_emitted_event_kind_is_cataloged(
        self, instrumented_recorder
    ):
        names = catalog_names()
        kinds = {e["kind"] for e in instrumented_recorder.events}
        assert "run_start" in kinds and "run_end" in kinds
        missing = sorted(k for k in kinds if k not in names)
        assert not missing, (
            f"emitted event kinds missing from docs/METRICS.md: {missing}"
        )

    def test_every_source_literal_emission_is_cataloged(self):
        """Static sweep: literal inc/observe_time/event names in src/."""
        names = catalog_names()
        src = CATALOG.parent.parent / "src"
        pattern = re.compile(
            r"""(?:\.inc|observe_time|\.event|record_event)\(\s*
                ["']([a-z_][a-z0-9_.]*)["']""",
            re.VERBOSE,
        )
        missing: set[str] = set()
        for path in src.rglob("*.py"):
            for name in pattern.findall(path.read_text(encoding="utf-8")):
                if not is_cataloged(name, names) and name not in names:
                    missing.add(f"{path.name}: {name}")
        assert not missing, (
            f"source emits names missing from docs/METRICS.md: "
            f"{sorted(missing)}"
        )
