"""docs/METRICS.md is a contract: emitted names must all be cataloged,
and every emitted event must carry exactly its documented fields."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from repro.core.engine import run_engine
from repro.core.executors import stop_pools
from repro.faults import FaultPlan, FaultSpec, InjectedCrash
from repro.observe import MetricsRecorder, profiling

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


def documented_event_fields() -> dict[str, tuple[set[str], set[str]]]:
    """kind -> (required, optional) fields from the event-kind table."""
    text = CATALOG.read_text(encoding="utf-8")
    section = text.split("## Trace event kinds", 1)[1].split("\n## ", 1)[0]
    table: dict[str, tuple[set[str], set[str]]] = {}
    for kind, cell in re.findall(r"^\| `([a-z_]+)` \| ([^|]*) \|", section,
                                 flags=re.MULTILINE):
        names = [name.strip() for name in cell.split(",") if name.strip()]
        table[kind] = (
            {n for n in names if not n.endswith("?")},
            {n[:-1] for n in names if n.endswith("?")},
        )
    return table


#: Fields every record carries whatever its kind.
_ENVELOPE = {"kind", "ts"}


@pytest.fixture
def fault_run_events(tmp_path_factory, instant_retries):
    """Events of runs that reach every optional field and most kinds.

    A banded serial run is cut by a torn journal append, then resumed
    under span profiling with a poison tile (retry, quarantine), a
    bit-flip (corruption) and a slow tile (watchdog); a persistent run
    loses a worker to a kill (pool spawn, respawn); a pool that cannot
    spawn degrades to threads.
    """
    rng = np.random.default_rng(0xF1E1D)
    panel = rng.integers(0, 2, size=(50, 41)).astype(np.uint8)
    manifest = tmp_path_factory.mktemp("catalog") / "run.manifest"
    events: list[dict] = []

    def run(**kwargs) -> None:
        recorder = MetricsRecorder(keep_events=True, run_id="catalog-run")
        try:
            run_engine(panel, lambda *a: None, block_snps=8,
                       recorder=recorder, **kwargs)
        finally:
            events.extend(recorder.events)

    banded = dict(engine="serial", band=12, manifest_path=manifest)
    with pytest.raises(InjectedCrash):
        run(**banded, faults=FaultPlan(specs=(
            FaultSpec(site="manifest_append", action="torn", tile=(16, 0)),
        )))
    with profiling():
        run(**banded, resume=True, max_retries=1, allow_quarantine=True,
            tile_timeout=0.2, faults=FaultPlan(specs=(
                FaultSpec(site="tile_compute", tile=(24, 8)),
                FaultSpec(site="tile_deliver", action="bitflip",
                          tile=(32, 16), attempts_below=1),
                FaultSpec(site="tile_compute", action="delay",
                          tile=(40, 24), attempts_below=1,
                          delay_seconds=0.3),
            )))
    stop_pools()
    run(engine="persistent", n_workers=2, faults=FaultPlan(specs=(
        FaultSpec(site="tile_compute", action="kill", tile=(16, 0),
                  attempts_below=1),
    )))
    stop_pools()
    run(engine="persistent", n_workers=2, faults=FaultPlan(specs=(
        FaultSpec(site="pool_spawn"),
    )))
    stop_pools()
    return events


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
            "engine.tiles_computed", "engine.run_seconds",
            "prefetch.stall_seconds",
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

    def test_span_catalog_matches_the_code(self):
        """Static check: the worker and driver span lists together name
        exactly the ``span("...")`` literals under src/repro."""
        text = CATALOG.read_text(encoding="utf-8")
        documented: set[str] = set()
        for lead in ("Worker phase span names", "Driver-side spans"):
            paragraph = text.split(lead, 1)[1].split("\n\n", 1)[0]
            documented |= set(re.findall(r"`([a-z_][a-z0-9_.]*)`", paragraph))
        src = CATALOG.parent.parent / "src" / "repro"
        pattern = re.compile(r"""\bspan\(\s*["']([^"']+)["']""")
        emitted = {
            name
            for path in src.rglob("*.py")
            for name in pattern.findall(path.read_text(encoding="utf-8"))
        }
        assert documented == emitted, (
            f"only in docs/METRICS.md: {sorted(documented - emitted)}; "
            f"only in src/: {sorted(emitted - documented)}"
        )

    def test_every_event_carries_exactly_its_documented_fields(
        self, fault_run_events
    ):
        documented = documented_event_fields()
        kinds = {e["kind"] for e in fault_run_events}
        # The runs reached what they were built to reach.
        assert {
            "run_start", "run_end", "tile_computed", "tile_skipped",
            "tile_retry", "tile_corrupt", "tile_timeout",
            "tile_quarantined", "pool_spawn", "worker_respawn",
            "pool_spawn_failed", "executor_degraded",
        } <= kinds
        assert any("band" in e for e in fault_run_events)
        assert any("run_id" in e for e in fault_run_events)
        assert any("phases" in e for e in fault_run_events)
        for event in fault_run_events:
            kind = event["kind"]
            assert kind in documented, f"{kind} has no row in the schema"
            required, optional = documented[kind]
            fields = set(event) - _ENVELOPE
            assert required <= fields, (
                f"{kind} lacks documented fields {sorted(required - fields)}"
            )
            assert fields <= required | optional, (
                f"{kind} carries undocumented fields "
                f"{sorted(fields - required - optional)}"
            )
