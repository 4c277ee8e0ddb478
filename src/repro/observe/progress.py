"""Live progress reporting for tiled LD runs (tiles/s, pairs/s, ETA).

A multi-hour out-of-core run that prints nothing until the final tile
count is indistinguishable from a hung one. :class:`ProgressReporter` is
a sink of the run's :class:`~repro.observe.metrics.MetricsRecorder`: it
takes the totals from the engine's ``run_start`` event, counts the
``tile_computed`` / ``tile_skipped`` events against them, and renders a
single self-overwriting status line::

    ld: 37/120 tiles (30.8%)  14.2 Mpairs/s  3.1 tiles/s  eta 27s

The displayed rates come from a sliding window (default 20 s) of recent
completions, not the cumulative average — on a long run the cumulative
number converges to a constant and stops reflecting what the machine is
doing *now* (a stalled pool would keep showing a healthy rate for
minutes). The ETA uses the same windowed rate, falling back to the
cumulative one until the window has two samples.

Rendering is rate-limited (default: at most ~10 lines/s) and entirely
separate from accounting, so :meth:`snapshot` is usable headless — the
engine tests assert on snapshots without any terminal involved.
"""

from __future__ import annotations

import sys
import time
from collections import deque
from dataclasses import dataclass

from repro.util.timing import format_seconds

__all__ = ["ProgressReporter", "ProgressSnapshot"]


@dataclass(frozen=True)
class ProgressSnapshot:
    """Point-in-time progress accounting."""

    tiles_done: int
    tiles_total: int
    pairs_done: int
    pairs_total: int
    elapsed_seconds: float
    #: Sliding-window rates (0.0 until the window holds two samples);
    #: cumulative-rate properties below are always available.
    window_tiles_per_second: float = 0.0
    window_pairs_per_second: float = 0.0

    @property
    def fraction(self) -> float:
        """Completed fraction by pairs (the honest unit: tiles vary in size)."""
        return self.pairs_done / self.pairs_total if self.pairs_total else 1.0

    @property
    def tiles_per_second(self) -> float:
        return self.tiles_done / self.elapsed_seconds if self.elapsed_seconds > 0 else 0.0

    @property
    def pairs_per_second(self) -> float:
        return self.pairs_done / self.elapsed_seconds if self.elapsed_seconds > 0 else 0.0

    @property
    def eta_seconds(self) -> float:
        """Remaining wall-clock at the observed pair rate (inf if unknown).

        Prefers the windowed rate (what the run is doing now) and falls
        back to the cumulative one while the window is still warming up.
        """
        rate = self.window_pairs_per_second or self.pairs_per_second
        remaining = self.pairs_total - self.pairs_done
        if remaining <= 0:
            return 0.0
        return remaining / rate if rate > 0 else float("inf")


class ProgressReporter:
    """Tracks tile/pair completion and optionally renders a stderr line.

    Attach it as ``MetricsRecorder(sinks=[ProgressReporter()])``. The
    totals come from the ``run_start`` event (``n_tiles``,
    ``pairs_total``); every ``tile_computed`` and ``tile_skipped`` event
    advances the bar by its ``pairs``. Skipped tiles count as done — a
    resumed run starts partway along the bar, matching the work actually
    left.

    Parameters
    ----------
    stream:
        Where to render; ``None`` disables rendering but keeps the
        accounting (headless mode). Defaults to ``sys.stderr``.
    min_interval:
        Minimum seconds between rendered lines (the final line on
        :meth:`close` always renders).
    label:
        Prefix of the status line.
    window_seconds:
        Width of the sliding window behind the displayed rates and ETA.
    """

    def __init__(
        self,
        *,
        stream=sys.stderr,
        min_interval: float = 0.1,
        label: str = "ld",
        window_seconds: float = 20.0,
    ) -> None:
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        self.tiles_total = 0
        self.pairs_total = 0
        self.stream = stream
        self.min_interval = min_interval
        self.label = label
        self.window_seconds = window_seconds
        self.tiles_done = 0
        self.pairs_done = 0
        self._start = time.perf_counter()
        #: (timestamp, tiles_done, pairs_done) samples inside the window;
        #: the oldest sample anchors the rate, so it is only evicted once
        #: a younger sample has itself aged past the window.
        self._window: deque[tuple[float, int, int]] = deque()
        self._window.append((self._start, 0, 0))
        self._last_render = float("-inf")
        self._rendered = False

    def write(self, event: dict) -> None:
        """Fold one recorder event into the accounting."""
        kind = event["kind"]
        if kind == "run_start":
            self.tiles_total = event["n_tiles"]
            self.pairs_total = event["pairs_total"]
            return
        if kind not in ("tile_computed", "tile_skipped"):
            return
        self.tiles_done += 1
        self.pairs_done += event["pairs"]
        now = time.perf_counter()
        window = self._window
        window.append((now, self.tiles_done, self.pairs_done))
        horizon = now - self.window_seconds
        while len(window) > 2 and window[1][0] <= horizon:
            window.popleft()
        self._maybe_render()

    def _window_rates(self) -> tuple[float, float]:
        """(tiles/s, pairs/s) over the sliding window; (0, 0) if empty."""
        window = self._window
        if len(window) < 2:
            return 0.0, 0.0
        t0, tiles0, pairs0 = window[0]
        t1, tiles1, pairs1 = window[-1]
        span = t1 - t0
        if span <= 0:
            return 0.0, 0.0
        return (tiles1 - tiles0) / span, (pairs1 - pairs0) / span

    def snapshot(self) -> ProgressSnapshot:
        """Current accounting, independent of rendering."""
        window_tps, window_pps = self._window_rates()
        return ProgressSnapshot(
            tiles_done=self.tiles_done,
            tiles_total=self.tiles_total,
            pairs_done=self.pairs_done,
            pairs_total=self.pairs_total,
            elapsed_seconds=time.perf_counter() - self._start,
            window_tiles_per_second=window_tps,
            window_pairs_per_second=window_pps,
        )

    def format_line(self) -> str:
        """Render the current status as one line (no trailing newline)."""
        snap = self.snapshot()
        eta = snap.eta_seconds
        # eta == 0.0 means "nothing left" (finished, or resume skipped
        # everything) — render "--" like the unknown case, never "eta 0s".
        if eta == 0.0 or eta == float("inf"):
            eta_text = "--"
        else:
            eta_text = format_seconds(eta)
        pairs_rate = snap.window_pairs_per_second or snap.pairs_per_second
        tiles_rate = snap.window_tiles_per_second or snap.tiles_per_second
        return (
            f"{self.label}: {snap.tiles_done}/{snap.tiles_total} tiles "
            f"({100.0 * snap.fraction:.1f}%)  "
            f"{pairs_rate / 1e6:.2f} Mpairs/s  "
            f"{tiles_rate:.1f} tiles/s  eta {eta_text}"
        )

    def _maybe_render(self, *, force: bool = False) -> None:
        if self.stream is None:
            return
        now = time.perf_counter()
        if not force and now - self._last_render < self.min_interval:
            return
        self._last_render = now
        self.stream.write("\r" + self.format_line())
        self.stream.flush()
        self._rendered = True

    def close(self) -> None:
        """Render the final line and terminate it with a newline."""
        if self.stream is not None:
            self._maybe_render(force=True)
            if self._rendered:
                self.stream.write("\n")
                self.stream.flush()

    def __enter__(self) -> "ProgressReporter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
