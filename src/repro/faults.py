"""Deterministic, seedable fault injection for the tiled LD engine.

At the ROADMAP's production scale an ``H = (1/N) GᵀG`` sweep is a
multi-hour sharded run, and the failure modes that matter — worker
crashes, hung processes, torn manifest appends, bit-flipped tile
payloads — are exactly the ones ad-hoc tests cannot reproduce on
demand. This module makes them reproducible: a :class:`FaultPlan` is a
seeded schedule of :class:`FaultSpec` entries that the execution layers
consult at five sites:

========================  ==================================================
site                      where the hook runs
========================  ==================================================
``tile_compute``          in the worker, before the tile GEMM
``tile_deliver``          in the worker, after compute (transport boundary)
``manifest_append``       in the driver, before journaling a tile
``pool_spawn``            in the driver, when (re)building a process pool
``prefetch``              in the driver, before an out-of-core panel-window
                          read (key: the window's ``(start, stop)`` rows);
                          a failed read fails the tile that needed the
                          window, and the attempt number is the window's
                          count of failed reads
========================  ==================================================

Every decision is a pure function of ``(seed, spec, site, tile key,
attempt)`` — no shared counters — so the schedule is bit-reproducible
regardless of tile ordering, thread interleaving, or which process
evaluates it (worker pools receive the plan by value). The hooks follow
the :mod:`repro.observe` pattern: the engine guards every site with
``if faults is not None``, so a disabled plan costs one pointer
comparison per tile and nothing else.

Actions:

- ``raise``: raise :class:`InjectedFault` (a retryable worker error);
- ``kill``: ``SIGKILL`` the current process when it is a pool worker
  (exercising the worker respawn), downgraded to ``raise`` in-process;
- ``delay``: sleep ``delay_seconds`` (exercising the tile watchdog);
- ``bitflip``: flip one payload bit *after* the worker checksummed the
  tile (exercising corruption detection on the handoff);
- ``torn``: truncate the manifest append mid-line and raise
  :class:`InjectedCrash` (exercising torn-tail tolerance on resume).

:class:`InjectedCrash` subclasses ``BaseException`` so the engine's
retry machinery never swallows it — it behaves like the power cut it
simulates, and only a resumed run recovers.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "FAULT_ACTIONS",
    "FAULT_SITES",
    "FaultPlan",
    "FaultSpec",
    "InjectedCrash",
    "InjectedFault",
]

#: Hook sites the engine exposes, in tile-lifecycle order.
FAULT_SITES = (
    "tile_compute",
    "tile_deliver",
    "manifest_append",
    "pool_spawn",
    "prefetch",
)

#: Supported injection actions.
FAULT_ACTIONS = ("raise", "kill", "delay", "bitflip", "torn")

#: Which actions make sense at which site.
_SITE_ACTIONS = {
    "tile_compute": ("raise", "kill", "delay"),
    "tile_deliver": ("raise", "delay", "bitflip"),
    "manifest_append": ("raise", "delay", "torn"),
    "pool_spawn": ("raise", "delay"),
    # A disk read can fail transiently (raise → its tile is retried) or
    # run slow (delay → surfaces as prefetch stall time in the roofline
    # report).
    "prefetch": ("raise", "delay"),
}


class InjectedFault(RuntimeError):
    """A deliberately injected, *retryable* failure."""


class InjectedCrash(BaseException):
    """A deliberately injected hard crash (power cut / ``kill -9``).

    Subclasses ``BaseException`` so per-tile retry (``except Exception``)
    never absorbs it; only crash/resume recovers, as in production.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule: *what* fires, *where*, and *how often*.

    Parameters
    ----------
    site:
        One of :data:`FAULT_SITES`.
    action:
        One of :data:`FAULT_ACTIONS` (validated against the site).
    rate:
        Probability the rule fires at each opportunity (deterministic
        per ``(seed, site, key, attempt)``; 1.0 = always).
    tile:
        Restrict to one tile key ``(i0, j0)``; ``None`` matches all.
    attempts_below:
        Fire only while the attempt number is below this bound. The
        knob that keeps a schedule *within the retry budget*: with
        ``attempts_below <= max_retries`` every injected failure is
        eventually retried past, so the run must still finish
        bit-identically. At the ``prefetch`` site the bound is per
        window, not per tile: a tile that needs two windows can be
        charged for the failed reads of both.
    delay_seconds:
        Sleep length for ``delay`` actions.
    """

    site: str
    action: str = "raise"
    rate: float = 1.0
    tile: tuple[int, int] | None = None
    attempts_below: int | None = None
    delay_seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; choose from {FAULT_SITES}"
            )
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; "
                f"choose from {FAULT_ACTIONS}"
            )
        if self.action not in _SITE_ACTIONS[self.site]:
            raise ValueError(
                f"action {self.action!r} is not injectable at "
                f"{self.site!r} (allowed: {_SITE_ACTIONS[self.site]})"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.attempts_below is not None and self.attempts_below < 1:
            raise ValueError(
                f"attempts_below must be >= 1, got {self.attempts_below}"
            )
        if self.delay_seconds < 0:
            raise ValueError(
                f"delay_seconds must be non-negative, got {self.delay_seconds}"
            )
        if self.tile is not None:
            object.__setattr__(self, "tile", (int(self.tile[0]), int(self.tile[1])))

    def to_dict(self) -> dict:
        """JSON-serializable form (defaults included for explicitness)."""
        return {
            "site": self.site,
            "action": self.action,
            "rate": self.rate,
            "tile": list(self.tile) if self.tile is not None else None,
            "attempts_below": self.attempts_below,
            "delay_seconds": self.delay_seconds,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultSpec":
        known = {
            "site", "action", "rate", "tile", "attempts_below", "delay_seconds",
        }
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown FaultSpec fields {sorted(unknown)}; "
                f"allowed: {sorted(known)}"
            )
        if "site" not in payload:
            raise ValueError("FaultSpec requires a 'site' field")
        kwargs = dict(payload)
        tile = kwargs.get("tile")
        if tile is not None:
            kwargs["tile"] = (int(tile[0]), int(tile[1]))
        return cls(**kwargs)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, order-independent schedule of injected faults.

    The plan is immutable and picklable — the process engine ships it to
    workers by value — and every decision re-derives from the seed, so
    two processes evaluating the same opportunity always agree.
    """

    seed: int = 0
    specs: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    # -- deterministic decision machinery ---------------------------------

    def _unit(self, spec_idx: int, site: str, key: tuple[int, int],
              attempt: int, salt: str = "") -> float:
        """Uniform value in [0, 1) derived purely from the identity.

        blake2b, not crc32: CRC is linear over GF(2), so nearby seeds
        would produce correlated (often identical) threshold decisions.
        """
        token = f"{self.seed}|{spec_idx}|{site}|{key[0]},{key[1]}|{attempt}|{salt}"
        digest = hashlib.blake2b(token.encode(), digest_size=8).digest()
        return int.from_bytes(digest, "little") / 2**64

    def _fires(self, spec_idx: int, spec: FaultSpec, site: str,
               key: tuple[int, int], attempt: int) -> bool:
        if spec.site != site:
            return False
        if spec.tile is not None and spec.tile != (key[0], key[1]):
            return False
        if spec.attempts_below is not None and attempt >= spec.attempts_below:
            return False
        if spec.rate >= 1.0:
            return True
        if spec.rate <= 0.0:
            return False
        return self._unit(spec_idx, site, key, attempt) < spec.rate

    # -- hook entry points ------------------------------------------------

    def fire(self, site: str, key: tuple[int, int], attempt: int,
             *, can_kill: bool = False) -> None:
        """Evaluate raise/kill/delay rules for one opportunity.

        May sleep (``delay``), raise :class:`InjectedFault` (``raise``,
        or ``kill`` outside a sacrificeable process), or ``SIGKILL`` the
        calling process (``kill`` with ``can_kill=True`` — the process
        engine's workers). ``bitflip``/``torn`` rules are inert here;
        they have dedicated entry points.
        """
        for idx, spec in enumerate(self.specs):
            if spec.action in ("bitflip", "torn"):
                continue
            if not self._fires(idx, spec, site, key, attempt):
                continue
            if spec.action == "delay":
                time.sleep(spec.delay_seconds)
                continue
            if spec.action == "kill" and can_kill:
                os.kill(os.getpid(), signal.SIGKILL)
            raise InjectedFault(
                f"injected {spec.action} at {site} tile={key} attempt={attempt}"
            )

    def corrupt(self, site: str, key: tuple[int, int], attempt: int,
                block: np.ndarray) -> bool:
        """Apply any matching ``bitflip`` rule to *block* in place.

        Call *after* the payload checksum is taken, so the flip models
        corruption on the handoff. Returns True if a bit was flipped.
        """
        for idx, spec in enumerate(self.specs):
            if spec.action != "bitflip":
                continue
            if not self._fires(idx, spec, site, key, attempt):
                continue
            flat = block.reshape(-1).view(np.uint8)
            if flat.size == 0:  # pragma: no cover - empty tiles never scheduled
                return False
            pos = int(self._unit(idx, site, key, attempt, "pos") * flat.size)
            bit = int(self._unit(idx, site, key, attempt, "bit") * 8)
            flat[pos] ^= np.uint8(1 << bit)
            return True
        return False

    def should_tear(self, key: tuple[int, int], attempt: int = 0) -> bool:
        """True when a ``torn`` rule fires for this manifest append.

        The manifest writer responds by truncating the record mid-line
        and raising :class:`InjectedCrash` — the simulated power cut.
        """
        return any(
            spec.action == "torn"
            and self._fires(idx, spec, "manifest_append", key, attempt)
            for idx, spec in enumerate(self.specs)
        )

    # -- (de)serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return {"seed": self.seed, "specs": [s.to_dict() for s in self.specs]}

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        if not isinstance(payload, dict):
            raise ValueError(
                f"fault plan must be a JSON object, got {type(payload).__name__}"
            )
        unknown = set(payload) - {"seed", "specs"}
        if unknown:
            raise ValueError(
                f"unknown fault-plan fields {sorted(unknown)}; "
                "allowed: ['seed', 'specs']"
            )
        specs = payload.get("specs", [])
        if not isinstance(specs, list):
            raise ValueError("fault-plan 'specs' must be a list")
        return cls(
            seed=int(payload.get("seed", 0)),
            specs=tuple(FaultSpec.from_dict(s) for s in specs),
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "FaultPlan":
        """Load a plan from a JSON file (the CLI's ``--fault-plan``)."""
        path = Path(path)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"unreadable fault plan {path}: {exc}") from exc
        try:
            return cls.from_dict(payload)
        except (ValueError, TypeError, KeyError, IndexError) as exc:
            raise ValueError(f"invalid fault plan {path}: {exc}") from exc
