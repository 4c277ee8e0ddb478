"""Measured-vs-modeled performance: the paper's %-of-peak as an artifact.

Figures 3–4 plot *achieved fraction of a redefined theoretical peak* —
the paper's whole argument is that the blocked popcount GEMM lands close
to what the hardware admits. DESIGN.md substitutes an analytical Haswell
model (:mod:`repro.machine`) for the paper's testbed; this module closes
the loop by converting a *measured* GEMM (or tiled-engine) wall-clock
into effective ops/cycle on that model and placing it next to the
model's own prediction for the same shape and blocking:

>>> from repro.observe import compare_to_model
>>> cmp = compare_to_model(220, 220, 2, measured_seconds=0.05, symmetric=True)
>>> 0 < cmp.measured_percent_of_peak
True

``measured_percent_of_peak`` answers "how fast was this run in the
model's currency"; ``modeled_percent_of_peak`` answers "how fast does
the model say this shape *can* go"; their ratio says how honest the
model is about this machine — the first-class measured-vs-modeled
report the benchmarks serialize into ``BENCH_engine.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.blocking import BlockingParams, MICRO_BLOCKING
from repro.core.gemm import gemm_operation_counts
from repro.machine.cpu import HASWELL, MachineSpec
from repro.machine.isa import SCALAR64, SimdConfig
from repro.machine.perfmodel import (
    estimate_gemm_performance,
    estimate_gemm_phases,
    measured_ops_per_cycle,
)

__all__ = [
    "PeakComparison",
    "PhaseComparison",
    "compare_phases_to_model",
    "compare_to_model",
]


@dataclass(frozen=True)
class PeakComparison:
    """One measured execution placed against the analytical model.

    Attributes
    ----------
    m, n, k_words:
        GEMM shape (SNPs × SNPs over packed 64-bit words per SNP).
    symmetric:
        Whether the lower-triangle Gram traversal was modeled.
    total_ops:
        Logical AND+POPCNT+ADD operations of the blocked execution
        (padding included — the unit of Figures 3–4).
    measured_seconds:
        Observed wall-clock of the run being scored.
    measured_ops_per_cycle, modeled_ops_per_cycle, peak_ops_per_cycle:
        Throughputs in the model's currency.
    modeled_seconds:
        The model's predicted wall-clock at the machine's frequency.
    """

    m: int
    n: int
    k_words: int
    symmetric: bool
    total_ops: int
    measured_seconds: float
    measured_ops_per_cycle: float
    modeled_ops_per_cycle: float
    peak_ops_per_cycle: float
    modeled_seconds: float

    @property
    def measured_percent_of_peak(self) -> float:
        """Measured throughput vs the Section IV-B theoretical peak."""
        return 100.0 * self.measured_ops_per_cycle / self.peak_ops_per_cycle

    @property
    def modeled_percent_of_peak(self) -> float:
        """Model-predicted throughput vs the same peak (Fig. 3/4 y-axis)."""
        return 100.0 * self.modeled_ops_per_cycle / self.peak_ops_per_cycle

    @property
    def measured_vs_modeled(self) -> float:
        """Ratio measured/modeled throughput (1.0 = model exactly honest)."""
        return self.measured_ops_per_cycle / self.modeled_ops_per_cycle

    def as_dict(self) -> dict:
        """JSON-serializable record (the ``BENCH_engine.json`` row shape)."""
        return {
            "m": self.m,
            "n": self.n,
            "k_words": self.k_words,
            "symmetric": self.symmetric,
            "total_ops": self.total_ops,
            "measured_seconds": self.measured_seconds,
            "modeled_seconds": self.modeled_seconds,
            "measured_ops_per_cycle": self.measured_ops_per_cycle,
            "modeled_ops_per_cycle": self.modeled_ops_per_cycle,
            "peak_ops_per_cycle": self.peak_ops_per_cycle,
            "measured_percent_of_peak": self.measured_percent_of_peak,
            "modeled_percent_of_peak": self.modeled_percent_of_peak,
            "measured_vs_modeled": self.measured_vs_modeled,
        }


@dataclass(frozen=True)
class PhaseComparison:
    """One execution phase: measured seconds against the model's share.

    The per-phase counterpart of :class:`PeakComparison` — instead of
    one aggregate %-of-peak, each phase of the blocked execution
    (pack-A, pack-B, plane matmul, copy-out, mirror, overhead) is
    scored on where its time *should* go (the roofline ``kind``:
    compute-bound, memory-bound, or overhead) and how the measured
    share of wall-clock compares to the modelled share.

    Attributes
    ----------
    name:
        Phase name (matches the span vocabulary of the hot paths).
    kind:
        Roofline classification from the model: ``"compute"``,
        ``"memory"``, or ``"overhead"``. Measured phases the model has
        no estimate for (``stat``, ``driver.*``, ...) are classified
        ``"overhead"`` with ``modeled_seconds = 0``.
    measured_seconds:
        Summed self-time of the phase's spans across all workers
        (CPU-seconds, the same currency as single-core model cycles);
        ``None`` when the phase was modelled but never measured.
    modeled_seconds:
        The model's prediction for the phase at the machine frequency.
    measured_share, modeled_share:
        Each side normalized by its own total, so the two distributions
        are comparable even when absolute throughput differs from the
        model.
    """

    name: str
    kind: str
    measured_seconds: float | None
    modeled_seconds: float
    measured_share: float | None
    modeled_share: float

    @property
    def measured_vs_modeled(self) -> float | None:
        """Ratio of measured to modelled seconds (None when unmeasurable)."""
        if self.measured_seconds is None or self.modeled_seconds <= 0:
            return None
        return self.measured_seconds / self.modeled_seconds

    def as_dict(self) -> dict:
        """JSON-serializable record (one row of the run report's roofline)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "measured_seconds": self.measured_seconds,
            "modeled_seconds": self.modeled_seconds,
            "measured_share": self.measured_share,
            "modeled_share": self.modeled_share,
            "measured_vs_modeled": self.measured_vs_modeled,
        }


def compare_phases_to_model(
    measured: dict[str, float],
    m: int,
    n: int,
    k_words: int,
    *,
    params: BlockingParams = MICRO_BLOCKING,
    machine: MachineSpec = HASWELL,
    simd: SimdConfig = SCALAR64,
    symmetric: bool = False,
) -> list[PhaseComparison]:
    """Join measured per-phase seconds against the model's phase schedule.

    Parameters
    ----------
    measured:
        Phase name → summed self-seconds (e.g. a profiler's totals, or
        the engine's ``phase.*`` timers summed across tiles). Names the
        model knows (``pack_a``, ``pack_b``, ``plane_matmul``,
        ``copy_out``, ``mirror``, ``overhead``) are scored against their
        estimates; unknown names are carried through as unmodelled
        overhead so the report never silently drops measured time.
    m, n, k_words, params, machine, simd, symmetric:
        The executed problem, as for :func:`compare_to_model`.

    Returns the union of modelled and measured phases, modelled order
    first, sorted within the unmodelled remainder by descending
    measured time.
    """
    for name, seconds in measured.items():
        if seconds < 0:
            raise ValueError(
                f"measured seconds must be non-negative, got "
                f"{name}={seconds}"
            )
    estimates = estimate_gemm_phases(
        m, n, k_words, params=params, machine=machine, simd=simd,
        symmetric=symmetric,
    )
    modeled_total = sum(e.seconds for e in estimates)
    measured_total = sum(measured.values())
    out: list[PhaseComparison] = []
    for est in estimates:
        secs = measured.get(est.name)
        out.append(PhaseComparison(
            name=est.name,
            kind=est.kind,
            measured_seconds=secs,
            modeled_seconds=est.seconds,
            measured_share=(
                secs / measured_total
                if secs is not None and measured_total > 0 else None
            ),
            modeled_share=(
                est.seconds / modeled_total if modeled_total > 0 else 0.0
            ),
        ))
    known = {est.name for est in estimates}
    extras = sorted(
        ((name, secs) for name, secs in measured.items() if name not in known),
        key=lambda item: -item[1],
    )
    for name, secs in extras:
        out.append(PhaseComparison(
            name=name,
            kind="overhead",
            measured_seconds=secs,
            modeled_seconds=0.0,
            measured_share=(
                secs / measured_total if measured_total > 0 else None
            ),
            modeled_share=0.0,
        ))
    return out


def compare_to_model(
    m: int,
    n: int,
    k_words: int,
    measured_seconds: float,
    *,
    params: BlockingParams = MICRO_BLOCKING,
    machine: MachineSpec = HASWELL,
    simd: SimdConfig = SCALAR64,
    symmetric: bool = False,
) -> PeakComparison:
    """Score a measured GEMM-shaped execution against the machine model.

    Parameters
    ----------
    m, n, k_words:
        Shape of the executed problem. For a full lower-triangle LD run
        over ``N`` SNPs, pass ``m = n = N`` with ``symmetric=True``.
    measured_seconds:
        Observed wall-clock for that problem.
    params, machine, simd:
        Blocking and hardware description to model against — use the
        same blocking the run executed so the operation counts (and the
        fringe padding they charge) match what actually ran.
    """
    if measured_seconds <= 0:
        raise ValueError(
            f"measured_seconds must be positive, got {measured_seconds}"
        )
    counts = gemm_operation_counts(m, n, k_words, params, symmetric=symmetric)
    estimate = estimate_gemm_performance(
        m, n, k_words, params=params, machine=machine, simd=simd,
        symmetric=symmetric,
    )
    achieved = measured_ops_per_cycle(
        counts.total_ops, measured_seconds, machine=machine
    )
    return PeakComparison(
        m=m,
        n=n,
        k_words=k_words,
        symmetric=symmetric,
        total_ops=counts.total_ops,
        measured_seconds=measured_seconds,
        measured_ops_per_cycle=achieved,
        modeled_ops_per_cycle=estimate.ops_per_cycle,
        peak_ops_per_cycle=estimate.peak_ops_per_cycle,
        modeled_seconds=estimate.seconds,
    )
