"""Selective-sweep detection scans built on the GEMM LD matrix.

This is the library's flagship application (paper Section I: "high LD is
expected across a positively selected site" is *not* what sweep theory
predicts — LD is high *within* each flank and low *across* the swept site,
which is exactly what ω measures). The scan below is the GEMM-accelerated
replacement for OmegaPlus's demand-driven engine: one blocked popcount GEMM
produces every r² value of the region, then ω evaluations are cheap matrix
reductions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.omega import omega_scan_from_ld
from repro.core.blocking import BlockingParams
from repro.core.gemm import DEFAULT_KERNEL
from repro.core.ldmatrix import as_bitmatrix, compute_ld
from repro.encoding.bitmatrix import BitMatrix

__all__ = ["SweepScanResult", "sweep_scan"]


@dataclass(frozen=True)
class SweepScanResult:
    """Result of a GEMM-accelerated ω sweep scan.

    Attributes
    ----------
    grid:
        Genomic coordinates of the ω evaluation grid.
    omegas:
        Maximized ω per grid position.
    best_splits:
        Global SNP index of the best left-flank end per grid position.
    threshold:
        Significance threshold used by :attr:`candidate_regions`.
    """

    grid: np.ndarray
    omegas: np.ndarray
    best_splits: np.ndarray
    threshold: float

    @property
    def peak_position(self) -> float:
        """Grid coordinate of the maximum ω."""
        return float(self.grid[int(np.argmax(self.omegas))])

    @property
    def peak_omega(self) -> float:
        """The maximum ω value over the grid."""
        return float(np.max(self.omegas))

    def candidate_regions(self) -> list[tuple[float, float]]:
        """Contiguous grid intervals where ω exceeds the threshold."""
        above = self.omegas > self.threshold
        regions: list[tuple[float, float]] = []
        start: int | None = None
        for idx, flag in enumerate(above):
            if flag and start is None:
                start = idx
            elif not flag and start is not None:
                regions.append((float(self.grid[start]), float(self.grid[idx - 1])))
                start = None
        if start is not None:
            regions.append((float(self.grid[start]), float(self.grid[-1])))
        return regions


def sweep_scan(
    data: BitMatrix | np.ndarray,
    positions: np.ndarray | None = None,
    *,
    grid_size: int = 10,
    max_window: int = 100,
    search: str = "split",
    threshold: float | None = None,
    params: BlockingParams | None = None,
    kernel: str = DEFAULT_KERNEL,
) -> SweepScanResult:
    """Scan a region for selective sweeps via ω on the GEMM LD matrix.

    Parameters
    ----------
    data:
        Dense binary ``(n_samples, n_snps)`` matrix or packed
        :class:`BitMatrix`.
    positions:
        Monotonic genomic coordinates per SNP; defaults to SNP indices.
    grid_size, max_window:
        ω evaluation grid density and per-flank window cap.
    search:
        ``"split"`` (default) or ``"flanks"`` — see
        :func:`repro.analysis.omega.evaluate_grid_point`.
    threshold:
        Candidate-region threshold; defaults to the 95th percentile of the
        scan's own ω values (a common empirical-outlier convention).
    params, kernel:
        GEMM engine knobs, forwarded to the LD computation.
    """
    matrix = as_bitmatrix(data)
    if positions is None:
        positions = np.arange(matrix.n_snps, dtype=np.float64)
    else:
        positions = np.asarray(positions, dtype=np.float64)
    result = compute_ld(matrix, params=params, kernel=kernel)
    r2 = result.r2()
    omegas, splits = omega_scan_from_ld(
        r2, positions, np.linspace(positions[0], positions[-1], grid_size),
        max_window=max_window, search=search,
    )
    if threshold is None:
        finite = omegas[np.isfinite(omegas)]
        threshold = float(np.percentile(finite, 95.0)) if finite.size else 0.0
    return SweepScanResult(
        grid=np.linspace(positions[0], positions[-1], grid_size),
        omegas=omegas,
        best_splits=splits,
        threshold=threshold,
    )
