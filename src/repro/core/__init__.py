"""Core contribution: LD computation as dense linear algebra (GEMM).

This package implements the paper's central idea (Sections II–IV):

- the haplotype-frequency matrix is ``H = (1/N_seq) GᵀG`` — a rank-k GEMM
  over the bit-packed genomic matrix, with multiply/add replaced by
  AND/POPCNT/ADD over 64-bit words;
- the LD matrix is ``D = H − p pᵀ`` (rank-1 update) and ``r²`` follows
  elementwise (Equation 2);
- the GEMM is realised with the GotoBLAS/BLIS layered algorithm: a five-loop
  blocked nest around a small ``m_r × n_r`` micro-kernel, with both operand
  panels packed into contiguous buffers (Figure 1).

Public entry points live in :mod:`repro.core.ldmatrix`.
"""

from repro.core.banding import (
    BandSpec,
    dense_pair_cells,
    dense_tile_count,
    genomic_index_width,
)
from repro.core.blocking import (
    BlockingParams,
    DEFAULT_BLOCKING,
    MICRO_BLOCKING,
    select_blocking,
)
from repro.core.gemm import (
    GemmCounts,
    popcount_gemm,
    popcount_gemm_flat,
    popcount_gram,
    gemm_operation_counts,
)
from repro.core.engine import (
    ENGINES,
    EngineReport,
    TileCorruptionError,
    TileManifest,
    TileResult,
    TileTask,
    TileTimeoutError,
    enumerate_tiles,
    run_engine,
    store_fingerprint,
)
from repro.core.executors import (
    ExecutorBackend,
    panel_fingerprint,
    panel_store_key,
    reap_idle_pools,
    stop_pools,
)
from repro.core.prefetch import (
    PanelPrefetcher,
    PanelWindow,
    min_memory_budget,
    order_panel_major,
    plan_windows,
)
from repro.core.genotype_ld import genotype_r2_matrix
from repro.core.frequencies import (
    allele_frequencies,
    haplotype_frequencies,
    haplotype_frequencies_cross,
)
from repro.core.ldmatrix import LDResult, ld_cross, ld_matrix, ld_pairs
from repro.core.microkernel import (
    MICRO_KERNELS,
    microkernel_numpy,
    microkernel_scalar,
)
from repro.core.streaming import (
    BandedNpySink,
    NpyMemmapSink,
    ThresholdCollector,
    stream_ld_blocks,
)
from repro.core.windowed import BandedLDMatrix, banded_ld, write_banded_block
from repro.core.stats import (
    d_matrix,
    d_prime_matrix,
    ld_chi2_matrix,
    ld_coefficient,
    r_squared,
    r_squared_adjusted,
    r_squared_matrix,
)

__all__ = [
    "BandSpec",
    "dense_pair_cells",
    "dense_tile_count",
    "genomic_index_width",
    "BlockingParams",
    "DEFAULT_BLOCKING",
    "MICRO_BLOCKING",
    "select_blocking",
    "GemmCounts",
    "popcount_gemm",
    "popcount_gemm_flat",
    "popcount_gram",
    "gemm_operation_counts",
    "ENGINES",
    "EngineReport",
    "TileCorruptionError",
    "TileManifest",
    "TileResult",
    "TileTask",
    "TileTimeoutError",
    "enumerate_tiles",
    "run_engine",
    "store_fingerprint",
    "ExecutorBackend",
    "panel_fingerprint",
    "panel_store_key",
    "reap_idle_pools",
    "stop_pools",
    "PanelPrefetcher",
    "PanelWindow",
    "min_memory_budget",
    "order_panel_major",
    "plan_windows",
    "genotype_r2_matrix",
    "allele_frequencies",
    "haplotype_frequencies",
    "haplotype_frequencies_cross",
    "LDResult",
    "ld_cross",
    "ld_matrix",
    "ld_pairs",
    "MICRO_KERNELS",
    "microkernel_numpy",
    "microkernel_scalar",
    "BandedLDMatrix",
    "banded_ld",
    "write_banded_block",
    "BandedNpySink",
    "NpyMemmapSink",
    "ThresholdCollector",
    "stream_ld_blocks",
    "d_matrix",
    "d_prime_matrix",
    "ld_chi2_matrix",
    "ld_coefficient",
    "r_squared",
    "r_squared_adjusted",
    "r_squared_matrix",
]
