"""Cache-blocking parameters for the GotoBLAS-style LD GEMM.

The GotoBLAS algorithm (Section III-A, Figure 1) partitions the operands so
that each level of the loop nest streams from one level of the memory
hierarchy:

- a ``k_c × n_r`` micro-panel of B lives in the L1 cache,
- an ``m_c × k_c`` packed block of A lives in the L2 cache,
- a ``k_c × n_c`` packed panel of B lives in the L3 cache,
- an ``m_r × n_r`` output micro-tile lives in registers.

For the LD kernel one "element" is a 64-bit word of packed alleles, so sizes
are counted in 8-byte words rather than doubles — the arithmetic is otherwise
identical to dense GEMM blocking. :func:`select_blocking` derives parameters
from cache capacities the way BLIS does (see Low et al., "Analytical modeling
is enough for high-performance BLIS"): it is deliberately simple, because the
paper stresses that *no tuning* beyond the double-precision defaults was
needed (Section IV: "No attempt was made to tune the parameters").
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "BlockingParams",
    "CARRIER_ASSEMBLY_COST",
    "CARRIER_LOOKUP_COST",
    "DEFAULT_BLOCKING",
    "FUSED_BLOCKING",
    "MICRO_BLOCKING",
    "select_blocking",
]

#: Bytes per packed element (one uint64 word of 64 alleles).
ELEMENT_BYTES = 8


@dataclass(frozen=True)
class BlockingParams:
    """The five GotoBLAS blocking parameters, in elements (packed words for k).

    Attributes
    ----------
    mc, nc, kc:
        Cache-level block sizes: the packed A block is ``mc × kc``, the packed
        B panel is ``kc × nc``.
    mr, nr:
        Register-level micro-tile: the micro-kernel updates an ``mr × nr``
        block of C per invocation.
    """

    mc: int
    nc: int
    kc: int
    mr: int
    nr: int

    def __post_init__(self) -> None:
        for name in ("mc", "nc", "kc", "mr", "nr"):
            value = getattr(self, name)
            if int(value) <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.mc % self.mr:
            raise ValueError(
                f"mc ({self.mc}) must be a multiple of mr ({self.mr}) so packed "
                "A blocks tile exactly into micro-panels"
            )
        if self.nc % self.nr:
            raise ValueError(
                f"nc ({self.nc}) must be a multiple of nr ({self.nr}) so packed "
                "B panels tile exactly into micro-panels"
            )

    @property
    def a_block_bytes(self) -> int:
        """Footprint of one packed A block (targets L2)."""
        return self.mc * self.kc * ELEMENT_BYTES

    @property
    def b_panel_bytes(self) -> int:
        """Footprint of one packed B panel (targets L3)."""
        return self.kc * self.nc * ELEMENT_BYTES

    @property
    def b_micropanel_bytes(self) -> int:
        """Footprint of one B micro-panel (targets L1)."""
        return self.kc * self.nr * ELEMENT_BYTES

    def describe(self) -> str:
        """Human-readable summary used by the benchmark harnesses."""
        return (
            f"mc={self.mc} nc={self.nc} kc={self.kc} mr={self.mr} nr={self.nr} "
            f"(A block {self.a_block_bytes // 1024} KiB, "
            f"B panel {self.b_panel_bytes // 1024} KiB)"
        )


def select_blocking(
    *,
    l1_bytes: int = 32 * 1024,
    l2_bytes: int = 256 * 1024,
    l3_bytes: int = 8 * 1024 * 1024,
    mr: int = 8,
    nr: int = 8,
    max_nc: int = 4096,
) -> BlockingParams:
    """Derive blocking parameters from cache capacities (BLIS-style).

    The rules follow the standard analytical model:

    - ``kc``: half the L1 should hold a ``kc × nr`` B micro-panel, leaving
      room for the streaming A micro-panel;
    - ``mc``: half the L2 should hold the ``mc × kc`` packed A block;
    - ``nc``: half the L3 should hold the ``kc × nc`` packed B panel, capped
      at ``max_nc`` and rounded down to a multiple of ``nr``.

    Defaults correspond to the paper's Haswell test machine (32 KiB L1d,
    256 KiB L2, shared L3).
    """
    if min(l1_bytes, l2_bytes, l3_bytes) <= 0:
        raise ValueError("cache sizes must be positive")
    if l1_bytes > l2_bytes or l2_bytes > l3_bytes:
        raise ValueError("expected l1 <= l2 <= l3")
    kc = max(1, (l1_bytes // 2) // (nr * ELEMENT_BYTES))
    mc = max(mr, ((l2_bytes // 2) // (kc * ELEMENT_BYTES)) // mr * mr)
    nc = max(nr, ((l3_bytes // 2) // (kc * ELEMENT_BYTES)) // nr * nr)
    nc = min(nc, max_nc // nr * nr)
    return BlockingParams(mc=mc, nc=nc, kc=kc, mr=mr, nr=nr)


#: Blocking used by the vectorized numpy micro-kernel. The register tile is
#: far larger than a hardware kernel's (128×128 "virtual registers") because
#: each numpy micro-kernel invocation carries interpreter overhead that must
#: be amortized — the Python analogue of instruction-issue overhead.
DEFAULT_BLOCKING = BlockingParams(mc=256, nc=2048, kc=512, mr=128, nr=128)

#: Blocking with a hardware-realistic 8×8 register tile; used by the scalar
#: reference kernel and by the machine model, which counts real registers.
MICRO_BLOCKING = BlockingParams(mc=256, nc=2048, kc=256, mr=8, nr=8)

#: Blocking for the fused macro-kernel (:mod:`repro.core.macrokernel`). The
#: macro-kernel computes a whole ``mc × nc`` block per call, so ``mc``/``nc``
#: are large: each block pays a fixed interpreter cost and one ``sgemm`` per
#: k-chunk, and larger blocks hand BLAS larger matrices. ``kc`` is short:
#: each ``kc`` chunk of 64-allele words expands 64× when unpacked to bit
#: planes, and kc=64 keeps one expanded operand panel inside the LLC.
#: ``mr``/``nr`` only affect the operation counts; the BLAS contraction has
#: no register tile of its own. Values selected empirically (see
#: benchmarks/BENCH_gemm.json).
FUSED_BLOCKING = BlockingParams(mc=2048, nc=4096, kc=64, mr=8, nr=8)

#: Price of one carrier lookup, in fused-GEMM bit products: the carrier
#: path (:mod:`repro.core.carriers`) reads one partner's bit at one
#: minor-allele carrier of a rare SNP (byte gather, shift, mask, rank-wise
#: sum), where the fused kernel pays one bit product per padded sample,
#: ``N_bits = 64·⌈N/64⌉`` per SNP pair.
#: :func:`repro.core.carriers.rare_threshold` splits at the marginal
#: crossover ``t = ⌊N_bits / CARRIER_LOOKUP_COST⌋``.
#:
#: Measured on a 2-vCPU AVX-512 Xeon guest (numpy 2.4, scipy-openblas on
#: one thread), with one-thread sgemm probed at Dataset A's bit-plane
#: shape (512 × 2,560 × 512). Per-tile sweeps, r² on 12 sampled
#: off-diagonal 512² tiles, mean of each tile's best of 3 interleaved
#: passes, bit-identical at every t:
#:
#: - Dataset A (2,504 samples), sgemm at 150–154 GFLOP/s: 14.02 ms plain;
#:   9.20 / 8.60 / 8.33 / 8.39 / 8.47 / 8.32 / 8.22 / 8.64 / 9.12 ms at
#:   t = 8 / 12 / 16 / 17 / 20 / 25 / 32 / 48 / 64.
#: - Dataset B (10,000 samples), sgemm at 107–152 GFLOP/s: 48.34 ms plain;
#:   26.21 / 22.80 / 21.24 / 20.82 / 20.82 / 20.99 / 20.78 / 20.69 /
#:   21.97 / 23.68 ms at t = 16 / 32 / 48 / 64 / 66 / 83 / 100 / 128 /
#:   192 / 256.
#:
#: Both curves are flat near their optimum. Inside those tiles a lookup
#: took 1.6–1.9 ns at the chosen t (2.8 ns at t = 4–16, where few SNPs
#: share a carrier rank) and a bit product 17.8–21.4 ps in a full tile's
#: GEMM: ~90 bit products. The lookup is memory-bound and keeps its
#: nanoseconds while a bit product's price follows the sgemm rate, so
#: scaled to the 211 GFLOP/s this guest reached earlier a lookup would
#: cost ~150. It is priced at that fast end, so the rule should not split
#: past a fast host's crossover (the fast regime did not recur during the
#: sweeps, so that end is not measured); on the host above, its
#: thresholds (A at t = 17, B at t = 66) read 2.1 % and 0.6 % above each
#: sweep's best point, and 3.4 % and 1.7 % in a repeat sweep.
CARRIER_LOOKUP_COST = 150

#: Price of assembling a split tile, per cell, in fused-GEMM bit products:
#: the memory pass that places its GEMM block and carrier sums. It gates
#: whether a panel splits at all (see ``rare_threshold``). In the sweeps
#: above it took 1.5–1.9 ns a cell, 0.38–0.50 ms a 512² tile, or ~80–100
#: bit products.
CARRIER_ASSEMBLY_COST = 100
