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
    "CARRIER_COST_RATIO",
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

#: Cost of one carrier lookup, in fused-GEMM bit products: the price the
#: carrier path (:mod:`repro.core.carriers`) pays per partner SNP for each
#: minor-allele carrier of a rare SNP — and per cell for each element
#: operation that assembles a split tile — where the fused kernel pays one
#: bit product per sample. Measured at Dataset B's 512² tiles on a 2-vCPU
#: AVX-512 Xeon guest (numpy 2.4, scipy-openblas on one thread): a lookup
#: (byte gather, shift, mask, rank-wise sum) costs 2.6–3.3 ns, a bit
#: product 0.025–0.029 ns while the host's sgemm ran at 70–80 GFLOP/s and
#: ~0.0095 ns at the 211 GFLOP/s the same guest reached earlier — a ratio
#: of ~90–350 depending on the host's regime. 600 stays above the fast end,
#: so a panel splits only where the split pays even when sgemm is fast:
#: Dataset A (2,504 samples), where a split measured no gain at the fast
#: rate, stays on the plain GEMM; Dataset B (10,000) splits at t = 16, at
#: 1.5–1.7× per tile on this guest.
CARRIER_COST_RATIO = 600
