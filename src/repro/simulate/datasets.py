"""The paper's benchmark dataset shapes (Section VI) and their generators.

The comparison of Tables I–III uses three panels of 10,000 SNPs each:

======= ================= =========================================
Dataset Samples           Source in the paper
======= ================= =========================================
A       2,504             1000 Genomes, human chromosome 1 subset
B       10,000            simulated
C       100,000           simulated
======= ================= =========================================

The 1000 Genomes download is not available offline, and the paper does not
specify its simulator's parameters, so all three are generated here with a
**site-frequency-spectrum sampler**: derived-allele frequencies drawn from
the neutral SFS (density ∝ 1/f, the standard constant-size expectation,
which also matches the singleton-heavy human spectrum to first order) and
per-sample states drawn Bernoulli per site. Sites are independent — LD is
at its independence baseline — which is irrelevant for the performance
benchmarks and is the reason this cheap generator can produce the
100,000-sample Dataset C in seconds. The spectrum itself is not
irrelevant: the ``numpy``/``scalar`` kernels' cost depends only on the
matrix *shape*, but the production ``fused`` kernel sends rare SNPs'
counts through their minor-allele carriers (:mod:`repro.core.carriers`),
so its cost also follows how many SNPs are rare. Statistical examples that
need real linkage structure use :mod:`repro.simulate.coalescent` /
:mod:`repro.simulate.wrightfisher` instead.
"""

from __future__ import annotations

import numpy as np

from repro.encoding.bitmatrix import BitMatrix

__all__ = [
    "DATASET_SHAPES",
    "dataset_A",
    "dataset_B",
    "dataset_C",
    "simulate_sfs_panel",
]

#: (n_samples, n_snps) of the paper's three benchmark datasets.
DATASET_SHAPES: dict[str, tuple[int, int]] = {
    "A": (2504, 10000),
    "B": (10000, 10000),
    "C": (100000, 10000),
}


def neutral_sfs_frequencies(
    n_snps: int, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw derived-allele frequencies from the neutral SFS.

    The neutral expectation puts probability ∝ 1/i on derived count *i*
    (1 ≤ i ≤ n−1); frequencies are the counts over *n*. Guaranteed
    polymorphic in expectation by construction (count ≥ 1 and ≤ n−1).
    """
    counts = np.arange(1, n_samples)
    weights = 1.0 / counts
    weights /= weights.sum()
    drawn = rng.choice(counts, size=n_snps, p=weights)
    return drawn / n_samples


def simulate_sfs_panel(
    n_samples: int,
    n_snps: int,
    *,
    rng: np.random.Generator | None = None,
    as_bitmatrix: bool = True,
) -> BitMatrix | np.ndarray:
    """Generate an ``(n_samples, n_snps)`` panel with a neutral SFS.

    Parameters
    ----------
    n_samples, n_snps:
        Panel shape.
    rng:
        Source of randomness.
    as_bitmatrix:
        Return the packed :class:`BitMatrix` (default — large panels are
        built directly in packed form, 64× smaller than dense) or a dense
        ``uint8`` matrix.
    """
    if n_samples < 2 or n_snps < 1:
        raise ValueError(
            f"panel must have >= 2 samples and >= 1 SNP, got "
            f"({n_samples}, {n_snps})"
        )
    rng = rng or np.random.default_rng()
    freqs = neutral_sfs_frequencies(n_snps, n_samples, rng)
    if not as_bitmatrix:
        dense = (rng.random((n_samples, n_snps)) < freqs[None, :]).astype(np.uint8)
        return dense
    # Build packed words SNP-by-SNP block to bound peak memory: 64 samples
    # of one SNP become one word via a dot with bit weights.
    n_words = (n_samples + 63) // 64
    words = np.zeros((n_snps, n_words), dtype=np.uint64)
    bit_weights = (np.uint64(1) << np.arange(64, dtype=np.uint64))
    snp_block = 256
    for start in range(0, n_snps, snp_block):
        stop = min(start + snp_block, n_snps)
        block_freqs = freqs[start:stop]
        dense = (
            rng.random((stop - start, n_samples)) < block_freqs[:, None]
        )
        padded = np.zeros((stop - start, n_words * 64), dtype=bool)
        padded[:, :n_samples] = dense
        bits = padded.reshape(stop - start, n_words, 64)
        words[start:stop] = (bits * bit_weights[None, None, :]).sum(
            axis=2, dtype=np.uint64
        )
    return BitMatrix(words=words, n_samples=n_samples)


def _dataset(name: str, *, scale: float, seed: int) -> BitMatrix:
    n_samples, n_snps = DATASET_SHAPES[name]
    if not 0.0 < scale <= 1.0:
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    n_samples = max(2, int(round(n_samples * scale)))
    n_snps = max(1, int(round(n_snps * scale)))
    rng = np.random.default_rng(seed)
    result = simulate_sfs_panel(n_samples, n_snps, rng=rng)
    assert isinstance(result, BitMatrix)
    return result


def dataset_A(*, scale: float = 1.0, seed: int = 1000) -> BitMatrix:
    """Dataset A equivalent: 2,504 samples × 10,000 SNPs (× *scale*)."""
    return _dataset("A", scale=scale, seed=seed)


def dataset_B(*, scale: float = 1.0, seed: int = 2000) -> BitMatrix:
    """Dataset B equivalent: 10,000 samples × 10,000 SNPs (× *scale*)."""
    return _dataset("B", scale=scale, seed=seed)


def dataset_C(*, scale: float = 1.0, seed: int = 3000) -> BitMatrix:
    """Dataset C equivalent: 100,000 samples × 10,000 SNPs (× *scale*)."""
    return _dataset("C", scale=scale, seed=seed)
