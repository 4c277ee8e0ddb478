"""Disk-backed packed-panel store: the out-of-core input format.

The engine's shared-memory handoff requires the whole packed panel to fit
in RAM twice (driver copy + segment). At biobank scale that is the wall
Fabregat-Traver & Bientinesi knock down by streaming panels from disk
("Computing Petaflops over Terabytes of Data", PAPERS.md): the panel
lives in one versioned file, every consumer maps it read-only, and the
prefetch pipeline (:mod:`repro.core.prefetch`) slides a bounded window
over it.

File layout (version 1)::

    [ 0: 8]   magic  b"REPROPNL"
    [ 8:12]   header length (uint32, little-endian)
    [12:..]   JSON header: version, n_snps, n_words, n_samples,
              digest (sha256 of the words bytes), freqs_offset,
              words_offset
    ...       float64[n_snps] allele frequencies at freqs_offset
    ...       uint64[n_snps, n_words] word planes at words_offset
              (C order, page-aligned so a memmap window is a clean
              run of pages)

Everything expensive is paid once, at pack time: the zero-padding
invariant the popcount kernel depends on is validated while writing, the
allele frequencies are precomputed and stored, and the content digest is
taken over the exact words bytes — so :meth:`PanelStore.open` costs one
header read plus a memmap, never a full-panel scan, and a resumed
out-of-core sweep can fingerprint the input without re-reading terabytes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.encoding.bitmatrix import WORD_BITS, BitMatrix

__all__ = ["PANEL_MAGIC", "PANEL_VERSION", "PanelStore", "pack_panel"]

PANEL_MAGIC = b"REPROPNL"
PANEL_VERSION = 1

#: Word planes start on a page boundary so every prefetch window maps to
#: whole pages (no read amplification at window edges).
_WORDS_ALIGN = 4096
#: Rows hashed/written per chunk at pack time (bounds pack-time RAM when
#: the source itself is a memmap or another store).
_PACK_CHUNK_ROWS = 4096


def _aligned(offset: int, align: int) -> int:
    return (offset + align - 1) // align * align


@dataclass
class PanelStore:
    """A packed panel on disk, openable as a read-only memmap.

    Attributes
    ----------
    path:
        The store file.
    words:
        Read-only ``(n_snps, n_words)`` uint64 memmap of the word planes.
    freqs:
        Precomputed per-SNP derived-allele frequencies (float64, in RAM —
        one vector, not a panel-sized object).
    n_samples:
        Valid sample bits per SNP.
    content_digest:
        Hex sha256 of the words bytes, taken at pack time. This is the
        store's identity for manifest and warm-pool keying: equal digests
        mean bit-identical panels.
    """

    path: Path
    words: np.ndarray
    freqs: np.ndarray
    n_samples: int
    content_digest: str
    _mmap: np.memmap | None = field(default=None, repr=False)

    # -- shape (mirrors BitMatrix so engine code can stay duck-typed) ------

    @property
    def n_snps(self) -> int:
        return self.words.shape[0]

    @property
    def n_words(self) -> int:
        return self.words.shape[1]

    @property
    def row_nbytes(self) -> int:
        """Bytes of one packed SNP row (the prefetch budget unit)."""
        return self.n_words * 8

    @property
    def nbytes(self) -> int:
        """Bytes of packed words on disk."""
        return self.n_snps * self.row_nbytes

    def allele_frequencies(self) -> np.ndarray:
        """The frequencies precomputed at pack time (no panel scan)."""
        return self.freqs

    def to_bitmatrix(self) -> BitMatrix:
        """Zero-copy :class:`BitMatrix` over the memmapped words.

        Uses the trusted constructor: the padding invariant was enforced
        at pack time, so opening must not re-read the whole panel.
        """
        return BitMatrix.from_packed_trusted(self.words, self.n_samples)

    def read_rows(
        self, start: int | np.ndarray, stop: int | None = None
    ) -> np.ndarray:
        """Copy rows ``[start, stop)`` from disk into RAM — or, with *stop*
        omitted, the rows at *start*, an ascending array of row indices.

        This is the store's read primitive, for the prefetcher's windows
        and the carrier index's rare rows alike: an explicit copy, so the
        returned rows are ordinary anonymous memory whose lifetime the
        byte budget controls, independent of the page cache.
        """
        if stop is None:
            rows = np.asarray(start, dtype=np.int64)
            if rows.ndim != 1 or np.any(np.diff(rows) <= 0) or (
                rows.size and not 0 <= rows[0] <= rows[-1] < self.n_snps
            ):
                raise ValueError(
                    f"row indices must ascend inside panel of {self.n_snps}"
                )
            return np.array(self.words[rows], dtype=np.uint64)
        if not 0 <= start <= stop <= self.n_snps:
            raise ValueError(
                f"row range [{start}, {stop}) outside panel of {self.n_snps}"
            )
        return np.array(self.words[start:stop], dtype=np.uint64)

    def verify(self) -> bool:
        """Re-read the store against what was packed (full read).

        The words must hash to the stored digest, and every SNP's
        derived-allele count must give exactly its stored frequency —
        the digest covers only the words, not the frequency block.
        """
        digest = hashlib.sha256()
        freqs_match = True
        for start in range(0, self.n_snps, _PACK_CHUNK_ROWS):
            chunk = np.ascontiguousarray(
                self.words[start : start + _PACK_CHUNK_ROWS]
            )
            digest.update(chunk.tobytes())
            counts = np.bitwise_count(chunk).sum(axis=1, dtype=np.int64)
            freqs_match = freqs_match and np.array_equal(
                counts / float(self.n_samples),
                self.freqs[start : start + chunk.shape[0]],
            )
        return freqs_match and digest.hexdigest() == self.content_digest

    def close(self) -> None:
        """Release the memmap; idempotent."""
        self._mmap = None
        self.words = None  # type: ignore[assignment]

    def __enter__(self) -> "PanelStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- constructors ------------------------------------------------------

    @classmethod
    def open(cls, path: str | Path) -> "PanelStore":
        """Open a packed-panel store read-only (header parse + memmap)."""
        path = Path(path)
        with path.open("rb") as fh:
            magic = fh.read(8)
            if magic != PANEL_MAGIC:
                raise ValueError(
                    f"{path} is not a repro panel store (bad magic "
                    f"{magic!r}); produce one with `repro pack`"
                )
            raw_len = fh.read(4)
            if len(raw_len) != 4:
                raise ValueError(f"{path}: truncated panel-store header")
            header_len = int.from_bytes(raw_len, "little")
            try:
                header = json.loads(fh.read(header_len).decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ValueError(
                    f"{path}: corrupt panel-store header ({exc})"
                ) from exc
        version = header.get("version")
        if version != PANEL_VERSION:
            raise ValueError(
                f"{path}: unsupported panel-store version {version!r} "
                f"(this build reads version {PANEL_VERSION})"
            )
        required = (
            "n_snps", "n_words", "n_samples", "digest",
            "freqs_offset", "words_offset",
        )
        missing = [key for key in required if key not in header]
        if missing:
            raise ValueError(
                f"{path}: panel-store header missing fields {missing}"
            )
        n_snps = int(header["n_snps"])
        n_words = int(header["n_words"])
        n_samples = int(header["n_samples"])
        if not 0 <= n_samples <= n_words * WORD_BITS:
            raise ValueError(
                f"{path}: n_samples={n_samples} does not fit "
                f"{n_words} words per SNP"
            )
        words_offset = int(header["words_offset"])
        expect = words_offset + n_snps * n_words * 8
        actual = path.stat().st_size
        if actual < expect:
            raise ValueError(
                f"{path}: truncated panel store ({actual} bytes, "
                f"needs {expect}); repack it"
            )
        with path.open("rb") as fh:
            fh.seek(int(header["freqs_offset"]))
            freqs = np.fromfile(fh, dtype="<f8", count=n_snps)
        if freqs.size != n_snps:
            raise ValueError(f"{path}: truncated frequency block")
        mmap = np.memmap(
            path, dtype=np.uint64, mode="r", offset=words_offset,
            shape=(n_snps, n_words), order="C",
        )
        return cls(
            path=path,
            words=mmap,
            freqs=freqs,
            n_samples=n_samples,
            content_digest=str(header["digest"]),
            _mmap=mmap,
        )

    @classmethod
    def create(
        cls, path: str | Path, matrix: "BitMatrix | np.ndarray",
        *, n_samples: int | None = None,
    ) -> "PanelStore":
        """Pack *matrix* into a store file at *path* and open it.

        Accepts a :class:`BitMatrix` (already packed and validated), a
        dense binary ``(n_samples, n_snps)`` array, or a raw
        ``(n_snps, n_words)`` uint64 word array with an explicit
        *n_samples* (validated here — the store must never hold words
        that violate the zero-padding invariant).
        """
        if isinstance(matrix, BitMatrix):
            panel = matrix
        elif n_samples is not None:
            # Raw words: BitMatrix.__post_init__ enforces the padding
            # invariant the popcount kernel (and every later open) trusts.
            panel = BitMatrix(
                words=np.asarray(matrix, dtype=np.uint64),
                n_samples=int(n_samples),
            )
        else:
            panel = BitMatrix.from_dense(np.asarray(matrix))
        return pack_panel(path, panel)


def pack_panel(path: str | Path, panel: BitMatrix) -> PanelStore:
    """Write *panel* as a version-1 store file and reopen it read-only.

    The write is chunked (``_PACK_CHUNK_ROWS`` rows at a time) with the
    content digest accumulated over exactly the bytes written, and the
    file is written to a temporary sibling then renamed — a crashed pack
    never leaves a half-store behind under the target name.
    """
    path = Path(path)
    if panel.n_samples == 0:
        raise ValueError("cannot pack a panel with zero samples")
    freqs = panel.allele_frequencies()
    words = panel.words
    digest = hashlib.sha256()
    for start in range(0, panel.n_snps, _PACK_CHUNK_ROWS):
        digest.update(
            np.ascontiguousarray(words[start : start + _PACK_CHUNK_ROWS])
            .tobytes()
        )
    header = {
        "version": PANEL_VERSION,
        "n_snps": panel.n_snps,
        "n_words": panel.n_words,
        "n_samples": panel.n_samples,
        "digest": digest.hexdigest(),
    }
    # Two-pass offset computation: the header's byte length depends on
    # the offsets it carries, so reserve generous fixed-width values.
    probe = dict(header, freqs_offset=0, words_offset=0)
    header_len = len(json.dumps(probe).encode()) + 32
    freqs_offset = _aligned(8 + 4 + header_len, 64)
    words_offset = _aligned(freqs_offset + panel.n_snps * 8, _WORDS_ALIGN)
    header["freqs_offset"] = freqs_offset
    header["words_offset"] = words_offset
    blob = json.dumps(header).encode()
    if len(blob) > header_len:  # pragma: no cover - 32 spare bytes suffice
        raise RuntimeError("panel-store header overflow")
    blob = blob + b" " * (header_len - len(blob))
    tmp = path.with_name(path.name + ".packing")
    with tmp.open("wb") as fh:
        fh.write(PANEL_MAGIC)
        fh.write(len(blob).to_bytes(4, "little"))
        fh.write(blob)
        fh.write(b"\x00" * (freqs_offset - fh.tell()))
        np.ascontiguousarray(freqs, dtype="<f8").tofile(fh)
        fh.write(b"\x00" * (words_offset - fh.tell()))
        for start in range(0, panel.n_snps, _PACK_CHUNK_ROWS):
            np.ascontiguousarray(
                words[start : start + _PACK_CHUNK_ROWS]
            ).tofile(fh)
        fh.flush()
    tmp.replace(path)
    return PanelStore.open(path)
