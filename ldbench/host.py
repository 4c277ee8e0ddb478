"""Host side of a benchmark run: scratch storage, environment record, memory.

Everything a run writes (panel store, output matrix, tile journal, pool
state file, worker trace records) goes to one scratch directory per
invocation on a memory-backed filesystem, so the numbers measure the
program and not the disk under it.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import sys
from pathlib import Path

#: Filesystem types whose files live in memory.
MEMORY_FS = ("tmpfs", "ramfs")

#: Where memory-backed scratch directories are made.
SHM_ROOT = Path("/dev/shm")

SCRATCH_PREFIX = "ldbench-"


def mount_of(path: Path) -> tuple[str, str]:
    """``(mount point, filesystem type)`` of the mount holding *path*."""
    best = ("/", "unknown")
    target = str(path.resolve())
    with open("/proc/mounts", encoding="utf-8") as fh:
        for line in fh:
            fields = line.split()
            if len(fields) < 3:
                continue
            point = fields[1].replace("\\040", " ")
            inside = target == point or target.startswith(point.rstrip("/") + "/")
            if inside and len(point) >= len(best[0]):
                best = (point, fields[2])
    return best


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def remove_stale_scratch(root: Path) -> None:
    """Delete scratch directories left by benchmark processes that died."""
    for stale in root.glob(SCRATCH_PREFIX + "*"):
        try:
            pid = int(stale.name[len(SCRATCH_PREFIX):].split("-", 1)[0])
        except ValueError:
            continue
        if not _pid_alive(pid):
            shutil.rmtree(stale, ignore_errors=True)


def make_scratch(workload: str, fallback_root: Path) -> tuple[Path, str, bool]:
    """Create this invocation's scratch directory.

    Returns ``(path, filesystem type, memory_backed)``. When no writable
    memory-backed filesystem exists the directory is made under
    *fallback_root* instead, and the caller must say so in the result.
    """
    name = f"{SCRATCH_PREFIX}{os.getpid()}-{workload}"
    _, fs_type = mount_of(SHM_ROOT) if SHM_ROOT.is_dir() else ("", "missing")
    if fs_type in MEMORY_FS and os.access(SHM_ROOT, os.W_OK):
        remove_stale_scratch(SHM_ROOT)
        path = SHM_ROOT / name
        path.mkdir()
        return path, fs_type, True
    fallback_root.mkdir(parents=True, exist_ok=True)
    remove_stale_scratch(fallback_root)
    path = fallback_root / name
    path.mkdir()
    return path, mount_of(path)[1], False


def _blas_library() -> tuple[str, int | None]:
    """Path and live thread count of the BLAS library numpy loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({
            line.split()[-1] for line in fh
            if ".so" in line and "blas" in line.lower()
        })
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
            "MKL_Get_Max_Threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return os.path.basename(path), int(getter())
    return (os.path.basename(libs[0]) if libs else "unknown"), None


def environment(seed: int, scratch: Path, fs_type: str, memory_backed: bool) -> dict:
    """The set-up a result was measured under; results from different
    set-ups must never be mixed."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    library, threads = _blas_library()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_library": library,
        "blas_threads": threads,
        "scratch": str(scratch),
        "scratch_fs": fs_type,
        "scratch_memory_backed": memory_backed,
        "seed": seed,
    }


# -- resident memory ---------------------------------------------------------


def process_tree() -> list[int]:
    """This process and its live children (the pool workers)."""
    pids = [os.getpid()]
    for task in Path("/proc/self/task").iterdir():
        try:
            pids += [int(p) for p in (task / "children").read_text().split()]
        except (FileNotFoundError, ProcessLookupError):
            continue
    return pids


def reset_peak_rss(pids: list[int]) -> None:
    """Restart each process's resident-memory high-water mark."""
    for pid in pids:
        try:
            with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as fh:
                fh.write("5")
        except (FileNotFoundError, ProcessLookupError):
            continue


def peak_rss_kib(pids: list[int]) -> int:
    """Sum of the processes' resident-memory high-water marks, in KiB."""
    total = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except (FileNotFoundError, ProcessLookupError):
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total += int(line.split()[1])
    return total
