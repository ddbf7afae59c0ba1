"""Machine fingerprint recorded with every benchmark result."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

__all__ = ["fingerprint", "copy_bandwidth", "last_level_cache_bytes"]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _ram_bytes() -> int | None:
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def last_level_cache_bytes() -> int:
    """Size of the highest-level CPU cache (8 MiB if unknown)."""
    best_level, best_size = 0, 8 << 20
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
        value = int(size.rstrip("KMG")) * scale
        if level > best_level:
            best_level, best_size = level, value
    return best_size


def filesystem_type(path: Path) -> str:
    """The type of the mount holding ``path`` (longest mount prefix)."""
    path = Path(path).resolve()
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        point = fields[1]
        inside = (str(path) == point
                  or str(path).startswith(point.rstrip("/") + "/"))
        if inside and len(point) > len(best):
            best, kind = point, fields[2]
    return kind


#: Timed copies in a bandwidth measurement; the best one counts.
_COPY_REPEATS = 3


def copy_bandwidth(array_bytes: int) -> float:
    """numpy copy bandwidth in GB/s (bytes read plus bytes written).

    Both arrays are ``array_bytes`` long; the best of ``_COPY_REPEATS``
    copies counts, after one untimed copy that faults the pages in.
    """
    count = array_bytes // 8
    source = np.ones(count)
    target = np.empty_like(source)
    np.copyto(target, source)
    best = float("inf")
    for _ in range(_COPY_REPEATS):
        started = time.perf_counter()
        np.copyto(target, source)
        best = min(best, time.perf_counter() - started)
    return 2 * count * 8 / best / 1e9


def _source_digest(root: Path) -> str:
    hasher = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        hasher.update(str(path.relative_to(root)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def _git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "none (not a git checkout)"
    try:
        completed = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip()


def fingerprint(root: Path, workdir: Path, bandwidth: bool = True) -> dict:
    """CPU, memory, versions, workdir file system, source identity and
    the copy bandwidth the fold's bandwidth share is measured against.

    The copy needs two arrays of four times the last-level cache each
    (eight times the cache in all), so untraced runs, which report no
    bandwidth share, skip it and record ``copy_gbps`` as None.
    """
    cache = last_level_cache_bytes()
    array_bytes = 4 * cache
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "ram_bytes": _ram_bytes(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "workdir_fs": filesystem_type(workdir),
        "git_sha": _git_sha(root),
        "src_sha256": _source_digest(root),
        "llc_bytes": cache,
        "copy_array_bytes": array_bytes,
        "copy_gbps": copy_bandwidth(array_bytes) if bandwidth else None,
    }
