"""Host fingerprint, copy-bandwidth calibration and process memory.

Everything here reads the kernel's process and CPU tables under
``/proc`` and ``/sys``; on a host without them the fingerprint fields
read ``None`` and memory reads 0.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

#: Bytes of each array the copy calibration streams.
COPY_ARRAY_BYTES = 64 << 20


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _size_bytes(text: str) -> int:
    text = text.strip().upper()
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def llc_bytes() -> int | None:
    """Size of cpu0's last-level cache, as the kernel reports it."""
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = _size_bytes((index / "size").read_text())
        except (OSError, ValueError):
            continue
        if best is None or level >= best[0]:
            best = (level, size)
    return None if best is None else best[1]


def fingerprint() -> dict:
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "llc_bytes": llc_bytes(), "numpy": np.__version__,
            "python": platform.python_version()}


def copy_gbs(nbytes: int = COPY_ARRAY_BYTES, reps: int = 9) -> list[float]:
    """STREAM-style copy rates (GB/s, read plus write bytes), one per rep."""
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    rates = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        rates.append(2 * src.nbytes / (time.perf_counter() - t0) / 1e9)
    return rates


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS mark (Linux ``clear_refs``).

    Where the kernel refuses, the mark keeps the process-lifetime peak.
    """
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of ``pid`` in MiB; 0 if unreadable."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_pids() -> list[int]:
    """Live worker children of this process (all threads' children).

    multiprocessing's resource tracker is a helper child that outlives
    every driver, so it is left out.
    """
    pids = set()
    for path in Path("/proc/self/task").glob("*/children"):
        try:
            pids.update(int(p) for p in path.read_text().split())
        except OSError:
            continue
    return sorted(pid for pid in pids if not _is_resource_tracker(pid))


def _is_resource_tracker(pid: int) -> bool:
    try:
        return b"resource_tracker" in Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return False


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to exit.

    The program's shared memory starts the tracker on first use; left
    alone it would outlive this process by a moment.
    """
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0
