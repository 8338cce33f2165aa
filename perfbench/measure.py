"""Statistics, memory and host fingerprint shared by every workload."""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import platform
import resource
import statistics
import time

import numpy as np

__all__ = [
    "PROBE_REF_S",
    "Probe",
    "TAIL_LADDER",
    "tail_percentile",
    "peak_rss_mb",
    "fingerprint",
]

#: The probe's median time on the host the benchmark was calibrated on
#: (a 2-vCPU Intel Xeon VM). A time multiplied by ``PROBE_REF_S / probe``
#: is the time the same work would take there.
PROBE_REF_S = 0.0055


class Probe:
    """A fixed computation that tracks how fast this host runs right now.

    On a shared host the speed available to one process drifts by 20-50%
    over seconds as neighbours come and go, for wall and CPU time alike.
    The benchmark times this probe while the program is idle, just before
    and after each request of the sub-second engine workloads, and
    rescales the request by ``PROBE_REF_S`` over the mean of the two
    probes. The probe mixes interpreter loops and a NumPy sort, and
    its data fits in cache, so that what the program left in memory does
    not change its time.
    """

    def __init__(self) -> None:
        self._keys = np.random.default_rng(12345).random(20_000)

    def _once(self) -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(50_000):
            total += i * i % 7
        for _ in range(10):
            np.sort(self._keys)
        return time.perf_counter() - t0

    def seconds(self) -> float:
        """Median of three timings after a full collection and one untimed pass.

        A large request leaves cyclic garbage behind that slows the probe
        threefold until the collector frees it; collecting here, outside
        any timed request, also starts every request from the same heap.
        The untimed pass brings the probe's data back into cache; one
        timing alone jitters by a scheduler tick.
        """
        gc.collect()
        self._once()
        return statistics.median(self._once() for _ in range(3))

    def scale(self, before: float, after: float) -> float:
        """Factor that turns times measured between two probes into
        reference-host times."""
        return PROBE_REF_S / ((before + after) / 2.0)


#: Candidate tail percentiles, highest last.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)


def tail_percentile(samples: list[float]) -> tuple[str, float, int] | None:
    """The highest ladder percentile with at least ten samples beyond it.

    Returns ``(label, value, n)``, with ``value`` the nearest-rank sample
    at that percentile, or ``None`` when fewer than 20 samples leave no
    percentile (not even the median) with ten samples above it.
    """
    n = len(samples)
    ordered = sorted(samples)
    best = None
    for pct in TAIL_LADDER:
        rank = math.ceil(round(pct * n / 100.0, 6))
        if n - rank >= 10 and rank >= 1:
            best = (f"p{pct:g}", ordered[rank - 1], n)
    return best


def _vm_hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process, plus its live workers' peaks."""
    total = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return total + sum(
        _vm_hwm_mb(p.pid) for p in multiprocessing.active_children())


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> dict:
    """Host and build facts that change refine time by multiples."""
    import numpy

    from repro.mapping import _native
    from repro.mapping.kernels import get_default_kernel

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "default_kernel": get_default_kernel(),
        "native_refine": "compiled" if _native.available() else "numpy-fallback",
    }
