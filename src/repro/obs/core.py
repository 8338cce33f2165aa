"""Lightweight counters and phase timers for the hot layers.

The contract every instrumented call site relies on:

* **Disabled is free.** ``active()`` returns ``None`` unless a profiler has
  been installed, so hot loops guard their accounting with a single
  ``if prof is not None`` branch and allocate nothing. The module-level
  convenience wrappers (:func:`count`, :func:`timer`) degrade to a dict
  lookup plus, for :func:`timer`, a shared no-op context manager — no
  per-call objects are created on the disabled path.
* **Everything is JSON-able.** :meth:`Profiler.snapshot` returns plain
  dicts of numbers, ready to drop into the ``repro-profile-v1`` artifact
  (see :mod:`repro.obs.profile`).

The profiler is deliberately not thread-safe: every consumer in this
repository is single-threaded, and a lock on the counter path would cost
more than the counters themselves.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any

__all__ = [
    "Profiler",
    "active",
    "enable",
    "disable",
    "profiled",
    "count",
    "timer",
]


class _NullContext:
    """Shared no-op context manager handed out while profiling is disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class _Timer:
    """Context manager accumulating wall time under one timer name."""

    __slots__ = ("_profiler", "_name", "_start")

    def __init__(self, profiler: "Profiler", name: str):
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        self._profiler.add_time(self._name, time.perf_counter() - self._start)
        return False


class Profiler:
    """Collects counters and timers for one run."""

    def __init__(self):
        self.counters: dict[str, float] = {}
        self.timers: dict[str, list[float]] = {}  # name -> [total_seconds, count]

    # ------------------------------------------------------------- recording
    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name`` (created at 0)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def count_max(self, name: str, value: float) -> None:
        """Raise counter ``name`` to ``value`` if it is larger (a high-water mark)."""
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` under timer ``name``."""
        cell = self.timers.get(name)
        if cell is None:
            self.timers[name] = [seconds, 1]
        else:
            cell[0] += seconds
            cell[1] += 1

    def timer(self, name: str) -> _Timer:
        """Context manager timing a phase: ``with prof.timer("phase"): ...``."""
        return _Timer(self, name)

    def merge(self, snapshot: dict[str, Any]) -> None:
        """Fold another profiler's :meth:`snapshot` into this one.

        Counters and timer totals/counts add up. This is how the parallel
        experiment runner folds per-worker telemetry into the single
        artifact it writes.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.count(name, value)
        for name, cell in snapshot.get("timers", {}).items():
            mine = self.timers.get(name)
            if mine is None:
                self.timers[name] = [float(cell["total_s"]), int(cell["count"])]
            else:
                mine[0] += float(cell["total_s"])
                mine[1] += int(cell["count"])

    # ------------------------------------------------------------- reporting
    def snapshot(self) -> dict[str, Any]:
        """Plain-JSON view of everything recorded so far."""
        return {
            "counters": dict(self.counters),
            "timers": {
                name: {"total_s": total, "count": int(n)}
                for name, (total, n) in self.timers.items()
            },
        }

    def reset(self) -> None:
        """Drop everything recorded so far."""
        self.counters.clear()
        self.timers.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Profiler counters={len(self.counters)} "
                f"timers={len(self.timers)}>")


#: The installed profiler, or None (profiling disabled — the default).
_active: Profiler | None = None


def active() -> Profiler | None:
    """The currently installed profiler, or ``None`` when disabled.

    Hot call sites fetch this once and guard with ``if prof is not None``.
    """
    return _active


def enable(profiler: Profiler | None = None) -> Profiler:
    """Install ``profiler`` (or a fresh one) as the active profiler."""
    global _active
    _active = profiler if profiler is not None else Profiler()
    return _active


def disable() -> Profiler | None:
    """Uninstall the active profiler; returns it (with its data) or ``None``."""
    global _active
    previous = _active
    _active = None
    return previous


@contextmanager
def profiled(profiler: Profiler | None = None):
    """Enable profiling for a block, restoring the previous state after::

        with obs.profiled() as prof:
            TopoLB().map(graph, topo)
        print(prof.counters)
    """
    global _active
    previous = _active
    prof = enable(profiler)
    try:
        yield prof
    finally:
        _active = previous


def count(name: str, n: float = 1) -> None:
    """Module-level :meth:`Profiler.count`; no-op while disabled."""
    prof = _active
    if prof is not None:
        prof.count(name, n)


def timer(name: str):
    """Module-level :meth:`Profiler.timer`; a shared no-op context while disabled."""
    prof = _active
    if prof is None:
        return _NULL_CONTEXT
    return prof.timer(name)

