"""One guarded call for seeded work: a wall-clock deadline and an outcome.

Every experiment and mapping request is seeded, so a failure replays
identically and re-running it buys nothing. :func:`guarded_call` therefore
runs a unit of work once, under :func:`deadline`, and turns whatever happens
into a picklable outcome dict; :func:`failure` builds every failed one, also
for an error raised outside the call, such as a dead pool worker.
"""

from __future__ import annotations

import contextlib
import signal
import threading
import traceback

__all__ = ["DeadlineExceeded", "deadline", "failure", "guarded_call"]


class DeadlineExceeded(Exception):
    """Raised inside the guarded block when its deadline expires."""


@contextlib.contextmanager
def deadline(seconds: float | None):
    """SIGALRM-based wall-clock bound on the enclosed block.

    A no-op when *seconds* is ``None``, on platforms without ``SIGALRM``, or
    off the main thread (signal handlers are main-thread only).
    """
    usable = (
        seconds is not None
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _handler(signum, frame):
        raise DeadlineExceeded()

    previous = signal.signal(signal.SIGALRM, _handler)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def failure(exc: BaseException) -> dict:
    """The failed outcome record of ``exc``; its ``kind`` is the type name."""
    return {"ok": False, "kind": type(exc).__name__,
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": "".join(traceback.format_exception(exc))}


def guarded_call(fn, *args, timeout: float | None = None) -> dict:
    """Run ``fn(*args)`` once under :func:`deadline`; never raises.

    Returns ``{"ok": True, "value": ...}`` or ``{"ok": False, "kind",
    "error", "traceback"}``, where ``kind`` is ``"timeout"`` or the
    exception's type name.
    """
    try:
        with deadline(timeout):
            value = fn(*args)
    except DeadlineExceeded:
        return {"ok": False, "kind": "timeout",
                "error": f"timed out after {timeout}s", "traceback": None}
    except Exception as exc:  # noqa: BLE001 - the guard is the point
        return failure(exc)
    return {"ok": True, "value": value}
