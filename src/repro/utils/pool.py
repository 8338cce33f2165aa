"""A process pool in which a dead worker fails only its own call.

A worker that dies (``os._exit``, a signal, the OOM killer) breaks its pool
and every call in flight on it. Those calls never finished, so each runs once
more, alone, in a one-worker pool: a call that breaks that pool too is the
culprit, and only its record says ``BrokenProcessPool``. A call's own
failure is never retried.
"""

from __future__ import annotations

import functools
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.utils.guard import failure, guarded_call

__all__ = ["WorkerPool"]


def _settle(outer: Future, result) -> None:
    """Give ``outer`` the outcome record ``result()`` returns or raises,
    unless the caller cancelled ``outer``."""
    try:
        record = result()
    except BaseException as exc:  # noqa: BLE001 - pickling, cancellation
        record = failure(exc)
    if outer.set_running_or_notify_cancel():
        outer.set_result(record)


def _alone(outer: Future, call) -> None:
    with ProcessPoolExecutor(1) as solo:
        _settle(outer, lambda: solo.submit(call).result())


class WorkerPool:
    """Runs :func:`~repro.utils.guard.guarded_call` in ``workers`` processes,
    or in the calling thread when ``workers`` is 0. ``restarts`` counts the
    broken pools replaced, each on the submit after its break."""

    def __init__(self, workers: int):
        self.workers = workers
        self.restarts = 0
        self._pool = ProcessPoolExecutor(workers) if workers else None
        self._joins: list = []  # retired pools and calls rerun alone

    def submit(self, fn, *args, timeout: float | None = None) -> Future:
        """A future holding ``guarded_call(fn, *args, timeout=timeout)``'s
        outcome record; it never raises."""
        call = functools.partial(guarded_call, fn, *args, timeout=timeout)
        outer: Future = Future()
        if self._pool is None:
            outer.set_result(call())
            return outer
        try:
            inner = self._pool.submit(call)
        except BrokenProcessPool:  # a worker died since the last submit
            self._joins.append(self._pool.shutdown)
            self._pool = ProcessPoolExecutor(self.workers)
            self.restarts += 1
            inner = self._pool.submit(call)
        inner.add_done_callback(functools.partial(self._done, outer, call))
        return outer

    def _done(self, outer: Future, call, inner: Future) -> None:
        if inner.cancelled() or not isinstance(inner.exception(),
                                               BrokenProcessPool):
            _settle(outer, inner.result)
        elif not outer.cancelled():
            rerun = threading.Thread(target=_alone, args=(outer, call))
            rerun.start()
            self._joins.append(rerun.join)

    def shutdown(self) -> None:
        """Cancel queued calls, wait for running ones, join every worker."""
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
        for join in self._joins:
            join()
