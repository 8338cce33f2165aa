"""WorkerPool: a dead worker fails only its own call, and nothing leaks."""

import logging
import multiprocessing
import os
import threading
import time

import pytest

from repro.utils.pool import WorkerPool


def _nap(seconds, value):
    time.sleep(seconds)
    return value


def _die(seconds):
    time.sleep(seconds)
    os._exit(3)


def _unpicklable():
    return threading.Lock()


@pytest.fixture
def pool():
    pool = WorkerPool(3)
    yield pool
    pool.shutdown()


def test_a_dead_worker_fails_only_its_own_call(pool):
    naps = [pool.submit(_nap, 0.3, value) for value in ("a", "b")]
    crash = pool.submit(_die, 0.05)
    assert [f.result(timeout=30) for f in naps] == [
        {"ok": True, "value": "a"}, {"ok": True, "value": "b"}]
    record = crash.result(timeout=30)
    assert record["ok"] is False and record["kind"] == "BrokenProcessPool"
    # The broken pool is replaced on the next submit.
    assert pool.submit(_nap, 0, "c").result(timeout=30)["value"] == "c"
    assert pool.restarts == 1


def test_an_unpicklable_value_is_a_failed_record(pool):
    record = pool.submit(_unpicklable).result(timeout=30)
    assert record["ok"] is False
    assert "pickle" in record["error"]


def test_a_cancelled_future_raises_nothing_in_the_pool(pool, caplog):
    errors = []
    hook, threading.excepthook = threading.excepthook, errors.append
    try:
        with caplog.at_level(logging.ERROR, logger="concurrent.futures"):
            # The naps finish on the pool, then the crash breaks it.
            futures = [pool.submit(_nap, 0.05, i) for i in range(2)]
            futures.append(pool.submit(_die, 0.3))
            assert all(f.cancel() for f in futures)
            pool.shutdown()
    finally:
        threading.excepthook = hook
    assert errors == [] and caplog.records == []


def test_shutdown_leaves_no_child_process():
    pool = WorkerPool(2)
    futures = [pool.submit(_nap, 0.1, 1), pool.submit(_die, 0)]
    assert [f.result(timeout=30)["ok"] for f in futures] == [True, False]
    pool.shutdown()
    assert multiprocessing.active_children() == []


def test_no_workers_runs_in_the_calling_thread():
    pool = WorkerPool(0)
    record = pool.submit(threading.get_ident).result()
    assert record == {"ok": True, "value": threading.get_ident()}
    assert pool.submit(int, "x").result()["kind"] == "ValueError"
    pool.shutdown()
