"""The mapping daemon: bounded queue → batches → pool workers → cache.

:class:`MappingService` is the asyncio core of ``repro-serve``. One request
travels::

    submit(body)
      └─ parse → MappingRequest → content key (repro.service.cache)
           ├─ cache hit  → served immediately (the fast path)
           ├─ in flight  → coalesced onto the existing future
           ├─ queue full → BackpressureError (HTTP 429 + Retry-After)
           └─ enqueue    → batcher drains ≤ batch_size requests at a time
                           into a repro.utils.pool.WorkerPool (jobs=0: a
                           thread executor, for tests); each request runs
                           through repro.utils.guard.guarded_call under a
                           SIGALRM deadline. A seeded failure would only
                           repeat and is not retried; a batch that a
                           neighbour's crash killed runs once more, alone

Everything is measured: ``service.*`` counters/timers accumulate in a
dedicated :class:`~repro.obs.core.Profiler`, and
:meth:`MappingService.metrics_profile` exports them — queue depth
high-water, hit/miss/coalesced/rejected counts, p50/p99 service latency for
hits and misses separately — as a ``repro-profile-v1`` document.
"""

from __future__ import annotations

import asyncio
import contextlib
import re
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from pathlib import Path

from repro.exceptions import ReproError, SpecError, TaskGraphError
from repro.obs.core import Profiler
from repro.service.cache import (
    ResultCache,
    request_cache_key,
    result_to_payload,
)
from repro.utils.guard import guarded_call
from repro.utils.pool import WorkerPool

__all__ = [
    "ServiceConfig",
    "BackpressureError",
    "ServiceRequestError",
    "MappingService",
]


@dataclass
class ServiceConfig:
    """Tunables of one daemon instance (all have serving-friendly defaults)."""

    #: Process-pool workers; ``0`` runs batches on a thread executor in the
    #: daemon process (no pool spin-up — the test/CI fast path, at the cost
    #: of the per-request SIGALRM timeout degrading to the batch guard).
    jobs: int = 1
    #: Maximum queued-but-undispatched misses before new misses are rejected
    #: with a 429.
    queue_limit: int = 64
    #: Maximum requests handed to one pool worker in one call — a batch
    #: warms the worker's topology/context caches once for all its members.
    batch_size: int = 8
    #: Per-request wall-clock deadline inside the worker
    #: (:func:`repro.utils.guard.deadline`); ``None`` disables it.
    timeout: float | None = 30.0
    #: In-memory LRU capacity and optional on-disk tier of the result cache.
    cache_entries: int = 1024
    cache_dir: str | Path | None = None
    #: Seconds advertised in the 429 ``Retry-After`` header.
    retry_after: float = 1.0
    #: Bounded per-class latency samples kept for the p50/p99 report.
    latency_samples: int = 8192


class BackpressureError(ReproError):
    """The miss queue is full; retry after ``retry_after`` seconds."""

    def __init__(self, depth: int, limit: int, retry_after: float):
        super().__init__(
            f"request queue is full ({depth}/{limit} pending); "
            f"retry after {retry_after:g}s"
        )
        self.retry_after = retry_after


class ServiceRequestError(ReproError):
    """A request body that can never be served (unknown field, bad spec)."""


#: What :func:`request_cache_key` returns: a sha256 hexdigest.
_RESULT_ID = re.compile(r"[0-9a-f]{64}")

_BODY_KEYS = frozenset({
    "graph", "topology", "mapper", "seed", "flow_metrics",
    "validate", "netsim", "wait",
})


def parse_request_body(body) -> tuple[object, bool]:
    """Validate a ``POST /map`` JSON body into a (MappingRequest, wait) pair."""
    from repro.engine.core import MappingRequest

    if not isinstance(body, dict):
        raise ServiceRequestError(
            f"request body must be a JSON object, got {type(body).__name__}"
        )
    unknown = set(body) - _BODY_KEYS
    if unknown:
        raise ServiceRequestError(
            f"unknown request field(s) {sorted(unknown)}; "
            f"recognized: {sorted(_BODY_KEYS)}"
        )
    for field in ("graph", "topology"):
        if not isinstance(body.get(field), str):
            raise ServiceRequestError(
                f"request field {field!r} must be a spec string"
            )
    seed = body.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ServiceRequestError(f"seed must be an integer, got {seed!r}")
    flags = {name: body.get(name, default)
             for name, default in (("flow_metrics", False), ("wait", True))}
    for name, value in flags.items():
        if not isinstance(value, bool):
            raise ServiceRequestError(
                f"{name} must be a JSON boolean, got {value!r}")
    netsim = body.get("netsim")
    if netsim is not None and not isinstance(netsim, dict):
        raise ServiceRequestError(f"netsim must be an object, got {netsim!r}")
    validate = body.get("validate", "off")
    if validate not in ("off", "cheap", "full"):
        raise ServiceRequestError(
            f"validate must be one of ('off', 'cheap', 'full'), "
            f"got {validate!r}"
        )
    request = MappingRequest(
        graph=body["graph"],
        topology=body["topology"],
        mapper=body.get("mapper", "TopoLB"),
        seed=seed,
        flow_metrics=flags["flow_metrics"],
        validate=validate,
        netsim=netsim,
    )
    return request, flags["wait"]


def _serve_batch(requests, timeout):
    """Worker: run a batch of requests, one guarded outcome per request.

    Runs inside a pool worker's main thread, so the SIGALRM deadline bounds
    each request's wall time individually; errors are captured per request
    (one poisoned request cannot take down its batchmates). A request's own
    failure is not retried: it is seeded, so it would only repeat.
    """
    from repro.engine.core import MappingEngine

    engine = MappingEngine()
    outcomes = []
    for request in requests:
        outcome = guarded_call(engine.run, request, timeout=timeout)
        if outcome["ok"]:
            outcome = {"ok": True, "payload": result_to_payload(outcome["value"])}
        outcomes.append(outcome)
    return outcomes


class MappingService:
    """Long-running mapping server core (transport-agnostic).

    Use :meth:`start` / :meth:`stop` around the serving lifetime;
    :meth:`submit` is the one request entry point (the HTTP layer is a thin
    adapter over it). All state lives on the event loop except the result
    cache, which is lock-protected.
    """

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self.cache = ResultCache(
            max_entries=self.config.cache_entries,
            disk_dir=self.config.cache_dir,
        )
        self.profiler = Profiler()
        self._inflight: dict[str, asyncio.Future] = {}
        self._errors: OrderedDict[str, dict] = OrderedDict()
        self._queue: asyncio.Queue | None = None
        self._pool: WorkerPool | None = None
        self._batcher: asyncio.Task | None = None
        self._dispatch_tasks: set[asyncio.Task] = set()
        self._latencies: dict[str, deque] = {
            "hit": deque(maxlen=self.config.latency_samples),
            "miss": deque(maxlen=self.config.latency_samples),
        }
        self._started_at: float | None = None
        self._requests_seen = 0

    # --------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Spin up the worker pool and the batch-dispatch task."""
        if self._queue is not None:
            return
        self._queue = asyncio.Queue()
        self._pool = WorkerPool(self.config.jobs)
        self._sem = asyncio.Semaphore(max(1, self.config.jobs))
        self._batcher = asyncio.create_task(self._batch_loop())
        self._started_at = time.monotonic()

    async def stop(self) -> None:
        """Drain nothing, cancel the batcher, shut the pool down."""
        for task in (self._batcher, *self._dispatch_tasks):
            if task is not None:
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await task
        self._batcher = None
        for future in self._inflight.values():
            if not future.done():
                # A result (not an exception): wait=False submitters never
                # retrieve these futures, and an unretrieved exception would
                # warn at GC time.
                future.set_result({
                    "ok": False, "kind": "shutdown",
                    "error": "service stopped before the request completed",
                })
        self._inflight.clear()
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        self._queue = None

    # ----------------------------------------------------------------- submit
    async def submit(self, body) -> dict:
        """Serve one ``POST /map`` body; returns the JSON-able response.

        Raises :class:`ServiceRequestError` for bodies that can never be
        served and :class:`BackpressureError` when the miss queue is full.
        """
        if self._queue is None:
            raise ReproError("MappingService.submit before start()")
        t0 = time.perf_counter()
        self.profiler.count("service.requests")
        self._requests_seen += 1
        try:
            request, wait = parse_request_body(body)
            with self.profiler.timer("service.key"):
                key = request_cache_key(request)
        except (ServiceRequestError, SpecError, TaskGraphError) as exc:
            # Keying builds the graph: a spec or file that cannot make a
            # valid task graph is the client's error, not the server's.
            self.profiler.count("service.bad_requests")
            raise ServiceRequestError(str(exc)) from exc

        payload = self.cache.get(key)
        if payload is not None:
            self.profiler.count("service.hits")
            latency = time.perf_counter() - t0
            self._latencies["hit"].append(latency)
            self.profiler.add_time("service.request.hit", latency)
            return {"id": key, "status": "done", "cached": True,
                    "result": payload}

        error = self._errors.get(key)
        if error is not None and error["kind"] != "timeout":
            # Deterministic failures (bad graph/mapper combination,
            # validation violation) are replay-stable: answering from the
            # error record avoids recomputing a known-bad request forever.
            self.profiler.count("service.error_hits")
            return {"id": key, "status": "error", **error}

        future = self._inflight.get(key)
        if future is not None:
            self.profiler.count("service.coalesced")
        else:
            depth = self._queue.qsize()
            if depth >= self.config.queue_limit:
                self.profiler.count("service.rejected")
                raise BackpressureError(
                    depth, self.config.queue_limit, self.config.retry_after
                )
            future = asyncio.get_running_loop().create_future()
            self._inflight[key] = future
            self._queue.put_nowait((key, request, time.perf_counter()))
            self.profiler.count_max(
                "service.queue_depth_max", self._queue.qsize()
            )

        if not wait:
            return {"id": key, "status": "pending"}

        grace = 5.0 if self.config.timeout is None else self.config.timeout
        try:
            outcome = await asyncio.wait_for(
                asyncio.shield(future),
                timeout=grace * (1 + self.config.batch_size),
            )
        except asyncio.TimeoutError:
            self.profiler.count("service.wait_timeouts")
            return {"id": key, "status": "pending"}
        latency = time.perf_counter() - t0
        self._latencies["miss"].append(latency)
        self.profiler.add_time("service.request.miss", latency)
        if outcome["ok"]:
            return {"id": key, "status": "done", "cached": False,
                    "result": outcome["payload"]}
        return {"id": key, "status": "error", "error": outcome["error"],
                "kind": outcome["kind"]}

    async def result(self, key: str) -> dict | None:
        """Poll a previously submitted request: done / error / pending / None.

        An id that is no :func:`request_cache_key` is unknown before the
        cache (and so the cache directory) is asked.
        """
        if not _RESULT_ID.fullmatch(key):
            return None
        payload = self.cache.get(key)
        if payload is not None:
            return {"id": key, "status": "done", "cached": True,
                    "result": payload}
        error = self._errors.get(key)
        if error is not None:
            return {"id": key, "status": "error", **error}
        if key in self._inflight:
            return {"id": key, "status": "pending"}
        return None

    # ------------------------------------------------------------- dispatching
    async def _batch_loop(self) -> None:
        while True:
            item = await self._queue.get()
            batch = [item]
            while len(batch) < self.config.batch_size:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            await self._sem.acquire()
            task = asyncio.create_task(self._dispatch(batch))
            self._dispatch_tasks.add(task)
            task.add_done_callback(self._dispatch_tasks.discard)

    async def _dispatch(self, batch) -> None:
        requests = [request for _, request, _ in batch]
        cfg = self.config
        self.profiler.count("service.batches")
        self.profiler.count("service.batched_requests", len(batch))
        if cfg.jobs:
            worker_call = asyncio.wrap_future(
                self._pool.submit(_serve_batch, requests, cfg.timeout))
            self.profiler.count_max("service.pool_restarts",
                                    self._pool.restarts)
        else:
            worker_call = asyncio.get_running_loop().run_in_executor(
                None, guarded_call, _serve_batch, requests, cfg.timeout)
        # Belt over the per-request SIGALRM suspenders: a worker that hangs
        # in uninterruptible code still cannot wedge the daemon.
        guard = None if cfg.timeout is None else cfg.timeout * len(batch) + 5
        try:
            call = await asyncio.wait_for(worker_call, timeout=guard)
        except asyncio.TimeoutError:
            call = {"ok": False, "kind": "timeout",
                    "error": f"batch timed out after {cfg.timeout}s per request"}
        finally:
            self._sem.release()
        outcomes = call["value"] if call["ok"] else [call] * len(batch)

        now = time.perf_counter()
        for (key, _, enqueued_at), outcome in zip(batch, outcomes):
            if outcome["ok"]:
                self.cache.put(key, outcome["payload"])
                self.profiler.count("service.misses")
                self.profiler.add_time("service.compute", now - enqueued_at)
            else:
                self.profiler.count("service.errors")
                if outcome["kind"] == "timeout":
                    self.profiler.count("service.timeouts")
                self._errors[key] = {
                    "error": outcome["error"], "kind": outcome["kind"],
                }
                while len(self._errors) > 1024:
                    self._errors.popitem(last=False)
            future = self._inflight.pop(key, None)
            if future is not None and not future.done():
                future.set_result(outcome)

    # ------------------------------------------------------------------ status
    def healthz(self) -> dict:
        """Liveness report for ``GET /healthz``."""
        return {
            "status": "ok",
            "uptime_s": (
                0.0 if self._started_at is None
                else time.monotonic() - self._started_at
            ),
            "requests": self._requests_seen,
            "queue_depth": 0 if self._queue is None else self._queue.qsize(),
            "inflight": len(self._inflight),
            "cache": self.cache.stats(),
            "jobs": self.config.jobs,
        }

    def metrics_profile(self) -> dict:
        """Service telemetry as a ``repro-profile-v1`` document."""
        from repro import obs

        def _pct(samples, q):
            if not samples:
                return 0.0
            ordered = sorted(samples)
            rank = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
            return ordered[rank]

        prof = Profiler()
        prof.merge(self.profiler.snapshot())
        for name, value in self.cache.stats().items():
            prof.count(f"service.cache.{name}", value)
        for cls in ("hit", "miss"):
            samples = list(self._latencies[cls])
            prof.count(f"service.latency_{cls}_p50_us",
                       _pct(samples, 0.50) * 1e6)
            prof.count(f"service.latency_{cls}_p99_us",
                       _pct(samples, 0.99) * 1e6)
            prof.count(f"service.latency_{cls}_samples", len(samples))
        return obs.build_profile(
            prof,
            command="repro-serve",
            context={
                "queue_limit": self.config.queue_limit,
                "batch_size": self.config.batch_size,
                "jobs": self.config.jobs,
                "uptime_s": round(self.healthz()["uptime_s"], 3),
            },
        )
