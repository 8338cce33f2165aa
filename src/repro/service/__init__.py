"""repro.service — mapping-as-a-service over :class:`MappingEngine`.

The "heavy traffic" layer (ROADMAP item 2): a long-running asyncio daemon
with a small HTTP/JSON API whose scaling lever is a content-addressed
result cache — duplicate requests (the dominant traffic shape) are served
from the cache in microseconds instead of recomputed.

Layers, bottom up:

* :mod:`repro.service.cache` — the content key
  (graph :meth:`~repro.taskgraph.TaskGraph.content_digest` × canonical
  mapper spec × topology ``cache_key()`` × seed × kernel × evaluation
  knobs) and :class:`ResultCache` (LRU + optional disk tier).
* :mod:`repro.service.daemon` — :class:`MappingService`: bounded queue,
  batching into pool workers, backpressure, a per-request deadline (each
  request runs once through :func:`repro.utils.guard.guarded_call`),
  ``service.*`` telemetry.
* :mod:`repro.service.http` — the four-route HTTP transport and
  :class:`ThreadedServer` harness.
* :mod:`repro.service.loadgen` — duplicate-heavy load driver producing the
  ``BENCH_service_loadgen.json`` artifact.
* :mod:`repro.service.cli` — the ``repro-serve`` entry point.

See docs/SERVICE.md for the API, cache-key anatomy, and validity envelope.
"""

from repro.service.cache import (
    ResultCache,
    request_cache_key,
    result_to_payload,
)
from repro.service.daemon import (
    BackpressureError,
    MappingService,
    ServiceConfig,
    ServiceRequestError,
)
from repro.service.http import ThreadedServer, serve

__all__ = [
    "ResultCache",
    "request_cache_key",
    "result_to_payload",
    "BackpressureError",
    "MappingService",
    "ServiceConfig",
    "ServiceRequestError",
    "ThreadedServer",
    "serve",
]
