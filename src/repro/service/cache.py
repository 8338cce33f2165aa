"""Content-addressed mapping results — cache keys and the result cache.

The serving layer's scaling lever: a mapping is fully determined by
*(task-graph content, canonical mapper spec, topology shape, seed,
evaluation knobs)*, so the request stream from many clients — which is
mostly duplicates — collapses onto a small set of keys. The key is built
from

* :meth:`repro.taskgraph.TaskGraph.content_digest` — sha256 over the
  canonical edge/weight/coordinate arrays, so two spellings of the same
  graph (different edge order, ``file:`` vs generated) share an entry while
  any structural mutation gets a fresh one;
* :func:`repro.engine.specs.canonical_mapper_spec` — aliases and
  equivalent spellings normalize to one string;
* the topology's :meth:`~repro.topology.base.Topology.cache_key` (the same
  shape identity the shared distance-table cache uses), falling back to the
  spec string for content-defined machines;
* the seed and the result-shaping knobs (``flow_metrics`` / ``validate`` /
  ``netsim``);
* :data:`ALGORITHM_FINGERPRINT`, so an entry computed by an older algorithm
  misses instead of being served.

The mapper's kernel is not part of the key: the compiled and reference
bodies produce identical assignments, no request can choose between them,
and the full-tier ``kernel-differential`` oracle checks that they agree.

:class:`ResultCache` stores JSON-able result payloads under those keys in a
bounded in-memory LRU with an optional on-disk tier (one file per key,
written atomically), so a restarted daemon starts warm.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from functools import lru_cache
from pathlib import Path

from repro.exceptions import SpecError

__all__ = [
    "ALGORITHM_FINGERPRINT",
    "CACHE_KEY_VERSION",
    "RESULT_FORMAT",
    "request_cache_key",
    "result_to_payload",
    "ResultCache",
]

CACHE_KEY_VERSION = "repro-mapkey-v1"
RESULT_FORMAT = "repro-mapresult-v1"

#: What the algorithms compute, as pinned by the tests: sha256 over the
#: canonical JSON of every ``tests/golden/*.json`` and the DES replay
#: digests. A change that moves any pin must regenerate it (the tier-1
#: fingerprint test prints the command), which retires every cached entry;
#: :data:`CACHE_KEY_VERSION` versions the key payload's shape instead.
ALGORITHM_FINGERPRINT = "01ba79f9d637c68715ef9c3bd5bc0c7e275183be8bc10570f0755d3c3b88f1ff"

#: Generative graph-spec kinds that are pure functions of the spec string —
#: safe to memoize. ``file:``/``lbdump:`` specs point at mutable paths, so
#: they are re-read (and re-digested) on every request.
_PURE_GRAPH_KINDS = ("mesh2d", "mesh3d", "ring", "alltoall", "random")


@lru_cache(maxsize=256)
def _pure_graph(spec: str):
    from repro.engine.core import graph_from_spec

    graph = graph_from_spec(spec)
    return graph, graph.content_digest()


def _graph_digest(graph) -> str:
    """Content digest for a live TaskGraph or a graph spec string."""
    from repro.engine.core import graph_from_spec
    from repro.taskgraph.graph import TaskGraph

    if isinstance(graph, TaskGraph):
        return graph.content_digest()
    kind = str(graph).partition(":")[0].strip().lower()
    if kind in _PURE_GRAPH_KINDS:
        return _pure_graph(str(graph))[1]
    return graph_from_spec(graph).content_digest()


@lru_cache(maxsize=256)
def _topology_token_for_spec(spec: str) -> str:
    from repro.topology.factory import topology_from_spec

    key = topology_from_spec(spec).cache_key()
    return repr(key) if key is not None else f"spec:{spec}"


def _topology_token(topology) -> str:
    """Stable identity token for a topology spec or live instance."""
    if isinstance(topology, str):
        return _topology_token_for_spec(topology)
    key = topology.cache_key()
    if key is None:
        raise SpecError(
            f"topology {type(topology).__name__} has no cache_key() and was "
            "not given as a spec string — its identity cannot be proven "
            "stable, so the result is not content-addressable"
        )
    return repr(key)


def request_cache_key(request) -> str:
    """The content-addressed key of a :class:`~repro.engine.MappingRequest`.

    Two requests with equal keys produce bit-identical results (same
    assignment, same metrics block), so a cached payload can be served in
    place of a recompute. Raises :class:`~repro.exceptions.SpecError` when
    the request is not content-addressable (a live mapper object carries no
    canonical spec; a content-defined topology instance has no shape key).
    """
    from repro.engine.specs import canonical_mapper_spec

    if not isinstance(request.mapper, str):
        raise SpecError(
            f"mapper {type(request.mapper).__name__} is a live object — only "
            "spec-string mappers have a canonical identity, so the result "
            "is not content-addressable"
        )
    payload = {
        "v": CACHE_KEY_VERSION,
        "algorithm": ALGORITHM_FINGERPRINT,
        "graph": _graph_digest(request.graph),
        "topology": _topology_token(request.topology),
        "mapper": canonical_mapper_spec(request.mapper),
        "seed": request.seed,
        "flow_metrics": bool(request.flow_metrics),
        "validate": request.validate,
        "netsim": (
            None
            if request.netsim is None
            else json.dumps(request.netsim, sort_keys=True)
        ),
    }
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def result_to_payload(result) -> dict:
    """Flatten a :class:`~repro.engine.MappingResult` into a JSON-able dict.

    Exactly the reproducible surface of the result travels: the assignment,
    the canonical metrics block, and the replay metadata. The heavyweight
    ``Mapping``/profile objects stay behind.
    """
    return {
        "assignment": [int(x) for x in result.assignment],
        "metrics": {k: float(v) for k, v in result.metrics.items()},
        "metadata": {
            k: v for k, v in result.metadata.items()
            if isinstance(v, (str, int, float, bool)) or v is None
        },
    }


class ResultCache:
    """Bounded LRU of result payloads with an optional on-disk tier.

    Thread-safe (one lock around the ordered dict — the daemon's event loop
    and any helper threads share it). Disk entries are one JSON file per
    key, written atomically (tmp + rename) so a crashed writer never leaves
    a torn entry; reads promote back into memory.
    """

    def __init__(self, max_entries: int = 1024,
                 disk_dir: str | Path | None = None):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._max = int(max_entries)
        self._mem: OrderedDict[str, dict] = OrderedDict()
        self._dir = Path(disk_dir) if disk_dir is not None else None
        if self._dir is not None:
            self._dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.evictions = 0

    def _disk_path(self, key: str) -> Path:
        return self._dir / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """The payload under ``key``, or ``None`` (counted as a miss)."""
        with self._lock:
            payload = self._mem.get(key)
            if payload is not None:
                self._mem.move_to_end(key)
                self.hits += 1
                return payload
        if self._dir is not None:
            path = self._disk_path(key)
            try:
                doc = json.loads(path.read_text())
                payload = doc["payload"]
            except (OSError, ValueError, KeyError):
                payload = None
            if payload is not None:
                with self._lock:
                    self.hits += 1
                    self.disk_hits += 1
                    self._store(key, payload)
                return payload
        with self._lock:
            self.misses += 1
        return None

    def _store(self, key: str, payload: dict) -> None:
        self._mem[key] = payload
        self._mem.move_to_end(key)
        while len(self._mem) > self._max:
            self._mem.popitem(last=False)
            self.evictions += 1

    def put(self, key: str, payload: dict) -> None:
        """Insert ``payload`` under ``key`` (memory, then disk if enabled)."""
        with self._lock:
            self._store(key, payload)
        if self._dir is not None:
            path = self._disk_path(key)
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_text(json.dumps(
                {"format": RESULT_FORMAT, "key": key, "payload": payload}
            ))
            os.replace(tmp, path)

    def stats(self) -> dict[str, int]:
        """Counter snapshot: hits / misses / disk_hits / evictions / size."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "disk_hits": self.disk_hits,
                "evictions": self.evictions,
                "entries": len(self._mem),
            }
