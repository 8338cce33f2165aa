"""The four benchmark workloads: input generation, closed-loop runs, checks.

Every workload is a closed loop: a client sends its next request only after
the previous reply arrived. Inputs come only from :func:`numpy.random.default_rng`
seeded with the workload seed, so one seed always yields one request stream;
the program under test receives only the generated requests.

A run keeps sending until ``seconds`` have passed *and* the first
``quality_n`` requests of the stream are done, so the quality means
(hop-bytes, flow load, DES makespan) are exact for a seed.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field

import numpy as np

from repro.engine.core import MappingEngine, MappingRequest, graph_from_spec
from repro.mapping import _native
from repro.mapping.metrics import hop_bytes
from repro.service.daemon import ServiceConfig
from repro.service.http import ThreadedServer
from repro.taskgraph.leanmd import leanmd_taskgraph
from repro.topology.cache import clear_topology_cache
from repro.topology.factory import topology_from_spec

from perfbench.measure import Probe

__all__ = ["Outcome", "Window", "WORKLOADS"]


@dataclass
class Outcome:
    """One request of a run: what was sent, what came back, how long it took."""

    index: int  # position in the generated stream
    kind: str  # request class: mapper strategy, or "http"
    latency: float  # wall seconds
    request: object
    result: object = None  # MappingResult (engine) or reply dict (service)
    error: str | None = None
    scale: float = 1.0  # host-speed factor of the probes around the request


@dataclass
class Window:
    """The outcomes of one timed closed-loop run."""

    outcomes: list[Outcome]
    busy: float  # wall seconds spent serving requests (probes excluded)
    norm_busy: float  # the same at reference host speed
    extra: dict = field(default_factory=dict)

    def latencies(self, normalized: bool = True) -> list[float]:
        return [o.latency * (o.scale if normalized else 1.0)
                for o in self.outcomes]

    def class_p50(self, normalized: bool = True) -> float:
        """Median latency of each request class, averaged over the classes.

        The leanmd and DES workloads cycle request classes whose costs differ
        by up to 3x; the median of the mixture would then sit at a cluster
        edge and jump between runs.
        """
        by_kind: dict[str, list[float]] = {}
        for o, latency in zip(self.outcomes, self.latencies(normalized)):
            by_kind.setdefault(o.kind, []).append(latency)
        return sum(statistics.median(v) for v in by_kind.values()) / len(by_kind)

    def requests_per_s(self, normalized: bool = True) -> float:
        ok = sum(1 for o in self.outcomes if o.error is None)
        return ok / (self.norm_busy if normalized else self.busy)

    def prefix(self, n: int) -> list[Outcome]:
        return sorted(self.outcomes, key=lambda o: o.index)[:n]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


class Workload:
    """What every workload shares: its name, why it exists, its quality."""

    name = ""
    why = ""
    #: Quality metrics are means over this many leading requests.
    quality_n = 1
    quality_keys = ("hops_per_byte", "flow_max_link_bytes")

    def __init__(self, seed: int, probe: Probe | None):
        self.seed = seed
        self.engine = MappingEngine()
        self.probe = probe

    def metrics_of(self, outcome: Outcome) -> dict:
        raise NotImplementedError

    def quality(self, window: Window) -> dict[str, float]:
        head = [o for o in window.prefix(self.quality_n) if o.error is None]
        return {
            key: float(np.mean([self.metrics_of(o)[key] for o in head]))
            for key in self.quality_keys
        }


# ------------------------------------------------------------------- engine
class EngineWorkload(Workload):
    """A workload that calls :meth:`MappingEngine.run` from one client."""

    topology_spec = ""
    #: Rescale each request by the host-speed probes around it (see
    #: :class:`~perfbench.measure.Probe`).
    rescale = True

    # Inputs ---------------------------------------------------------------
    def build_graph(self):
        raise NotImplementedError

    def stream(self):
        """Yield ``(kind, MappingRequest)`` forever, decided by the seed."""
        raise NotImplementedError

    def warm_requests(self) -> list[MappingRequest]:
        """Tiny requests on the same code paths (lazy imports, kernels)."""
        raise NotImplementedError

    def setup(self) -> None:
        """Build the inputs from cold topology tables; repeatable."""
        clear_topology_cache()
        self.graph = self.build_graph()
        self.topology = topology_from_spec(self.topology_spec)
        self.topology.distance_matrix()
        for request in self.warm_requests():
            self.engine.run(request)

    def close(self) -> None:
        pass

    # Timed loop -----------------------------------------------------------
    def _probe(self) -> float:
        if self.rescale:
            return self.probe.seconds()
        gc.collect()  # every request starts from a collected heap
        return 0.0

    def run(self, seconds: float, min_requests: int) -> Window:
        outcomes = []
        requests = self.stream()
        start = time.perf_counter()
        before = self._probe()
        index = 0
        while index < min_requests or time.perf_counter() - start < seconds:
            kind, request = next(requests)
            t0 = time.perf_counter()
            try:
                result = self.engine.run(request)
                error = None
            except Exception as exc:  # noqa: BLE001 — a failed request is data
                result, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            after = self._probe()
            if result is not None:
                result.mapping = None  # keep only what the checks read
            scale = self.probe.scale(before, after) if self.rescale else 1.0
            outcomes.append(Outcome(index, kind, latency, request, result,
                                    error, scale))
            before = after
            index += 1
        return Window(outcomes, sum(o.latency for o in outcomes),
                      sum(o.latency * o.scale for o in outcomes))

    # Checks ---------------------------------------------------------------
    def check(self, window: Window) -> None:
        """Mark outcomes whose output is wrong; the engine already validated
        each result at the cheap tier (``validate="cheap"``)."""
        for o in window.outcomes:
            if o.error is not None:
                continue
            recomputed = hop_bytes(self.graph, self.topology, o.result.assignment)
            if not _close(recomputed, o.result.metrics["hop_bytes"]):
                o.error = (
                    f"hop_bytes {o.result.metrics['hop_bytes']!r} != "
                    f"recomputed {recomputed!r}"
                )

    def metrics_of(self, outcome: Outcome) -> dict:
        return outcome.result.metrics


class LeanmdPipeline(EngineWorkload):
    name = "leanmd_pipeline"
    why = ("paper-scale LeanMD (3752 tasks) on torus 8x8x8 cycling the paper's "
           "five strategies: phase-1 partitioning and TopoLB/refine do the "
           "work; no DES, no service")
    topology_spec = "torus:8x8x8"
    strategies = ("TopoLB", "TopoCentLB", "RefineTopoLB", "RefineTopoLB3",
                  "RandomLB")
    quality_n = 20

    def build_graph(self):
        return leanmd_taskgraph(512)

    def stream(self):
        rng = np.random.default_rng(self.seed)
        while True:
            for i in rng.permutation(len(self.strategies)):
                strategy = self.strategies[i]
                yield strategy, MappingRequest(
                    graph=self.graph, topology=self.topology_spec,
                    mapper=strategy, seed=int(rng.integers(2**31)),
                    flow_metrics=True, validate="cheap",
                )

    def warm_requests(self):
        graph = leanmd_taskgraph(8, cells_shape=(3, 3, 3), seed=0)
        return [
            MappingRequest(graph=graph, topology="torus:2x2x2", mapper=s,
                           seed=0, flow_metrics=True, validate="cheap")
            for s in self.strategies
        ]


class Multilevel110k(EngineWorkload):
    name = "multilevel_110k"
    why = ("the scale rung: 110,592 tasks on torus 16x16x16 by multilevel "
           "TopoLB; refine, coarsening, aggregation and memory dominate")
    topology_spec = "torus:16x16x16"
    mapper = "multilevel:inner=topolb;levels=auto"
    #: One request takes ~10 s, so a run holds only two or three; every run
    #: maps the same two mapper seeds (the seed orders them) so that runs
    #: differ by noise, not by the refine work a seed happens to need.
    seed_pool = (11, 22)
    quality_n = 2
    #: Probes 10 s apart do not describe the host speed in between, and in
    #: five- and ten-seed sets rescaling widened this rung's spread.
    rescale = False

    def build_graph(self):
        return graph_from_spec("mesh3d:48x48x48;bytes=1024")

    def stream(self):
        rng = np.random.default_rng(self.seed)
        while True:
            for i in rng.permutation(len(self.seed_pool)):
                yield "multilevel", MappingRequest(
                    graph=self.graph, topology=self.topology_spec,
                    mapper=self.mapper, seed=self.seed_pool[i],
                    flow_metrics=True, validate="cheap",
                )

    def warm_requests(self):
        return [MappingRequest(
            graph="mesh3d:8x8x8;bytes=1024", topology="torus:4x4x4",
            mapper=self.mapper, seed=0, flow_metrics=True, validate="cheap",
        )]


class DesContention(EngineWorkload):
    name = "des_contention"
    why = ("buffered DES (>90% of a request) replaying random placements, "
           "which congest and retransmit, and TopoLB ones, which barely "
           "contend: mesh3d 8x8x8 on torus 8x8x8")
    topology_spec = "torus:8x8x8"
    iterations = 2
    quality_n = 20
    quality_keys = Workload.quality_keys + ("des_makespan_us", "des_p999_us")

    def build_graph(self):
        return graph_from_spec("mesh3d:8x8x8;bytes=4096")

    def _request(self, mapper: str, seed: int, graph,
                 topology: str | None = None) -> MappingRequest:
        return MappingRequest(
            graph=graph, topology=topology or self.topology_spec, mapper=mapper,
            seed=seed, flow_metrics=True, validate="cheap",
            netsim={"overload_policy": "drop", "buffer_bytes": 16384,
                    "iterations": self.iterations, "seed": seed},
        )

    def stream(self):
        rng = np.random.default_rng(self.seed)
        while True:
            for mapper in rng.permutation(["random", "topolb"]):
                yield str(mapper), self._request(
                    str(mapper), int(rng.integers(2**31)), self.graph)

    def warm_requests(self):
        return [self._request(m, 0, "mesh3d:4x4x4;bytes=4096", "torus:4x4x4")
                for m in ("random", "topolb")]

    def check(self, window: Window) -> None:
        super().check(window)
        sent = 2 * self.graph.num_edges * self.iterations
        for o in window.outcomes:
            if o.error is not None:
                continue
            m = o.result.metrics
            if m["des_delivered"] + m["des_dropped"] != sent:
                o.error = (
                    f"DES delivered {m['des_delivered']:.0f} + dropped "
                    f"{m['des_dropped']:.0f} != sent {sent}"
                )


# ------------------------------------------------------------------ service
class ServiceDup80(Workload):
    """A self-hosted ``repro-serve`` driven over HTTP by two clients.

    Timed in wall time only: its time goes to three threads and a worker
    process, which a probe between requests does not describe.
    """

    name = "service_dup80"
    why = ("repro-serve over HTTP, 2 clients, 80% duplicates: cache hits, "
           "misses through the process pool and coalescing side by side")
    graph_spec = "mesh2d:16x16;bytes=1024"
    topology_spec = "torus:16x16"
    mapper = "refine:base=topolb"
    clients = 2
    #: Every block of this many requests holds exactly one unique (a cold
    #: request), at a position the seed picks: 80% duplicates in every run,
    #: not only on average.
    block = 5
    #: Duplicates repeat one of the most recent uniques, so a duplicate can
    #: arrive while its original is still being computed and coalesce.
    recent = 4
    quality_n = 20
    #: Uniques whose hit is compared with an engine-direct run per window.
    sample_hits = 8

    def __init__(self, seed: int, probe: Probe | None = None):
        super().__init__(seed, probe)
        self.server: ThreadedServer | None = None

    def body(self, seed: int) -> dict:
        return {"graph": self.graph_spec, "topology": self.topology_spec,
                "mapper": self.mapper, "seed": seed, "flow_metrics": True,
                "validate": "cheap"}

    def stream(self):
        rng = np.random.default_rng(self.seed)
        uniques: list[int] = []
        while True:
            cold = 0 if not uniques else int(rng.integers(self.block))
            for position in range(self.block):
                if position == cold:
                    uniques.append(int(rng.integers(2**31)))
                    seed = uniques[-1]
                else:
                    recent = min(self.recent, len(uniques))
                    seed = uniques[-1 - int(rng.integers(recent))]
                yield self.body(seed)

    def _engine_request(self, body: dict) -> MappingRequest:
        return MappingRequest(
            graph=body["graph"], topology=body["topology"],
            mapper=body["mapper"], seed=body["seed"],
            flow_metrics=body["flow_metrics"], validate=body["validate"],
        )

    def setup(self) -> None:
        """Start a fresh daemon (empty cache) and its pool worker."""
        self.close()
        clear_topology_cache()
        self.graph = graph_from_spec(self.graph_spec)
        self.topology = topology_from_spec(self.topology_spec)
        self.topology.distance_matrix()
        warm = {**self.body(0), "graph": "mesh2d:2x2;bytes=1024",
                "topology": "torus:2x2"}
        self.engine.run(self._engine_request(warm))
        self.server = ThreadedServer(ServiceConfig(jobs=1))
        self.url = self.server.start()
        reply = post(self.url, warm)
        if reply.get("status") != "done":
            raise RuntimeError(f"service warm-up failed: {reply}")

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def metrics(self) -> dict:
        with urllib.request.urlopen(f"{self.url}/metrics", timeout=60) as resp:
            return json.loads(resp.read())

    def run(self, seconds: float, min_requests: int) -> Window:
        requests = self.stream()
        lock = threading.Lock()
        outcomes: list[Outcome] = []
        state = {"next": 0}
        start = time.perf_counter()

        def client() -> None:
            while True:
                with lock:
                    index = state["next"]
                    if (index >= min_requests
                            and time.perf_counter() - start >= seconds):
                        return
                    body = next(requests)
                    state["next"] = index + 1
                t0 = time.perf_counter()
                try:
                    reply, error = post(self.url, body), None
                    if reply.get("status") != "done":
                        error = f"status {reply.get('status')}: {reply}"
                except Exception as exc:  # noqa: BLE001 — refused, 4xx/5xx
                    reply, error = None, f"{type(exc).__name__}: {exc}"
                latency = time.perf_counter() - t0
                with lock:
                    outcomes.append(
                        Outcome(index, "http", latency, body, reply, error))

        gc.collect()
        threads = [threading.Thread(target=client) for _ in range(self.clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - start
        return Window(outcomes, elapsed, elapsed)

    def check(self, window: Window) -> None:
        """Hop-bytes of every reply, and a sample of hits against the engine.

        The sample also gives the service overhead: a unique's miss latency
        minus the engine-direct latency of the same request.
        """
        first_miss: dict[int, Outcome] = {}
        first_hit: dict[int, Outcome] = {}
        for o in sorted(window.outcomes, key=lambda o: o.index):
            if o.error is not None:
                continue
            result = o.result["result"]
            recomputed = hop_bytes(self.graph, self.topology, result["assignment"])
            if not _close(recomputed, result["metrics"]["hop_bytes"]):
                o.error = (f"hop_bytes {result['metrics']['hop_bytes']!r} != "
                           f"recomputed {recomputed!r}")
                continue
            seed = o.request["seed"]
            target = first_hit if o.result["cached"] else first_miss
            target.setdefault(seed, o)
        overheads = []
        sampled = [s for s in first_miss if s in first_hit][: self.sample_hits]
        for seed in sampled:
            t0 = time.perf_counter()
            direct = self.engine.run(self._engine_request(first_hit[seed].request))
            direct_s = time.perf_counter() - t0
            overheads.append(first_miss[seed].latency - direct_s)
            hit = first_hit[seed].result["result"]
            if (hit["assignment"] != [int(x) for x in direct.assignment]
                    or hit["metrics"]["hop_bytes"] != direct.metrics["hop_bytes"]):
                first_hit[seed].error = "cache hit differs from engine-direct run"
        window.extra["hit_ratio"] = sum(
            1 for o in window.outcomes if o.error is None and o.result["cached"]
        ) / len(window.outcomes)
        if overheads:
            window.extra["overhead_s"] = statistics.median(overheads)

    def metrics_of(self, outcome: Outcome) -> dict:
        return outcome.result["result"]["metrics"]


def post(url: str, body: dict) -> dict:
    """POST one body to ``/map``; HTTP errors (429 included) raise."""
    req = urllib.request.Request(
        f"{url}/map", data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=120) as resp:
            return json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        detail = exc.read().decode(errors="replace")
        raise RuntimeError(f"HTTP {exc.code}: {detail}") from None


WORKLOADS = {
    cls.name: cls
    for cls in (LeanmdPipeline, Multilevel110k, DesContention, ServiceDup80)
}


def native_kernel_ready() -> bool:
    """Build (or load) the compiled refine kernel; False means NumPy fallback."""
    return _native.available()
