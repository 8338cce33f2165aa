"""MappingEngine — one request/result path for every mapping in the repo.

A :class:`MappingRequest` names the three inputs (task graph, topology,
mapper) either as live objects or as spec strings, plus the run knobs (seed,
profile flag, evaluation and validation options). :meth:`MappingEngine.run`
resolves the specs through the single factories (:func:`graph_from_spec`,
:func:`repro.topology.factory.topology_from_spec`,
:func:`repro.engine.specs.mapper_from_spec`), builds the shared
:class:`~repro.mapping.context.MappingContext`, maps, and returns a
:class:`MappingResult` carrying the assignment, the canonical metrics block
(one distance gather for all metrics), reproducibility metadata, and — when
requested — a ``repro-profile-v1`` document.

Every entry point maps through :meth:`MappingEngine.run`: ``repro-map`` and
the ``+LBSim`` replay (an ``lbdump:<path>`` graph spec) in process, and the
``repro-serve`` daemon inside its pool workers, which own batching and
retries. Same-shape topologies share distance tables through
:mod:`repro.topology.cache`, so repeated runs on one machine pay the O(p^2)
table cost once per process.
"""

from __future__ import annotations

import math
import numbers
import shlex
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.exceptions import SpecError
from repro.engine.specs import parse_mapper_spec

__all__ = [
    "MappingRequest",
    "MappingResult",
    "MappingEngine",
    "graph_from_spec",
    "canonical_command",
]


# ---------------------------------------------------------------- graph specs
def _parse_graph_options(items: list[str], spec: str,
                         allowed: tuple[str, ...]) -> dict[str, float]:
    options: dict[str, float] = {}
    for item in items:
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or key not in allowed:
            raise SpecError(
                f"bad graph option {item!r} in {spec!r}; expected key=value "
                f"with key in {allowed}"
            )
        try:
            options[key] = float(value)
        except ValueError as exc:
            raise SpecError(f"bad graph option value {item!r}") from exc
        if not math.isfinite(options[key]):
            raise SpecError(f"graph option {item!r} must be finite")
    return options


#: The ``kind`` of every graph spec :func:`graph_from_spec` accepts.
GRAPH_KINDS = ("file", "lbdump", "mesh2d", "mesh3d", "ring", "alltoall",
               "random")


#: The most tasks, edges or (for ``random:``) candidate pairs a generated
#: graph spec may ask for: about three times the largest input any
#: experiment, benchmark or test builds (``mesh3d:48x48x48``, 331,776
#: edges). Specs are sized before anything is built, so that one request
#: cannot exhaust the memory of the process that keys or serves it.
MAX_GENERATED_SIZE = 1_000_000


#: The most Jacobi iterations a ``MappingRequest.netsim`` replay may ask
#: for: above every experiment's count (``fig09`` replays at most 300) and
#: the paper's longest run (4,000, which ``fig10_11`` extrapolates to).
#: Checked when the request is built, before the replay allocates its
#: per-iteration arrays or runs a single event.
MAX_NETSIM_ITERATIONS = 10_000


def _check_generated_size(spec: str, tasks: int, edges: int,
                          what: str = "edges") -> None:
    """Refuse a generated graph of more than :data:`MAX_GENERATED_SIZE`
    tasks or ``what``."""
    if max(tasks, edges) > MAX_GENERATED_SIZE:
        raise SpecError(
            f"graph spec {spec!r:.80} asks for {tasks:,} tasks and {edges:,} "
            f"{what}; generated graphs are capped at "
            f"{MAX_GENERATED_SIZE:,} of each")


def graph_from_spec(spec: str):
    """Build a :class:`~repro.taskgraph.TaskGraph` from a spec string.

    Supported kinds::

        file:<path>                  task-graph JSON (repro-taskgraph-v1)
        lbdump:<path>                LB dump (repro-lbdump-v1)
        mesh2d:<R>x<C>[;bytes=F]     2D stencil pattern
        mesh3d:<X>x<Y>x<Z>[;bytes=F] 3D stencil pattern
        ring:<N>[;bytes=F]           ring pattern
        alltoall:<N>[;bytes=F]       complete graph
        random:<N>[;p=F][;seed=I]    Erdős–Rényi random graph

    A generated kind is sized from its spec first and refused with a
    :class:`SpecError` above :data:`MAX_GENERATED_SIZE` tasks or edges.
    """
    if not isinstance(spec, str) or ":" not in spec:
        raise SpecError(
            f"graph spec {spec!r} must look like 'kind:params' "
            "(e.g. mesh2d:8x8;bytes=1024 or file:app.json)"
        )
    kind, _, params = spec.partition(":")
    kind = kind.strip().lower()
    try:
        if kind == "file":
            from repro.taskgraph.io import load_taskgraph

            return load_taskgraph(Path(params))
        if kind == "lbdump":
            from repro.runtime.lbdb import LBDatabase

            return LBDatabase.load(Path(params)).to_taskgraph()
    except OSError as exc:
        raise SpecError(f"cannot read graph {spec!r}: {exc}") from exc

    head, *rest = params.split(";")
    if kind in ("mesh2d", "mesh3d"):
        from repro.taskgraph.patterns import mesh2d_pattern, mesh3d_pattern

        try:
            shape = tuple(int(part) for part in head.split("x"))
        except ValueError as exc:
            raise SpecError(f"bad graph shape {head!r}: {exc}") from exc
        options = _parse_graph_options(rest, spec, ("bytes",))
        bytes_ = options.get("bytes", 1.0)
        if min(shape) >= 1:
            tasks = math.prod(shape)
            _check_generated_size(spec, tasks, sum(
                tasks // extent * (extent - 1) for extent in shape))
        if kind == "mesh2d":
            if len(shape) != 2:
                raise SpecError(f"mesh2d needs RxC, got {head!r}")
            return mesh2d_pattern(*shape, message_bytes=bytes_)
        if len(shape) != 3:
            raise SpecError(f"mesh3d needs XxYxZ, got {head!r}")
        return mesh3d_pattern(*shape, message_bytes=bytes_)
    if kind in ("ring", "alltoall"):
        from repro.taskgraph.patterns import all_to_all_pattern, ring_pattern

        try:
            n = int(head)
        except ValueError as exc:
            raise SpecError(f"bad task count {head!r}") from exc
        options = _parse_graph_options(rest, spec, ("bytes",))
        _check_generated_size(
            spec, n, n if kind == "ring" else n * (n - 1) // 2)
        maker = ring_pattern if kind == "ring" else all_to_all_pattern
        return maker(n, message_bytes=options.get("bytes", 1.0))
    if kind == "random":
        from repro.taskgraph.random_graphs import random_taskgraph

        try:
            n = int(head)
        except ValueError as exc:
            raise SpecError(f"bad task count {head!r}") from exc
        options = _parse_graph_options(rest, spec, ("p", "seed"))
        # The generator draws once per candidate pair, whatever p is.
        _check_generated_size(spec, n, n * (n - 1) // 2, "candidate pairs")
        return random_taskgraph(
            n,
            edge_prob=options.get("p", 0.1),
            seed=int(options.get("seed", 0)),
        )
    raise SpecError(
        f"unknown graph kind {kind!r}; expected one of {GRAPH_KINDS}"
    )


def canonical_command(graph_spec: str, mapper_spec: str, topology_spec: str,
                      seed: int | None) -> str:
    """The fully reproducible ``repro-map`` command line for a run.

    Always includes the seed actually in effect, and shell-quotes every spec
    (a graph spec or a dragonfly topology spec carries ``;``), so a recorded
    command replays the run exactly when pasted into a shell.
    """
    spec = parse_mapper_spec(mapper_spec).canonical
    return (
        f"repro-map --taskgraph {shlex.quote(graph_spec)} "
        f"--strategy {shlex.quote(spec)} "
        f"--topology {shlex.quote(topology_spec)} "
        f"--seed {0 if seed is None else seed}"
    )


# ------------------------------------------------------------ request/result
@dataclass
class MappingRequest:
    """Everything needed to reproduce one mapping run.

    ``graph``/``topology``/``mapper`` accept live objects or spec strings;
    spec strings keep the request picklable for the service's pool workers
    and replayable from recorded metadata.
    """

    graph: object  # TaskGraph | str
    topology: object  # Topology | str
    mapper: object = "TopoLB"  # Mapper | str (spec or Charm++ alias)
    seed: int | None = None
    #: Record telemetry for this run and return it as a ``repro-profile-v1``
    #: document in :attr:`MappingResult.profile`: the ``engine.load``,
    #: ``engine.map``, ``engine.flow`` and ``engine.netsim`` timers, the
    #: mapper's own counters and, when ``netsim`` is set, a ``netsim``
    #: section (per-link loads plus tail latencies). Ignored, with no
    #: profile returned, when the caller already has a profiler enabled:
    #: the telemetry then lands in the caller's profiler.
    profile: bool = False
    #: Also evaluate the flow-level contention estimator
    #: (:func:`repro.netsim.flow.flow_evaluate`) on the produced mapping and
    #: merge its scalars into ``metrics`` under ``flow_*`` keys. Cheap even
    #: on machines where the DES is infeasible.
    flow_metrics: bool = False
    #: Validation tier enforced on the produced mapping: "off" (default),
    #: "cheap" (structural invariants + metrics consistency) or "full"
    #: (+ differential kernel/spec oracles and metamorphic properties).
    #: Violations raise :class:`~repro.exceptions.ValidationError` with a
    #: replayable ``repro-validate`` command; see docs/VALIDATION.md.
    validate: str = "off"
    #: Optional DES replay of the produced mapping: a dict of knobs merged
    #: into ``metrics`` under ``des_*`` keys (makespan, p50/p99/p999 tails,
    #: drop/retransmit counters). Recognized keys: ``iterations``
    #: (default 2; more than :data:`MAX_NETSIM_ITERATIONS` raises
    #: :class:`~repro.exceptions.SpecError` at construction),
    #: ``buffer_bytes``, ``overload_policy`` (only ``"drop"``, tail-drop,
    #: which is what a full buffer always does; any other value raises
    #: :class:`~repro.exceptions.SpecError` at construction), and the
    #: passthrough simulator knobs ``bandwidth``, ``alpha``, ``max_retries``,
    #: ``retry_delay``, ``retry_backoff``, ``retry_jitter``, ``seed``,
    #: ``stall_window``. Unknown keys raise
    #: :class:`~repro.exceptions.SpecError`. ``None`` (default) skips the
    #: replay entirely.
    netsim: dict | None = None

    def __post_init__(self):
        if isinstance(self.netsim, dict):
            policy = self.netsim.get("overload_policy", "drop")
            if policy != "drop":
                raise SpecError(
                    "MappingRequest.netsim key 'overload_policy' must be "
                    f"'drop', the only policy, got {policy!r}"
                )
            iterations = self.netsim.get("iterations")
            # The type is checked with the other knobs, at the replay.
            if (isinstance(iterations, numbers.Integral)
                    and iterations > MAX_NETSIM_ITERATIONS):
                raise SpecError(
                    f"MappingRequest.netsim key 'iterations' is {iterations:,}; "
                    f"replays are capped at {MAX_NETSIM_ITERATIONS:,} iterations"
                )


@dataclass
class MappingResult:
    """Outcome of one engine run.

    ``metrics`` is the canonical block of
    :func:`repro.mapping.metrics.metrics_block` plus, for pipeline mappers,
    the paper's group-level hop-byte metrics. ``metadata`` round-trips: its
    ``spec``/``topology``/``seed`` entries rebuild an equivalent
    :class:`MappingRequest`, and ``command`` is the exact CLI line.
    """

    assignment: np.ndarray
    metrics: dict[str, float]
    metadata: dict[str, object]
    profile: dict | None = None
    mapping: object | None = field(default=None, repr=False)  # Mapping | None


_NETSIM_KEYS = frozenset({
    "iterations", "buffer_bytes", "overload_policy", "bandwidth", "alpha",
    "max_retries", "retry_delay", "retry_backoff", "retry_jitter", "seed",
    "stall_window",
})
_NETSIM_INT_KEYS = frozenset({"iterations", "max_retries", "seed"})


def _netsim_replay(mapping, knobs: dict, kernel: str | None = None):
    """Check ``MappingRequest.netsim`` knobs and replay ``mapping`` with them.

    Returns the simulator and the application result of the closed-loop
    replay (:func:`repro.netsim.appsim.replay_closed_loop`). ``kernel``
    picks the simulator's body; only the full-tier
    ``des-kernel-differential`` oracle passes ``"reference"``.
    """
    from repro.netsim.appsim import replay_closed_loop

    unknown = set(knobs) - _NETSIM_KEYS
    if unknown:
        raise SpecError(
            f"unknown MappingRequest.netsim key(s) {sorted(unknown)}; "
            f"recognized: {sorted(_NETSIM_KEYS)}"
        )
    for key, value in knobs.items():
        if key == "overload_policy":
            continue  # "drop", checked when the request was built
        if key in _NETSIM_INT_KEYS:
            kind, want = numbers.Integral, "an integer"
        else:
            kind, want = numbers.Real, "a number"
        if not isinstance(value, kind) or isinstance(value, bool):
            raise SpecError(
                f"MappingRequest.netsim key {key!r} must be {want}, "
                f"got {value!r}"
            )
        if kind is numbers.Real and not math.isfinite(value):
            raise SpecError(
                f"MappingRequest.netsim key {key!r} must be finite, "
                f"got {value!r}"
            )
    sim_kwargs = {k: v for k, v in knobs.items()
                  if k not in ("iterations", "overload_policy")}
    return replay_closed_loop(
        mapping, int(knobs.get("iterations", 2)), kernel=kernel, **sim_kwargs
    )


def _netsim_metrics(
    mapping, knobs: dict, summarize: bool = False, kernel: str | None = None
) -> tuple[dict[str, float], dict | None]:
    """DES-replay a mapping per ``MappingRequest.netsim``.

    The replay is :func:`_netsim_replay`, with the tail summary flattened
    into scalar ``des_*`` metrics a golden triple can pin. With
    ``summarize`` the second return value is the profile's ``netsim``
    section (the per-link load summary plus the tail summary); otherwise it
    is ``None``. ``kernel`` picks the simulator's body.
    """
    from repro.netsim.stats import link_summary, tail_summary

    sim, result = _netsim_replay(mapping, knobs, kernel)
    tail = tail_summary(sim, iteration_times=result.iteration_times)
    metrics = {
        "des_makespan_us": result.total_time,
        "des_p50_us": tail["latency"]["p50"],
        "des_p99_us": tail["latency"]["p99"],
        "des_p999_us": tail["latency"]["p999"],
        "des_delivered": float(tail["delivered"]),
        "des_dropped": float(tail["dropped"]),
        "des_retransmits": float(tail["retransmits"]),
        "des_buffer_drops": float(tail["buffer_drops"]),
    }
    summary = {**link_summary(sim), "tail": tail} if summarize else None
    return metrics, summary


# --------------------------------------------------------------------- engine
class MappingEngine:
    """The one resolution-and-execution path for mappings.

    Stateless apart from the process-wide caches it warms (topology tables,
    mapping contexts); constructing it is free, so layers just instantiate
    one where needed.
    """

    def run(self, request: MappingRequest) -> MappingResult:
        from repro import obs
        from repro.mapping.context import context_for
        from repro.mapping.metrics import metrics_block
        from repro.taskgraph.graph import TaskGraph
        from repro.topology.factory import topology_from_spec

        if request.validate not in ("off", "cheap", "full"):
            raise SpecError(
                "MappingRequest.validate must be one of ('off', 'cheap', "
                f"'full'), got {request.validate!r}"
            )
        own_prof = (
            obs.enable() if request.profile and obs.active() is None else None
        )
        try:
            with obs.timer("engine.load"):
                graph = (
                    request.graph
                    if isinstance(request.graph, TaskGraph)
                    else graph_from_spec(request.graph)
                )
                topology = (
                    topology_from_spec(request.topology)
                    if isinstance(request.topology, str)
                    else request.topology
                )
            topology_spec = (
                request.topology
                if isinstance(request.topology, str)
                else getattr(topology, "name", type(topology).__name__)
            )

            if isinstance(request.mapper, str):
                parsed = parse_mapper_spec(request.mapper)
                mapper = parsed.build(request.seed)
                spec = parsed.canonical
                strategy = request.mapper
            else:
                mapper = request.mapper
                spec = None
                strategy = type(mapper).__name__

            ctx = context_for(graph, topology)
            with obs.timer("engine.map"):
                mapping = mapper.map(graph, topology)

            metrics = metrics_block(graph, topology, mapping.assignment)
            # The paper evaluates hops-per-byte on the coalesced graph too —
            # intra-group bytes never enter the network.
            group_mapping = getattr(mapper, "last_group_mapping", None)
            if group_mapping is not None:
                metrics["group_hops_per_byte"] = group_mapping.hops_per_byte
                metrics["group_hop_bytes"] = group_mapping.hop_bytes

            if request.flow_metrics:
                from repro.netsim.flow import flow_evaluate

                with obs.timer("engine.flow"):
                    flow = flow_evaluate(mapping)
                metrics["flow_max_link_bytes"] = flow.max_link_bytes
                metrics["flow_total_bytes"] = flow.total_bytes
                metrics["flow_links_used"] = float(flow.links_used)
                metrics["flow_makespan_lower_bound_us"] = (
                    flow.makespan_lower_bound
                )

            netsim_summary = None
            if request.netsim is not None:
                with obs.timer("engine.netsim"):
                    des_metrics, netsim_summary = _netsim_metrics(
                        mapping, request.netsim, summarize=own_prof is not None
                    )
                metrics.update(des_metrics)

            if request.validate != "off":
                from repro.validate import validate_mapping

                with obs.timer("engine.validate"):
                    validate_mapping(
                        graph, topology, mapping.assignment,
                        level=request.validate,
                        ctx=ctx,
                        mapper_spec=spec,
                        graph_spec=request.graph
                        if isinstance(request.graph, str) else None,
                        topology_spec=request.topology
                        if isinstance(request.topology, str) else None,
                        seed=request.seed,
                        metrics=metrics,
                        netsim=request.netsim,
                    )

            metadata: dict[str, object] = {
                "strategy": strategy,
                "spec": spec,
                "topology": topology_spec,
                "seed": request.seed,
                "num_objects": graph.num_tasks,
                "num_processors": topology.num_nodes,
            }
            if (spec is not None and isinstance(request.graph, str)
                    and isinstance(request.topology, str)):
                metadata["command"] = canonical_command(
                    request.graph, spec, topology_spec, request.seed
                )

            profile_doc = None
            if own_prof is not None:
                profile_doc = obs.build_profile(
                    own_prof,
                    command=metadata.get("command", "engine.run"),
                    context={
                        k: v for k, v in metadata.items() if v is not None
                    },
                    netsim=netsim_summary,
                )
            return MappingResult(
                assignment=mapping.assignment.copy(),
                metrics=metrics,
                metadata=metadata,
                profile=profile_doc,
                mapping=mapping,
            )
        finally:
            if own_prof is not None:
                obs.disable()
