"""Invariant checkers, differential oracles, and metamorphic properties.

:func:`validate_mapping` is the one entry point: it runs the checks of the
requested tier against a produced assignment, records every check in a
:class:`ValidationReport`, and (by default) raises a structured
:class:`~repro.exceptions.ValidationError` on the first violation. Checks
that do not apply (no mapper spec, route-incapable machine, non-torus
topology, ...) are recorded as ``skipped`` with the reason, so a report
always says what was *not* proven, never silently narrows coverage.
"""

from __future__ import annotations

import shlex
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import SpecError, TopologyError, ValidationError
from repro.taskgraph.graph import TaskGraph
from repro.topology.base import Topology

__all__ = [
    "VALIDATION_LEVELS",
    "CheckResult",
    "ValidationReport",
    "replay_command",
    "validate_mapping",
]

#: Accepted values of ``MappingRequest.validate`` / ``--validate``.
VALIDATION_LEVELS = ("off", "cheap", "full")

#: Metamorphic checks rebuild the task graph with Python loops; above this
#: size they are skipped (recorded as such) rather than dominating the run.
_METAMORPHIC_TASK_LIMIT = 4096

#: Sampled nodes for the SubTopology distance oracle.
_SUBTOPOLOGY_SAMPLE = 64

# Differential comparisons of one quantity computed along two code paths are
# exact by design (same floating-point expressions); sums accumulated in a
# different *order* (per-task additivity, link loads, relabeled graphs) get
# this tolerance instead.
_RTOL = 1e-9
_ATOL = 1e-6


def _close(a: float, b: float) -> bool:
    return bool(np.isclose(a, b, rtol=_RTOL, atol=_ATOL))


@dataclass
class CheckResult:
    """Outcome of one invariant: ``ok``, ``skipped`` or ``violated``."""

    invariant: str
    status: str
    detail: str = ""

    def to_dict(self) -> dict:
        return {"invariant": self.invariant, "status": self.status,
                "detail": self.detail}


@dataclass
class ValidationReport:
    """Every check run (or skipped) for one mapping, plus its spec context."""

    level: str
    context: dict = field(default_factory=dict)
    checks: list[CheckResult] = field(default_factory=list)
    #: ``repro-validate`` line reproducing this run (spec-described runs only).
    replay: str | None = None

    @property
    def ok(self) -> bool:
        return not self.violations()

    def violations(self) -> list[CheckResult]:
        return [c for c in self.checks if c.status == "violated"]

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "context": {k: v for k, v in self.context.items() if v is not None},
            "replay": self.replay,
            "checks": [c.to_dict() for c in self.checks],
        }


def replay_command(
    graph_spec: str | None,
    topology_spec: str | None,
    mapper_spec: str | None,
    seed: int | None,
    level: str,
) -> str | None:
    """The ``repro-validate`` line reproducing a validation run.

    Only spec-described runs are replayable; returns ``None`` when any of
    the three inputs was a live object with no recorded spec. Every spec is
    shell-quoted, so the line survives being pasted into a shell.
    """
    if not (graph_spec and topology_spec and mapper_spec):
        return None
    return (
        f"repro-validate --graph {shlex.quote(graph_spec)} "
        f"--topology {shlex.quote(topology_spec)} "
        f"--mapper {shlex.quote(mapper_spec)} "
        f"--seed {0 if seed is None else seed} --validate {level}"
    )


class _Session:
    """One validate_mapping run: shared state + check bookkeeping."""

    def __init__(self, graph: TaskGraph, topology: Topology,
                 assignment: np.ndarray, report: ValidationReport, ctx):
        self.graph = graph
        self.topology = topology
        self.assignment = assignment
        self.report = report
        self.ctx = ctx
        self.hop_bytes: float | None = None  # set by the additivity check

    def record(self, invariant: str, status: str, detail: str = "") -> None:
        self.report.checks.append(CheckResult(invariant, status, detail))


# ------------------------------------------------------------------ invariants
def _check_bounds(s: _Session) -> None:
    arr = s.assignment
    n, p = s.graph.num_tasks, s.topology.num_nodes
    if arr.shape != (n,):
        s.record("assignment-bounds", "violated",
                 f"assignment shape {arr.shape} != ({n},)")
        return
    if arr.dtype.kind not in "iu":
        s.record("assignment-bounds", "violated",
                 f"assignment dtype {arr.dtype} is not integral")
        return
    if len(arr) and (int(arr.min()) < 0 or int(arr.max()) >= p):
        s.record(
            "assignment-bounds", "violated",
            f"assignment references processors outside [0, {p}): "
            f"min={int(arr.min())}, max={int(arr.max())}",
        )
        return
    s.record("assignment-bounds", "ok")


def _check_injectivity(s: _Session) -> None:
    n, p = s.graph.num_tasks, s.topology.num_nodes
    if n > p:
        s.record("injectivity", "skipped",
                 f"{n} tasks on {p} processors is necessarily many-to-one")
        return
    unique, counts = np.unique(s.assignment, return_counts=True)
    if len(unique) != n:
        crowded = unique[counts > 1][:8]
        s.record(
            "injectivity", "violated",
            f"{n} tasks occupy only {len(unique)} processors with {p} "
            f"available; shared processors: {crowded.tolist()}",
        )
        return
    s.record("injectivity", "ok")


def _check_additivity(s: _Session) -> None:
    from repro.mapping.metrics import hop_bytes, per_task_hop_bytes

    hb = hop_bytes(s.graph, s.topology, s.assignment)
    s.hop_bytes = hb
    per_task = per_task_hop_bytes(s.graph, s.topology, s.assignment)
    if not _close(per_task.sum() / 2.0, hb):
        s.record(
            "hop-bytes-additivity", "violated",
            f"per_task_hop_bytes.sum()/2 = {per_task.sum() / 2.0!r} but "
            f"hop_bytes = {hb!r}",
        )
        return
    s.record("hop-bytes-additivity", "ok")


def _check_lower_bound(s: _Session) -> None:
    from repro.mapping.bounds import hop_bytes_lower_bound

    if s.graph.num_tasks != s.topology.num_nodes:
        s.record("hop-bytes-lower-bound", "skipped",
                 "bound certified for bijective mappings only")
        return
    if len(np.unique(s.assignment)) != s.graph.num_tasks:
        s.record("hop-bytes-lower-bound", "skipped",
                 "mapping is not bijective")
        return
    bound = hop_bytes_lower_bound(s.graph, s.topology)
    hb = s.hop_bytes
    if hb is None:
        from repro.mapping.metrics import hop_bytes

        hb = hop_bytes(s.graph, s.topology, s.assignment)
    if hb < bound and not _close(hb, bound):
        s.record(
            "hop-bytes-lower-bound", "violated",
            f"hop_bytes = {hb!r} is below the certified lower bound {bound!r}",
        )
        return
    s.record("hop-bytes-lower-bound", "ok")


def _check_metrics_consistency(s: _Session, metrics: dict | None) -> None:
    from repro.mapping.metrics import (
        dilation_stats,
        hop_bytes,
        hops_per_byte,
        load_imbalance,
        metrics_block,
    )

    block = metrics if metrics is not None else metrics_block(
        s.graph, s.topology, s.assignment)
    standalone = {
        "hop_bytes": hop_bytes(s.graph, s.topology, s.assignment),
        "hops_per_byte": hops_per_byte(s.graph, s.topology, s.assignment),
        "load_imbalance": load_imbalance(s.graph, s.topology, s.assignment),
    }
    dil = dilation_stats(s.graph, s.topology, s.assignment)
    standalone["max_dilation"] = dil["max"]
    standalone["mean_dilation"] = dil["mean"]
    standalone["weighted_dilation"] = dil["weighted_mean"]
    for key, want in standalone.items():
        got = block.get(key)
        # metrics_block documents bitwise identity with the standalone
        # functions (same gather, same ordered sums) — compare exactly.
        if got != want:
            s.record(
                "metrics-block-consistency", "violated",
                f"metrics_block[{key!r}] = {got!r} but the standalone "
                f"function computes {want!r}",
            )
            return
    s.record("metrics-block-consistency", "ok")


# ------------------------------------------------------------------- oracles
def _check_link_load_conservation(s: _Session) -> None:
    from repro.mapping.metrics import hop_bytes, per_link_loads

    # Route-capable now means link-graph-capable: direct machines route over
    # processor links, indirect ones (fat-tree, dragonfly) over switch links
    # — the conservation law holds either way. Only metric-only wrappers
    # (grouped/sub/matrix machines) still skip here.
    try:
        loads = per_link_loads(s.graph, s.topology, s.assignment)
    except TopologyError as exc:
        s.record("link-load-conservation", "skipped",
                 f"topology is not link-graph-capable: {exc}")
        return
    # The conservation law assumes hop-minimal routes (route length equals
    # hop distance); weighted machines route minimally in *cost*, not hops.
    u, v, _ = s.graph.edge_arrays()
    for a, b in list(zip(u.tolist(), v.tolist()))[:16]:
        pa, pb = int(s.assignment[a]), int(s.assignment[b])
        if pa == pb:
            continue
        hops = len(s.topology.route(pa, pb)) - 1
        if hops != s.topology.distance(pa, pb):
            s.record("link-load-conservation", "skipped",
                     "routes are not hop-minimal (weighted metric)")
            return
    hb = s.hop_bytes
    if hb is None:
        hb = hop_bytes(s.graph, s.topology, s.assignment)
    total = float(sum(loads.values()))
    if not _close(total, hb):
        s.record(
            "link-load-conservation", "violated",
            f"per-link loads sum to {total!r} but hop_bytes = {hb!r}",
        )
        return
    s.record("link-load-conservation", "ok")


def _map_with_spec(s: _Session, mapper_spec: str, seed: int | None,
                   kernel: str | None = None):
    from repro.engine.specs import parse_mapper_spec

    return parse_mapper_spec(mapper_spec).build(seed, kernel).map(
        s.graph, s.topology)


def _check_kernel_differential(s: _Session, mapper_spec: str | None,
                               seed: int | None) -> None:
    from repro.mapping.kernels import DEFAULT_KERNEL

    if mapper_spec is None:
        s.record("kernel-differential", "skipped", "no mapper spec recorded")
        return
    # The run under test used the production kernel; rebuild the whole
    # spec, nested mappers included, on the reference bodies.
    remapped = _map_with_spec(s, mapper_spec, seed, "reference")
    if not np.array_equal(remapped.assignment, s.assignment):
        diff = np.flatnonzero(remapped.assignment != s.assignment)
        s.record(
            "kernel-differential", "violated",
            f"kernel 'reference' assignment differs from {DEFAULT_KERNEL!r} "
            f"at {len(diff)} tasks (first: {diff[:8].tolist()})",
        )
        return
    s.record("kernel-differential", "ok")


def _des_replay_skipped(s: _Session, invariant: str, netsim: dict | None,
                        metrics: dict | None) -> bool:
    """Record ``invariant`` skipped unless the request replayed the DES."""
    if netsim is None:
        s.record(invariant, "skipped", "the request carries no netsim replay")
        return True
    if metrics is None or "des_makespan_us" not in metrics:
        s.record(invariant, "skipped", "no des_* metrics recorded")
        return True
    return False


def _check_des_kernel_differential(s: _Session, netsim: dict | None,
                                   metrics: dict | None) -> None:
    from repro.engine.core import _netsim_metrics
    from repro.mapping.base import Mapping

    invariant = "des-kernel-differential"
    if _des_replay_skipped(s, invariant, netsim, metrics):
        return
    # The request replayed on the production body; replay it on the
    # reference event loop, which must agree bit for bit.
    mapping = Mapping(s.graph, s.topology, s.assignment)
    replayed, _ = _netsim_metrics(mapping, netsim, kernel="reference")
    differ = [key for key, value in replayed.items()
              if float(metrics.get(key, np.nan)).hex() != float(value).hex()]
    if differ:
        key = differ[0]
        s.record(
            invariant, "violated",
            f"the reference DES body differs on {differ} (first: {key} = "
            f"{replayed[key]!r}, production body {metrics.get(key)!r})",
        )
        return
    s.record(invariant, "ok")


def _check_flow_bound_below_des(s: _Session, netsim: dict | None,
                                metrics: dict | None) -> None:
    from repro.mapping.base import Mapping
    from repro.netsim.flow import flow_evaluate

    invariant = "flow-bound-below-des"
    if _des_replay_skipped(s, invariant, netsim, metrics):
        return
    # The flow estimator's makespan lower bound at the request's own knobs
    # must not exceed what the DES measured.
    knobs = {k: netsim[k] for k in ("bandwidth", "alpha") if k in netsim}
    flow = flow_evaluate(Mapping(s.graph, s.topology, s.assignment),
                         iterations=int(netsim.get("iterations", 2)), **knobs)
    makespan = metrics["des_makespan_us"]
    if not flow.makespan_lower_bound <= makespan * (1 + _RTOL):
        s.record(
            invariant, "violated",
            f"flow makespan lower bound {flow.makespan_lower_bound!r} us "
            f"exceeds the DES makespan {makespan!r} us",
        )
        return
    s.record(invariant, "ok")


def _check_flow_equals_des_links(s: _Session, netsim: dict | None,
                                 metrics: dict | None) -> None:
    from repro.engine.core import _netsim_replay
    from repro.mapping.base import Mapping
    from repro.netsim.flow import flow_evaluate

    invariant = "flow-equals-des-links"
    if _des_replay_skipped(s, invariant, netsim, metrics):
        return
    if "flow_max_link_bytes" not in metrics:
        s.record(invariant, "skipped", "the request carries no flow_metrics")
        return
    lost = [key for key in ("des_dropped", "des_retransmits",
                            "des_buffer_drops") if metrics.get(key)]
    if lost:
        # A retransmitted message re-crosses the links its dropped attempt
        # already used; flow charges every message once.
        s.record(invariant, "skipped",
                 f"the replay lost traffic ({', '.join(lost)} > 0), so the "
                 f"DES carried bytes flow does not charge")
        return
    # Replay once more on the production body for its per-link bytes: every
    # directed link carries the flow's per-iteration offered load times the
    # iteration count, and no other link carries anything.
    mapping = Mapping(s.graph, s.topology, s.assignment)
    sim, _ = _netsim_replay(mapping, netsim)
    des = sim.link_bytes()
    iterations = int(netsim.get("iterations", 2))
    flow = flow_evaluate(mapping).link_loads()
    if flow.keys() != des.keys():
        extra = sorted(set(flow) ^ set(des))
        s.record(
            invariant, "violated",
            f"flow and the DES load different links: {len(extra)} differ "
            f"(first: {extra[:4]})",
        )
        return
    for link, measured in des.items():
        if not _close(flow[link] * iterations, measured):
            s.record(
                invariant, "violated",
                f"link {link} carried {measured!r} bytes in the DES but flow "
                f"charges {flow[link]!r} x {iterations} iterations",
            )
            return
    s.record(invariant, "ok")


def _check_spec_rebuild(s: _Session, mapper_spec: str | None,
                        seed: int | None) -> None:
    from repro.engine.specs import canonical_mapper_spec

    if mapper_spec is None:
        s.record("spec-rebuild-differential", "skipped", "no mapper spec recorded")
        return
    canonical = canonical_mapper_spec(mapper_spec)
    remapped = _map_with_spec(s, canonical, seed)
    if not np.array_equal(remapped.assignment, s.assignment):
        diff = np.flatnonzero(remapped.assignment != s.assignment)
        s.record(
            "spec-rebuild-differential", "violated",
            f"mapper rebuilt from canonical spec {canonical!r} differs at "
            f"{len(diff)} tasks (first: {diff[:8].tolist()})",
        )
        return
    s.record("spec-rebuild-differential", "ok")


def _check_subtopology_distances(s: _Session) -> None:
    from repro.topology.subset import SubTopology

    topo = s.topology
    if not isinstance(topo, SubTopology):
        s.record("subtopology-distances", "skipped", "topology is not a SubTopology")
        return
    parent = topo.parent
    parent_nodes = topo.parent_nodes
    # Recompute through the parent's distance_matrix — a different code path
    # than SubTopology.distance_row's per-row gather.
    mat = parent.distance_matrix()
    nodes = range(topo.num_nodes)
    if topo.num_nodes > _SUBTOPOLOGY_SAMPLE:
        nodes = np.linspace(
            0, topo.num_nodes - 1, _SUBTOPOLOGY_SAMPLE, dtype=np.int64
        ).tolist()
    for local in nodes:
        expected = mat[parent_nodes[int(local)]][parent_nodes]
        got = topo.distance_row(int(local)).astype(np.float64)
        if not np.array_equal(got, expected):
            s.record(
                "subtopology-distances", "violated",
                f"SubTopology.distance_row({int(local)}) disagrees with the "
                f"parent metric recomputation",
            )
            return
    s.record("subtopology-distances", "ok")


# --------------------------------------------------------------- metamorphic
def _metamorphic_guard(s: _Session, invariant: str) -> bool:
    if s.graph.num_tasks > _METAMORPHIC_TASK_LIMIT:
        s.record(invariant, "skipped",
                 f"graph has {s.graph.num_tasks} tasks "
                 f"(> {_METAMORPHIC_TASK_LIMIT} metamorphic limit)")
        return False
    return True


def _check_relabel_invariance(s: _Session, seed: int | None) -> None:
    from repro.mapping.metrics import hop_bytes

    if not _metamorphic_guard(s, "relabel-invariance"):
        return
    rng = np.random.default_rng(0 if seed is None else seed)
    perm = rng.permutation(s.graph.num_tasks)
    relabeled = s.graph.relabel(perm)
    permuted = np.empty_like(s.assignment)
    permuted[perm] = s.assignment
    hb = s.hop_bytes
    if hb is None:
        hb = hop_bytes(s.graph, s.topology, s.assignment)
    hb2 = hop_bytes(relabeled, s.topology, permuted)
    if not _close(hb2, hb):
        s.record(
            "relabel-invariance", "violated",
            f"task relabeling changed hop_bytes: {hb!r} -> {hb2!r}",
        )
        return
    s.record("relabel-invariance", "ok")


def _check_scale_invariance(s: _Session) -> None:
    from repro.mapping.metrics import hop_bytes

    if not _metamorphic_guard(s, "scale-invariance"):
        return
    u, v, w = s.graph.edge_arrays()
    doubled = TaskGraph(
        s.graph.num_tasks,
        zip(u.tolist(), v.tolist(), (w * 2.0).tolist()),
        s.graph.vertex_weights,
    )
    hb = s.hop_bytes
    if hb is None:
        hb = hop_bytes(s.graph, s.topology, s.assignment)
    hb2 = hop_bytes(doubled, s.topology, s.assignment)
    # Doubling is exact in floating point, so so is the scaled metric.
    if hb2 != 2.0 * hb:
        s.record(
            "scale-invariance", "violated",
            f"doubling every edge weight gave hop_bytes {hb2!r}, "
            f"expected exactly {2.0 * hb!r}",
        )
        return
    s.record("scale-invariance", "ok")


def _check_torus_rotation(s: _Session) -> None:
    from repro.mapping.metrics import hop_bytes
    from repro.topology.torus import Torus

    topo = s.topology
    if type(topo) is not Torus:
        s.record("torus-rotation", "skipped", "topology is not a pristine torus")
        return
    coords = np.array(topo.coords_array())
    coords[:, 0] = (coords[:, 0] + 1) % topo.shape[0]
    rotated_ids = np.ravel_multi_index(tuple(coords.T), topo.shape)
    rotated = rotated_ids[s.assignment]
    hb = s.hop_bytes
    if hb is None:
        hb = hop_bytes(s.graph, s.topology, s.assignment)
    # The rotation is a distance-preserving automorphism and edge order is
    # unchanged, so the dot product is bit-identical.
    hb2 = hop_bytes(s.graph, topo, rotated)
    if hb2 != hb:
        s.record(
            "torus-rotation", "violated",
            f"axis-0 rotation changed hop_bytes: {hb!r} -> {hb2!r}",
        )
        return
    s.record("torus-rotation", "ok")


# -------------------------------------------------------------------- driver
def validate_mapping(
    graph: TaskGraph,
    topology: Topology,
    assignment: Sequence[int],
    *,
    level: str = "cheap",
    ctx=None,
    mapper_spec: str | None = None,
    graph_spec: str | None = None,
    topology_spec: str | None = None,
    seed: int | None = None,
    metrics: dict | None = None,
    netsim: dict | None = None,
    raise_on_violation: bool = True,
) -> ValidationReport:
    """Run the invariant tier ``level`` against one produced assignment.

    ``cheap`` runs the structural invariants and the metrics-consistency
    oracle (a handful of O(edges) gathers). ``full`` additionally re-runs
    the mapper on the reference kernel and from its canonical spec, checks
    link-load conservation, the SubTopology distance oracle, and the
    metamorphic properties; when the request replayed the DES (``netsim``,
    its knobs, with the ``des_*`` entries of ``metrics``) it replays again
    on the reference event loop and checks the flow bound against the DES
    makespan, and, when ``metrics`` also holds the ``flow_*`` entries, that
    the DES's per-link bytes equal the flow estimator's. ``off`` returns an
    empty report.

    When ``raise_on_violation`` (the default) any violation raises a
    :class:`~repro.exceptions.ValidationError` carrying the invariant name,
    the spec context, and — for fully spec-described runs — the exact
    ``repro-validate`` replay command. Pass ``False`` to inspect the report
    instead (the CLI's violation-report path).
    """
    if level not in VALIDATION_LEVELS:
        raise SpecError(
            f"validation level must be one of {VALIDATION_LEVELS}, got {level!r}"
        )
    context = {
        "graph": graph_spec,
        "topology": topology_spec
        or getattr(topology, "name", type(topology).__name__),
        "mapper": mapper_spec,
        "seed": seed,
    }
    report = ValidationReport(
        level=level,
        context=context,
        replay=replay_command(
            graph_spec, topology_spec, mapper_spec, seed, level
        ),
    )
    if level == "off":
        return report

    if ctx is None:
        from repro.mapping.context import context_for

        ctx = context_for(graph, topology)
    arr = np.asarray(assignment)
    s = _Session(graph, topology, arr, report, ctx)

    _check_bounds(s)
    if report.violations():
        # Every later check indexes with the assignment; a bounds violation
        # would turn them into index errors instead of diagnostics.
        return _finish(report, raise_on_violation)
    arr = s.assignment = arr.astype(np.int64, copy=False)

    _check_injectivity(s)
    _check_additivity(s)
    _check_lower_bound(s)
    _check_metrics_consistency(s, metrics)

    if level == "full":
        _check_link_load_conservation(s)
        _check_kernel_differential(s, mapper_spec, seed)
        _check_spec_rebuild(s, mapper_spec, seed)
        _check_des_kernel_differential(s, netsim, metrics)
        _check_flow_bound_below_des(s, netsim, metrics)
        _check_flow_equals_des_links(s, netsim, metrics)
        _check_subtopology_distances(s)
        _check_relabel_invariance(s, seed)
        _check_scale_invariance(s)
        _check_torus_rotation(s)

    return _finish(report, raise_on_violation)


def _finish(report: ValidationReport, raise_on_violation: bool) -> ValidationReport:
    violations = report.violations()
    if violations and raise_on_violation:
        first = violations[0]
        raise ValidationError(
            first.invariant,
            first.detail
            + (f" (+{len(violations) - 1} more violated invariant(s): "
               f"{[v.invariant for v in violations[1:]]})"
               if len(violations) > 1 else ""),
            spec=report.context,
            replay=report.replay,
            details={"violations": [v.to_dict() for v in violations]},
        )
    return report
