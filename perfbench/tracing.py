"""Spans around the public entry points of each layer, recorded by the benchmark.

The program under test carries no span code of its own, so the traced run
wraps each layer's entry point from outside: :func:`install` replaces the
function or method with a wrapper that opens a :class:`Span`, and
:meth:`Installed.uninstall` puts every original back.

A module-level function is patched under every name that refers to it in
every loaded ``repro`` module, because callers look the name up in their own
namespace (``repro.mapping.hierarchical.coarsen_toward`` is the object the
multilevel mapper calls, not ``repro.partition.coarsening.coarsen_toward``).
Methods are patched once, on the class that defines them.

The parent of a new span is the span open in the current
:mod:`contextvars` context, so threads and asyncio tasks (the service's
connections) each keep their own nesting. Self time is a span's duration
minus the durations of its children.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "Tracer",
    "TARGETS",
    "install",
    "wrapped_names",
    "self_times",
    "summarize",
]

_MARK = "__perfbench_span__"


@dataclass
class Span:
    """One call of a wrapped entry point."""

    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; safe to feed from several threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar[Span | None] = (
            contextvars.ContextVar("perfbench_span", default=None)
        )

    def open(self, name: str) -> tuple[Span, contextvars.Token]:
        parent = self._current.get()
        span = Span(
            id=next(self._ids),
            name=name,
            parent=None if parent is None else parent.id,
            start=time.perf_counter(),
        )
        return span, self._current.set(span)

    def close(self, span: Span, token: contextvars.Token) -> None:
        span.end = time.perf_counter()
        self._current.reset(token)
        with self._lock:
            self.spans.append(span)


# ------------------------------------------------------------ attribute hooks
# Each hook reads a count off the call (arguments, result or the instance)
# after the wrapped call returns. The hook runs outside the span's timing.
def _edges(args, kwargs, result):
    return {"edges": result.num_edges}


def _levels(args, kwargs, result):
    return {"levels": len(args[0].last_level_assignments) - 1}


def _level_size(args, kwargs, result):
    level = args[1]
    return {"tasks": level.graph.num_tasks, "nodes": level.topology.num_nodes}


def _coarsened(args, kwargs, result):
    return {"tasks": args[0].num_tasks, "to": result[0].num_tasks}


def _des_events(args, kwargs, result):
    return {"events": args[0].queue.processed}


def _links_used(args, kwargs, result):
    return {"links_used": result.links_used}


def _validate_name(args, kwargs):
    return f"validate.{kwargs.get('level', 'cheap')}"


#: (module, attribute path, span name or name function, attribute hook).
#: The span names are the layer names the benchmark reports.
TARGETS = [
    ("repro.engine.core", "MappingEngine.run", "engine.run", None),
    ("repro.engine.specs", "parse_mapper_spec", "specs.build", None),
    ("repro.engine.specs", "ParsedSpec.build", "specs.build", None),
    ("repro.engine.core", "graph_from_spec", "taskgraph.build", _edges),
    ("repro.topology.factory", "topology_from_spec", "topology.build", None),
    ("repro.topology.base", "Topology._build_distance_matrix",
     "topology.tables", None),
    ("repro.topology.grid", "GridTopology._build_distance_matrix",
     "topology.tables", None),
    ("repro.topology.aggregate", "GroupedTopology._build_distance_matrix",
     "topology.tables", None),
    ("repro.mapping.context", "context_for", "context.build", None),
    ("repro.taskgraph.coalesce", "coalesce", "taskgraph.coalesce", None),
    ("repro.partition.multilevel", "MultilevelPartitioner.partition",
     "partition.partition", None),
    ("repro.partition.coarsening", "coarsen_toward", "partition.coarsen",
     _coarsened),
    ("repro.mapping.topolb", "TopoLB.map", "topolb.map", None),
    ("repro.mapping.topocentlb", "TopoCentLB.map", "topocentlb.map", None),
    ("repro.mapping.refine", "RefineTopoLB.refine", "refine.refine", None),
    ("repro.mapping.hierarchical", "HierarchicalMapper.map",
     "multilevel.map", _levels),
    ("repro.mapping.hierarchical", "HierarchicalMapper._map_coarsest",
     "multilevel.coarse_map", None),
    ("repro.mapping.hierarchical", "HierarchicalMapper._prolong",
     "multilevel.uncoarsen", _level_size),
    ("repro.mapping.hierarchical", "HierarchicalMapper._refine_level",
     "multilevel.uncoarsen", _level_size),
    ("repro.topology.aggregate", "coarsen_machine",
     "aggregate.coarsen_machine", None),
    ("repro.mapping.metrics", "metrics_block", "metrics.block", None),
    ("repro.validate.core", "validate_mapping", _validate_name, None),
    ("repro.netsim.flow", "flow_evaluate", "flow.evaluate", _links_used),
    ("repro.netsim.simulator", "NetworkSimulator.run", "des.run", _des_events),
    ("repro.service.cache", "request_cache_key", "cache.key", None),
    ("repro.service.cache", "ResultCache.get", "cache.get", None),
    ("repro.service.cache", "ResultCache.put", "cache.put", None),
    ("repro.service.daemon", "MappingService.submit", "service.submit", None),
    ("repro.service.daemon", "MappingService._dispatch", "service.dispatch",
     None),
    ("repro.service.http", "_handle", "http.handle", None),
]


def _wrap(fn, tracer: Tracer, name, hook):
    def span_name(args, kwargs):
        return name(args, kwargs) if callable(name) else name

    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            span, token = tracer.open(span_name(args, kwargs))
            try:
                result = await fn(*args, **kwargs)
            finally:
                tracer.close(span, token)
            if hook is not None:
                span.attrs.update(hook(args, kwargs, result))
            return result
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, token = tracer.open(span_name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span, token)
            if hook is not None:
                span.attrs.update(hook(args, kwargs, result))
            return result

    setattr(wrapper, _MARK, True)
    return wrapper


def _repro_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class Installed:
    """The patches one :func:`install` made; :meth:`uninstall` reverts them."""

    def __init__(self) -> None:
        self.patches: list[tuple[object, str, object]] = []

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()
        # A module first imported while the wrappers were in place bound a
        # wrapper by name (``from x import f``); give it the original too.
        for mod in _repro_modules():
            for attr, value in list(vars(mod).items()):
                if getattr(value, _MARK, False):
                    setattr(mod, attr, value.__wrapped__)

    def __enter__(self) -> "Installed":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def install(tracer: Tracer) -> Installed:
    """Wrap every entry point in ``TARGETS`` so its calls record spans into
    ``tracer``."""
    installed = Installed()
    for module_name, *_ in TARGETS:
        importlib.import_module(module_name)
    modules = _repro_modules()
    try:
        for module_name, path, name, hook in TARGETS:
            module = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                installed.patches.append((cls, attr, original))
                setattr(cls, attr, _wrap(original, tracer, name, hook))
                continue
            original = getattr(module, path)
            wrapper = _wrap(original, tracer, name, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        installed.patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
    except BaseException:
        installed.uninstall()
        raise
    return installed


def wrapped_names() -> list[str]:
    """Every ``module.attr`` or ``module.Class.attr`` still holding a wrapper.

    Empty whenever no traced run is in progress; the untraced runs check it
    so that timed code is always the program's own.
    """
    found = []
    for mod in _repro_modules():
        for attr, value in list(vars(mod).items()):
            if getattr(value, _MARK, False):
                found.append(f"{mod.__name__}.{attr}")
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                for meth, inner in vars(value).items():
                    if getattr(inner, _MARK, False):
                        found.append(f"{mod.__name__}.{attr}.{meth}")
    return found


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the summed durations of its children."""
    child_total: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_total[span.parent] = (
                child_total.get(span.parent, 0.0) + span.duration
            )
    return {s.id: s.duration - child_total.get(s.id, 0.0) for s in spans}


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total (inclusive) and self seconds."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        row = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += selfs[span.id]
    return out
