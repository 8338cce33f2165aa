"""repro.engine — the unified mapping engine.

One way to name, configure, and run a mapping anywhere in the codebase:

* :func:`mapper_from_spec` / :data:`STRATEGY_SPECS` — the spec-string mapper
  factory and the Charm++ alias table (the single strategy registry);
* :class:`MappingRequest` → :meth:`MappingEngine.run` →
  :class:`MappingResult` — resolve, map, and measure through one path, which
  ``repro-map``, the ``+LBSim`` replay and the ``repro-serve`` workers all
  call (the service and the experiment runner own batching);
* :func:`graph_from_spec` — spec-string task graphs for fully declarative
  requests;
* the shared :class:`~repro.mapping.context.MappingContext` (re-exported
  here) backing it all.

See ``docs/ARCHITECTURE.md`` for the layering and request lifecycle.
"""

from repro.engine.core import (
    MappingEngine,
    MappingRequest,
    MappingResult,
    canonical_command,
    graph_from_spec,
)
from repro.engine.specs import (
    MAPPER_KINDS,
    STRATEGY_SPECS,
    MapperKind,
    OptionSpec,
    canonical_mapper_spec,
    describe_mappers,
    mapper_from_spec,
    parse_mapper_spec,
)
from repro.mapping.context import MappingContext, context_for

__all__ = [
    "MappingEngine",
    "MappingRequest",
    "MappingResult",
    "MappingContext",
    "context_for",
    "graph_from_spec",
    "canonical_command",
    "MAPPER_KINDS",
    "STRATEGY_SPECS",
    "MapperKind",
    "OptionSpec",
    "canonical_mapper_spec",
    "describe_mappers",
    "mapper_from_spec",
    "parse_mapper_spec",
]
