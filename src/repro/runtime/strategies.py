"""Charm++ strategy names, resolved through the unified engine registry.

Historically this module carried its own factory table; it is now a thin
compatibility veneer over :mod:`repro.engine.specs` — the *single* strategy
registry. :data:`STRATEGIES` maps each Charm++ name to its canonical mapper
spec string (``"TopoLB" -> "pipeline:inner=topolb"``), and
:func:`get_strategy` accepts either a name or any spec string, so runtime
callers (``full:<strategy>`` balancer specs included) gained spec-string
configurability for free.

Registered names:

``RandomLB``
    Uniformly random placement (the paper's baseline).
``GreedyLB``
    Charm++'s load-greedy strategy: balances compute load, oblivious to both
    communication and topology — "essentially random placement" networkwise.
``TopoCentLB`` / ``TopoLB`` / ``TopoLB3``
    The paper's topology-aware strategies (TopoLB3 = third-order estimator).
``RefineTopoLB``
    TopoLB followed by the pairwise-swap refiner (the paper applies the
    refiner after an initial topology-aware balancer).
"""

from __future__ import annotations

import numpy as np

from repro.engine.specs import STRATEGY_SPECS, mapper_from_spec
from repro.exceptions import MappingError, SpecError
from repro.mapping.base import Mapper
from repro.runtime.lbdb import LBDatabase
from repro.topology.base import Topology

__all__ = ["STRATEGIES", "get_strategy", "run_strategy"]


#: Charm++ name -> canonical mapper spec (the engine's alias table). Kept
#: under the old name so ``sorted(STRATEGIES)`` / ``name in STRATEGIES``
#: keep working; construction goes through :func:`get_strategy`.
STRATEGIES: dict[str, str] = STRATEGY_SPECS


def get_strategy(name: str, seed: int | None = None,
                 kernel: str | None = None) -> Mapper:
    """Instantiate a strategy by Charm++ name *or* mapper spec string."""
    try:
        return mapper_from_spec(name, seed, kernel)
    except SpecError as exc:
        raise MappingError(str(exc)) from None


def run_strategy(
    name: str, database: LBDatabase, topology: Topology, seed: int | None = None
) -> np.ndarray:
    """Run a named strategy on a load database; return the new placement."""
    graph = database.to_taskgraph()
    mapper = get_strategy(name, seed)
    return mapper.map(graph, topology).assignment.copy()
