"""Charm++-style load-balancing runtime substrate.

The paper's evaluation mechanism (Section 5.1) logs the load database of a
real run (``+LBDump``) and replays it offline under different strategies
(``+LBSim``), so every strategy is compared on *exactly* the same load
scenario. This package reproduces that contract:

* :class:`ChareArray` — a migratable-objects programming model stub that
  measures per-object loads and pairwise communication as the "program" runs,
* :class:`LBDatabase` — the measured load/communication database with JSON
  dump/load (the ``+LBDump`` file analog),
* :func:`simulate_strategy` — the ``+LBSim`` analog: replay a database under
  a named strategy on a given machine and report mapping-quality metrics.
  Strategies are resolved by the engine registry
  (:data:`repro.engine.specs.STRATEGY_SPECS`): any Charm++ name (RandomLB,
  GreedyLB, TopoCentLB, TopoLB, RefineTopoLB, ...) or mapper spec string.
"""

from repro.runtime.chare import ChareArray
from repro.runtime.lbdb import LBDatabase
from repro.runtime.simulation import simulate_strategy, compare_strategies
from repro.runtime.dynamic import DriftingWorkload, LBStepReport, run_dynamic_lb

__all__ = [
    "ChareArray",
    "LBDatabase",
    "simulate_strategy",
    "compare_strategies",
    "DriftingWorkload",
    "LBStepReport",
    "run_dynamic_lb",
]
