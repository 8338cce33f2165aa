"""Charm++-style load-balancing runtime substrate.

The paper's evaluation mechanism (Section 5.1) logs the load database of a
real run (``+LBDump``) and replays it offline under different strategies
(``+LBSim``), so every strategy is compared on *exactly* the same load
scenario. This package reproduces that contract:

* :class:`LBDatabase` — the measured load/communication database with JSON
  dump/load (the ``+LBDump`` file analog). A dump is replayed under any
  strategy by the engine's ``lbdump:<path>`` graph spec, e.g.
  ``MappingRequest(graph="lbdump:step0.json", topology=..., mapper="TopoLB")``
  (the ``+LBSim`` analog; ``repro-map --taskgraph lbdump:<path>``),
* :func:`run_dynamic_lb` — periodic load balancing over drifting loads.
"""

from repro.runtime.lbdb import LBDatabase
from repro.runtime.dynamic import DriftingWorkload, LBStepReport, run_dynamic_lb

__all__ = [
    "LBDatabase",
    "DriftingWorkload",
    "LBStepReport",
    "run_dynamic_lb",
]
