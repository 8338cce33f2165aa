"""Discrete-event interconnection-network simulator (BigNetSim substitute).

Section 5.3 of the paper replays application traces through BigNetSim to
show that hop-byte reductions translate into lower message latencies and
faster completion, especially as link bandwidth shrinks and contention sets
in. This package provides the equivalent machinery:

* :class:`EventQueue` — deterministic binary-heap DES core (the reference
  body; the production body runs the per-hop events in a compiled event
  core with the same API, see :mod:`repro.netsim.simulator`),
* :class:`NetworkSimulator` — per-link FIFO contention with virtual
  cut-through forwarding over dimension-ordered or adaptive routes, an
  optional per-node NIC bottleneck, finite tail-drop buffers with seeded
  retransmits and a livelock watchdog,
* :class:`IterativeApplication` — dependency-honouring replay of Jacobi-style
  compute/communicate iterations under any task mapping,
* tail-latency and per-link statistics,
* :func:`flow_evaluate` — the flow-level contention estimator: static
  per-link loads from dimension-ordered routes plus a provable makespan
  lower bound, for machine scales where the DES is infeasible (see
  :mod:`repro.netsim.flow` for the validity envelope).
"""

from repro.netsim.eventqueue import EventQueue
from repro.netsim.messages import (
    Message,
    MessageStats,
    SIZE_CLASS_EDGES,
    size_class_label,
)
from repro.netsim.simulator import NetworkSimulator, RoutingPolicy
from repro.netsim.appsim import IterativeApplication, AppResult
from repro.netsim.stats import tail_summary
from repro.netsim.flow import FlowResult, flow_evaluate, spearman

__all__ = [
    "EventQueue",
    "Message",
    "MessageStats",
    "SIZE_CLASS_EDGES",
    "size_class_label",
    "NetworkSimulator",
    "RoutingPolicy",
    "IterativeApplication",
    "AppResult",
    "tail_summary",
    "FlowResult",
    "flow_evaluate",
    "spearman",
]
