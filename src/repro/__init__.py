"""repro — topology-aware task mapping for reducing communication contention.

A production-quality reproduction of Agarwal, Sharma & Kalé (IPDPS 2006):
the **TopoLB** / **TopoCentLB** mapping heuristics, the hop-bytes metric,
the two-phase partition-and-map pipeline, plus every substrate the paper's
evaluation needs — machine topologies, a METIS-style multilevel partitioner,
a Charm++-style load-balancing runtime with dump/replay, and a discrete-event
interconnection-network simulator (the BigNetSim substitute).

Quickstart::

    from repro import Torus, mesh2d_pattern, TopoLB, RandomMapper

    topo = Torus((16, 16))
    tasks = mesh2d_pattern(16, 16, message_bytes=1024)
    print(TopoLB().map(tasks, topo).hops_per_byte)        # ~1.0
    print(RandomMapper(seed=0).map(tasks, topo).hops_per_byte)  # ~sqrt(256)/2 = 8

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for the
paper-vs-measured record of every table and figure.
"""

from repro.exceptions import (
    ReproError,
    TopologyError,
    TaskGraphError,
    PartitionError,
    MappingError,
    SimulationError,
    SpecError,
    ValidationError,
)
from repro.topology import (
    Topology,
    Mesh,
    Torus,
    Hypercube,
    FatTree,
    Dragonfly,
    ArbitraryTopology,
    SubTopology,
    topology_from_spec,
)
from repro.taskgraph import (
    TaskGraph,
    mesh2d_pattern,
    mesh3d_pattern,
    ring_pattern,
    all_to_all_pattern,
    random_taskgraph,
    geometric_taskgraph,
    leanmd_taskgraph,
    coalesce,
    save_taskgraph,
    load_taskgraph,
)
from repro.partition import (
    Partitioner,
    GreedyPartitioner,
    RecursiveBisectionPartitioner,
    MultilevelPartitioner,
)
from repro.engine import (
    MappingEngine,
    MappingRequest,
    MappingResult,
    graph_from_spec,
    mapper_from_spec,
)
from repro.mapping import (
    Mapper,
    Mapping,
    TopoLB,
    TopoCentLB,
    RefineTopoLB,
    RandomMapper,
    IdentityMapper,
    TwoPhaseMapper,
    SimulatedAnnealingMapper,
    RecursiveEmbeddingMapper,
    LinearOrderingMapper,
    HybridTopoLB,
    EstimatorOrder,
    hop_bytes,
    hops_per_byte,
    per_link_loads,
    expected_random_hops_per_byte,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "TopologyError",
    "TaskGraphError",
    "PartitionError",
    "MappingError",
    "SimulationError",
    "SpecError",
    "ValidationError",
    "Topology",
    "Mesh",
    "Torus",
    "Hypercube",
    "FatTree",
    "Dragonfly",
    "ArbitraryTopology",
    "SubTopology",
    "topology_from_spec",
    "TaskGraph",
    "mesh2d_pattern",
    "mesh3d_pattern",
    "ring_pattern",
    "all_to_all_pattern",
    "random_taskgraph",
    "geometric_taskgraph",
    "leanmd_taskgraph",
    "coalesce",
    "save_taskgraph",
    "load_taskgraph",
    "Partitioner",
    "GreedyPartitioner",
    "RecursiveBisectionPartitioner",
    "MultilevelPartitioner",
    "MappingEngine",
    "MappingRequest",
    "MappingResult",
    "graph_from_spec",
    "mapper_from_spec",
    "Mapper",
    "Mapping",
    "TopoLB",
    "TopoCentLB",
    "RefineTopoLB",
    "RandomMapper",
    "IdentityMapper",
    "TwoPhaseMapper",
    "SimulatedAnnealingMapper",
    "RecursiveEmbeddingMapper",
    "LinearOrderingMapper",
    "HybridTopoLB",
    "EstimatorOrder",
    "hop_bytes",
    "hops_per_byte",
    "per_link_loads",
    "expected_random_hops_per_byte",
    "__version__",
]
