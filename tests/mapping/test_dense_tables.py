"""Dense-table audit: above ``_MATRIX_LIMIT`` processors, no code path
outside the dense mappers may materialize a full p x p distance matrix;
below it, a request on a grid machine reads per-axis tables and builds no
p x p table of any dtype; and byte totals must stay exact past int32
range."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.engine import MappingEngine, MappingRequest
from repro.mapping import HierarchicalMapper, _native
from repro.mapping.context import MappingContext, context_for
from repro.mapping.hierarchical import _MATRIX_LIMIT
from repro.mapping.metrics import hop_bytes, metrics_block, ordered_sum
from repro.taskgraph import TaskGraph, mesh2d_pattern, mesh3d_pattern
from repro.topology import MatrixTopology, Torus
from repro.topology.base import Topology
from repro.topology.cache import clear_topology_cache, topology_cache_info
from repro.topology.grid import GridTopology
from repro.validate import validate_mapping

BIG = (32, 32, 16)  # 16384 processors, 2x the dense-table limit


@pytest.fixture
def forbid_big_matrices(monkeypatch):
    """Any dense-matrix request on a machine above the limit fails the test.

    Guards the public :meth:`Topology.distance_matrix`, which no subclass
    outside the metric-only matrix machine overrides, so grid machines
    (whose table build is their own) are covered too.
    """
    original = Topology.distance_matrix

    def guarded(self, dtype=None):
        assert self.num_nodes <= _MATRIX_LIMIT, (
            f"dense {self.num_nodes}x{self.num_nodes} distance matrix "
            f"materialized above the limit ({_MATRIX_LIMIT})"
        )
        return original(self, dtype)

    monkeypatch.setattr(Topology, "distance_matrix", guarded)


def test_guard_covers_grid_machines(forbid_big_matrices):
    with pytest.raises(AssertionError, match="above the limit"):
        Torus(BIG).distance_matrix()


def test_metrics_and_cheap_validation_on_a_32k_torus(
    forbid_big_matrices, monkeypatch
):
    """Metrics plus cheap validation of a 32,768-task mapping on
    torus:32x32x32 build no dense table, read at most one distance row (the
    lower bound's profile on a vertex-transitive machine) and stay small."""
    topo = Torus((32, 32, 32))
    graph = mesh3d_pattern(32, 32, 32, message_bytes=64)
    assignment = np.random.default_rng(0).permutation(topo.num_nodes)
    graph.edge_arrays()  # built here: an input, not the measured work
    graph.csr_arrays()

    rows: list[int] = []
    original_row = GridTopology.distance_row

    def counted(self, node):
        rows.append(int(node))
        assert len(rows) <= 1, "metrics gathered distance rows per source"
        return original_row(self, node)

    monkeypatch.setattr(GridTopology, "distance_row", counted)
    tracemalloc.start()
    try:
        block = metrics_block(graph, topo, assignment)
        report = validate_mapping(graph, topo, assignment, level="cheap")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert block["hop_bytes"] > 0
    assert not report.violations()
    assert len(rows) <= 1
    assert peak < 256 * 2**20, f"traced peak {peak / 2**20:.0f} MiB"
    ctx = context_for(graph, topo)
    dist = ctx.edge_distances(assignment)
    assert ordered_sum(graph.edge_arrays()[2] * dist) == block["hop_bytes"]


def test_multilevel_never_materializes_big_tables(forbid_big_matrices):
    """End-to-end multilevel on a 16384-node torus: coarse machines may use
    dense tables (they are small), the full machine never."""
    topo = Torus(BIG)
    graph = mesh2d_pattern(8, 8, message_bytes=64)
    mapper = HierarchicalMapper(stop=256, refine_window=0, seed=0)
    mapping = mapper.map(graph, topo)
    assert len(np.unique(mapping.assignment)) == 64
    # Levels above the limit were really traversed.
    assert any(p > _MATRIX_LIMIT for _, p, _ in mapper.last_level_assignments)


def test_hop_bytes_exact_beyond_int32():
    """Byte volumes past int32 range accumulate exactly (float64 pipeline,
    no intermediate int32 product)."""
    w = float(2**33)
    graph = TaskGraph(2, [(0, 1, w)])
    topo = Torus((8, 8))
    assignment = np.array([0, 3])  # distance 3 on a ring of 8
    assert hop_bytes(graph, topo, assignment) == 3.0 * w


def test_grouped_distance_rows_never_touch_root_matrix(forbid_big_matrices):
    """Representative aggregation on a big grid answers distance rows from
    the closed form, not a root-sized table."""
    from repro.topology import coarsen_machine

    topo = Torus(BIG)
    level, shape = topo, None
    for _ in range(3):
        level, _, shape = coarsen_machine(level, shape=shape)
    assert level.num_nodes == topo.num_nodes // 8
    row = level.distance_row(0)
    assert row.shape == (level.num_nodes,)
    assert row[0] == 0 and row.max() > 0


#: The traced peak of the request below is 19.9 MiB: mostly the finest
#: level's 16 MiB refine cost table (2048 x 2048 int32). The bound leaves
#: 4.1 MiB (20%) of headroom; that table in float64 (35.7 MiB), or the
#: level's 16 MiB int32 distance table, were a mapper to build it again,
#: breaks it.
GRID_REQUEST_PEAK = 24 * 2**20

#: The same request's refine counters, pinned: the int32 table sweeps as
#: the float64 one did.
GRID_REQUEST_REFINE = {"refine.sweeps": 2, "refine.swaps_accepted": 1495,
                       "refine.rows_computed": 4020,
                       "refine.rows_folded": 258767}


@pytest.mark.skipif(not _native.available(),
                    reason="no C compiler: the reference bodies read float64")
def test_grid_machine_request_builds_no_distance_table(monkeypatch):
    """A multilevel request on torus:16x16x8 (one grouped 1024-node level)
    reads the per-axis tables of the torus and of its grouped level, so it
    leaves no distance table of any dtype in the shared cache. Its weights
    and distances are integers, so its one refine cost table is int32, its
    traced peak stays under ``GRID_REQUEST_PEAK`` and its refine counters
    are ``GRID_REQUEST_REFINE``."""
    tables_built = []
    build = _native.NativeKernels.refine_cost_table

    def recorded(self, *args):
        cost = build(self, *args)
        tables_built.append((cost.shape, cost.dtype))
        return cost

    monkeypatch.setattr(_native.NativeKernels, "refine_cost_table", recorded)
    clear_topology_cache()
    request = MappingRequest(
        graph="mesh3d:16x16x16;bytes=1024", topology="torus:16x16x8",
        mapper="multilevel:inner=topolb;levels=auto", seed=0,
        flow_metrics=True, validate="cheap", profile=True)
    engine = MappingEngine()
    tracemalloc.start()
    try:
        result = engine.run(request)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tables = [key for key in topology_cache_info()["keys"]
              if key[1] == "distance_matrix"]
    assert tables == []
    assert tables_built == [((2048, 2048), np.int32)]
    assert peak < GRID_REQUEST_PEAK, f"traced peak {peak / 2**20:.1f} MiB"
    counters = result.profile["counters"]
    assert {name: counters[name] for name in GRID_REQUEST_REFINE} == (
        GRID_REQUEST_REFINE)


def test_context_distance_matrix_keeps_fractional_distances():
    """The context's default table is the machine's own: float64 on a
    matrix machine with fractional distances, never truncated to int."""
    mat = np.array([[0.0, 0.5, 1.25], [0.5, 0.0, 2.0], [1.25, 2.0, 0.0]])
    ctx = MappingContext(mesh2d_pattern(1, 3), MatrixTopology(mat))
    assert ctx.distance_matrix().dtype == np.float64
    np.testing.assert_array_equal(ctx.distance_matrix(), mat)
    assert MappingContext(mesh2d_pattern(2, 2), Torus((2, 2))).distance_matrix(
    ).dtype == np.int32
