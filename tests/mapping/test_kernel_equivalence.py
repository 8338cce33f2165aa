"""Vectorized-vs-reference kernel equivalence.

The vectorized kernels are only allowed to exist because they are *proven*
interchangeable with the scalar reference paths: every test here pins the
two to **bit-identical assignments** (not merely equal hop-bytes) across
estimator orders, selection rules, and instance shapes —
including symmetric instances whose massive score ties are where a batched
reimplementation would first diverge. Where the production body is
compiled (RefineTopoLB's sweep, third-order TopoLB) it is compiled or
reference: without a C compiler (``REPRO_NO_NATIVE=1``) ``"vectorized"``
runs the reference body, and the routing itself is pinned here too.
"""

from __future__ import annotations

import os
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.exceptions import MappingError
from repro.engine import MappingEngine, MappingRequest
from repro.engine.specs import mapper_from_spec, parse_mapper_spec
from repro.mapping import RandomMapper, RefineTopoLB, TopoLB
from repro.mapping.estimation import EstimatorOrder
from repro.mapping.kernels import (
    DEFAULT_KERNEL,
    KERNELS,
    get_default_kernel,
    resolve_kernel,
)
from repro.mapping import _native
from repro.netsim.flow import flow_evaluate
from repro.partition.recursive_bisection import RecursiveBisectionPartitioner
from repro.taskgraph import mesh2d_pattern, mesh3d_pattern, random_taskgraph
from repro.taskgraph.leanmd import leanmd_taskgraph
from repro.taskgraph.graph import TaskGraph
from repro.taskgraph.random_graphs import geometric_taskgraph
from repro.topology import ArbitraryTopology, Hypercube, Mesh, Torus

ORDERS = (EstimatorOrder.FIRST, EstimatorOrder.SECOND, EstimatorOrder.THIRD)
SELECTIONS = ("gain", "max_cost", "volume")


def _instances():
    """(label, graph, topology) shape grid.

    The torus/mesh pattern pairs are maximally symmetric — every row of the
    initial fest table ties with dozens of others, so any divergence in
    tie-breaking between the kernels shows up immediately. The random and
    geometric instances cover irregular degrees and weights.
    """
    return [
        ("torus4x4-mesh2d", mesh2d_pattern(4, 4), Torus((4, 4))),
        ("mesh2x3x2-mesh3d", mesh3d_pattern(2, 3, 2), Mesh((2, 3, 2))),
        ("hypercube16-random", random_taskgraph(16, edge_prob=0.35, seed=5),
         Hypercube(4)),
        ("torus4x4x2-geometric", geometric_taskgraph(32, radius=0.35, seed=9),
         Torus((4, 4, 2))),
    ]


class TestTopoLBEquivalence:
    @pytest.mark.parametrize("label,graph,topo",
                             _instances(), ids=lambda v: v if isinstance(v, str) else "")
    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("selection", SELECTIONS)
    def test_assignments_bit_identical(self, label, graph, topo, order, selection):
        ref = TopoLB(order=order, selection=selection,
                     kernel="reference").map(graph, topo)
        vec = TopoLB(order=order, selection=selection,
                     kernel="vectorized").map(graph, topo)
        np.testing.assert_array_equal(
            vec.assignment, ref.assignment,
            err_msg=f"{label} order={order} selection={selection}",
        )

    def test_symmetric_tie_break_worst_case(self):
        """Fully symmetric instance: every initial fest row is identical, so
        the whole run is tie-breaking. The kernels must walk the exact same
        (value, id) order through all of it."""
        graph = mesh2d_pattern(4, 4, message_bytes=1.0)
        topo = Torus((4, 4))
        for order in ORDERS:
            ref = TopoLB(order=order, kernel="reference").map(graph, topo)
            vec = TopoLB(order=order, kernel="vectorized").map(graph, topo)
            np.testing.assert_array_equal(vec.assignment, ref.assignment)


class TestRefineEquivalence:
    def test_incremental_matches_reference(self):
        """The production kernel's compiled incremental sweep lands on the
        reference result from a swap-dense random start."""
        graph = geometric_taskgraph(48, radius=0.3, seed=3)
        topo = Mesh((6, 8))
        start = RandomMapper(seed=11).map(graph, topo)
        ref = RefineTopoLB(kernel="reference", seed=1).refine(start)
        native = RefineTopoLB(kernel="vectorized", seed=1).refine(start)
        np.testing.assert_array_equal(native.assignment, ref.assignment)

    def test_converged_input_is_noop_for_all(self):
        graph = mesh2d_pattern(4, 4)
        topo = Torus((4, 4))
        first = RefineTopoLB(kernel="reference", seed=0).refine(
            TopoLB().map(graph, topo))
        for kernel in KERNELS:
            again = RefineTopoLB(kernel=kernel, seed=0).refine(first)
            np.testing.assert_array_equal(
                again.assignment, first.assignment, err_msg=kernel)


class TestIncrementalNative:
    """The compiled kernels and the route to the reference bodies when they
    are unavailable."""

    @staticmethod
    def _calls():
        """``(label, run)`` per routed call site, ``run(kernel)`` returning
        the mapping: RefineTopoLB and TopoLB of every order, each with
        n == p and n < p."""
        cases = [("torus4x4", mesh2d_pattern(4, 4), Torus((4, 4))),
                 ("underfull", random_taskgraph(14, edge_prob=0.3, seed=6),
                  Torus((4, 4)))]
        for label, graph, topo in cases:
            start = RandomMapper(seed=11).map(graph, topo)
            yield f"refine-{label}", lambda k, s=start: RefineTopoLB(
                kernel=k, seed=1).refine(s)
            for order in ORDERS:
                yield (f"topolb{int(order)}-{label}",
                       lambda k, g=graph, t=topo, o=order: TopoLB(
                           order=o, kernel=k).map(g, t))

    @staticmethod
    def _profiled(run, kernel):
        """Assignment, mapper counters and fallback count of one call."""
        with obs.profiled() as prof:
            assignment = run(kernel).assignment
        counters = {name: v for name, v in prof.counters.items()
                    if name.startswith(("topolb.", "refine."))}
        return (assignment, counters,
                prof.counters.get("kernel.reference_fallbacks", 0))

    def test_no_native_runs_reference_bodies(self, monkeypatch):
        """Under ``REPRO_NO_NATIVE=1`` a ``"vectorized"`` call returns the
        reference's assignment and ``topolb.*``/``refine.*`` counters and
        counts one ``kernel.reference_fallbacks``; the process warns once,
        naming the cause."""
        monkeypatch.setattr(_native, "_warned", False)
        calls = list(self._calls())
        want = {label: self._profiled(run, "reference") for label, run in calls}
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        with pytest.warns(RuntimeWarning) as record:
            for label, run in calls:
                assignment, counters, fallbacks = self._profiled(run, "vectorized")
                np.testing.assert_array_equal(assignment, want[label][0],
                                              err_msg=label)
                assert counters == want[label][1], label
                assert (want[label][2], fallbacks) == (0, 1), label
        warned = [w for w in record
                  if "compiled kernels unavailable" in str(w.message)]
        assert len(warned) == 1
        assert "REPRO_NO_NATIVE is set" in str(warned[0].message)

    def test_compiler_on_path_builds_the_kernels(self):
        """A host with a C compiler must get the compiled kernels; a broken
        ``refine_kernel.c`` build would otherwise pass every equivalence
        test on the reference route."""
        if _native._compiler() is None:
            pytest.skip("no C compiler on this host")
        if os.environ.get("REPRO_NO_NATIVE"):
            pytest.skip("REPRO_NO_NATIVE is set")
        assert _native.available(), _native._error

    def test_one_library_call_per_partition_and_per_grid_flow(self, monkeypatch):
        """The phase-1 recursion and a grid's flow link loads each cross
        into C once: a LeanMD RandomLB request makes one
        ``partition_recursive`` call, no ``partition_bisect`` call and one
        ``grid_link_loads`` call; a non-grid machine makes none."""
        native = _native.load()
        if native is None:
            pytest.skip("no C compiler on this host")
        calls: Counter = Counter()

        def counted(fn):
            def call(*args):
                calls[fn.__name__] += 1
                return fn(*args)
            return call

        for attr, fn in vars(native).items():
            monkeypatch.setattr(native, attr, tuple(map(counted, fn))
                                if isinstance(fn, tuple) else counted(fn))
        graph = leanmd_taskgraph(512)
        RecursiveBisectionPartitioner(seed=3).partition(graph, 512)
        assert calls == {"partition_recursive": 1}

        calls.clear()
        result = MappingEngine().run(MappingRequest(
            graph=graph, topology="torus:8x8x8", mapper="RandomLB", seed=3,
            flow_metrics=True))
        assert (calls["partition_recursive"], calls["partition_bisect"],
                calls["grid_link_loads"]) == (1, 0, 1)

        calls.clear()
        flow_evaluate(result.mapping)
        assert calls == {"grid_link_loads": 1}
        calls.clear()
        flow_evaluate(RandomMapper(seed=1).map(mesh2d_pattern(4, 4), Hypercube(4)))
        assert not calls

    def test_native_loader_is_memoized_and_gated(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        assert _native.load() is None
        assert not _native.available()
        monkeypatch.delenv("REPRO_NO_NATIVE")
        first = _native.load()
        if first is not None:  # no compiler on this host -> both stay None
            assert _native.load() is first
            assert _native.available()


COUNTERS = ("topolb.cycles", "topolb.reserve_hits",
            "topolb.reserve_exhaustions", "topolb.rows_rebuilt",
            "topolb.neighbor_updates")


def _path_instances():
    """A full machine and two underfull ones (n < p), at a scale where
    every cycle touches dozens of rows, plus a fully symmetric instance
    whose run is all tie-breaking."""
    base = Torus((8, 4, 4))
    p = base.num_nodes
    return [
        ("torus8x4x4", geometric_taskgraph(p, radius=0.2, seed=42), base),
        ("underfull", geometric_taskgraph(p - 4, radius=0.2, seed=42), base),
        ("underfull-7", geometric_taskgraph(p - 7, radius=0.2, seed=7),
         base),
        ("symmetric", mesh3d_pattern(4, 4, 4, message_bytes=1.0),
         Torus((4, 4, 4))),
    ]


def _map_counted(graph, topo, order, selection, kernel):
    with obs.profiled() as prof:
        mapping = TopoLB(order=order, selection=selection,
                         kernel=kernel).map(graph, topo)
    return mapping.assignment, {c: prof.counters[c] for c in COUNTERS}


def _assert_paths_agree(label, graph, topo, order, selection):
    ref, ref_counters = _map_counted(graph, topo, order, selection,
                                     "reference")
    vec, vec_counters = _map_counted(graph, topo, order, selection,
                                     "vectorized")
    np.testing.assert_array_equal(
        vec, ref, err_msg=f"{label} order={order} selection={selection}")
    assert vec_counters == ref_counters
    assert len(np.unique(vec)) == graph.num_tasks


class TestFirstSecondOrderPaths:
    """First- and second-order TopoLB run their whole cycle loop compiled,
    pausing only for the "gain" rule's BLAS row sums. Pinned to the
    reference on every machine shape and selection rule, down to the
    reserve hits and exhaustions."""

    @pytest.mark.parametrize("label,graph,topo", _path_instances(),
                             ids=lambda v: v if isinstance(v, str) else "")
    @pytest.mark.parametrize("order", ORDERS[:2])
    @pytest.mark.parametrize("selection", SELECTIONS)
    def test_bit_identical_with_equal_counters(self, label, graph, topo,
                                               order, selection):
        _assert_paths_agree(label, graph, topo, order, selection)

    def test_walks_and_exhaustions_are_exercised(self):
        """The instances reach both outcomes of the reserve walk."""
        _, graph, topo = _path_instances()[0]
        _, counters = _map_counted(graph, topo, EstimatorOrder.SECOND,
                                   "gain", "vectorized")
        assert counters["topolb.reserve_hits"] > 0
        assert counters["topolb.reserve_exhaustions"] > 0

    def test_bound_loop_checks_its_arguments(self):
        native = _native.load()
        if native is None:
            pytest.skip("no C compiler on this host")
        graph = mesh2d_pattern(2, 2)
        fest, dist = np.zeros((4, 4)), np.zeros((4, 4))
        csr = graph.csr_arrays()

        def bind(order=1, score=np.zeros(4), avail_f=np.ones(4), reserve=2):
            return native.topolb_cycles(fest, dist, np.zeros(4), *csr, order,
                                        "gain", score, avail_f, reserve)

        for bad in ({"order": 3}, {"reserve": 0}, {"score": np.zeros(3)},
                    {"avail_f": np.array([1.0, 0, 0, 0])}):
            with pytest.raises(ValueError):
                bind(**bad)


class TestThirdOrderPaths:
    """Third-order TopoLB has its own compiled cycle loop, which recentres
    every unplaced row each cycle and keeps those rows compacted at the top
    of ``fest``. It is pinned to the reference at a scale where every cycle
    recentres over a hundred rows, on a full and an underfull machine,
    down to the lazy-repair counters."""

    @pytest.mark.parametrize("label,graph,topo", _path_instances()[:3],
                             ids=lambda v: v if isinstance(v, str) else "")
    @pytest.mark.parametrize("selection", SELECTIONS)
    def test_bit_identical_with_equal_counters(self, label, graph, topo,
                                               selection):
        _assert_paths_agree(label, graph, topo, EstimatorOrder.THIRD,
                            selection)

    def test_bound_loop_checks_its_arguments(self):
        """Every bad argument of the bound third-order loop is a
        ``ValueError`` before any pointer reaches C."""
        native = _native.load()
        if native is None:
            pytest.skip("no C compiler on this host")
        csr = mesh2d_pattern(2, 2).csr_arrays()

        def bind(fest=np.zeros((4, 6)), uc=np.ones(4), score=np.zeros(4),
                 avail_f=np.ones(6)):
            return native.topolb_cycles(fest, np.zeros((6, 6)), np.zeros(6),
                                        *csr, 3, "gain", score, avail_f, 2,
                                        uc)

        bind()
        for bad in ({"fest": np.zeros((6, 4)).T},
                    {"fest": np.zeros((4, 6), dtype=np.float32)},
                    {"uc": np.ones(3)}, {"uc": None}, {"score": np.zeros(5)},
                    {"avail_f": np.zeros(6)},
                    {"avail_f": np.array([1.0, 1, 1, 0, 0, 0])}):
            with pytest.raises(ValueError):
                bind(**bad)


@st.composite
def _random_instances(draw):
    """(graph, topology): n <= p tasks on p processors — random CSR
    graphs with isolated vertices and zero-weight edges, integer weights
    that force ties, fewer tasks than processors, and rings with
    fractional link lengths."""
    if draw(st.booleans()):
        topo = Torus(draw(st.sampled_from([(3, 3), (4, 2), (2, 2, 2),
                                           (4, 3)])))
    else:
        p = draw(st.integers(4, 12))
        lengths = st.sampled_from([0.5, 1.0, 1.25, 1.5, 2.75])
        links = [(i, (i + 1) % p, draw(lengths)) for i in range(p)]
        chords = draw(st.lists(st.tuples(st.integers(0, p - 1),
                                         st.integers(0, p - 1), lengths),
                               max_size=p))
        topo = ArbitraryTopology(p, links + [c for c in chords
                                             if c[0] != c[1]])
    p = topo.num_nodes
    n = draw(st.integers(1, p)) if draw(st.booleans()) else p
    weight = (st.integers(0, 3).map(float) if draw(st.booleans())
              else st.floats(0.0, 8.0))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)),
                          max_size=3 * n))
    edges = [(a, b, draw(weight)) for a, b in pairs if a != b]
    return TaskGraph(n, edges), topo


@pytest.mark.skipif(not _native.available(),
                    reason="no C compiler: the production loop is the reference")
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(instance=_random_instances(), order=st.sampled_from(ORDERS),
       selection=st.sampled_from(SELECTIONS))
def test_random_instances_match_reference(instance, order, selection):
    """Differential: every compiled TopoLB loop returns the reference's
    assignment and counters on random small instances."""
    graph, topo = instance
    ref = _map_counted(graph, topo, order, selection, "reference")
    vec = _map_counted(graph, topo, order, selection, "vectorized")
    np.testing.assert_array_equal(vec[0], ref[0])
    assert vec[1] == ref[1]


class TestCostTable:
    """RefineTopoLB's compiled cost table against its SciPy oracle,
    ``csr_matrix((w, assign[indices], indptr)) @ dist``, bit for bit."""

    @staticmethod
    def _machines():
        """(label, (topology, tasks)): a full machine, an underfull one
        whose assignment leaves columns unused, and float distances."""
        rng = np.random.default_rng(5)
        ring = [(i, (i + 1) % 24, float(c))
                for i, c in enumerate(rng.uniform(0.5, 3.0, 24))]
        chords = [(i, (i + 7) % 24, 1.7) for i in range(0, 24, 3)]
        return [
            ("weighted", (Torus((4, 4, 2)), 32)),
            ("underfull", (Torus((6, 4)), 22)),
            ("float-distances", (ArbitraryTopology(24, ring + chords), 24)),
        ]

    @pytest.mark.parametrize("label,case", _machines(),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_matches_scipy(self, label, case):
        topo, n = case
        import scipy.sparse as sp

        native = _native.load()
        if native is None:
            pytest.skip("no C compiler on this host")
        graph = geometric_taskgraph(n, radius=0.4, seed=8)
        indptr, indices, weights = graph.csr_arrays()
        assign = np.random.default_rng(1).permutation(topo.num_nodes)[:n]
        dist = np.ascontiguousarray(topo.distance_matrix(), dtype=np.float64)
        want = sp.csr_matrix((weights, assign[indices], indptr),
                             shape=(graph.num_tasks, topo.num_nodes)) @ dist
        got = native.refine_cost_table(indptr, indices, weights, assign, dist)
        np.testing.assert_array_equal(got, want, err_msg=label)


class TestUnderfullEquivalence:
    """Fewer tasks than processors (n < p) preserves equivalence."""

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("selection", SELECTIONS)
    def test_topolb_identical(self, order, selection):
        graph = random_taskgraph(13, edge_prob=0.3, seed=2)
        ref = TopoLB(order=order, selection=selection,
                     kernel="reference").map(graph, Torus((4, 4)))
        vec = TopoLB(order=order, selection=selection,
                     kernel="vectorized").map(graph, Torus((4, 4)))
        np.testing.assert_array_equal(
            vec.assignment, ref.assignment,
            err_msg=f"underfull order={order} selection={selection}",
        )
        assert len(np.unique(vec.assignment)) == graph.num_tasks

    def test_refine_underfull_incremental(self):
        """n < p: the compiled sweep matches the reference kernel and never
        moves a task onto an unoccupied processor."""
        graph = random_taskgraph(13, edge_prob=0.3, seed=6)
        start = RandomMapper(seed=11).map(graph, Torus((4, 4)))
        ref = RefineTopoLB(kernel="reference", seed=1).refine(start)
        native = RefineTopoLB(kernel="vectorized", seed=1).refine(start)
        np.testing.assert_array_equal(native.assignment, ref.assignment)
        assert set(native.assignment) == set(start.assignment)


class TestKernelSelection:
    def test_invalid_kernel_rejected(self):
        with pytest.raises(MappingError):
            TopoLB(kernel="simd")
        with pytest.raises(MappingError):
            RefineTopoLB(kernel="fortran")
        with pytest.raises(MappingError):
            resolve_kernel("nope")

    def test_default_kernel_resolution(self):
        assert KERNELS == ("vectorized", "reference")
        assert DEFAULT_KERNEL == get_default_kernel() == "vectorized"
        # kernel=None resolves to the default at construction time;
        # explicit names always win.
        assert TopoLB().kernel == "vectorized"
        assert RefineTopoLB().kernel == "vectorized"
        assert TopoLB(kernel="reference").kernel == "reference"
        assert RefineTopoLB(kernel="reference").kernel == "reference"

    def test_kernel_argument_validates(self):
        with pytest.raises(MappingError):
            parse_mapper_spec("topolb").build(0, "scalar")
        # Rejected even by a spec that runs no kernel-bearing mapper.
        with pytest.raises(MappingError):
            parse_mapper_spec("random").build(0, "incremental")

    def test_kernel_fixed_at_construction(self):
        assert mapper_from_spec("topolb", 0).kernel == "vectorized"
        assert parse_mapper_spec("topolb").build(0, "reference").kernel \
            == "reference"


class TestKernelArgumentReachesNestedMappers:
    """``ParsedSpec.build(seed, kernel)`` hands the kernel to every mapper a
    spec builds inside another one."""

    def test_multilevel_inner_and_level_refiners(self, monkeypatch):
        mapper = parse_mapper_spec("multilevel:inner=topolb").build(
            0, kernel="reference")
        assert mapper._inner.kernel == "reference"
        assert parse_mapper_spec("multilevel").build(
            0, kernel="reference")._inner.kernel == "reference"

        # Run one with enough levels to refine, recording every per-level
        # refiner's kernel.
        seen = []
        real = RefineTopoLB.refine

        def spy(self, *args, **kwargs):
            seen.append(self.kernel)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(RefineTopoLB, "refine", spy)
        parse_mapper_spec("multilevel:inner=topolb;stop=16").build(
            0, kernel="reference").map(mesh2d_pattern(8, 8), Torus((8, 8)))
        assert seen and set(seen) == {"reference"}

    def test_every_composition_forwards_the_kernel(self):
        def reference(spec):
            return parse_mapper_spec(spec).build(0, "reference")

        pipe = reference("RefineTopoLB")
        assert pipe._mapper.kernel == "reference"
        assert pipe._refiner.kernel == "reference"
        assert reference("pipeline")._mapper.kernel == "reference"
        refiner = reference("refine:base=topolb")
        assert refiner.kernel == refiner._base.kernel == "reference"
        assert reference("hybrid")._kernel == "reference"
