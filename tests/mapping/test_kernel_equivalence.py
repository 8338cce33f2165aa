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
Hypothesis differentials pin every compiled mapper loop (TopoLB,
TopoCentLB, RefineTopoLB's cost table and sweep) to its reference on random
small instances; on grid machines, the kernels' per-axis reads to their
reads of the machine's int32 table; and RefineTopoLB's sweeps over an int32
cost table to the same sweeps over its float64 copy. The refine and
cost-table differentials run ``DEPTH`` times their examples.
"""

from __future__ import annotations

import copy
import os
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.exceptions import MappingError
from repro.engine import MappingEngine, MappingRequest
from repro.engine.specs import mapper_from_spec, parse_mapper_spec
from repro.mapping import RandomMapper, RefineTopoLB, TopoCentLB, TopoLB
from repro.mapping.base import Mapping
from repro.mapping.context import MappingContext
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
from repro.topology import (
    ArbitraryTopology,
    Hypercube,
    MatrixTopology,
    Mesh,
    Torus,
    coarsen_machine,
)
from repro.topology.grid import AxisDistances

ORDERS = (EstimatorOrder.FIRST, EstimatorOrder.SECOND, EstimatorOrder.THIRD)
SELECTIONS = ("gain", "max_cost", "volume")

#: 1, or 10 under ``--hypothesis-profile=deep`` (see tests/conftest.py): the
#: refine and cost-table differentials scale their examples by it.
DEPTH = max(1, settings().max_examples
            // settings.get_profile("default").max_examples)


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
        the mapping: RefineTopoLB, TopoCentLB and TopoLB of every order,
        each with n == p and n < p."""
        cases = [("torus4x4", mesh2d_pattern(4, 4), Torus((4, 4))),
                 ("underfull", random_taskgraph(14, edge_prob=0.3, seed=6),
                  Torus((4, 4)))]
        for label, graph, topo in cases:
            start = RandomMapper(seed=11).map(graph, topo)
            yield f"refine-{label}", lambda k, s=start: RefineTopoLB(
                kernel=k, seed=1).refine(s)
            yield (f"topocentlb-{label}",
                   lambda k, g=graph, t=topo: TopoCentLB(kernel=k).map(g, t))
            for order in ORDERS:
                yield (f"topolb{int(order)}-{label}",
                       lambda k, g=graph, t=topo, o=order: TopoLB(
                           order=o, kernel=k).map(g, t))

    @staticmethod
    def _profiled(run, kernel):
        """Assignment, mapper counters and fallback count of one call."""
        with obs.profiled() as prof:
            assignment = run(kernel).assignment
        prefixes = ("topolb.", "topocentlb.", "refine.")
        counters = {name: v for name, v in prof.counters.items()
                    if name.startswith(prefixes)}
        return (assignment, counters,
                prof.counters.get("kernel.reference_fallbacks", 0))

    def test_no_native_runs_reference_bodies(self, monkeypatch):
        """Under ``REPRO_NO_NATIVE=1`` a ``"vectorized"`` call returns the
        reference's assignment and ``topolb.*``/``topocentlb.*``/``refine.*``
        counters and counts one ``kernel.reference_fallbacks``; the process
        warns once, naming the cause."""
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


def _third_order_instances():
    """The full and underfull machines of :func:`_path_instances`, and
    ``lane-tail``: 100 tasks on 105 processors, no multiple of a vector
    block (8, 16 or 32 columns), so every row pass ends in its scalar
    tail."""
    return _path_instances()[:3] + [
        ("lane-tail", geometric_taskgraph(100, radius=0.25, seed=3),
         Torus((7, 5, 3)))]


class TestThirdOrderPaths:
    """Third-order TopoLB has its own compiled cycle loop, which recentres
    every unplaced row each cycle, over all its columns, and keeps those
    rows compacted at the top of ``fest``. It is pinned to the reference at
    a scale where every cycle recentres over a hundred rows, on a full and
    an underfull machine and on one whose row passes end in a tail, down
    to the lazy-repair counters."""

    @pytest.mark.parametrize("label,graph,topo", _third_order_instances(),
                             ids=lambda v: v if isinstance(v, str) else "")
    @pytest.mark.parametrize("selection", SELECTIONS)
    def test_bit_identical_with_equal_counters(self, label, graph, topo,
                                               selection):
        _assert_paths_agree(label, graph, topo, EstimatorOrder.THIRD,
                            selection)

    def test_bound_loop_checks_its_arguments(self):
        """Every bad argument of the bound third-order loop is a
        ``ValueError`` before any pointer reaches C, a start with a
        processor already taken included: the loop writes a consumed
        column's penalty only when it takes the processor."""
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
                    {"avail_f": np.array([1.0, 1, 1, 0, 0, 0])},
                    {"avail_f": np.array([1.0, 1, 1, 1, 1, 0])}):
            with pytest.raises(ValueError):
                bind(**bad)


@st.composite
def _fractional_matrix(draw, p: int) -> MatrixTopology:
    """A ``p``-processor explicit metric with fractional distances,
    quantized to quarters half of the time so that distances tie."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    mat = rng.uniform(0.25, 4.0, (p, p))
    mat = (mat + mat.T) / 2
    if draw(st.booleans()):
        mat = np.round(mat * 4) / 4
    np.fill_diagonal(mat, 0.0)
    return MatrixTopology(mat)


@st.composite
def _random_instances(draw):
    """(graph, topology): n <= p tasks on p processors — random CSR
    graphs with isolated vertices and zero-weight edges, integer weights
    that force ties, fewer tasks than processors, on tori (int32 distance
    tables), rings with fractional link lengths and explicit fractional
    metrics (float64 tables)."""
    machine = draw(st.sampled_from(("torus", "ring", "matrix")))
    if machine == "torus":
        topo = Torus(draw(st.sampled_from([(3, 3), (4, 2), (2, 2, 2),
                                           (4, 3)])))
    elif machine == "matrix":
        topo = draw(_fractional_matrix(draw(st.integers(2, 12))))
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
        """On the machine's own table (int32 on the tori) and on a float64
        copy, against the oracle on the float64 copy; an int32 cost table
        is widened, exactly, to be compared."""
        topo, n = case
        import scipy.sparse as sp

        native = _native.load()
        if native is None:
            pytest.skip("no C compiler on this host")
        graph = geometric_taskgraph(n, radius=0.4, seed=8)
        indptr, indices, weights = graph.csr_arrays()
        assign = np.random.default_rng(1).permutation(topo.num_nodes)[:n]
        dist64 = topo.distance_matrix(np.float64)
        want = sp.csr_matrix((weights, assign[indices], indptr),
                             shape=(graph.num_tasks, topo.num_nodes)) @ dist64
        for dist in (topo.distance_matrix(), dist64):
            got = native.refine_cost_table(indptr, indices, weights, assign,
                                           dist)
            np.testing.assert_array_equal(got.astype(np.float64), want,
                                          err_msg=label)


REFINE_COUNTERS = ("refine.sweeps", "refine.swaps_accepted",
                   "refine.swaps_rejected", "refine.pairs_evaluated")


def _refine_counted(start, kernel):
    with obs.profiled() as prof:
        mapping = RefineTopoLB(kernel=kernel, seed=1).refine(start)
    return mapping.assignment, {c: prof.counters.get(c, 0)
                                for c in REFINE_COUNTERS}


@pytest.mark.skipif(not _native.available(),
                    reason="no C compiler: the production sweep is the reference")
@settings(max_examples=80 * DEPTH, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(instance=_random_instances(), start_seed=st.integers(0, 3))
def test_refine_random_instances_match_reference(instance, start_seed):
    """Differential: the compiled cost table equals its SciPy oracle, and
    the compiled incremental sweeps return ``_refine_reference``'s
    assignment and its four ``refine.*`` totals, from a random start."""
    import scipy.sparse as sp

    graph, topo = instance
    start = RandomMapper(seed=start_seed).map(graph, topo)
    indptr, indices, weights = graph.csr_arrays()
    dist = topo.distance_matrix()
    want = sp.csr_matrix((weights, start.assignment[indices], indptr),
                         shape=(graph.num_tasks, topo.num_nodes)) @ (
                             dist.astype(np.float64))
    got = _native.load().refine_cost_table(indptr, indices, weights,
                                           start.assignment, dist)
    np.testing.assert_array_equal(got.astype(np.float64), want)
    ref = _refine_counted(start, "reference")
    vec = _refine_counted(start, "vectorized")
    np.testing.assert_array_equal(vec[0], ref[0])
    assert vec[1] == ref[1]


@st.composite
def _sparse_instances(draw):
    """(graph, topology): 8 to 32 tasks on a torus or mesh of 16 to 32
    processors, with at most as many edges as tasks — sparse enough that
    an accepted swap dirties few rows, so the sweep folds its caches
    instead of dropping them — and integer or fractional weights."""
    shape = draw(st.sampled_from([(4, 4), (6, 4), (4, 4, 2), (8, 4)]))
    topo = Torus(shape) if draw(st.booleans()) else Mesh(shape)
    p = topo.num_nodes
    n = draw(st.integers(p // 2, p))
    weight = (st.integers(0, 3).map(float) if draw(st.booleans())
              else st.floats(0.0, 8.0))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=n))
    return TaskGraph(n, [(a, b, draw(weight)) for a, b in pairs if a != b]), topo


@pytest.mark.skipif(not _native.available(),
                    reason="no C compiler: the production sweep is the reference")
@settings(max_examples=60 * DEPTH, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(instance=_sparse_instances(), start_seed=st.integers(0, 3))
def test_refine_sweeper_caches_match_reference_rows(instance, start_seed):
    """Differential: after every compiled sweep, each valid best-swap cache
    entry is the first minimum of the task's swap-delta row as
    ``_refine_reference`` computes it — so a fold that breaks a tie the
    wrong way fails here even when no swap ever depends on it."""
    graph, topo = instance
    start = RandomMapper(seed=start_seed).map(graph, topo)
    n = graph.num_tasks
    csr = graph.csr_arrays()
    dist = topo.distance_matrix()  # int32: the sweeper widens on load
    dist64 = topo.distance_matrix(np.float64)
    assign = start.assignment.copy()
    native = _native.load()
    cost = native.refine_cost_table(*csr, assign, dist)
    sweeper = native.refine_sweeper(cost, dist, assign, *csr)
    rng, ids = np.random.default_rng(start_seed), np.arange(n)
    for _sweep in range(10):
        swapped = sweeper.sweep(rng.permutation(n))
        best_b, best_val, valid = sweeper.caches
        for a in np.flatnonzero(valid):
            delta = RefineTopoLB._swap_deltas(
                a, ids, assign, cost.astype(np.float64), dist64, *csr)
            assert (best_b[a], best_val[a]) == (np.argmin(delta), delta.min())
        if not swapped:
            break


#: The largest cost an int32 cost table holds.
INT32_COST = 2**31 - 1


@st.composite
def _integral_instances(draw):
    """(graph, topology, start, bound): 2 <= n <= p tasks, n < p half the
    time, with integer weights, on a mesh or torus of one to three axes of
    sizes 2, 3 and 5, a grouped level of ``torus:4x3x5`` or a hypercube (an
    int32 table), and a random start. ``bound`` is None, or "at" or "past":
    then an edge between tasks 0 and 1 weighs so much that the heaviest
    row's ``B = sum_j w_tj * max(dmax, 1)`` is the largest multiple of
    ``max(dmax, 1)`` that is at most ``2**31 - 1`` (``2**31 - 1`` itself
    where ``dmax`` is 1), or the next one, past it."""
    machine = draw(st.sampled_from(("grid", "level", "hypercube")))
    if machine == "grid":
        shape = draw(st.lists(st.sampled_from([2, 3, 5]), min_size=1,
                              max_size=3))
        topo = draw(st.sampled_from([Mesh, Torus]))(shape)
    elif machine == "level":
        topo, virtual = Torus((4, 3, 5)), None
        for _ in range(draw(st.integers(1, 5))):
            topo, _, virtual = coarsen_machine(topo, shape=virtual)
    else:
        topo = Hypercube(draw(st.integers(1, 4)))
    p = topo.num_nodes
    n = draw(st.integers(2, p)) if draw(st.booleans()) else p
    bound = draw(st.sampled_from((None, "at", "past")))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)),
                          max_size=3 * n))
    edges = [(a, b, float(draw(st.integers(0, 3)))) for a, b in pairs
             if a != b and (bound is None or {a, b} != {0, 1})]
    if bound is not None:
        indptr, _, weights = TaskGraph(n, edges).csr_arrays()
        rows = np.bincount(np.repeat(np.arange(n), np.diff(indptr)),
                           weights=weights, minlength=n)
        heaviest = INT32_COST // max(int(topo.distance_matrix().max()), 1)
        heavy = heaviest - max(rows[0], rows[1]) + (bound == "past")
        edges.append((0, 1, float(heavy)))
    graph = TaskGraph(n, edges)
    start = RandomMapper(seed=draw(st.integers(0, 3))).map(graph, topo)
    return graph, topo, start.assignment, bound


@pytest.mark.skipif(not _native.available(),
                    reason="no C compiler: the production sweep is the reference")
@settings(max_examples=60 * DEPTH, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(instance=_integral_instances())
def test_int32_cost_table_sweeps_match_float64(instance):
    """Differential: on integer weights and distances the compiled cost
    table is int32, up to a bound exactly at ``2**31 - 1``; the compiled
    sweeps over it and over a float64 copy keep equal assignments, tables,
    best-swap caches and statistics after every sweep. One past the bound
    the table is float64, and an int32 table is refused."""
    graph, topo, start, bound = instance
    native, csr = _native.load(), graph.csr_arrays()
    dist = MappingContext(graph, topo).kernel_distances()
    cost = native.refine_cost_table(*csr, start, dist)
    if bound == "past":
        assert cost.dtype == np.float64
        with pytest.raises(ValueError, match="cost"):
            native.refine_sweeper(np.zeros(cost.shape, np.int32), dist,
                                  start.copy(), *csr)
        return
    assert cost.dtype == np.int32
    copy64 = cost.astype(np.float64)
    assigns = (start.copy(), start.copy())
    sweepers = [native.refine_sweeper(table, dist, assign, *csr)
                for table, assign in zip((cost, copy64), assigns)]
    rng = np.random.default_rng(0)
    for _sweep in range(10):
        perm = rng.permutation(graph.num_tasks)
        swapped = {sweeper.sweep(perm) for sweeper in sweepers}
        assert len(swapped) == 1
        np.testing.assert_array_equal(*assigns)
        np.testing.assert_array_equal(cost.astype(np.float64), copy64)
        narrow, wide = ([a.tolist() for a in sweeper.caches]
                        for sweeper in sweepers)
        assert narrow == wide
        assert sweepers[0].stats.tolist() == sweepers[1].stats.tolist()
        if swapped == {False}:
            break


class TestCostTableDtype:
    """The inputs decide the cost table's dtype: int32 only when every
    weight and distance is an integer and ``B = max_t sum_j w_tj *
    max(dmax, 1)`` is at most ``2**31 - 1``; RefineTopoLB returns the
    reference's assignment either way."""

    @staticmethod
    def _path(weights):
        """Tasks 0-1-2 with these two edge weights."""
        return TaskGraph(3, [(0, 1, weights[0]), (1, 2, weights[1])])

    @pytest.mark.parametrize("label,weights,topo,dtype", [
        ("integral", (3.0, 4.0), Torus((3, 3)), np.int32),
        ("at-bound", (INT32_COST - 1.0, 1.0), Torus((3,)), np.int32),
        ("at-bound-dmax-2", (INT32_COST // 2 - 1.0, 1.0), Torus((4,)),
         np.int32),
        ("past-bound", (INT32_COST * 1.0, 1.0), Torus((3,)), np.float64),
        ("past-bound-dmax-2", (INT32_COST // 2 * 1.0, 1.0), Torus((4,)),
         np.float64),
        ("fractional-weight", (3.0, 0.5), Torus((3, 3)), np.float64),
        ("float64-machine", (3.0, 4.0),
         MatrixTopology(Torus((3, 3)).distance_matrix(np.float64)),
         np.float64),
        ("int32-table", (3.0, 4.0), Hypercube(2), np.int32),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_dtype_follows_the_inputs(self, label, weights, topo, dtype):
        native = _native.load()
        if native is None:
            pytest.skip("no C compiler on this host")
        graph = self._path(weights)
        start = np.array([0, 2, 1][:graph.num_tasks], dtype=np.int64)
        dist = MappingContext(graph, topo).kernel_distances()
        cost = native.refine_cost_table(*graph.csr_arrays(), start, dist)
        assert cost.dtype == dtype, label
        mapping = Mapping(graph, topo, start)
        np.testing.assert_array_equal(
            RefineTopoLB(seed=1).refine(mapping).assignment,
            RefineTopoLB(kernel="reference", seed=1).refine(mapping).assignment,
            err_msg=label)


@st.composite
def _bad_costs(draw):
    """(cost, dist, weights): a cost table for the 4 tasks of a 2x2 mesh on
    ``torus:2x2`` that the sweeper must refuse: a wrong dtype; a strided,
    transposed or read-only view; a wrong shape; or an int32 table whose
    inputs break the int32 rule (a fractional weight, a row that
    overflows, a float64 distance table)."""
    dist = Torus((2, 2)).distance_matrix()
    weights = mesh2d_pattern(2, 2).csr_arrays()[2].copy()
    kind = draw(st.sampled_from(("dtype", "strided", "transposed",
                                 "read-only", "shape", "rule")))
    dtype = draw(st.sampled_from([np.int32, np.float64]))
    if kind == "dtype":
        cost = np.zeros((4, 4), draw(st.sampled_from(
            [np.int64, np.float32, np.int16, np.bool_])))
    elif kind == "strided":
        cost = np.zeros((4, 8), dtype)[:, ::2]
    elif kind == "transposed":
        cost = np.zeros((4, 4), dtype).T
    elif kind == "read-only":
        cost = np.zeros((4, 4), dtype)
        cost.flags.writeable = False
    elif kind == "shape":
        cost = np.zeros(draw(st.sampled_from(
            [(4, 5), (5, 4), (3, 4), (16,), (4, 4, 1), ()])), dtype)
    else:
        cost = np.zeros((4, 4), np.int32)
        broken = draw(st.sampled_from(("fraction", "overflow", "float64")))
        if broken == "float64":
            dist = dist.astype(np.float64)
        else:
            weights[draw(st.integers(0, weights.size - 1))] = (
                0.5 if broken == "fraction" else 2.0**30)
    return cost, dist, weights


class TestRefineSweeperArguments:
    """The bound sweep rejects an assignment, a sweep order or a cost table
    that would index outside its tables, or that breaks the int32 rule,
    with ``ValueError``, before any pointer reaches C."""

    @staticmethod
    def _bind(assign):
        native = _native.load()
        if native is None:
            pytest.skip("no C compiler on this host")
        csr = mesh2d_pattern(2, 2).csr_arrays()
        return native.refine_sweeper(np.zeros((4, 4)), np.zeros((4, 4)),
                                     assign, *csr)

    def test_assignment_outside_the_machine_is_rejected(self):
        for bad in (10**9, 4, -1):
            with pytest.raises(ValueError, match="assign"):
                self._bind(np.array([0, 1, 2, bad], dtype=np.int64))

    def test_perm_outside_the_tasks_is_rejected(self):
        sweeper = self._bind(np.arange(4, dtype=np.int64))
        for bad in (np.array([0, 1, 2, 10**9]), np.array([0, 1, -1, 2]),
                    np.arange(3), np.arange(5), np.array([0])):
            with pytest.raises(ValueError, match="perm"):
                sweeper.sweep(bad)
        assert sweeper.sweep(np.arange(4)) is False

    @settings(max_examples=60, deadline=None)
    @given(case=_bad_costs())
    def test_bad_cost_tables_are_refused_before_c(self, case):
        native = _native.load()
        if native is None:
            pytest.skip("no C compiler on this host")
        native = copy.copy(native)
        native._sweep = _no_c
        cost, dist, weights = case
        indptr, indices, _ = mesh2d_pattern(2, 2).csr_arrays()
        with pytest.raises(ValueError):
            native.refine_sweeper(cost, dist, np.arange(4, dtype=np.int64),
                                  indptr, indices, weights).sweep(
                                      np.arange(4))


TOPOCENT_COUNTERS = ("topocentlb.cycles", "topocentlb.key_updates",
                     "topocentlb.seed_placements")


def _topocent_counted(graph, topo, kernel):
    with obs.profiled() as prof:
        mapping = TopoCentLB(kernel=kernel).map(graph, topo)
    return mapping.assignment, {c: prof.counters.get(c, 0)
                                for c in TOPOCENT_COUNTERS}


def _assert_topocent_agrees(graph, topo):
    ref = _topocent_counted(graph, topo, "reference")
    vec = _topocent_counted(graph, topo, "vectorized")
    np.testing.assert_array_equal(vec[0], ref[0])
    assert vec[1] == ref[1]


@pytest.mark.skipif(not _native.available(),
                    reason="no C compiler: the production loop is the reference")
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(instance=_random_instances())
def test_topocent_random_instances_match_reference(instance):
    """Differential: TopoCentLB's compiled cycle loop returns ``_run``'s
    assignment and three counters — fractional and integer weights,
    isolated vertices (each one a seed), n < p."""
    _assert_topocent_agrees(*instance)


class TestTopoCentLBPaths:
    """TopoCentLB's compiled cycle loop, which pauses once a cycle for the
    BLAS cost row ``w @ G``."""

    @staticmethod
    def _native():
        native = _native.load()
        if native is None:
            pytest.skip("no C compiler on this host")
        return native

    @staticmethod
    def _tenths(graph, seed):
        """``graph`` with weights drawn from 0.1, ..., 0.9: on a torus,
        distinct processors then have costs that are equal in exact
        arithmetic and differ in the last bit in an order-dependent way,
        so the tie-break sees exactly how BLAS rounded each cost row."""
        u, v, w = graph.edge_arrays()
        w = np.random.default_rng(seed).integers(1, 10, u.size) / 10
        return TaskGraph(graph.num_tasks, zip(u.tolist(), v.tolist(),
                                              w.tolist()))

    @pytest.mark.parametrize("label,graph,topo", [
        *_path_instances(),
        ("lognormal", random_taskgraph(120, edge_prob=0.12, seed=2),
         Torus((8, 4, 4))),
        ("tenths-geometric", _tenths(geometric_taskgraph(128, radius=0.2,
                                                         seed=42), 1),
         Torus((8, 4, 4))),
        ("tenths-mesh2d", _tenths(mesh2d_pattern(8, 8), 2), Torus((8, 8))),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_topocent_bit_identical_with_equal_counters(self, label, graph,
                                                        topo):
        """Cost rows of up to dozens of products, whose BLAS rounding
        depends on the operands' layout; the tenths instances turn a
        rounding difference into a different placement."""
        self._native()
        _assert_topocent_agrees(graph, topo)

    def test_one_crossing_per_cycle_with_one_pointer(self, monkeypatch):
        """A run enters C once per cycle, plus once to finish the last, and
        every call of either cycle loop passes one pointer."""
        native = self._native()
        calls: Counter = Counter()

        def counted(name, fn):
            def call(*args):
                assert len(args) == 1
                calls[name] += 1
                return fn(*args)
            return call

        monkeypatch.setattr(native, "_topocent",
                            counted("topocent", native._topocent))
        monkeypatch.setattr(native, "_cycles", counted("topolb", native._cycles))
        graph = TaskGraph(12, [(0, 1, 2.0), (1, 2, 1.0), (4, 5, 3.0)])
        with obs.profiled() as prof:
            TopoCentLB().map(graph, Torus((4, 4)))
        assert calls == {"topocent": 13}
        assert prof.counters["topocentlb.seed_placements"] == 9
        TopoLB().map(graph, Torus((4, 4)))
        assert calls["topolb"] >= 1

    def test_bound_loop_checks_its_arguments(self):
        native = self._native()
        csr = mesh2d_pattern(2, 2).csr_arrays()

        def bind(dist=np.zeros((6, 6)), keys=np.zeros(4), csr=csr):
            return native.topocent_cycles(dist, *csr, keys)

        bind()
        for bad in ({"dist": np.zeros((6, 6), dtype=np.float32)},
                    {"dist": np.zeros((6, 5))}, {"dist": np.zeros((3, 3))},
                    {"dist": np.zeros((6, 6)).T[::1, ::-1]},
                    {"keys": np.zeros(4, dtype=np.int64)},
                    {"keys": np.zeros(5)}, {"keys": np.zeros(7)},
                    {"csr": (csr[0].astype(np.int32), *csr[1:])},
                    {"csr": (csr[0][:-1], *csr[1:])}):
            with pytest.raises(ValueError):
                bind(**bad)

    def test_a_seed_must_be_free(self):
        cycles = self._native().topocent_cycles(
            np.zeros((4, 4)), *mesh2d_pattern(2, 2).csr_arrays(),
            np.zeros(4))
        w, free = cycles()
        assert w is None and free.tolist() == [0, 1, 2, 3]
        for bad in (4, -1, 10**9):
            cycles.seed(bad)
            with pytest.raises(ValueError, match="free"):
                cycles()
        cycles.seed(2)
        w, g = cycles()
        assert g.shape == (1, 3) and g.flags.f_contiguous


def _compiled_runs(graph, topo, start):
    """Assignments and counters of every compiled mapper loop on ``topo``:
    TopoLB of each order, TopoCentLB, and RefineTopoLB from the assignment
    ``start``."""
    with obs.profiled() as prof:
        out = [TopoLB(order=order).map(graph, topo).assignment.tolist()
               for order in ORDERS]
        out.append(TopoCentLB().map(graph, topo).assignment.tolist())
        out.append(RefineTopoLB(seed=1).refine(
            Mapping(graph, topo, start)).assignment.tolist())
    return out, {name: value for name, value in prof.counters.items()
                 if not name.startswith("topology.")}


@pytest.mark.skipif(not _native.available(),
                    reason="no C compiler: the production loops are the "
                           "reference")
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(instance=_random_instances().filter(
    lambda instance: isinstance(instance[1], Torus)),
       start_seed=st.integers(0, 3))
def test_int32_table_and_its_float64_copy_agree(instance, start_seed):
    """Differential: a torus's compiled runs read its int32 table; the same
    metric as a ``MatrixTopology`` hands them a float64 table. Widening
    an int32 on load is exact, so every loop returns the same assignments
    and counters on both."""
    graph, torus = instance
    copy64 = MatrixTopology(torus.distance_matrix(np.float64))
    assert torus.distance_matrix().dtype == np.int32
    start = RandomMapper(seed=start_seed).map(graph, torus).assignment
    assert _compiled_runs(graph, torus, start) == _compiled_runs(
        graph, copy64, start)


@st.composite
def _grid_instances(draw):
    """(graph, topology, start): n <= p tasks, n < p half the time, with
    integer or fractional weights, on a mesh or torus of one to three axes
    of sizes 1, 2, 3 and 5, or on a ``coarsen_machine`` level of
    ``torus:4x3x5`` (all eight levels, 60 processors down to one), and a
    random start for RefineTopoLB."""
    if draw(st.booleans()):
        shape = draw(st.lists(st.sampled_from([1, 2, 3, 5]), min_size=1,
                              max_size=3))
        topo = draw(st.sampled_from([Mesh, Torus]))(shape)
    else:
        topo, virtual = Torus((4, 3, 5)), None
        for _ in range(draw(st.integers(0, 7))):
            topo, _, virtual = coarsen_machine(topo, shape=virtual)
    p = topo.num_nodes
    n = draw(st.integers(1, p)) if draw(st.booleans()) else p
    weight = (st.integers(0, 3).map(float) if draw(st.booleans())
              else st.floats(0.0, 8.0))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)),
                          max_size=3 * n))
    graph = TaskGraph(n, [(a, b, draw(weight)) for a, b in pairs if a != b])
    start = RandomMapper(seed=draw(st.integers(0, 3))).map(graph, topo)
    return graph, topo, start.assignment


def _kernel_runs(graph, topo, start, dist, selection):
    """Everything the compiled mapper loops compute on ``topo`` with
    ``dist`` as the machine's distances: TopoLB's assignment per order,
    TopoCentLB's and RefineTopoLB's, their counters, the refine cost table,
    and after each of up to five incremental sweeps the sweeper's
    assignment, cost table, best-swap caches and statistics."""
    with mock.patch.object(MappingContext, "kernel_distances",
                           lambda _self: dist), obs.profiled() as prof:
        out = [TopoLB(order=order, selection=selection).map(
            graph, topo).assignment.tolist() for order in ORDERS]
        out.append(TopoCentLB().map(graph, topo).assignment.tolist())
        out.append(RefineTopoLB(seed=1).refine(
            Mapping(graph, topo, start)).assignment.tolist())
    out.append({name: value for name, value in prof.counters.items()
                if not name.startswith("topology.")})
    native, csr = _native.load(), graph.csr_arrays()
    assign = start.copy()
    cost = native.refine_cost_table(*csr, assign, dist)
    out.append(cost.tolist())
    sweeper = native.refine_sweeper(cost, dist, assign, *csr)
    rng = np.random.default_rng(0)
    for _sweep in range(5):
        swapped = sweeper.sweep(rng.permutation(graph.num_tasks))
        out.append((assign.tolist(), cost.tolist(),
                    [a.tolist() for a in sweeper.caches],
                    sweeper.stats.tolist()))
        if not swapped:
            break
    return out


@pytest.mark.skipif(not _native.available(),
                    reason="no C compiler: the production loops are the "
                           "reference")
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(instance=_grid_instances(), selection=st.sampled_from(SELECTIONS))
def test_grid_kind_and_int32_table_agree(instance, selection):
    """Differential: on a mesh, a torus and every grouped level of one, the
    compiled loops read the per-axis tables (the grid kind) or the same
    machine's int32 table, and return equal assignments, counters, cost
    tables and sweeper states. Integer distances summed per axis are the
    table's entries exactly."""
    graph, topo, start = instance
    axes = topo.axis_distances()
    assert isinstance(axes, AxisDistances)
    table = topo.distance_matrix()
    assert table.dtype == np.int32
    assert _kernel_runs(graph, topo, start, axes, selection) == _kernel_runs(
        graph, topo, start, table, selection)


def _no_c(*_args):
    raise AssertionError("a pointer reached C")


@st.composite
def _bad_tables(draw):
    """(p, table): a distance table for p processors that every entry
    point must refuse: a wrong dtype, a strided or transposed view, or a
    wrong shape."""
    p = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(("dtype", "strided", "transposed", "shape")))
    good = np.arange(p * p).reshape(p, p)
    if kind == "dtype":
        return p, good.astype(draw(st.sampled_from(
            [np.int64, np.float32, np.int16, np.uint32, np.float16,
             np.bool_])))
    dtype = draw(st.sampled_from([np.int32, np.float64]))
    if kind == "strided":
        return p, np.zeros((p, 2 * p), dtype)[:, ::2]
    if kind == "transposed":
        return p, good.astype(dtype).T
    shape = draw(st.sampled_from([(p, p + 1), (p + 1, p), (p * p,),
                                  (p, p, 1), (1, p * p), ()]))
    return p, np.zeros(shape, dtype)


@st.composite
def _bad_grids(draw):
    """(p, axes): a grid description for p processors that every entry
    point must refuse: an axis table of a wrong dtype or not square, a
    coordinate outside its axis, extents whose product is not p, or a
    strided or read-only coordinate row."""
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    good = Torus(shape).axis_distances()
    p = good.num_nodes
    tables, coords = list(good.tables), good.coords.copy()
    k = draw(st.integers(0, len(shape) - 1))
    kind = draw(st.sampled_from(("dtype", "square", "coordinate", "volume",
                                 "strided", "read-only")))
    if kind == "dtype":
        tables[k] = tables[k].astype(draw(st.sampled_from(
            [np.int64, np.float64, np.int16, np.uint32, np.float32])))
    elif kind == "square":
        s = shape[k]
        tables[k] = np.zeros(draw(st.sampled_from(
            [(s, s + 1), (s + 1, s), (s * s,), (s, s, 1)])), np.int32)
    elif kind == "coordinate":
        coords[k, draw(st.integers(0, p - 1))] = draw(st.sampled_from(
            [-1, shape[k], shape[k] + 7, 2**31 - 1]))
    elif kind == "volume":
        grow = shape[k] == 1 or draw(st.booleans())
        shape = shape[:k] + (shape[k] + (1 if grow else -1),) + shape[k + 1:]
    elif kind == "strided":
        wide = np.zeros((len(shape), 2 * p), np.int32)
        wide[:, ::2] = coords
        coords = wide[:, ::2]
    else:
        coords.flags.writeable = False
    return p, AxisDistances(shape, tables, coords)


def _table_entry_points(native, p, dist):
    """One bind (or call) of each entry point that takes a ``p x p``
    distance table, on a path graph of ``p - 1`` tasks."""
    n = p - 1
    csr = TaskGraph(n, [(i, i + 1, 1.0) for i in range(n - 1)]).csr_arrays()
    assign = np.arange(n, dtype=np.int64)
    calls = [
        lambda: native.refine_cost_table(*csr, assign, dist),
        lambda: native.refine_sweeper(np.zeros((n, p)), dist, assign.copy(),
                                      *csr),
        lambda: native.topocent_cycles(dist, *csr, np.zeros(n)),
    ]
    for order in (1, 2, 3):
        calls.append(lambda order=order: native.topolb_cycles(
            np.zeros((n, p)), dist, np.zeros(p), *csr, order, "gain",
            np.zeros(n), np.ones(p), 2, np.ones(n)))
    return calls


class TestTableArguments:
    """Every entry point that reads a machine's distances takes its int32
    or float64 table or a grid's per-axis description and refuses anything
    else with ``ValueError`` before any pointer reaches C."""

    @staticmethod
    def _guarded():
        native = _native.load()
        if native is None:
            pytest.skip("no C compiler on this host")
        native = copy.copy(native)
        native._cost_table = native._sweep = _no_c
        native._cycles = native._topocent = _no_c
        return native

    @pytest.mark.parametrize("dtype", [np.int32, np.float64])
    def test_int32_and_float64_tables_bind(self, dtype):
        native = _native.load()
        if native is None:
            pytest.skip("no C compiler on this host")
        dist = Torus((5,)).distance_matrix(dtype)
        for call in _table_entry_points(native, 5, dist):
            call()

    @settings(max_examples=60, deadline=None)
    @given(case=_bad_tables())
    def test_bad_tables_are_refused_before_c(self, case):
        p, dist = case
        for call in _table_entry_points(self._guarded(), p, dist):
            with pytest.raises(ValueError, match="dist"):
                call()

    @pytest.mark.parametrize("machine", [Torus((5,)), Mesh((3, 2)),
                                         coarsen_machine(Torus((3, 2)))[0]],
                             ids=lambda t: t.name)
    def test_grid_kind_binds(self, machine):
        native = _native.load()
        if native is None:
            pytest.skip("no C compiler on this host")
        axes = machine.axis_distances()
        for call in _table_entry_points(native, machine.num_nodes, axes):
            call()

    @settings(max_examples=60, deadline=None)
    @given(case=_bad_grids())
    def test_bad_grids_are_refused_before_c(self, case):
        p, axes = case
        assume(p > 1)  # the entry points' path graph needs a task
        for call in _table_entry_points(self._guarded(), p, axes):
            with pytest.raises(ValueError, match="dist"):
                call()


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
        assert reference("TopoCentLB")._mapper.kernel == "reference"
