"""The compiled kernels give the same results on every instruction set.

Production builds target the host (``-march=native``), so a loop the
compiler vectorizes runs as many lanes as the host's widest vector unit
(third-order TopoLB's row pass as 8, 4 or 2 doubles). No reduction is
reassociated (no ``-ffast-math``), so no result may depend on that width.
This module builds the kernels a second time at baseline x86-64 into a
temporary directory and runs every compiled mapper loop on both builds:
TopoLB of each order under each selection rule, TopoCentLB and
RefineTopoLB, which must return equal assignments and counters. The
instances have more processors than one vector block of the widest build,
and a count that is no multiple of it, so each row pass ends in its
scalar tail; some have fewer tasks than processors, and their distances
tie (integer tori and meshes, metrics quantized to quarters). Tori, meshes
and grouped torus levels hand the kernels their per-axis tables. Their
weights are integers or quarters, so RefineTopoLB sweeps both an int32 and
a float64 cost table on both builds.
"""

from __future__ import annotations

import platform

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.mapping import RandomMapper, RefineTopoLB, TopoCentLB, TopoLB
from repro.mapping import _native
from repro.mapping.estimation import EstimatorOrder
from repro.taskgraph.graph import TaskGraph
from repro.topology import MatrixTopology, Mesh, Torus, coarsen_machine

#: Grids of 35, 45, 54, 80 and 105 processors: none a multiple of 32.
SHAPES = [(5, 7), (3, 3, 5), (6, 9), (4, 4, 5), (7, 5, 3)]


@pytest.fixture(scope="module")
def builds(tmp_path_factory):
    """(native, baseline): the production build and one at -march=x86-64."""
    outdir = tmp_path_factory.mktemp("x86-64")
    return _native.load(), _native._build(("-march=x86-64",), str(outdir))


@st.composite
def _instances(draw):
    """(graph, topology, start): n <= p tasks with integer edge weights, or
    on half the integer machines quarter-quantized ones, on a torus, a
    mesh, a grouped level of ``torus:6x6x5`` or a quarter-quantized
    explicit metric, 33 <= p <= 105 and p % 32 != 0, and a random start
    for RefineTopoLB."""
    machine = draw(st.sampled_from(("torus", "mesh", "level", "matrix")))
    if machine == "torus":
        topo = Torus(draw(st.sampled_from(SHAPES)))
    elif machine == "mesh":
        topo = Mesh(draw(st.sampled_from(SHAPES)))
    elif machine == "level":
        topo = coarsen_machine(Torus((6, 6, 5)))[0]  # 90 processors
    else:
        p = draw(st.integers(33, 80).filter(lambda p: p % 32))
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        mat = np.round(rng.uniform(0.25, 4.0, (p, p)) * 4) / 4
        mat = (mat + mat.T) / 2
        np.fill_diagonal(mat, 0.0)
        topo = MatrixTopology(mat)
    p = topo.num_nodes
    n = draw(st.integers(p // 2, p)) if draw(st.booleans()) else p
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    u, v = rng.integers(0, n, size=(2, 3 * n))
    keep = u != v
    weights = rng.integers(1, 4, keep.sum()).astype(float)
    if machine != "matrix" and draw(st.booleans()):
        weights /= 4  # fractional: a float64 cost table
    graph = TaskGraph(n, list(zip(u[keep].tolist(), v[keep].tolist(),
                                  weights.tolist())))
    start = RandomMapper(seed=draw(st.integers(0, 3))).map(graph, topo)
    return graph, topo, start


def _runs(kernels, graph, topo, start):
    """Assignments and counters of every compiled mapper loop, with
    ``kernels`` as the process's compiled kernels."""
    saved, _native._cached = _native._cached, kernels
    try:
        out = []
        with obs.profiled() as prof:
            for order in EstimatorOrder:
                for selection in ("gain", "max_cost", "volume"):
                    out.append(TopoLB(order=order, selection=selection)
                               .map(graph, topo).assignment.tolist())
            out.append(TopoCentLB().map(graph, topo).assignment.tolist())
            out.append(RefineTopoLB(seed=1).refine(start)
                       .assignment.tolist())
    finally:
        _native._cached = saved
    return out, {name: value for name, value in prof.counters.items()
                 if not name.startswith("topology.")}


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64")
    or not _native.available(), reason="needs x86-64 and a C compiler")
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(instance=_instances())
def test_native_and_baseline_builds_agree(builds, instance):
    native, baseline = builds
    assert _runs(native, *instance) == _runs(baseline, *instance)


class TestBuildFlags:
    """The build asks for ``-march=native`` first and builds once more
    without it when the compiler refuses; the cached object's name holds
    the host's instruction set. ``_compile`` is replaced by one that
    records its arguments and fails, so nothing is compiled."""

    @staticmethod
    def _attempts(monkeypatch, tmp_path) -> list:
        if _native._compiler() is None:
            pytest.skip("no C compiler on this host")
        calls = []

        def refuse(cc, flags, so_path):
            calls.append((flags, so_path))
            raise RuntimeError("cc refused")

        monkeypatch.setattr(_native, "_compile", refuse)
        with pytest.raises(RuntimeError, match="cc refused"):
            _native._build(outdir=str(tmp_path))
        return calls

    def test_a_refused_native_flag_builds_without_it(self, monkeypatch,
                                                     tmp_path):
        flags = [f for f, _ in self._attempts(monkeypatch, tmp_path)]
        assert flags == [(*_native._CFLAGS, "-march=native"),
                         _native._CFLAGS]

    def test_the_cache_key_holds_the_host_isa(self, monkeypatch, tmp_path):
        paths = []
        for isa in ("x86_64 sse2 avx2", "x86_64 sse2 avx2 avx512f"):
            monkeypatch.setattr(_native, "_host_isa", lambda isa=isa: isa)
            paths += [p for _, p in self._attempts(monkeypatch, tmp_path)]
        assert paths[0] == paths[1] != paths[2] == paths[3]
