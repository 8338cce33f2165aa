"""Ablation: the objective function itself — cardinality vs hop-bytes.

Bokhari (1981) optimized *cardinality* (edges landing on machine links);
the paper optimizes *hop-bytes*. On uniform-weight stencils the two agree;
on weight-skewed instances the cardinality objective is blind to where the
heavy bytes go — which is precisely the historical motivation for
hop-bytes. This bench measures both metrics under both optimizers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mapping import (
    BokhariMapper,
    RandomMapper,
    TopoLB,
    cardinality,
)
from repro.taskgraph import TaskGraph, random_taskgraph
from repro.topology import Torus


def _skewed_instance():
    """Geometric weights: a few pairs dominate the traffic."""
    rng = np.random.default_rng(7)
    g = random_taskgraph(36, edge_prob=0.15, seed=7)
    edges = [(a, b, w * float(rng.choice([1, 1, 1, 50]))) for a, b, w in g.edges()]
    return TaskGraph(36, edges), Torus((6, 6))


@pytest.mark.parametrize("mapper_name", ["bokhari", "topolb"])
def test_objective_choice(benchmark, mapper_name):
    graph, topo = _skewed_instance()
    mapper = BokhariMapper(seed=0) if mapper_name == "bokhari" else TopoLB()
    mapping = benchmark.pedantic(mapper.map, args=(graph, topo),
                                 rounds=1, iterations=1)
    print(f"\n{mapper_name}: hop-bytes={mapping.hop_bytes:.4g}, "
          f"cardinality={cardinality(mapping)}/{graph.num_edges}")


def test_hop_bytes_objective_wins_on_skewed_weights(run_once):
    def measure():
        graph, topo = _skewed_instance()
        out = {}
        for name, mapper in (("bokhari", BokhariMapper(seed=0)),
                             ("topolb", TopoLB()),
                             ("random", RandomMapper(seed=0))):
            mapping = mapper.map(graph, topo)
            out[name] = (mapping.hop_bytes, cardinality(mapping))
        return out

    out = run_once(measure)
    print("\n" + "\n".join(f"{k}: HB={hb:.4g} card={c}" for k, (hb, c) in out.items()))
    # Both structured mappers beat random on their own metric...
    assert out["topolb"][0] < out["random"][0]
    assert out["bokhari"][1] > out["random"][1]
    # ...but hop-bytes is what contention follows, and TopoLB wins it.
    assert out["topolb"][0] < out["bokhari"][0]

