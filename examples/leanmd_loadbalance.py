#!/usr/bin/env python
"""LeanMD-style load balancing: the full Charm++ workflow, end to end.

Reproduces the Section 5.2.3 setup in miniature:

1. generate a synthetic LeanMD chare graph (3240 + p objects: cells,
   self-computes, pairwise-force computes, per-processor managers),
2. capture it in a load-balancing database and *dump* it to disk
   (the ``+LBDump`` analog),
3. *replay* the identical scenario under several strategies
   (the ``+LBSim`` analog) on a 2D torus: one engine request per strategy
   with the graph spec ``lbdump:<path>``, as ``repro-map`` and the
   service take it,
4. report group-level hops-per-byte — the paper's Figure 5 metric —
   including the RefineTopoLB post-pass.

Run:  python examples/leanmd_loadbalance.py [num_processors]
"""

import sys
import tempfile
from pathlib import Path

from repro import Torus, leanmd_taskgraph
from repro.engine import MappingEngine, MappingRequest
from repro.experiments.common import near_square_factors
from repro.runtime import LBDatabase


def main(p: int = 64) -> None:
    shape = near_square_factors(p)
    topology = Torus(shape)
    graph = leanmd_taskgraph(p, seed=0)
    print(f"LeanMD scenario: {graph.num_tasks} chares "
          f"(virtualization ratio {graph.num_tasks / p:.1f}) "
          f"on {topology.name}\n")

    # Capture and dump the load scenario, then replay from the file —
    # exactly how one compares strategies on identical load data.
    with tempfile.TemporaryDirectory() as tmp:
        dump = Path(tmp) / "leanmd_step0.json"
        LBDatabase.from_taskgraph(graph).dump(dump)
        engine = MappingEngine()
        reports = [
            {"strategy": name, **engine.run(MappingRequest(
                graph=f"lbdump:{dump}", topology=topology, mapper=name,
                seed=0,
            )).metrics}
            for name in ["GreedyLB", "RandomLB", "TopoCentLB", "TopoLB",
                         "RefineTopoLB"]
        ]

    print(f"{'strategy':<14} {'group hops/byte':>16} {'imbalance':>10} "
          f"{'max dilation':>13}")
    print("-" * 56)
    for r in reports:
        ghpb = r.get("group_hops_per_byte", float("nan"))
        print(f"{r['strategy']:<14} {ghpb:>16.3f} "
              f"{r['load_imbalance']:>10.3f} {r['max_dilation']:>13.0f}")

    rand = next(r for r in reports if r["strategy"] == "RandomLB")
    topo = next(r for r in reports if r["strategy"] == "TopoLB")
    refined = next(r for r in reports if r["strategy"] == "RefineTopoLB")
    base = rand["group_hops_per_byte"]
    print("-" * 56)
    print(f"TopoLB reduction over random placement: "
          f"{100 * (1 - topo['group_hops_per_byte'] / base):.1f}%")
    print(f"with RefineTopoLB:                      "
          f"{100 * (1 - refined['group_hops_per_byte'] / base):.1f}%")
    print("\n(paper, large p: ~34% for TopoLB, ~12% more from the refiner)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 64)
