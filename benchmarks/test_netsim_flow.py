"""Flow estimator at machine scale: contention numbers the DES can't reach.

The per-packet DES walks ~660k directed messages hop by hop through an
event queue per iteration — minutes at the 10^5-task scale the multilevel
mapper targets. The flow estimator must evaluate that same instance (48^3
Jacobi stencil multilevel-mapped onto a 16x16x16 torus) in **under one
second** (locally ~30 ms), or the engine's ``flow_*`` metrics lose their
reason to exist. Contention results are deterministic and pinned in
``BENCH_netsim_flow_torus16x16x16.json``; re-record with
``REPRO_RECORD_BENCH=1`` after an intentional change.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.engine import mapper_from_spec
from repro.netsim.flow import flow_evaluate
from repro.taskgraph import mesh3d_pattern
from repro.topology import Torus

SIDE = 48  # 110592 tasks, matching the multilevel scale bench
SHAPE = (16, 16, 16)
STRATEGY = "multilevel:inner=topolb;levels=auto"
TIME_BUDGET_S = 1.0
ARTIFACT = Path(__file__).parent / "BENCH_netsim_flow_torus16x16x16.json"


@pytest.fixture(scope="module")
def mapping():
    graph = mesh3d_pattern(SIDE, SIDE, SIDE, message_bytes=1024)
    return mapper_from_spec(STRATEGY, seed=0).map(graph, Torus(SHAPE))


def test_flow_evaluate_large_machine(benchmark, mapping):
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        flow = flow_evaluate(mapping, iterations=4)
        best = min(best, time.perf_counter() - t0)
    benchmark.pedantic(flow_evaluate, args=(mapping,),
                       kwargs={"iterations": 4}, rounds=1, iterations=1)

    assert best < TIME_BUDGET_S, (
        f"flow_evaluate took {best:.2f}s on {mapping.graph.num_tasks} tasks "
        f"/ {mapping.topology.num_nodes} processors (budget {TIME_BUDGET_S}s)"
    )
    # Sanity anchors: conservation against the hop-bytes metric, and a used
    # fraction of the 24576 directed torus links.
    assert flow.total_bytes == pytest.approx(4 * mapping.hop_bytes)
    assert 0 < flow.links_used <= 6 * mapping.topology.num_nodes

    record = {
        "format": "repro-bench-v1",
        "taskgraph": f"mesh3d:{SIDE}x{SIDE}x{SIDE};bytes=1024",
        "topology": "torus:16x16x16",
        "strategy": STRATEGY,
        "seed": 0,
        "iterations": 4,
        "num_tasks": mapping.graph.num_tasks,
        "num_processors": mapping.topology.num_nodes,
        "links_used": flow.links_used,
        "max_link_bytes": flow.max_link_bytes,
        "total_bytes": flow.total_bytes,
        "makespan_lower_bound_us": flow.makespan_lower_bound,
        "elapsed_seconds": round(best, 4),
        "time_budget_seconds": TIME_BUDGET_S,
    }
    if os.environ.get("REPRO_RECORD_BENCH"):
        ARTIFACT.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    pinned = json.loads(ARTIFACT.read_text())
    for key in ("num_tasks", "num_processors", "links_used",
                "max_link_bytes", "total_bytes", "makespan_lower_bound_us"):
        assert record[key] == pinned[key], (
            f"{key}: got {record[key]!r}, artifact pins {pinned[key]!r} — "
            "re-record with REPRO_RECORD_BENCH=1 if the change is intentional"
        )
