"""Tail-latency benchmark: topology-aware mapping under finite buffers.

The robustness counterpart of the Figure 7/8 contention story: at equal
offered load (same Jacobi workload, same finite per-link buffers, same
retransmit schedule) a hop-byte-reducing mapping must beat a random one
where overload actually hurts — the p999 delivery latency and the buffer
drop count — not just on the mean. The buffered DES is seeded-deterministic,
so every number is pinned exactly in
``BENCH_netsim_tail_torus8x8.json``; re-record with
``REPRO_RECORD_BENCH=1`` after an intentional model change.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.engine import mapper_from_spec
from repro.mapping.base import Mapping
from repro.netsim.appsim import IterativeApplication
from repro.netsim.simulator import NetworkSimulator
from repro.netsim.stats import tail_summary
from repro.taskgraph import mesh2d_pattern
from repro.topology import Torus

SIDE = 8
ITERATIONS = 3
ARTIFACT = Path(__file__).parent / "BENCH_netsim_tail_torus8x8.json"

SIM_KNOBS = dict(
    bandwidth=100.0,
    buffer_bytes=8192.0,
    max_retries=64,
    retry_delay=2.0,
    retry_jitter=0.25,
    seed=0,
    unroutable_policy="drop",
    stall_window=1e6,
)


def _replay(mapping) -> dict:
    sim = NetworkSimulator(mapping.topology, **SIM_KNOBS)
    result = IterativeApplication(mapping, sim, iterations=ITERATIONS).run()
    tail = tail_summary(sim, iteration_times=result.iteration_times)
    return {
        "p50_us": tail["latency"]["p50"],
        "p99_us": tail["latency"]["p99"],
        "p999_us": tail["latency"]["p999"],
        "drops": tail["buffer_drops"],
        "retransmits": tail["retransmits"],
        "makespan_us": result.total_time,
    }


def test_tail_latency_topo_vs_random(benchmark):
    graph = mesh2d_pattern(SIDE, SIDE, message_bytes=4096.0)
    topo = Torus((SIDE, SIDE))
    rows = {}
    for name, spec in (("topolb", "topolb"),
                       ("refinetopolb", "refine:base=topolb")):
        rows[name] = _replay(mapper_from_spec(spec, seed=0).map(graph, topo))
    rng = np.random.default_rng(23)
    rows["random"] = _replay(
        Mapping(graph, topo, rng.permutation(topo.num_nodes))
    )
    benchmark.pedantic(
        _replay, args=(mapper_from_spec("topolb", seed=0).map(graph, topo),),
        rounds=1, iterations=1,
    )

    # The headline claims: equal offered load, topology-aware wins the tail
    # and the drop count.
    for name in ("topolb", "refinetopolb"):
        assert rows[name]["p999_us"] < rows["random"]["p999_us"], (
            f"{name} p999 {rows[name]['p999_us']} not below random "
            f"{rows['random']['p999_us']}"
        )
        assert rows[name]["drops"] < rows["random"]["drops"], (
            f"{name} drops {rows[name]['drops']} not below random "
            f"{rows['random']['drops']}"
        )

    record = {
        "format": "repro-bench-v1",
        "taskgraph": f"mesh2d:{SIDE}x{SIDE};bytes=4096",
        "topology": f"torus:{SIDE}x{SIDE}",
        "iterations": ITERATIONS,
        "sim_knobs": {k: v for k, v in SIM_KNOBS.items()},
        "mappers": rows,
    }
    if os.environ.get("REPRO_RECORD_BENCH"):
        ARTIFACT.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    pinned = json.loads(ARTIFACT.read_text())
    for name, row in rows.items():
        for key, value in row.items():
            assert value == pinned["mappers"][name][key], (
                f"{name}.{key}: got {value!r}, artifact pins "
                f"{pinned['mappers'][name][key]!r} — re-record with "
                "REPRO_RECORD_BENCH=1 if the change is intentional"
            )
