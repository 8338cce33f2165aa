"""Supplementary experiments beyond the paper's artifacts.

Two studies an open-source release of this system should ship:

* ``zoo``    — the full mapper family compared across machine classes on the
  same workload (hops-per-byte matrix). Extends Figures 1–4 with the
  related-work mappers (annealing, recursive embedding, linear ordering,
  hybrid) and the non-grid machines from the introduction's motivation.
* ``bounds`` — certified optimality gaps: for each instance, hop-bytes of
  each mapper divided by the degree-matching lower bound
  (:mod:`repro.mapping.bounds`); 1.0 means provably optimal.
"""

from __future__ import annotations

from repro.engine import mapper_from_spec
from repro.experiments.common import ExperimentResult
from repro.mapping.bounds import hop_bytes_lower_bound
from repro.taskgraph import leanmd_taskgraph, mesh2d_pattern, random_taskgraph
from repro.taskgraph.coalesce import coalesce
from repro.partition.multilevel import MultilevelPartitioner
from repro.topology import FatTree, Hypercube, Mesh, Torus

__all__ = [
    "run_zoo",
    "run_bounds",
    "run_flowcheck",
    "run_tailcheck",
]


def _mappers(seed: int, quick: bool):
    steps = 20_000 if quick else 200_000
    specs = [
        ("random", "random"),
        ("linear", "linear"),
        ("recursive", "recursive"),
        ("topocentlb", "topocentlb"),
        ("hybrid", "hybrid:blocks=4"),
        ("topolb", "topolb"),
        ("topolb+ref", "refine:base=topolb"),
        ("anneal", f"anneal:steps={steps}"),
    ]
    return [(name, mapper_from_spec(spec, seed)) for name, spec in specs]


def run_zoo(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Hops-per-byte of every mapper on every machine class (64 nodes)."""
    machines = [
        ("torus 8x8", Torus((8, 8))),
        ("mesh 8x8", Mesh((8, 8))),
        ("torus 4x4x4", Torus((4, 4, 4))),
        ("hypercube 6", Hypercube(6)),
        ("fattree 4x3", FatTree(4, 3)),
    ]
    graph = mesh2d_pattern(8, 8, message_bytes=1024)
    rows = []
    for machine_name, topo in machines:
        row: dict = {"machine": machine_name}
        for mapper_name, mapper in _mappers(seed, quick):
            row[mapper_name] = mapper.map(graph, topo).hops_per_byte
        rows.append(row)
    return ExperimentResult(
        "zoo",
        "2D Jacobi (8x8) mapped by every strategy onto every machine class",
        rows,
        notes="grids reward topology-awareness most (TopoLB 4x below random "
        "on the torus); the fat-tree's flat metric compresses every mapper's "
        "advantage to ~1.5x — the introduction's motivation, quantified",
    )


def run_bounds(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Certified optimality gaps (hop-bytes / lower bound) per instance."""
    instances = [
        ("jacobi 8x8 / torus 8x8", mesh2d_pattern(8, 8), Torus((8, 8))),
        ("jacobi 8x8 / torus 4x4x4", mesh2d_pattern(8, 8), Torus((4, 4, 4))),
        ("jacobi 8x8 / mesh 8x8", mesh2d_pattern(8, 8), Mesh((8, 8))),
        ("random p=64 / torus 8x8",
         random_taskgraph(64, edge_prob=0.1, seed=seed), Torus((8, 8))),
    ]
    if not quick:
        graph = leanmd_taskgraph(64, seed=seed)
        groups = MultilevelPartitioner(seed=seed).partition(graph, 64)
        instances.append(
            ("leanmd quotient p=64 / torus 8x8",
             coalesce(graph, groups, 64), Torus((8, 8)))
        )
    rows = []
    for name, graph, topo in instances:
        bound = hop_bytes_lower_bound(graph, topo)
        row: dict = {"instance": name}
        for mapper_name, mapper in (
            ("random", mapper_from_spec("random", seed)),
            ("topocentlb", mapper_from_spec("topocentlb", seed)),
            ("topolb", mapper_from_spec("topolb", seed)),
            ("topolb+ref", mapper_from_spec("refine:base=topolb", seed)),
        ):
            hb = mapper.map(graph, topo).hop_bytes
            row[f"{mapper_name}_gap"] = hb / bound if bound else float("inf")
        rows.append(row)
    return ExperimentResult(
        "bounds",
        "certified optimality gap (hop-bytes / degree-matching lower bound)",
        rows,
        notes="gap 1.0 = provably optimal; the stencil-on-torus instances "
        "certify TopoLB exactly optimal, not merely better than baselines",
    )


def run_flowcheck(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Flow-estimator fidelity vs the DES on the small-machine suite.

    For each instance, a pool of mappings (the mapper family plus random
    permutations) is evaluated by both the per-packet DES and the flow
    estimator; the row reports the Spearman rank correlation of the two
    makespans, the worst bound/DES ratio (must stay <= 1: the flow makespan
    is a provable lower bound), and the speedup. This is the validity
    evidence behind the engine's ``flow_*`` metrics
    (``MappingRequest.flow_metrics``).
    """
    import time

    import numpy as np

    from repro.mapping.base import Mapping as TaskMapping
    from repro.netsim.appsim import replay_closed_loop
    from repro.netsim.flow import flow_evaluate, spearman
    from repro.taskgraph.patterns import mesh3d_pattern

    iterations = 4 if quick else 16
    randoms = 5 if quick else 12
    instances = [
        ("jacobi 6x6 / torus 6x6",
         mesh2d_pattern(6, 6, message_bytes=512.0), Torus((6, 6))),
        ("jacobi 8x8 / torus 4x4x4",
         mesh2d_pattern(8, 8, message_bytes=512.0), Torus((4, 4, 4))),
        ("stencil 4^3 / mesh 4x4x4",
         mesh3d_pattern(4, 4, 4, message_bytes=512.0), Mesh((4, 4, 4))),
        ("random p=64 / torus 8x8",
         random_taskgraph(64, edge_prob=0.1, seed=seed), Torus((8, 8))),
    ]
    rows = []
    for name, graph, topo in instances:
        rng = np.random.default_rng(seed + 17)
        mappings = [
            mapper_from_spec("topolb", seed).map(graph, topo),
            mapper_from_spec("refine:base=topolb", seed).map(graph, topo),
            mapper_from_spec("topocentlb", seed).map(graph, topo),
        ]
        mappings += [
            TaskMapping(graph, topo,
                        rng.permutation(topo.num_nodes)[:graph.num_tasks])
            for _ in range(randoms)
        ]
        des_times, flow_times = [], []
        des_wall = flow_wall = 0.0
        for mapping in mappings:
            t0 = time.perf_counter()
            _, res = replay_closed_loop(mapping, iterations)
            des_wall += time.perf_counter() - t0
            t0 = time.perf_counter()
            flow = flow_evaluate(mapping, iterations=iterations)
            flow_wall += time.perf_counter() - t0
            des_times.append(res.total_time)
            flow_times.append(flow.makespan_lower_bound)
        ratios = np.asarray(flow_times) / np.asarray(des_times)
        rows.append({
            "instance": name,
            "mappings": len(mappings),
            "rank_corr": spearman(flow_times, des_times),
            "max_bound_ratio": float(ratios.max()),
            "speedup": des_wall / flow_wall if flow_wall else float("inf"),
        })
    return ExperimentResult(
        "flowcheck",
        "flow-level estimator vs DES (rank correlation, bound tightness)",
        rows,
        notes="rank_corr >= 0.9 and max_bound_ratio <= 1.0 are the validity "
        "envelope of the flow_metrics estimator; see docs/ARCHITECTURE.md",
    )


def run_tailcheck(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Tail latencies and drops under finite buffers, mapper vs random.

    The robustness-grade version of the paper's Figure 7/8 story: at equal
    offered load (same Jacobi workload, same iteration count, same finite
    per-link buffers) a hop-byte-reducing mapping should not just lower the
    *mean* latency but compress the *tail* (p99/p999) and suffer fewer
    buffer drops — because fewer link crossings mean fewer chances to meet
    a full buffer. Each row replays one mapping through the buffered DES
    (tail-drop + persistent seeded retransmit) and reports the percentile
    latencies, drop/retransmit counts, and barrier-iteration p99.
    """
    import numpy as np

    from repro.mapping.base import Mapping as TaskMapping
    from repro.netsim.appsim import replay_closed_loop
    from repro.netsim.stats import tail_summary

    iterations = 3 if quick else 10
    randoms = 2 if quick else 4
    instances = [
        ("jacobi 8x8 / torus 8x8",
         mesh2d_pattern(8, 8, message_bytes=4096.0), Torus((8, 8))),
        ("jacobi 6x6 / mesh 6x6",
         mesh2d_pattern(6, 6, message_bytes=4096.0), Mesh((6, 6))),
    ]
    rows = []
    for name, graph, topo in instances:
        rng = np.random.default_rng(seed + 23)
        candidates = [
            ("topolb", mapper_from_spec("topolb", seed).map(graph, topo)),
            ("topolb+ref",
             mapper_from_spec("refine:base=topolb", seed).map(graph, topo)),
        ]
        candidates += [
            (f"random{i}",
             TaskMapping(graph, topo,
                         rng.permutation(topo.num_nodes)[:graph.num_tasks]))
            for i in range(randoms)
        ]
        for mapper_name, mapping in candidates:
            # Tight buffers + slow links: the overload regime. The buffered
            # replay retransmits persistently, so "drops" reports tail-drop
            # events at full buffers, not lost messages.
            sim, result = replay_closed_loop(
                mapping,
                iterations,
                bandwidth=100.0,
                buffer_bytes=8192.0,
                retry_delay=2.0,
                retry_jitter=0.25,
                seed=seed,
                stall_window=1e6,
            )
            tail = tail_summary(sim,
                                iteration_times=result.iteration_times)
            rows.append({
                "instance": name,
                "mapper": mapper_name,
                "hops_per_byte": mapping.hops_per_byte,
                "p50_us": tail["latency"]["p50"],
                "p99_us": tail["latency"]["p99"],
                "p999_us": tail["latency"]["p999"],
                "drops": tail["buffer_drops"],
                "retransmits": tail["retransmits"],
                "iter_p99_us": tail["iterations"]["p99"],
                "makespan_us": result.total_time,
            })
    return ExperimentResult(
        "tailcheck",
        "tail latency (p50/p99/p999) and drops under finite buffers, "
        "topology-aware vs random at equal offered load",
        rows,
        notes="topology-aware mappings compress the latency tail and drop "
        "fewer messages than random at the same offered load — contention "
        "hurts non-gracefully once buffers are finite; see "
        "docs/ROBUSTNESS.md",
    )
