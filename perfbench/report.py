"""Metric definitions and their computation from a run's windows and spans.

``END_TO_END`` and ``PER_LAYER`` are the metric sets named in
``BENCHMARK.json``; ``perfbench/test_perfbench.py`` keeps the two in step.
"""

from __future__ import annotations

import statistics

from perfbench.measure import tail_percentile
from perfbench.tracing import summarize

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "end_to_end",
    "per_layer",
    "span_table",
    "level_table",
]

#: (name, unit, better). Every one is measured on every workload.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("requests_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("hops_per_byte", "hops/B", "lower"),
    ("flow_max_link_bytes", "B", "lower"),
]

#: (name, unit, better). Times are self seconds per request; counts are per
#: request. A layer a workload never reaches reads 0.
PER_LAYER = [
    ("engine.run_s", "s", "lower"),
    ("specs.build_s", "s", "lower"),
    ("taskgraph.build_s", "s", "lower"),
    ("taskgraph.edges", "count", "lower"),
    ("topology.build_s", "s", "lower"),
    ("topology.tables_s", "s", "lower"),
    ("topology.cache_hits", "count", "higher"),
    ("topology.cache_misses", "count", "lower"),
    ("context.build_s", "s", "lower"),
    ("partition.partition_s", "s", "lower"),
    ("partition.coarsen_s", "s", "lower"),
    ("multilevel.levels", "count", "lower"),
    ("topolb.map_s", "s", "lower"),
    ("topolb.cycles", "count", "lower"),
    ("topolb.rows_rebuilt", "count", "lower"),
    ("topolb.reserve_exhaustions", "count", "lower"),
    ("topocentlb.map_s", "s", "lower"),
    ("refine.refine_s", "s", "lower"),
    ("refine.sweeps", "count", "lower"),
    ("refine.swaps_accepted", "count", "higher"),
    ("refine.accept_ratio", "ratio", "higher"),
    ("refine.rows_computed", "count", "lower"),
    ("refine.rows_folded", "count", "higher"),
    ("multilevel.coarse_map_s", "s", "lower"),
    ("multilevel.uncoarsen_self_s", "s", "lower"),
    ("aggregate.coarsen_machine_s", "s", "lower"),
    ("metrics.block_s", "s", "lower"),
    ("validate.cheap_s", "s", "lower"),
    ("flow.evaluate_s", "s", "lower"),
    ("flow.links_used", "count", "lower"),
    ("des.run_s", "s", "lower"),
    ("des.transmissions", "count", "lower"),
    ("des.enqueues", "count", "lower"),
    ("des.events_per_s", "1/s", "higher"),
    ("des.retransmits", "count", "lower"),
    ("des.useful_ratio", "ratio", "higher"),
    ("cache.key_s", "s", "lower"),
    ("cache.get_s", "s", "lower"),
    ("cache.put_s", "s", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("service.submit_s", "s", "lower"),
    ("http.self_s", "s", "lower"),
    ("service.coalesced", "count", "higher"),
    ("service.rejected", "count", "lower"),
    ("service.queue_depth_max", "count", "lower"),
    ("service.overhead_ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
]

#: Per-layer self-time metrics: metric name -> span name.
_SELF_TIMES = {
    "specs.build_s": "specs.build",
    "taskgraph.build_s": "taskgraph.build",
    "topology.build_s": "topology.build",
    "topology.tables_s": "topology.tables",
    "context.build_s": "context.build",
    "partition.partition_s": "partition.partition",
    "partition.coarsen_s": "partition.coarsen",
    "topolb.map_s": "topolb.map",
    "topocentlb.map_s": "topocentlb.map",
    "refine.refine_s": "refine.refine",
    "multilevel.coarse_map_s": "multilevel.coarse_map",
    "multilevel.uncoarsen_self_s": "multilevel.uncoarsen",
    "aggregate.coarsen_machine_s": "aggregate.coarsen_machine",
    "metrics.block_s": "metrics.block",
    "validate.cheap_s": "validate.cheap",
    "flow.evaluate_s": "flow.evaluate",
    "des.run_s": "des.run",
    "cache.key_s": "cache.key",
    "cache.get_s": "cache.get",
    "cache.put_s": "cache.put",
    "service.submit_s": "service.submit",
    "http.self_s": "http.handle",
}

#: Exact program counters (``repro.obs``) reported per request.
_COUNTERS = {
    "topology.cache_hits": "topology.cache.hits",
    "topology.cache_misses": "topology.cache.misses",
    "topolb.cycles": "topolb.cycles",
    "topolb.rows_rebuilt": "topolb.rows_rebuilt",
    "topolb.reserve_exhaustions": "topolb.reserve_exhaustions",
    "refine.sweeps": "refine.sweeps",
    "refine.swaps_accepted": "refine.swaps_accepted",
    "refine.rows_computed": "refine.rows_computed",
    "refine.rows_folded": "refine.rows_folded",
    "des.transmissions": "netsim.transmissions",
    "des.enqueues": "netsim.enqueues",
    "des.retransmits": "netsim.retransmits",
}


def end_to_end(workload, window, setup_s: float, rss_mb: float) -> dict:
    """The gated metrics of one untraced window."""
    return {
        "setup_s": setup_s,
        "latency_p50_ms": window.class_p50() * 1e3,
        "requests_per_s": window.requests_per_s(),
        "peak_rss_mb": rss_mb,
        **{k: v for k, v in workload.quality(window).items()
           if k in ("hops_per_byte", "flow_max_link_bytes")},
    }


def extra_lines(workload, window) -> list[tuple[str, float | str, str]]:
    """Metrics printed beside the gated ones: they are not measured on every
    workload, or read 0 when all is well."""
    n = len(window.outcomes)
    failed = sum(1 for o in window.outcomes if o.error is not None)
    lines = [("failed_fraction", failed / n, f"ratio ({failed}/{n})")]
    if window.norm_busy != window.busy:
        lines += [
            ("latency_p50_raw_ms", window.class_p50(normalized=False) * 1e3,
             "ms (wall, not rescaled to the reference host)"),
            ("requests_per_raw_s", window.requests_per_s(normalized=False),
             "1/s (wall)"),
        ]
    tail = tail_percentile(window.latencies())
    if tail is None:
        lines.append(("latency_tail_ms", "n/a",
                      f"ms (only {n} samples; a tail needs 20)"))
    else:
        label, value, count = tail
        lines.append(("latency_tail_ms", value * 1e3,
                      f"ms ({label} of {count} samples)"))
    quality = workload.quality(window)
    for key in ("des_makespan_us", "des_p999_us"):
        if key in quality:
            lines.append((key, quality[key], "us"))
    return lines


def _attr_sum(spans, name: str, attr: str) -> float:
    return float(sum(s.attrs.get(attr, 0) for s in spans if s.name == name))


def per_layer(spans, counters: dict, requests: int, extra: dict) -> dict:
    """Per-layer metrics of one traced window (see ``PER_LAYER``)."""
    summary = summarize(spans)
    n = max(requests, 1)

    def self_s(span: str) -> float:
        return summary.get(span, {}).get("self_s", 0.0) / n

    out = {metric: self_s(span) for metric, span in _SELF_TIMES.items()}
    runs = [s.duration for s in spans if s.name == "engine.run"]
    out["engine.run_s"] = statistics.median(runs) if runs else 0.0
    for metric, counter in _COUNTERS.items():
        out[metric] = counters.get(counter, 0) / n
    out["taskgraph.edges"] = _attr_sum(spans, "taskgraph.build", "edges") / n
    out["multilevel.levels"] = _attr_sum(spans, "multilevel.map", "levels") / n
    out["flow.links_used"] = _attr_sum(spans, "flow.evaluate", "links_used") / n
    evaluated = counters.get("refine.pairs_evaluated", 0)
    out["refine.accept_ratio"] = (
        counters.get("refine.swaps_accepted", 0) / evaluated if evaluated else 0.0
    )
    des_s = summary.get("des.run", {}).get("total_s", 0.0)
    out["des.events_per_s"] = (
        _attr_sum(spans, "des.run", "events") / des_s if des_s else 0.0
    )
    attempts = counters.get("netsim.messages", 0) + counters.get(
        "netsim.retransmits", 0)
    out["des.useful_ratio"] = (
        counters.get("netsim.delivered", 0) / attempts if attempts else 0.0
    )
    for metric in ("cache.hit_ratio", "service.coalesced", "service.rejected",
                   "service.queue_depth_max", "service.overhead_ms",
                   "trace.overhead_ms"):
        out[metric] = float(extra.get(metric, 0.0))
    return out


def span_table(spans) -> list[str]:
    """Calls, inclusive and self seconds per span name, heaviest self first."""
    rows = sorted(summarize(spans).items(), key=lambda kv: -kv[1]["self_s"])
    return [
        f"  {name:<28} calls {row['calls']:>6}  total {row['total_s']:9.4f} s"
        f"  self {row['self_s']:9.4f} s"
        for name, row in rows
    ]


def level_table(spans) -> list[str]:
    """Multilevel phases per level: each task coarsening step, then each
    uncoarsening level (coarsest first) with its own time and its children's."""
    lines = [
        f"  coarsen {s.attrs['tasks']:>7} -> {s.attrs['to']:>7} tasks: "
        f"{s.duration:.4f} s"
        for s in spans if s.name == "partition.coarsen"
    ]
    by_id = {s.id: s for s in spans}
    levels: dict[tuple[int, int], dict[str, float]] = {}
    for s in spans:
        parent = by_id.get(s.parent)
        if s.name == "multilevel.uncoarsen":
            key = (s.attrs["tasks"], s.attrs["nodes"])
            row = levels.setdefault(key, {})
            row["total"] = row.get("total", 0.0) + s.duration
        elif parent is not None and parent.name == "multilevel.uncoarsen":
            key = (parent.attrs["tasks"], parent.attrs["nodes"])
            row = levels.setdefault(key, {})
            row[s.name] = row.get(s.name, 0.0) + s.duration
    for (tasks, nodes), row in sorted(levels.items()):
        kids = sum(v for k, v in row.items() if k != "total")
        detail = "  ".join(
            f"{k} {v:.4f}" for k, v in sorted(row.items()) if k != "total")
        lines.append(
            f"  uncoarsen {tasks:>7} tasks on {nodes:>5} nodes: "
            f"total {row['total']:.4f} s  self {row['total'] - kids:.4f} s  {detail}"
        )
    return lines
