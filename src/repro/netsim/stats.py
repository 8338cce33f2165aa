"""Post-simulation statistics helpers."""

from __future__ import annotations

import numpy as np

from repro.netsim.simulator import NetworkSimulator, channel_name

__all__ = ["link_summary", "tail_summary"]


def tail_summary(sim: NetworkSimulator,
                 iteration_times=None) -> dict:
    """Tail-latency report of one simulation — the overload scorecard.

    Returns a JSON-able dict with overall delivery percentiles
    (p50/p99/p999), per-size-class percentile rows, drop/retransmit
    counters, and (when ``iteration_times`` from an
    :class:`~repro.netsim.appsim.AppResult` is given) the
    barrier-synchronized iteration-tail distribution. This is the payload
    embedded as the profile's ``netsim.tail`` section and rendered by
    ``--stats``.
    """
    stats = sim.stats
    pct = stats.percentiles()
    out = {
        "delivered": int(stats.count),
        "dropped": int(stats.dropped),
        "retransmits": int(stats.retransmits),
        "buffer_drops": int(stats.buffer_drops),
        "latency": {
            "p50": pct["p50"],
            "p99": pct["p99"],
            "p999": pct["p999"],
            "mean": stats.mean_latency,
            "max": stats.max_latency,
        },
        "classes": stats.class_summary(),
    }
    if iteration_times is not None:
        its = np.asarray(iteration_times, dtype=np.float64)
        if len(its):
            out["iterations"] = {
                "count": int(len(its)),
                "p50": float(np.percentile(its, 50)),
                "p99": float(np.percentile(its, 99)),
                "max": float(its.max()),
                "mean": float(its.mean()),
            }
    return out


def link_summary(sim: NetworkSimulator, top: int = 10) -> dict:
    """Per-link load summary in the shape of a profile's ``netsim`` section.

    Aggregates bytes carried, occupancy, utilization, and peak queue depths
    over every channel the simulation touched, plus the ``top`` hottest links
    by bytes — the JSON-able payload ``repro-profile-v1`` embeds (see
    :mod:`repro.obs.profile`).
    """
    bytes_by_link = sim.link_bytes()
    busy_by_link = sim.link_busy_times()
    peaks_by_link = sim.link_queue_peaks()
    sim_time = float(sim.now)
    # A run that used no link reports zeros.
    loads = np.asarray(list(bytes_by_link.values()) or [0.0], dtype=np.float64)
    busy = np.asarray(list(busy_by_link.values()) or [0.0], dtype=np.float64)
    util = busy / sim_time if sim_time > 0 else np.zeros_like(busy)
    hottest = sorted(bytes_by_link, key=lambda k: (-bytes_by_link[k], str(k)))[:top]
    return {
        "mode": "des",
        "links_used": len(bytes_by_link),
        "total_bytes": float(loads.sum()),
        "max_link_bytes": float(loads.max()),
        "mean_utilization": float(util.mean()),
        "max_utilization": float(util.max()),
        "max_queue_depth": int(max(peaks_by_link.values(), default=0)),
        "sim_time_us": sim_time,
        "top_links": [
            {
                "link": channel_name(link),
                "bytes": float(bytes_by_link[link]),
                "busy_us": float(busy_by_link[link]),
                "max_queue_depth": int(peaks_by_link[link]),
            }
            for link in hottest
        ],
    }
