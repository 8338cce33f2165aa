"""Post-simulation statistics helpers."""

from __future__ import annotations

import numpy as np

from repro.netsim.messages import SIZE_CLASS_EDGES, size_class_label
from repro.netsim.simulator import NetworkSimulator, channel_name

__all__ = ["link_summary", "tail_summary"]

#: The delivery-latency percentiles of every tail row (p50/p99/p999).
_TAIL_QUANTILES = (50.0, 99.0, 99.9)


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
    # Each stats list becomes an array once; every percentile row is one
    # ``np.percentile`` call.
    lat = stats.latencies()
    if len(lat):
        p50, p99, p999 = np.percentile(lat, _TAIL_QUANTILES).tolist()
        mean, worst = float(lat.mean()), float(lat.max())
    else:
        p50 = p99 = p999 = mean = worst = 0.0
    out = {
        "delivered": int(stats.count),
        "dropped": int(stats.dropped),
        "retransmits": int(stats.retransmits),
        "buffer_drops": int(stats.buffer_drops),
        "latency": {
            "p50": p50,
            "p99": p99,
            "p999": p999,
            "mean": mean,
            "max": worst,
        },
        "classes": _class_rows(lat, stats.sizes()),
    }
    if iteration_times is not None:
        its = np.asarray(iteration_times, dtype=np.float64)
        if len(its):
            it_p50, it_p99 = np.percentile(its, (50, 99)).tolist()
            out["iterations"] = {
                "count": int(len(its)),
                "p50": it_p50,
                "p99": it_p99,
                "max": float(its.max()),
                "mean": float(its.mean()),
            }
    return out


def _class_rows(lat: np.ndarray, sizes: np.ndarray) -> list[dict]:
    """Per-size-class tail rows, one per *occupied* class.

    Barrier-synchronized applications feel the worst class, not the mean —
    this is the table the ``tailcheck`` experiment and the profile's
    ``netsim.tail.classes`` section report.
    """
    edges = np.asarray(SIZE_CLASS_EDGES, dtype=np.float64)
    buckets = np.digitize(sizes, edges, right=True)
    rows = []
    for index in range(len(edges) + 1):
        mask = buckets == index
        n = int(mask.sum())
        if n == 0:
            continue
        class_lat = lat[mask]
        p50, p99, p999 = np.percentile(class_lat, _TAIL_QUANTILES).tolist()
        rows.append({
            "class": size_class_label(index),
            "count": n,
            "p50": p50,
            "p99": p99,
            "p999": p999,
            "max": float(class_lat.max()),
        })
    return rows


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
