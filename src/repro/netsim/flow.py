"""Flow-level contention estimator — the fast alternative to the DES.

The per-packet DES (:class:`~repro.netsim.simulator.NetworkSimulator`) is
the ground truth for contention, but it walks every message hop by hop
through an event queue: intractable at the 10^5-task scales the multilevel
mapper reaches. Deveci et al. and Glantz/Meyerhenke/Noe evaluate mappings
with cheap static per-link load models instead; this module is that model
for the reproduction.

The estimator charges every inter-processor message's bytes to the directed
links of its deterministic dimension-ordered route and derives:

* the offered load per directed link, as four link-indexed arrays
  (``src``, ``dst``, ``bytes``, ``messages``; one entry per loaded link),
* ``max_link_bytes`` — the contention bottleneck (what RefineTopoLB's
  hop-bytes objective is a proxy for),
* ``makespan_lower_bound`` — a provable lower bound on the DES completion
  time of :class:`~repro.netsim.appsim.IterativeApplication` under the same
  parameters (see below),
* a per-link load histogram for contention-spread comparisons.

On :class:`~repro.topology.grid.GridTopology` (mesh and torus — the paper's
machines) the routes are never materialised: dimension-ordered routing
means a message crosses, along each axis, one contiguous (possibly
wrapping) run of same-direction links whose off-axis coordinates are the
destination's for already-corrected axes and the source's for the rest. The
per-axis loads are therefore accumulated with wrap-split difference arrays
and one cumulative sum per direction — O(messages · ndim + links) total.
That accumulation is compiled or reference: it runs ``grid_link_loads``
(:mod:`repro.mapping._native`) in one call, or, when no C compiler is
available or ``REPRO_NO_NATIVE`` is set, its reference body
:func:`_grid_link_loads`, vectorized over the task graph's edge arrays;
both add the same terms in the same order. Every other machine — the
hypercube, arbitrary graphs, and the *indirect* fat-tree/dragonfly whose
routes traverse switch-level links — takes the generic link-indexed path:
one ``route`` walk per unique processor pair, accumulated over the links
of ``topology.link_graph()`` (still DES-free). Both paths return the same
link-indexed arrays, and the scalars are NumPy reductions over them; no
per-link Python object is built. :meth:`FlowResult.link_loads` builds the
``{(u, v): bytes}`` dict that tests and the ``flow-equals-des-links``
oracle compare against ``NetworkSimulator.link_bytes()``.

Makespan bound (times in microseconds, the DES convention):

* every transmission occupies its link for ``alpha + size / bandwidth``
  and a link serializes, so DES time >= ``iterations * max over links of
  (alpha * messages + bytes / bandwidth)``;
* a sender's per-iteration computes serialize, and cut-through delivery
  takes ``hops * alpha + size / bandwidth`` after the send, so DES time
  >= ``iterations * min_compute + max over messages of the no-load
  latency`` (local messages contribute ``local_latency``).

The bound is exact only in the uncontended regime; under contention the
DES grows faster (FIFO queueing) while the bound grows linearly — the flow
estimate *ranks* mappings correctly (rank-correlation >= 0.9 against the
DES on the small-machine validation suite; see docs/ARCHITECTURE.md for
the validity envelope) but does not predict saturated latencies.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.exceptions import SimulationError
from repro.mapping import _native
from repro.mapping.base import Mapping
from repro.netsim.simulator import _knob
from repro.topology.base import Topology
from repro.topology.grid import GridTopology

__all__ = ["FlowResult", "flow_evaluate", "spearman"]

_NO_LINKS = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
             np.zeros(0, dtype=np.float64), np.zeros(0, dtype=np.int64))


@dataclasses.dataclass
class FlowResult:
    """Static flow-level contention estimate of one mapped application.

    ``src``/``dst``/``bytes``/``messages`` are aligned per-link arrays: the
    directed link ``src[i] -> dst[i]`` carries ``bytes[i]`` bytes in
    ``messages[i]`` messages *per iteration*. Each directed link the traffic
    touches appears exactly once, and zero-load links are omitted, matching
    ``NetworkSimulator.link_bytes()`` which only reports links that carried
    traffic. Scalars already account for ``iterations``.
    """

    iterations: int
    bandwidth: float
    alpha: float
    src: np.ndarray
    dst: np.ndarray
    bytes: np.ndarray
    messages: np.ndarray
    #: bytes crossing the busiest link over the whole run
    max_link_bytes: float
    #: network bytes-on-links over the whole run (== hop_bytes * iterations)
    total_bytes: float
    #: lower bound on the DES completion time, microseconds
    makespan_lower_bound: float
    #: max over links of per-iteration occupancy, microseconds
    bottleneck_time_us: float
    #: max over messages of uncontended delivery latency, microseconds
    no_load_latency_us: float

    @property
    def links_used(self) -> int:
        return len(self.src)

    def link_loads(self) -> dict[tuple[int, int], float]:
        """Per-iteration ``{(u, v): bytes}``, keyed like
        ``NetworkSimulator.link_bytes()`` (for comparisons, not hot paths)."""
        return dict(zip(zip(self.src.tolist(), self.dst.tolist()),
                        self.bytes.tolist()))


#: Per-link loads: (link tails, link heads, bytes, message counts).
LinkLoads = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _directed_messages(
    mapping: Mapping, message_bytes: float | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(src_proc, dst_proc, size) for every directed inter-task message of
    one iteration — both directions of each undirected task edge, matching
    :class:`~repro.netsim.appsim.IterativeApplication`'s traffic (each edge
    of weight ``w`` carries ``w/2`` per direction unless overridden, and a
    zero-weight edge sends nothing)."""
    u, v, w = mapping.graph.edge_arrays()
    assign = np.asarray(mapping.assignment)
    if message_bytes is None:
        sizes = np.asarray(w, dtype=np.float64) / 2.0
        sends = sizes > 0
        u, v, sizes = u[sends], v[sends], sizes[sends]
    else:
        sizes = np.full(len(w), message_bytes)
    src = np.concatenate((assign[u], assign[v]))
    dst = np.concatenate((assign[v], assign[u]))
    return src, dst, np.concatenate((sizes, sizes))


def _grid_link_loads(
    topo: GridTopology, src: np.ndarray, dst: np.ndarray, sizes: np.ndarray
) -> LinkLoads:
    """Per-link loads under dimension-ordered routing, without routes —
    the reference body of ``grid_link_loads``.

    For each axis ``a`` (corrected in axis order), a message's off-axis
    position is ``dst`` coordinates for axes < a and ``src`` coordinates
    for axes > a; along the axis it covers one contiguous run of links in
    one direction (the shorter way around on a torus, ties +1 — exactly
    ``GridTopology.route``). Runs are accumulated per (line, direction)
    with difference arrays, wrap-split on the torus, then one cumsum per
    line turns run endpoints into per-position loads. The loaded links
    come out per axis, direction, then flat position; no directed link
    repeats, since a size-2 torus axis routes both ways forward (ties +1).
    """
    shape = topo.shape
    ndim = topo.ndim
    coords = topo.coords_array()
    csrc = coords[src].astype(np.int64)
    cdst = coords[dst].astype(np.int64)

    parts: list[tuple[np.ndarray, ...]] = []
    for axis in range(ndim):
        s = shape[axis]
        if s <= 1:
            continue
        a_src = csrc[:, axis]
        a_dst = cdst[:, axis]
        moving = a_src != a_dst
        if not moving.any():
            continue
        m_src = a_src[moving]
        m_dst = a_dst[moving]
        m_sizes = sizes[moving]

        # Off-axis coordinates of the line each message traverses: already
        # corrected axes sit at the destination, the rest at the source.
        line_coords = csrc[moving].copy()
        if axis:
            line_coords[:, :axis] = cdst[moving][:, :axis]
        line_coords[:, axis] = 0
        line = np.ravel_multi_index(
            tuple(line_coords[:, k] for k in range(ndim)), shape
        )

        if topo.wraparound:
            fwd_len = (m_dst - m_src) % s
            forward = fwd_len <= s - fwd_len  # route()'s tie goes +1
            run_len = np.where(forward, fwd_len, s - fwd_len)
        else:
            forward = m_dst > m_src
            run_len = np.abs(m_dst - m_src)

        # A forward run of length L from position c covers forward links at
        # positions c .. c+L-1 (mod s); a backward run from c covers
        # backward links at positions c-L .. c-1 (mod s) when backward link
        # i is the directed link (i+1 -> i). Either way the covered link
        # positions are the half-open range [start, start+L) mod s.
        start = np.where(forward, m_src, (m_src - run_len) % s)
        stride = int(np.ravel_multi_index(
            tuple(1 if k == axis else 0 for k in range(ndim)), shape
        ))
        for is_fwd in (True, False):
            dsel = forward == is_fwd
            if not dsel.any():
                continue
            st = start[dsel]
            base = line[dsel]
            end = st + run_len[dsel]
            sz = m_sizes[dsel]
            # Difference arrays over the flat node-id grid: ``line`` has the
            # axis coordinate zeroed, so position t along the axis is
            # ``base + t * stride``. A run ending at the line boundary
            # (end == s) needs no subtraction — the flat index would alias
            # into the next line — and a wrapping run (end > s) splits into
            # [start, s) plus [0, end - s).
            diff_b = np.zeros(topo.num_nodes, dtype=np.float64)
            diff_m = np.zeros(topo.num_nodes, dtype=np.int64)
            np.add.at(diff_b, base + st * stride, sz)
            np.add.at(diff_m, base + st * stride, 1)
            cut = end < s
            np.add.at(diff_b, (base + end * stride)[cut], -sz[cut])
            np.add.at(diff_m, (base + end * stride)[cut], -1)
            wraps = end > s
            if wraps.any():
                np.add.at(diff_b, base[wraps], sz[wraps])
                np.add.at(diff_m, base[wraps], 1)
                np.add.at(diff_b, base[wraps] + (end[wraps] - s) * stride,
                          -sz[wraps])
                np.add.at(diff_m, base[wraps] + (end[wraps] - s) * stride,
                          -1)
            # One cumsum per line: reshape and accumulate along the axis.
            loads = np.cumsum(diff_b.reshape(shape), axis=axis)
            counts = np.cumsum(diff_m.reshape(shape), axis=axis)

            nz = np.nonzero(counts)
            if not len(nz[0]):
                continue
            from_ids = np.ravel_multi_index(nz, shape)
            nbr = list(nz)
            nbr[axis] = (nz[axis] + 1) % s
            to_ids = np.ravel_multi_index(tuple(nbr), shape)
            # backward link i is (i+1 -> i): the stored position is the
            # lower endpoint.
            if not is_fwd:
                from_ids, to_ids = to_ids, from_ids
            parts.append((from_ids, to_ids, loads[nz], counts[nz]))
    if not parts:
        return _NO_LINKS
    return tuple(np.concatenate(col) for col in zip(*parts))


def _generic_link_loads(
    topo: Topology, src: np.ndarray, dst: np.ndarray, sizes: np.ndarray
) -> LinkLoads:
    """Generic link-indexed accumulation for non-grid machines.

    Works over the links of ``topo.link_graph()`` — including the
    switch-level links of indirect machines (fat-tree, dragonfly), whose
    routes the grid fast path cannot express. Each unique ``(src, dst)``
    processor pair is routed once and its aggregate bytes/message count
    charged to every directed link of the route, so the cost is
    O(unique pairs * route length) rather than O(messages * route length).
    Links come out in order of first use; ``np.add.at`` adds each link's
    pair loads one at a time in pair order.
    """
    if not len(src):
        return _NO_LINKS
    p = topo.num_nodes
    keys = src.astype(np.int64) * p + dst.astype(np.int64)
    order = np.argsort(keys, kind="stable")
    uniq, starts = np.unique(keys[order], return_index=True)
    byte_sums = np.add.reduceat(sizes[order], starts)
    counts = np.diff(np.append(starts, len(keys)))
    tails: list[int] = []
    heads: list[int] = []
    hops = np.empty(len(uniq), dtype=np.int64)
    for i, key in enumerate(uniq.tolist()):
        path = topo.route(*divmod(key, p))
        tails += path[:-1]
        heads += path[1:]
        hops[i] = len(path) - 1
    tails = np.asarray(tails, dtype=np.int64)
    heads = np.asarray(heads, dtype=np.int64)
    pair = np.repeat(np.arange(len(uniq)), hops)
    width = int(max(tails.max(), heads.max())) + 1
    _, first, inverse = np.unique(tails * width + heads, return_index=True,
                                  return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    slot = rank[inverse]
    link_bytes = np.zeros(len(first), dtype=np.float64)
    np.add.at(link_bytes, slot, byte_sums[pair])
    link_msgs = np.zeros(len(first), dtype=np.int64)
    np.add.at(link_msgs, slot, counts[pair])
    firsts = np.sort(first)
    return tails[firsts], heads[firsts], link_bytes, link_msgs


def flow_evaluate(
    mapping: Mapping,
    iterations: int = 1,
    message_bytes: float | None = None,
    bandwidth: float = 1000.0,
    alpha: float = 0.1,
    local_latency: float = 0.05,
    compute_time: float = 1.0,
) -> FlowResult:
    """Flow-level contention estimate of ``mapping``'s iterative traffic.

    Parameter defaults match :class:`~repro.netsim.simulator.
    NetworkSimulator` and :class:`~repro.netsim.appsim.IterativeApplication`
    so the makespan lower bound is directly comparable to
    ``IterativeApplication.run().total_time`` on the same mapping, and are
    checked as those classes check them.
    """
    if (isinstance(iterations, bool)
            or not isinstance(iterations, (int, np.integer)) or iterations < 1):
        raise SimulationError(
            f"iterations must be an integer >= 1, got {iterations!r}")
    if message_bytes is not None:
        message_bytes = _knob("message_bytes", message_bytes)
    bandwidth = _knob("bandwidth", bandwidth)
    alpha = _knob("alpha", alpha, strict=False)
    local_latency = _knob("local_latency", local_latency, strict=False)
    compute_time = _knob("compute_time", compute_time, strict=False)

    topo = mapping.topology
    src, dst, sizes = _directed_messages(mapping, message_bytes)
    remote = src != dst
    r_src, r_dst, r_sizes = src[remote], dst[remote], sizes[remote]

    accumulate = _generic_link_loads
    if isinstance(topo, GridTopology):
        native = _native.kernels_or_fallback()
        accumulate = (_grid_link_loads if native is None
                      else native.grid_link_loads)
    link_src, link_dst, link_bytes, link_msgs = accumulate(
        topo, r_src, r_dst, r_sizes)

    # Per-iteration bottleneck: the busiest link's occupancy (a link
    # serializes, charging alpha + size/bandwidth per message). The byte
    # total is summed sequentially in link order (``np.cumsum``, not the
    # pairwise ``sum``), so fractional loads keep their bits.
    bottleneck = max_bytes = total_bytes = 0.0
    if len(link_bytes):
        occupancy = alpha * link_msgs + link_bytes / bandwidth
        bottleneck = max(0.0, float(occupancy.max()))
        max_bytes = max(0.0, float(link_bytes.max()))
        total_bytes = float(np.cumsum(link_bytes)[-1])

    # Uncontended delivery latency of the slowest message (cut-through:
    # hops * alpha + size / bandwidth; co-located: local_latency).
    no_load = local_latency if (~remote).any() else 0.0
    if len(r_src):
        hops = topo.pair_distances(r_src, r_dst).astype(np.float64)
        lats = hops * alpha + r_sizes / bandwidth
        no_load = max(no_load, float(lats.max()))

    makespan = max(
        iterations * bottleneck,
        iterations * compute_time + no_load,
    )
    return FlowResult(
        iterations=int(iterations),
        bandwidth=float(bandwidth),
        alpha=float(alpha),
        src=link_src,
        dst=link_dst,
        bytes=link_bytes,
        messages=link_msgs,
        max_link_bytes=max_bytes * iterations,
        total_bytes=total_bytes * iterations,
        makespan_lower_bound=float(makespan),
        bottleneck_time_us=float(bottleneck),
        no_load_latency_us=float(no_load),
    )


def spearman(x, y) -> float:
    """Spearman rank correlation (average ranks on ties), NumPy-only."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("spearman expects two equal-length 1-D arrays")
    if len(x) < 2:
        return 1.0

    def _ranks(v: np.ndarray) -> np.ndarray:
        order = np.argsort(v, kind="stable")
        ranks = np.empty(len(v), dtype=np.float64)
        ranks[order] = np.arange(1, len(v) + 1)
        # average ranks across ties
        for val in np.unique(v):
            sel = v == val
            if sel.sum() > 1:
                ranks[sel] = ranks[sel].mean()
        return ranks

    rx, ry = _ranks(x), _ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt((rx * rx).sum() * (ry * ry).sum())
    if denom == 0:
        return 1.0
    return float((rx * ry).sum() / denom)
