"""Dragonfly topology: groups of all-to-all routers with global links.

A dragonfly (Kim et al., ISCA 2008) is a two-level hierarchical indirect
network: ``groups`` groups, each holding ``routers`` routers wired
all-to-all, with ``hosts`` processors hanging off every router and exactly
one global link per unordered group pair. Minimal routing is
group-local/global/group-local:

    host -> router [-> group-exit router] -> global link
         [-> group-entry router] -> host

so the hierarchical distance between processors is

    d = 0 (same host), 2 (same router), 3 (same group),
        3 + [exit hop needed] + [entry hop needed]  in [3, 5]  (inter-group)

The global link between groups ``G != H`` attaches to router
``(H - G - 1) % groups`` in ``G`` (and symmetrically in ``H``) — the offsets
``H - G - 1`` are distinct and never ``groups - 1`` modulo ``groups``, so a
group's ``groups - 1`` global links land on ``groups - 1`` *distinct*
routers ``0..groups-2``. With three or more groups the
constructor requires ``routers >= groups - 1`` (each router hosts at most
one global port): that is what makes deterministic minimal routing also
*shortest* over the link graph — a router with two global ports could relay
a two-global-hop shortcut that beats the 5-hop minimal path, and then the
distance metric, the routes, and the link-load conservation oracle would
disagree. Tests property-check ``distance == link-graph shortest path``.

Like :class:`~repro.topology.FatTree`, switch (router) ids are packed after
the processor ids, so the network simulator, flow estimator, and validation
oracles consume dragonfly routes unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import TopologyError
from repro.topology.base import Topology

__all__ = ["Dragonfly"]


class Dragonfly(Topology):
    """``groups`` x ``routers`` x ``hosts`` dragonfly with minimal routing."""

    def __init__(self, groups: int, routers: int, hosts: int):
        if groups < 1 or routers < 1 or hosts < 1:
            raise TopologyError(
                f"dragonfly needs positive groups/routers/hosts, got "
                f"({groups}, {routers}, {hosts})"
            )
        if groups >= 3 and routers < groups - 1:
            raise TopologyError(
                f"dragonfly with {groups} groups needs >= {groups - 1} routers "
                f"per group (one global port per router keeps minimal routes "
                f"shortest over the link graph), got {routers}"
            )
        self._groups = int(groups)
        self._routers = int(routers)
        self._hosts = int(hosts)
        num = self._groups * self._routers * self._hosts
        if num > 1 << 20:
            raise TopologyError(f"dragonfly of {num} processors is too large")
        super().__init__(num)

    # ------------------------------------------------------------- structure
    @property
    def groups(self) -> int:
        """Number of groups."""
        return self._groups

    @property
    def routers(self) -> int:
        """Routers per group (all-to-all within the group)."""
        return self._routers

    @property
    def hosts(self) -> int:
        """Processors per router."""
        return self._hosts

    @property
    def num_switches(self) -> int:
        """Total routers: ``groups * routers``."""
        return self._groups * self._routers

    @property
    def name(self) -> str:
        return (
            f"dragonfly(groups={self._groups},routers={self._routers},"
            f"hosts={self._hosts})"
        )

    def cache_key(self) -> tuple:
        return ("Dragonfly", self._groups, self._routers, self._hosts)

    def _group_router(self, node: int) -> tuple[int, int]:
        """(group, router-within-group) of processor ``node``."""
        return node // (self._routers * self._hosts), (node // self._hosts) % self._routers

    def _router_id(self, group: int, router: int) -> int:
        """Link-graph id of a router (packed after processors)."""
        return self._num_nodes + group * self._routers + router

    def _global_attach(self, group: int, other: int) -> int:
        """Router in ``group`` holding the global link toward ``other``.

        Distinct per ``other`` (mod-``groups`` offsets skip ``groups - 1``),
        so each router holds at most one global port — the property that
        keeps minimal routes shortest over the link graph.
        """
        return (other - group - 1) % self._groups

    # ------------------------------------------------------------- distances
    def pair_distances(self, pu: np.ndarray, pv: np.ndarray) -> np.ndarray:
        pu = np.asarray(pu, dtype=np.int64)
        pv = np.asarray(pv, dtype=np.int64)
        gx, rx = self._group_router(pu)
        gy, ry = self._group_router(pv)
        # Inter-group: 3 hops plus the exit hop in gx and the entry hop in gy
        # when the endpoint's router does not hold the global link.
        inter = (
            3
            + (rx != self._global_attach(gx, gy))
            + (ry != self._global_attach(gy, gx))
        )
        local = np.where(rx == ry, 2, 3)  # same router: host-router-host
        dist = np.where(gx == gy, local, inter).astype(np.int32)
        dist[pu == pv] = 0
        return dist

    def distance_row(self, node: int) -> np.ndarray:
        return self._pair_row(node)

    def diameter(self) -> int:
        if self._num_nodes == 1:
            return 0
        if self._groups == 1:
            return 3 if self._routers > 1 else 2
        return 3 + (2 if self._routers > 1 else 0)

    def expected_random_distance(self) -> float:
        """E[d] for uniform random processor pairs (including x == y pairs)."""
        mat = self.distance_matrix(np.int32)
        return float(mat.mean())

    def neighbors(self, node: int) -> list[int]:
        """Processors on the same router (minimum positive distance, 2 hops).

        Metric-level neighborhood, as for :class:`~repro.topology.FatTree`;
        physical router adjacency lives in :meth:`link_graph`.
        """
        node = self._check_node(node)
        base = (node // self._hosts) * self._hosts
        return [base + i for i in range(self._hosts) if base + i != node]

    # ---------------------------------------------------------------- routing
    def route(self, src: int, dst: int) -> list[int]:
        """Minimal group-local/global/group-local route over the routers."""
        src, dst = self._check_node(src), self._check_node(dst)
        if src == dst:
            return [src]
        gx, rx = self._group_router(src)
        gy, ry = self._group_router(dst)
        path = [src, self._router_id(gx, rx)]
        if gx != gy:
            exit_router = self._global_attach(gx, gy)
            entry_router = self._global_attach(gy, gx)
            if rx != exit_router:
                path.append(self._router_id(gx, exit_router))
            path.append(self._router_id(gy, entry_router))
            if entry_router != ry:
                path.append(self._router_id(gy, ry))
        elif rx != ry:
            path.append(self._router_id(gy, ry))
        path.append(dst)
        return path

    def link_graph(self):
        """Router-level wiring as a :class:`~repro.topology.links.StaticLinkGraph`.

        Cached in the shared topology cache under :meth:`cache_key` so
        equal-shape dragonflies share one link enumeration.
        """
        graph = self._link_graph
        if graph is None:
            from repro.topology import cache
            from repro.topology.links import StaticLinkGraph

            skey = (self.cache_key(), "link_graph_links")
            links = cache.shared_get(skey)
            if links is None:
                links = np.array(list(self._build_links()), dtype=np.int64)
                cache.shared_put(skey, links)
            graph = StaticLinkGraph(
                self._num_nodes, self._num_nodes + self.num_switches, links
            )
            self._link_graph = graph
        return graph

    def _build_links(self):
        g, r = self._groups, self._routers
        for x in range(self._num_nodes):  # host -> its router
            yield (x, self._router_id(*self._group_router(x)))
        for group in range(g):  # intra-group all-to-all
            for a in range(r):
                for b in range(a + 1, r):
                    yield (self._router_id(group, a), self._router_id(group, b))
        for ga in range(g):  # one global link per unordered group pair
            for gb in range(ga + 1, g):
                yield (
                    self._router_id(ga, self._global_attach(ga, gb)),
                    self._router_id(gb, self._global_attach(gb, ga)),
                )

    def links(self):
        """Undirected router-level links (host, intra-group, global)."""
        return self.link_graph().links()
