"""Fat-tree topology (indirect network with real switch-level routing).

The paper's introduction argues contention is a minor factor on fat-trees —
their ``P log P`` wiring keeps processor-to-processor distances nearly
uniform — and a major factor on tori/meshes. This class exists to let the
benchmarks demonstrate that contrast: on a fat-tree the gap between a random
mapping and TopoLB nearly vanishes (see ``benchmarks/test_ablation_topologies``).

A fat-tree is an *indirect* network: processors hang off leaf switches, and
messages climb to a nearest common ancestor switch and descend. With switch
arity ``a`` and ``L`` levels the processors are ``0..a**L - 1`` and

    d(x, y) = 2 * (smallest l such that x // a**l == y // a**l)

i.e. two switch hops per level climbed. The machine is modeled as a k-ary
n-tree: each of the ``L`` switch levels holds ``a**(L-1)`` switches, switch
``<l, w>`` is identified by its level ``l`` and an ``(L-1)``-digit ``a``-ary
word ``w``, and it links upward to every ``<l+1, w'>`` whose word matches
``w`` in all digit positions except ``l``. Processor ``x`` attaches to leaf
switch ``<0, x // a>``. That wiring yields ``L * a**L`` switch-level links —
the ``P log P`` redundancy the paper cites.

:meth:`route` returns real node paths over :meth:`link_graph` (switch ids
are ``>= num_nodes``): ascend choosing the freed digit from the destination
word (deterministic d-mod-k-style up-link selection), turn around at the
nearest common ancestor, descend. Route length always equals the distance
metric above, so the network simulator, the flow estimator, and the
link-load conservation oracle all work on fat-trees exactly as they do on
direct machines.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import TopologyError
from repro.topology.base import Topology

__all__ = ["FatTree"]


class FatTree(Topology):
    """An ``arity``-ary fat-tree with ``levels`` switch levels (k-ary n-tree)."""

    def __init__(self, arity: int, levels: int):
        if arity < 2:
            raise TopologyError(f"fat-tree arity must be >= 2, got {arity}")
        if levels < 1:
            raise TopologyError(f"fat-tree needs >= 1 level, got {levels}")
        self._arity = int(arity)
        self._levels = int(levels)
        num = self._arity**self._levels
        if num > 1 << 20:
            raise TopologyError(f"fat-tree of {num} processors is too large")
        super().__init__(num)
        # a**(L-1) switches per level, L levels, ids packed after processors.
        self._switches_per_level = self._arity ** (self._levels - 1)

    @property
    def arity(self) -> int:
        """Ports per switch going down one level."""
        return self._arity

    @property
    def levels(self) -> int:
        """Number of switch levels between a processor and the root."""
        return self._levels

    @property
    def num_switches(self) -> int:
        """Total switches: ``levels * arity**(levels-1)``."""
        return self._levels * self._switches_per_level

    @property
    def name(self) -> str:
        return f"fattree(arity={self._arity},levels={self._levels})"

    def cache_key(self) -> tuple:
        return ("FatTree", self._arity, self._levels)

    def pair_distances(self, pu: np.ndarray, pv: np.ndarray) -> np.ndarray:
        # The lowest common ancestor sits one level above the last level l
        # whose a**l-blocks still differ; two hops per level climbed.
        pu = np.asarray(pu, dtype=np.int64)
        pv = np.asarray(pv, dtype=np.int64)
        levels = (pu != pv).astype(np.int32)
        for level in range(1, self._levels):
            block = self._arity**level
            levels += (pu // block) != (pv // block)
        return 2 * levels

    def distance_row(self, node: int) -> np.ndarray:
        return self._pair_row(node)

    def neighbors(self, node: int) -> list[int]:
        """Processors under the same leaf switch (minimum positive distance, 2 hops).

        This is the *metric-level* neighborhood used by BFS-style mappers;
        physical switch adjacency lives in :meth:`link_graph`.
        """
        node = self._check_node(node)
        base = (node // self._arity) * self._arity
        return [base + i for i in range(self._arity) if base + i != node]

    # ---------------------------------------------------------------- routing
    def _switch_id(self, level: int, word: int) -> int:
        """Link-graph id of switch ``<level, word>`` (packed after processors)."""
        return self._num_nodes + level * self._switches_per_level + word

    def route(self, src: int, dst: int) -> list[int]:
        """Up/down nearest-common-ancestor route over the switch fabric.

        Ascending from level ``l`` frees word digit ``l``; it is set to the
        destination leaf word's digit ``l`` (deterministic up-link choice),
        so the turnaround switch at the NCA level already carries the
        destination word and the descent is forced. Route length is exactly
        ``distance(src, dst)``.
        """
        src, dst = self._check_node(src), self._check_node(dst)
        if src == dst:
            return [src]
        a = self._arity
        u, v = src // a, dst // a  # source / destination leaf-switch words
        nca = 1  # smallest level whose a**l-block holds both endpoints
        while src // a**nca != dst // a**nca:
            nca += 1
        path = [src]
        word = u
        for level in range(nca - 1):  # ascend, re-pointing digit `level` at dst
            path.append(self._switch_id(level, word))
            digit = (word // a**level) % a
            word += (((v // a**level) % a) - digit) * a**level
        for level in range(nca - 1, -1, -1):  # turn around and descend
            path.append(self._switch_id(level, word))
        path.append(dst)
        return path

    def link_graph(self):
        """Switch-level wiring as a :class:`~repro.topology.links.StaticLinkGraph`.

        The link list participates in the shared topology cache under this
        machine's :meth:`cache_key`, so equal-shape fat-trees across the
        process share one enumeration.
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
        a, spl = self._arity, self._switches_per_level
        for x in range(self._num_nodes):  # processor -> leaf switch
            yield (x, self._switch_id(0, x // a))
        for level in range(self._levels - 1):  # level l -> level l+1 fabric
            for word in range(spl):
                digit = (word // a**level) % a
                for new_digit in range(a):
                    upper = word + (new_digit - digit) * a**level
                    yield (
                        self._switch_id(level, word),
                        self._switch_id(level + 1, upper),
                    )

    def links(self):
        """Undirected switch-level links (``levels * arity**levels`` of them)."""
        return self.link_graph().links()

    def diameter(self) -> int:
        return 2 * self._levels if self._num_nodes > 1 else 0

    def expected_random_distance(self) -> float:
        """E[d] for uniform random processor pairs (including x == y pairs)."""
        # P(LCA at level l) for l>=1: blocks of size a**l match but a**(l-1) don't.
        a, total = self._arity, 0.0
        p = float(self._num_nodes)
        for level in range(1, self._levels + 1):
            same_l = (a**level) / p if a**level <= p else 1.0
            same_lm1 = (a ** (level - 1)) / p
            total += 2 * level * max(same_l - same_lm1, 0.0)
        return total
