"""Point-to-point network simulation with per-link FIFO contention.

Model (all times in microseconds, sizes in bytes):

* Every directed link carries one message at a time; messages queue FIFO.
* Transmitting a message of size ``S`` over one link takes
  ``alpha + S / bandwidth`` — a per-hop routing/arbitration latency plus the
  serialization time — and the link is occupied for that whole interval.
* **Virtual cut-through**: the head is forwarded to the next link after
  ``alpha``, so a multi-hop message pipelines — an uncontended L-hop
  delivery costs ``L * alpha + S / bandwidth`` (wormhole-style no-load
  latency, the regime the paper's introduction describes where hop count
  barely matters without contention).
* **Finite buffers** (optional ``buffer_bytes``): a message arriving at a
  full link buffer is tail-dropped and retransmitted end-to-end after a
  seeded exponential backoff.

Contention is what the paper is about: a random mapping makes every message
cross many links, multiplying the per-link offered load; once a link's
utilization saturates, FIFO queues grow and latencies blow up — exactly the
Figure 7 behaviour. Messages between tasks on the same processor bypass the
network for a fixed small ``local_latency``.

Two bodies run this model, bit-identically. The production body
(``kernel="vectorized"``, the default) is a compiled event core,
:class:`repro.mapping._native.DesEngine` over ``des_kernel.c``, which is
also ``sim.queue``. It runs the per-hop events, records every delivery,
and runs an :class:`~repro.netsim.appsim.IterativeApplication`'s whole
closed loop, with its unjittered retransmits and, on a Torus or Mesh, its
routes. Python keeps the caller's events, :meth:`send` deliveries,
jittered retransmits, final drops, the watchdog, and the routes of
:meth:`send` messages and of other machines' applications. The
reference body (``kernel="reference"``, and the fallback without a C
compiler) is the Python event loop below: :class:`EventQueue` and the
``_head_arrival`` / ``_start_transmission`` / ``_link_free`` methods.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from collections.abc import Callable
from itertools import permutations

import numpy as np

from repro import obs
from repro.exceptions import SimulationError
from repro.mapping.kernels import resolve_kernel
from repro.netsim.eventqueue import EventQueue, schedule_error
from repro.netsim.messages import Message, MessageStats
from repro.topology.base import Topology
from repro.topology.grid import GridTopology

__all__ = [
    "RoutingPolicy",
    "NetworkSimulator",
    "channel_name",
]

# FIFO backlog at which a link counts as saturated: when a link's queue first
# grows to this depth ``netsim.saturation_events`` counts one (profiling
# only), cleared once the queue drains empty.
_SATURATION_DEPTH = 8


def channel_name(channel: tuple) -> str:
    """Stable printable name of a channel: ``"3->7"`` or ``"nic_out:3"``."""
    if isinstance(channel[0], str):
        return f"{channel[0]}:{channel[1]}"
    return f"{channel[0]}->{channel[1]}"


#: The compiled body names a channel by two ints: ``(a, b)`` for a link,
#: ``(-1, p)`` / ``(-2, p)`` for processor ``p``'s NIC channels.
_NIC_KINDS = {"nic_out": -1, "nic_in": -2}


def _channel_key(channel: tuple) -> tuple[int, int]:
    """The compiled body's two-int name of ``channel``."""
    kind, node = channel
    return (_NIC_KINDS[kind], node) if isinstance(kind, str) else channel


def _channel_of(x: int, y: int) -> tuple:
    """The channel tuple of the compiled body's name ``(x, y)``."""
    return (x, y) if x >= 0 else ("nic_out" if x == -1 else "nic_in", y)


class RoutingPolicy(enum.Enum):
    """How a route is chosen for each message.

    ``DOR`` is deterministic dimension-ordered routing (the topology's
    canonical route, as on BlueGene/L in deterministic mode and in the
    mapping metrics). ``ADAPTIVE`` approximates the adaptive mode: on grid
    topologies each message picks, at injection time, the minimal route
    (one per axis order) whose links look least congested. It spreads a
    random mapping's traffic, narrowing the topo-aware-vs-random gap, which
    the ``test_ablation_routing`` bench quantifies.
    """

    DOR = "dor"
    ADAPTIVE = "adaptive"


def _knob(name: str, value, floor: float = 0.0, strict: bool = True) -> float:
    """``float(value)`` if finite and above ``floor`` (or at it, when not
    ``strict``); otherwise :class:`~repro.exceptions.SimulationError`."""
    value = float(value)
    above = value > floor if strict else value >= floor
    if not (above and math.isfinite(value)):
        bound = ">" if strict else ">="
        raise SimulationError(f"{name} must be finite and {bound} {floor}, got {value}")
    return value


class _Link:
    """FIFO transmission state of one directed channel.

    ``bandwidth``, ``alpha`` and ``capacity`` are fixed on first use: the
    NIC bandwidth, no routing latency and no buffer limit for a NIC channel;
    the link's bandwidth, ``alpha`` and ``buffer_bytes`` for a link.
    """

    __slots__ = ("queue", "busy_time", "bytes_carried", "max_queue",
                 "saturated", "current", "buffered_bytes", "bandwidth",
                 "alpha", "capacity")

    def __init__(self, bandwidth: float, alpha: float, capacity: float | None):
        self.bandwidth = bandwidth
        self.alpha = alpha
        self.capacity = capacity
        self.queue: deque = deque()
        self.busy_time = 0.0      # accumulated occupancy, for utilization
        self.bytes_carried = 0.0  # payload bytes that crossed this link
        self.max_queue = 0        # deepest FIFO backlog ever seen
        self.saturated = False    # currently past the saturation threshold
        self.current = None       # message in transmission; None when idle
        # Bytes sitting in the input queue; tracked only with a capacity.
        self.buffered_bytes = 0.0


class NetworkSimulator:
    """Discrete-event simulator of a machine's link graph.

    Parameters
    ----------
    topology:
        Any route-capable topology. Messages traverse the links of
        ``topology.link_graph()``: on a direct machine
        (mesh/torus/hypercube/arbitrary) those are processor-processor
        links, on an indirect machine (fat-tree, dragonfly) they include
        switch-level links — switches forward traffic but never inject or
        absorb it, and buffers apply per switch link exactly as they do per
        processor link.
    bandwidth:
        Link bandwidth in bytes per microsecond (1 byte/us == 1 MB/s).
    alpha:
        Per-hop routing latency in microseconds.
    local_latency:
        Delivery latency of intra-processor messages (no links used).
    max_retries / retry_delay / retry_backoff:
        Overflow-retransmit knobs (see ``buffer_bytes``): a message
        tail-dropped at a full buffer is retransmitted end-to-end after
        ``retry_delay * retry_backoff**k`` microseconds on its ``k``-th
        attempt, up to ``max_retries`` times.
    unroutable_policy:
        What happens when a message's retries run out: ``"raise"``
        (default) surfaces a :class:`~repro.exceptions.SimulationError`;
        ``"drop"`` marks the message dropped and counts
        ``netsim.dropped``.
    buffer_bytes:
        Per-link input buffer capacity in bytes (``None``, the default:
        unbounded FIFO queues). A message arriving at a link whose queue
        cannot take its payload is tail-dropped there and retransmitted
        end-to-end under the retry knobs. NIC channels are unbounded (the
        endpoint memory is the buffer).
    retry_jitter / seed:
        Overload retransmits wait ``retry_delay * retry_backoff**k`` times
        ``1 + retry_jitter * U[0, 1)``, drawn from a generator seeded with
        ``seed``; event order is deterministic, so a seed replays bit for
        bit.
    stall_window:
        Livelock watchdog: :meth:`run` raises a
        :class:`~repro.exceptions.SimulationError` naming the oldest
        undelivered message if a full window passes with events firing but
        no delivery or final drop. It also arms the post-run drain check.
    kernel:
        ``None`` or ``"vectorized"``: the compiled body (falling back to
        the reference body, counted and warned once, without a C
        compiler); ``"reference"``: the Python event loop (tests and the
        ``des-kernel-differential`` oracle).

    The simulator snapshots :func:`repro.obs.active` at construction time:
    enable profiling *before* building it to record its ``netsim.*``
    counters: messages, transmissions, queue depths and saturations. With
    profiling disabled (the default) no telemetry code runs in Python.
    """

    def __init__(
        self,
        topology: Topology,
        bandwidth: float = 1000.0,
        alpha: float = 0.1,
        local_latency: float = 0.05,
        nic_bandwidth: float | None = None,
        routing: RoutingPolicy = RoutingPolicy.DOR,
        link_bandwidths: dict[tuple[int, int], float] | None = None,
        max_retries: int = 8,
        retry_delay: float = 5.0,
        retry_backoff: float = 2.0,
        unroutable_policy: str = "raise",
        buffer_bytes: float | None = None,
        retry_jitter: float = 0.0,
        seed: int = 0,
        stall_window: float | None = None,
        kernel: str | None = None,
    ):
        # Every real knob must be finite: a NaN would otherwise flow into
        # event times and fire out of order. Checked once, here, so the
        # per-hop path never re-validates.
        self._bandwidth = _knob("bandwidth", bandwidth)
        # Heterogeneous machines: per-directed-link overrides of the default
        # bandwidth ((a, b) applies to both directions unless (b, a) is also
        # given explicitly).
        self._link_bandwidths: dict[tuple[int, int], float] = {}
        if link_bandwidths:
            graph = topology.link_graph()
            for link, bw in link_bandwidths.items():
                bw = _knob(f"link {link} bandwidth", bw)
                a, b = int(link[0]), int(link[1])
                if not graph.has_link(a, b):
                    raise SimulationError(
                        f"link ({a}, {b}) in link_bandwidths is not a link "
                        f"of {topology.name}"
                    )
                self._link_bandwidths[(a, b)] = bw
                self._link_bandwidths.setdefault((b, a), bw)
        self._nic_bandwidth = (
            None if nic_bandwidth is None else _knob("nic_bandwidth", nic_bandwidth)
        )
        self._alpha = _knob("alpha", alpha, strict=False)
        self._local = _knob("local_latency", local_latency, strict=False)
        if max_retries < 0:
            raise SimulationError(f"max_retries must be >= 0, got {max_retries}")
        self._retry_delay = _knob("retry_delay", retry_delay)
        self._retry_backoff = _knob("retry_backoff", retry_backoff, 1.0, strict=False)
        if unroutable_policy not in ("raise", "drop"):
            raise SimulationError(
                f"unroutable_policy must be 'raise' or 'drop', "
                f"got {unroutable_policy!r}"
            )
        self._buffer_bytes = (
            None if buffer_bytes is None else _knob("buffer_bytes", buffer_bytes)
        )
        self._retry_jitter = _knob("retry_jitter", retry_jitter, strict=False)
        self._stall_window = (
            None if stall_window is None else _knob("stall_window", stall_window)
        )
        self._topology = topology
        self._num_procs = topology.num_nodes
        self._routing = RoutingPolicy(routing)
        # NIC channels wrap every network route, and do not count as hops.
        self._nic_channels = 0 if self._nic_bandwidth is None else 2
        self._prof = obs.active()
        self.stats = MessageStats()
        # The compiled body runs the events in C (see des_kernel.c) and is
        # also the event queue.
        self._engine = None
        if resolve_kernel(kernel) == "vectorized":
            from repro.mapping._native import kernels_or_fallback

            native = kernels_or_fallback()
            if native is not None:
                self._engine = native.des_engine(
                    self.stats, self._prof, self._link_bandwidths,
                    self._nic_channels, _SATURATION_DEPTH, self._bandwidth,
                    self._alpha, self._buffer_bytes, self._nic_bandwidth,
                    self._num_procs, self._local,
                    -1 if self._retry_jitter else int(max_retries),
                    self._retry_delay, self._retry_backoff)
                self._engine.on_return = self._on_return
        self.queue = self._engine if self._engine is not None else EventQueue()
        self._links: dict[tuple, _Link] = {}
        # (src * num_procs + dst) -> the compiled body's route set id
        self._route_sets: dict[int, int] = {}
        # Routes are tuples of channel tuples: all-atomic, so the cyclic
        # garbage collector stops tracking them.
        self._routes: dict[tuple[int, int], tuple] = {}
        self._route_choices: dict[tuple[int, int], list[tuple]] = {}
        self._next_id = 0
        self._max_retries = int(max_retries)
        self._unroutable_policy = unroutable_policy
        self._seed = int(seed)
        self._rng = None  # lazily built np.random.Generator for retry jitter
        # Every send() message (on the compiled body; every message on the
        # reference body), with its delivery callback, until delivery or
        # final drop; lets the watchdog name the oldest stuck message and
        # the drain check detect wedges (queue empty, traffic undelivered).
        self._inflight: dict[int, tuple[Message, Callable | None]] = {}
        self._watch_mark = -1
        self._watchdog_armed = False

    # ------------------------------------------------------------------ misc
    @property
    def topology(self) -> Topology:
        """The simulated machine."""
        return self._topology

    @property
    def bandwidth(self) -> float:
        """Link bandwidth in bytes per microsecond."""
        return self._bandwidth

    @property
    def now(self) -> float:
        """Current simulation time in microseconds."""
        return self.queue.now

    @property
    def buffer_bytes(self) -> float | None:
        """Per-link buffer capacity; None means the unbounded seed model."""
        return self._buffer_bytes

    @property
    def in_flight(self) -> int:
        """Messages sent but not yet delivered or finally dropped."""
        return len(self._inflight) + (self._engine.inflight if self._engine else 0)

    def _route(self, src: int, dst: int) -> tuple:
        """Channel sequence for src -> dst: [NIC out], links..., [NIC in].

        When a finite ``nic_bandwidth`` is configured, every message also
        serializes through the source node's injection channel and the
        destination node's ejection channel — the per-node bottleneck real
        machines have (a BlueGene node cannot feed all six links at full
        rate from one core), which caps how much an optimal mapping can win
        by on bandwidth alone.
        """
        key = (src, dst)
        if self._routing is RoutingPolicy.ADAPTIVE:
            return self._pick_adaptive_route(key)
        route = self._routes.get(key)
        if route is None:
            route = self._wrap_nic(self._topology.route_links(src, dst), src, dst)
            self._routes[key] = route
        return route

    def _wrap_nic(self, links, src: int, dst: int) -> tuple:
        if self._nic_bandwidth is not None:
            return (("nic_out", src), *links, ("nic_in", dst))
        return tuple(links)

    def _route_choices_for(self, key: tuple[int, int]) -> list[tuple]:
        """Cached minimal-route candidates for ``key = (src, dst)``.

        On grid topologies: one minimal route per axis order; elsewhere only
        the canonical route exists.
        """
        choices = self._route_choices.get(key)
        if choices is None:
            src, dst = key
            topo = self._topology
            if isinstance(topo, GridTopology) and topo.ndim > 1:
                seen: set[tuple] = set()
                choices = []
                for order in permutations(range(topo.ndim)):
                    path = topo.route_axis_order(src, dst, order)
                    links = tuple(zip(path[:-1], path[1:]))
                    if links not in seen:
                        seen.add(links)
                        choices.append(self._wrap_nic(links, src, dst))
            else:
                choices = [self._wrap_nic(topo.route_links(src, dst), src, dst)]
            self._route_choices[key] = choices
        return choices

    def _pick_adaptive_route(self, key: tuple[int, int]) -> tuple:
        """Least-congested minimal route at injection time.

        Congestion score of a route = queued messages + busy flags over its
        links right now; the first route with the lowest score wins.
        """
        choices = self._route_choices_for(key)
        if len(choices) == 1:
            return choices[0]
        best, best_score = choices[0], None
        for route in choices:
            score = 0
            for channel in route:
                link = self._links.get(channel)
                if link is not None:
                    score += len(link.queue) + (link.current is not None)
            if best_score is None or score < best_score:
                best, best_score = route, score
        return best

    def _new_link(self, channel: tuple) -> _Link:
        """Create the state of ``channel`` on its first use."""
        if isinstance(channel[0], str):  # NIC channel
            link = _Link(self._nic_bandwidth, 0.0, None)
        else:
            link = _Link(self._link_bandwidths.get(channel, self._bandwidth),
                         self._alpha, self._buffer_bytes)
        self._links[channel] = link
        return link

    def _route_set(self, src: int, dst: int) -> int:
        """The compiled body's route set for ``src -> dst``, interned on
        first use: the DOR route, or the adaptive candidates, as flat
        channel names (see :func:`_channel_key`)."""
        route_set = self._route_sets.get(src * self._num_procs + dst)
        if route_set is not None:
            return route_set
        routes = (self._route_choices_for((src, dst)) if self._routing is
                  RoutingPolicy.ADAPTIVE else [self._route(src, dst)])
        route_set = self._engine.add_routes(
            [[v for ch in route for v in _channel_key(ch)] for route in routes])
        self._route_sets[src * self._num_procs + dst] = route_set
        return route_set

    # ------------------------------------------------------------------ send
    def send(
        self,
        src: int,
        dst: int,
        size_bytes: float,
        on_delivery: Callable[[Message], None] | None = None,
        at: float | None = None,
    ) -> Message:
        """Inject a message; returns its :class:`Message` record.

        ``on_delivery`` fires (with the record) when the tail reaches ``dst``.
        ``at`` defaults to the current simulation time. Both endpoints must
        be processors: switches of an indirect machine forward traffic but
        never inject or absorb it.
        """
        size_bytes = _knob("message size", size_bytes)
        send_time = self.queue.now if at is None else float(at)
        if not math.isfinite(send_time):
            raise SimulationError(f"send time must be finite, got {send_time}")
        src, dst = int(src), int(dst)
        if not (0 <= src < self._num_procs and 0 <= dst < self._num_procs):
            raise SimulationError(
                f"send endpoints must be processors in [0, {self._num_procs}), "
                f"got {src} -> {dst}"
            )
        # The event queue's causality check, made before the message exists
        # so that a rejected send leaves nothing in flight.
        first = send_time + self._local if src == dst else send_time
        if not self.queue.now <= first < math.inf:
            raise schedule_error(first, self.queue.now)
        engine = self._engine
        msg_id = self._next_id if engine is None else engine.next_id
        msg = Message(msg_id, src, dst, size_bytes, send_time)
        self._next_id = msg_id + 1
        self._inflight[msg_id] = (msg, on_delivery)
        if self._prof is not None:
            self._prof.count("netsim.messages")
            if msg.src == msg.dst:
                self._prof.count("netsim.local_messages")

        if engine is not None:
            engine.send(msg_id, size_bytes,
                        -1 if src == dst else self._route_set(src, dst),
                        send_time, src * self._num_procs + dst)
            return msg
        if msg.src == msg.dst:  # same processor: no network involved
            self.queue.call(send_time + self._local, self._deliver, msg, on_delivery)
            return msg

        # Route selection is deferred to the injection instant so the
        # adaptive policy sees the congestion state *then*, not at whatever
        # earlier time the caller scheduled the send.
        self.queue.call(send_time, self._inject, msg, on_delivery)
        return msg

    def _inject(self, msg: Message, on_delivery) -> None:
        route = self._route(msg.src, msg.dst)
        msg.hops = len(route) - self._nic_channels
        self._head_arrival(msg, route, 0, on_delivery)

    # ------------------------------------------------------------ link logic
    def _head_arrival(self, msg: Message, route, hop: int, on_delivery) -> None:
        """The head of ``msg`` reached the input of ``route[hop]``."""
        channel = route[hop]
        link = self._links.get(channel)
        if link is None:
            link = self._new_link(channel)
        if link.current is None:
            self._start_transmission(link, msg, route, hop, on_delivery)
            return
        # NIC channels (capacity None) stay unbounded even under finite link
        # buffers: the endpoint's memory is the buffer.
        capacity = link.capacity
        if capacity is not None:
            size = msg.size_bytes
            if link.buffered_bytes + size > capacity:
                self._on_overflow(msg, channel, on_delivery)
                return
            link.buffered_bytes += size
        # Busy: append to the FIFO with depth/saturation bookkeeping.
        link.queue.append((msg, route, hop, on_delivery))
        depth = len(link.queue)
        if depth > link.max_queue:
            link.max_queue = depth
        if self._prof is not None:
            self._prof.count("netsim.enqueues")
            self._prof.count_max("netsim.max_queue_depth", depth)
            if depth >= _SATURATION_DEPTH and not link.saturated:
                link.saturated = True
                self._prof.count("netsim.saturation_events")

    def _start_transmission(self, link: _Link, msg: Message, route, hop: int,
                            on_delivery) -> None:
        queue = self.queue
        now = queue.now
        size = msg.size_bytes
        occupancy = link.alpha + size / link.bandwidth
        link.current = msg
        link.busy_time += occupancy
        link.bytes_carried += size
        if self._prof is not None:
            self._prof.count("netsim.transmissions")
        done = now + occupancy
        if hop == len(route) - 1:
            # Tail fully received at the destination once serialization ends.
            queue.call(done, self._deliver, msg, on_delivery)
        else:
            # Cut-through: the head moves on after the routing latency.
            queue.call(now + link.alpha, self._head_arrival, msg, route,
                       hop + 1, on_delivery)
        queue.call(done, self._link_free, link)

    def _link_free(self, link: _Link) -> None:
        link.current = None
        if link.queue:
            msg, route, hop, on_delivery = link.queue.popleft()
            if link.capacity is not None:
                link.buffered_bytes -= msg.size_bytes
            self._start_transmission(link, msg, route, hop, on_delivery)
        else:
            link.saturated = False

    # ------------------------------------------------------ finite buffers
    def _on_overflow(self, msg: Message, channel: tuple, on_delivery) -> None:
        """Tail-drop at a full buffer; retransmit end-to-end with backoff.

        ``msg`` is re-injected after ``retry_delay * retry_backoff**attempts``,
        stretched by ``1 + retry_jitter * U[0, 1)`` from the seeded generator
        when jitter is on. Past ``max_retries`` it is dropped, and the reason
        names the full link.
        """
        self.stats.buffer_drops += 1
        if self._prof is not None:
            self._prof.count("netsim.buffer_drops")
        if msg.attempts >= self._max_retries:
            self._drop(msg, f"buffer overflow at link {channel_name(channel)}: "
                            f"retries exhausted after {msg.attempts} attempts")
            return
        delay = self._retry_delay * self._retry_backoff ** msg.attempts
        if self._retry_jitter:
            if self._rng is None:
                self._rng = np.random.default_rng(self._seed)
            delay *= 1.0 + self._retry_jitter * float(self._rng.random())
        msg.attempts += 1
        self.stats.retransmits += 1
        if self._prof is not None:
            self._prof.count("netsim.retransmits")
        time = self.queue.now + delay
        if self._engine is not None:
            self._engine.inject(msg.msg_id, time, msg.attempts)
        else:
            self.queue.call(time, self._inject, msg, on_delivery)

    def _deliver(self, msg: Message, on_delivery) -> None:
        msg.deliver_time = self.queue.now
        self.stats.record(msg)
        self._delivered(msg, on_delivery)

    def _delivered(self, msg: Message, on_delivery) -> None:
        """Release a recorded delivery and call back."""
        self._inflight.pop(msg.msg_id, None)
        if self._prof is not None:
            self._prof.count("netsim.delivered")
        if on_delivery is not None:
            on_delivery(msg)

    def _drop(self, msg: Message, reason: str) -> None:
        if self._unroutable_policy == "raise":
            raise SimulationError(
                f"message {msg.msg_id} ({msg.src} -> {msg.dst}) is "
                f"undeliverable: {reason}"
            )
        msg.dropped = True
        if self._inflight.pop(msg.msg_id, None) is None and self._engine:
            self._engine.drop(msg.msg_id)
        self.stats.record_drop(msg)
        if self._prof is not None:
            self._prof.count("netsim.dropped")

    # ------------------------------------------------------------------- run
    def _progress(self) -> int:
        """Monotone progress metric: resolved messages so far."""
        return self.stats.count + self.stats.dropped

    def _oldest_inflight(self) -> Message:
        msgs = [msg for msg, _ in self._inflight.values()]
        if self._engine is not None and self._engine.inflight:
            msgs.append(self._entry(-1)[0])
        return min(msgs, key=lambda m: (m.send_time, m.msg_id))

    def _watchdog_tick(self) -> None:
        self._watchdog_armed = False
        if not self.in_flight:
            return  # every message resolved; the watchdog retires
        progress = self._progress()
        if progress == self._watch_mark and self.queue.pending > 0:
            oldest = self._oldest_inflight()
            raise SimulationError(
                f"livelock: no delivery progress for {self._stall_window} us "
                f"({self.in_flight} message(s) in flight); oldest is "
                f"message {oldest.msg_id} ({oldest.src} -> {oldest.dst}, "
                f"sent at t={oldest.send_time}, attempts={oldest.attempts})"
            )
        if self.queue.pending == 0:
            return  # nothing scheduled; the post-run drain check reports wedges
        self._watch_mark = progress
        self._watchdog_armed = True
        self.queue.schedule(self.queue.now + self._stall_window,
                            self._watchdog_tick)

    def run(self, max_events: int | None = None,
            until: float | None = None) -> float:
        """Drain the event queue; return the final simulation time.

        ``max_events`` / ``until`` bound the run (events / a simulation-time
        deadline); with a ``stall_window`` configured the livelock watchdog
        is armed for the duration, and after the queue drains a wedge check
        raises if messages remain undelivered with no event left to make
        progress.
        """
        if (
            self._stall_window is not None
            and not self._watchdog_armed
            and self.queue.pending > 0
        ):
            self._watch_mark = self._progress()
            self._watchdog_armed = True
            self.queue.schedule(self.queue.now + self._stall_window,
                                self._watchdog_tick)
        end = self.queue.run(max_events, until=until)
        if (
            self.in_flight
            and self.queue.pending == 0
            and self._stall_window is not None
        ):
            oldest = self._oldest_inflight()
            raise SimulationError(
                f"simulation wedged: event queue drained with "
                f"{self.in_flight} undelivered message(s); oldest is "
                f"message {oldest.msg_id} ({oldest.src} -> {oldest.dst}, "
                f"sent at t={oldest.send_time}, attempts={oldest.attempts})"
            )
        return end

    # ------------------------------------------------------ compiled body
    def _entry(self, msg_id: int) -> tuple[Message, Callable | None]:
        """``(message, on_delivery)`` of a message the compiled body hands
        back: a :meth:`send` message, or an application message built from
        C's record (``msg_id`` < 0: the oldest one in flight)."""
        return self._inflight.get(msg_id) or (self._engine.message(msg_id), None)

    def _start_app(self, iterations: int, arrays: tuple) -> None:
        """Hand an application's closed loop to the compiled body (see
        :meth:`IterativeApplication.start`): C walks a grid's routes, and
        elsewhere each traffic-carrying pair's route set is interned here."""
        indptr, indices, _, assign = arrays[:4]
        sets, grid = None, self._grid()
        if grid is None:
            src = np.repeat(assign, np.diff(indptr)).tolist()
            sets = np.array([-1 if a == b else self._route_set(a, b)
                             for a, b in zip(src, assign[indices].tolist())],
                            dtype=np.int64)
        self._engine.start_app(iterations, arrays, sets, grid)

    def _grid(self) -> np.ndarray | None:
        """``(ndim, wraparound, adaptive, *shape)`` of a Torus or Mesh."""
        topo = self._topology
        if isinstance(topo, GridTopology) and topo.ndim <= 8:
            return np.array([topo.ndim, topo.wraparound, self._routing
                             is RoutingPolicy.ADAPTIVE, *topo.shape])
        return None

    def _on_return(self, code: int, msg_id: int, hops: int) -> None:
        """A message the compiled body hands back to Python."""
        msg, on_delivery = self._entry(msg_id)
        msg.hops = hops
        engine = self._engine
        if code == engine.DELIVER:  # C recorded it
            msg.deliver_time = self.queue.now
            self._delivered(msg, on_delivery)
        else:
            self._on_overflow(msg, _channel_of(*engine.overflow_channel),
                              on_delivery)

    # ----------------------------------------------------------------- stats
    def _link_rows(self) -> list[tuple]:
        """``(channel, busy, bytes, max_queue, buffered)`` per used channel,
        in first-use order."""
        if self._engine is not None:
            return [(_channel_of(x, y), *rest)
                    for x, y, *rest in self._engine.links()]
        return [(k, v.busy_time, v.bytes_carried, v.max_queue,
                 v.buffered_bytes) for k, v in self._links.items()]

    def link_busy_times(self) -> dict[tuple[int, int], float]:
        """Accumulated occupancy per directed link (microseconds)."""
        return {row[0]: row[1] for row in self._link_rows()}

    def link_bytes(self) -> dict[tuple[int, int], float]:
        """Payload bytes carried per directed link."""
        return {row[0]: row[2] for row in self._link_rows()}

    def link_queue_peaks(self) -> dict[tuple[int, int], int]:
        """Deepest FIFO backlog each directed link ever accumulated."""
        return {row[0]: row[3] for row in self._link_rows()}
