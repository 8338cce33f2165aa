"""On-demand compiled kernels for the mappers', partitioners' and DES's production paths.

One shared object is built from two C files. ``repro.mapping.refine_kernel.c``
holds seven scalar entry points: RefineTopoLB's cost table and one sweep with
the incremental delta structure, the cycle loop of first- and second-order
TopoLB, the cycle loop of third-order TopoLB, and the three loops of the
phase-1 partitioner — one graph-growing bisection over a range of an order
array, the whole recursion of such bisections (drawing from the caller's
``np.random.Generator`` through its bit generator), and one FM refinement
pass. ``repro.netsim.des_kernel.c`` holds the discrete-event simulator's
event core and closed-loop replay behind eight entry points, wrapped by
:class:`DesEngine`, and the flow estimator's per-link loads on a grid:
sixteen in all.

This module compiles both files with the system C compiler
(``cc``/``gcc``/``clang``) the first time they are needed,
caches the shared object under the system temp directory keyed by a hash of
the sources and build flags, and loads it through :mod:`ctypes` — no
third-party build dependency. ``-ffp-contract=off`` keeps the C arithmetic
bitwise identical to the Python reference bodies — no fused multiply-adds.

Every call site is compiled or reference, with nothing in between: when
:func:`kernels_or_fallback` returns ``None`` (no C compiler, a failed build,
or ``REPRO_NO_NATIVE`` set) it runs its bit-identical reference body — the
``kernel="reference"`` loops of RefineTopoLB and TopoLB, the partitioner's
walks over ``csr_lists``, and the simulator's Python event loop. The
wrappers check each array's size and dtype once, when a run binds them, and
pass raw pointers on every call.
"""

from __future__ import annotations

import array
import ctypes
import hashlib
import math
import os
import shutil
import struct
import subprocess
import tempfile
import threading
import warnings
import weakref

import numpy as np

from repro import obs

__all__ = ["load", "available", "kernels_or_fallback"]

_HERE = os.path.dirname(__file__)
_SOURCES = (os.path.join(_HERE, "refine_kernel.c"),
            os.path.join(os.path.dirname(_HERE), "netsim", "des_kernel.c"))
_CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")

_lock = threading.Lock()
_UNSET = object()
_cached: object = _UNSET
_error: str | None = None  # why the build failed, once it has
_warned = False


class NativeKernels:
    """Typed entry points of the compiled functions. Each one checks its
    arrays' sizes and dtypes once and passes raw pointers."""

    def __init__(self, lib: ctypes.CDLL):
        i64, ptr = ctypes.c_int64, ctypes.c_void_p

        def bind(name, restype, *argtypes):
            fn = getattr(lib, name)
            fn.restype = restype
            fn.argtypes = list(argtypes)
            return fn

        self._cost_table = bind("refine_cost_table", None,
                                i64, i64, *[ptr] * 6)
        self._sweep = bind("refine_sweep_incremental", i64,
                           i64, i64, *[ptr] * 11)
        self._cycles = (bind("topolb_cycles", i64,
                             *[i64] * 5, *[ptr] * 18),
                        bind("topolb3_cycles", i64,
                             *[i64] * 3, *[ptr] * 17))
        self._bisect = bind("partition_bisect", i64,
                            i64, *[ptr] * 6, *[i64] * 5, ctypes.c_double)
        self._recursive = bind("partition_recursive", i64,
                               i64, *[ptr] * 7, i64, ptr, ptr)
        self._link_loads = bind("grid_link_loads", i64,
                                i64, ptr, i64, ptr, i64, *[ptr] * 7)
        self._refine_pass = bind("partition_refine_pass", i64,
                                 i64, *[ptr] * 8, ctypes.c_double,
                                 *[ptr] * 3)
        self._des = (
            bind("des_new", ptr, i64, i64, ptr, ptr, *[ctypes.c_double] * 4,
                 i64, ctypes.c_double, i64, *[ctypes.c_double] * 2),
            bind("des_free", None, ptr),
            bind("des_run", i64, ptr),
            bind("des_links", None, ptr, *[ptr] * 6),
            bind("des_app", i64, ptr, i64, i64, *[ptr] * 9),
            bind("des_message", i64, ptr, i64, ptr),
            bind("des_drop", None, ptr, i64),
            bind("des_stats", None, ptr, i64, ptr, ptr),
        )

    def refine_cost_table(self, indptr, indices, weights, assign,
                          dist) -> np.ndarray:
        """RefineTopoLB's ``(n, p)`` cost table, bitwise equal to
        ``csr_matrix((weights, assign[indices], indptr)) @ dist``."""
        n, p = assign.size, dist.shape[0]
        if not (0 <= assign.min() and assign.max() < p):
            raise ValueError("refine_cost_table: assign must hold processors")
        cost = np.empty((n, p))
        self._cost_table(n, p, *_csr_ptrs(indptr, indices, n, weights),
                         _ptr(assign, np.int64, n, "assign"),
                         _ptr(dist, np.float64, p * p, "dist"),
                         cost.ctypes.data)
        return cost

    def refine_sweeper(self, cost, dist, assign, indptr,
                       indices, weights) -> "RefineSweeper":
        """``refine_sweep_incremental`` bound to one cost table (see
        :class:`RefineSweeper`)."""
        return RefineSweeper(self._sweep, cost, dist, assign, indptr,
                             indices, weights)

    def topolb_cycles(self, fest, dist, avg, indptr, indices, weights,
                      order: int, selection: str, score, avail_f,
                      reserve: int, uc=None) -> "TopoLBCycles":
        """``topolb_cycles`` (orders 1–2) or ``topolb3_cycles`` (order 3)
        bound to one run (see :class:`TopoLBCycles`)."""
        return TopoLBCycles(self._cycles, fest, dist, avg, indptr, indices,
                            weights, order, selection, score, avail_f,
                            reserve, uc)

    def partition_bisector(self, indptr, indices, vertex_weights,
                           order) -> "PartitionBisector":
        """``partition_bisect`` bound to one graph and one ``order`` array
        (see :class:`PartitionBisector`)."""
        return PartitionBisector((self._bisect, self._recursive), indptr,
                                 indices, vertex_weights, order)

    def grid_link_loads(self, topo, src, dst, sizes) -> tuple:
        """The flow estimator's per-link ``(tails, heads, bytes, messages)``
        of the messages ``src[i] -> dst[i]`` of ``sizes[i]`` bytes under
        dimension-ordered routing on the grid ``topo``, in one call: bitwise
        equal to ``repro.netsim.flow._grid_link_loads``."""
        shape = np.asarray(topo.shape, dtype=np.int64)
        p, m = topo.num_nodes, len(src)
        axes = np.ascontiguousarray(topo.coords_array().T, dtype=np.int32)
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        sizes = np.ascontiguousarray(sizes, dtype=np.float64)
        if m and not (0 <= min(src.min(), dst.min())
                      and max(src.max(), dst.max()) < p):
            raise ValueError("grid_link_loads: messages must join processors")
        cap = 2 * shape.size * p
        out = (np.empty(cap, dtype=np.int64), np.empty(cap, dtype=np.int64),
               np.empty(cap), np.empty(cap, dtype=np.int64))
        k = _checked(self._link_loads(
            shape.size, shape.ctypes.data, int(topo.wraparound),
            _ptr(axes, np.int32, shape.size * p, "axes"), m,
            _ptr(src, np.int64, m, "src"), _ptr(dst, np.int64, m, "dst"),
            _ptr(sizes, np.float64, m, "sizes"),
            *(a.ctypes.data for a in out)))
        return tuple(a[:k].copy() for a in out)

    def des_engine(self, *params) -> "DesEngine":
        """A fresh compiled DES core (see :class:`DesEngine`)."""
        return DesEngine(self._des, *params)

    def partition_refine_pass(self, indptr, indices, edge_weights,
                              vertex_weights, groups, loads, counts, perm,
                              max_load: float) -> bool:
        """One ``refine_kway`` pass over ``perm``, in place on ``groups``
        (int64), ``loads`` (float64) and ``counts`` (int64), both of length
        k; True if a vertex moved."""
        n = vertex_weights.size
        k = loads.size
        if not (counts.size == k and 0 <= groups.min() and groups.max() < k
                and 0 <= perm.min() and perm.max() < n):
            raise ValueError("partition_refine_pass: inconsistent array sizes")
        ptrs = _graph_ptrs(indptr, indices, vertex_weights, edge_weights)
        ptrs += [_ptr(groups, np.int64, n, "groups", out=True),
                 _ptr(loads, np.float64, k, "loads", out=True),
                 _ptr(counts, np.int64, k, "counts", out=True),
                 _ptr(perm, np.int64, n, "perm")]
        conn = np.zeros(k)
        seen = np.zeros(k, dtype=np.uint8)
        cand = np.empty(k, dtype=np.int64)
        return bool(self._refine_pass(n, *ptrs, max_load, conn.ctypes.data,
                                      seen.ctypes.data, cand.ctypes.data))


class RefineSweeper:
    """RefineTopoLB's incremental sweeps over one ``(n, p)`` cost table.

    ``sweep(perm)`` runs one sweep in the order ``perm`` and returns True
    if a swap was accepted; ``cost`` and ``assign`` update in place. The
    best-swap caches persist across sweeps. ``stats`` is cumulative:
    visits, accepted swaps, rows computed, rows folded.
    """

    __slots__ = ("stats", "_perm", "_fn", "_args", "_keep")

    def __init__(self, fn, cost, dist, assign, indptr, indices, weights):
        n, p = cost.shape
        self.stats = np.zeros(4, dtype=np.int64)
        self._perm = np.empty(n, dtype=np.int64)
        best_b = np.zeros(n, dtype=np.int64)
        best_val = np.zeros(n)
        valid = np.zeros(n, dtype=np.uint8)
        self._fn = fn
        self._keep = (cost, dist, assign, indptr, indices, weights, best_b,
                      best_val, valid)
        self._args = (n, p, _ptr(cost, np.float64, n * p, "cost", out=True),
                      _ptr(dist, np.float64, p * p, "dist"),
                      _ptr(assign, np.int64, n, "assign", out=True),
                      *_csr_ptrs(indptr, indices, n, weights),
                      self._perm.ctypes.data, best_b.ctypes.data,
                      best_val.ctypes.data, valid.ctypes.data,
                      self.stats.ctypes.data)

    def sweep(self, perm: np.ndarray) -> bool:
        self._perm[:] = perm
        rc = self._fn(*self._args)
        if rc < 0:  # pragma: no cover - allocation failure inside C
            raise MemoryError("refine_sweep_incremental scratch allocation")
        return bool(rc)


class TopoLBCycles:
    """TopoLB's cycle loop over one ``fest`` table.

    Each call runs cycles in C until the run ends, returning ``None``, or,
    under the "gain" rule, until a cycle changed rows, returning them: the
    caller refreshes their sums in ``score`` (``score[rows] = fest[rows] @
    avail_f``) and calls again. ``score`` is the free-column row sums under
    "gain", the static volumes under "volume", and unread under "max_cost".
    ``avail_f`` (1.0 at a free processor) and ``fest`` update in place.
    Afterwards ``assignment`` holds the placement and :meth:`counters` the
    five ``topolb.*`` counters.

    Orders 1–2 (``topolb_cycles``) keep ``reserve`` candidates per row and
    return the dirty rows' ascending ids; ``avg`` is the fixed average
    distance and ``uc`` unread. Order 3 (``topolb3_cycles``) rebuilds every
    unplaced row each cycle and compacts those rows into ``fest[:m]``, in
    ascending task order, so it returns ``slice(0, m)`` and ``score`` is
    indexed by that row slot; ``avg`` (the free-processor average) and
    ``uc`` (each task's volume to its unplaced neighbours) update in place.
    """

    __slots__ = ("assignment", "_rows", "_state", "_fn", "_args", "_keep")

    _SELECTIONS = ("gain", "max_cost", "volume")

    def __init__(self, fns, fest, dist, avg, indptr, indices, weights, order,
                 selection, score, avail_f, reserve, uc):
        n, p = fest.shape
        free_ids = np.flatnonzero(avail_f).astype(np.int64)
        if not ((order in (1, 2) or order == 3 and uc is not None)
                and 0 < reserve and 0 < n <= free_ids.size):
            raise ValueError("topolb_cycles: bad order, reserve or sizes")
        self.assignment = np.full(n, -1, dtype=np.int64)
        self._state = np.zeros(6, dtype=np.int64)
        self._state[1] = free_ids.size
        sel = self._SELECTIONS.index(selection)
        if order == 3:
            self._fn, lead, self._rows = fns[1], (n, p, sel), None
            uc_ptr = [_ptr(uc, np.float64, n, "uc", out=True)]
            # f_min, f_argmin, delta, slot_task, task_slot
            own = (np.empty(n), np.empty(n, dtype=np.int64), np.zeros(p),
                   np.arange(n, dtype=np.int64), np.arange(n, dtype=np.int64))
        else:
            self._fn, lead = fns[0], (n, p, reserve, order, sel)
            self._rows = np.empty(2 * n, dtype=np.int64)
            uc_ptr = []
            # f_min, f_argmin, res_vals, res_ids, res_pos, unassigned, dirty
            own = (np.empty(n), np.empty(n, dtype=np.int64),
                   np.empty(n * reserve),
                   np.empty(n * reserve, dtype=np.int64),
                   np.empty(n, dtype=np.int64), np.ones(n, dtype=np.uint8),
                   self._rows)
        self._keep = (fest, dist, avg, indptr, indices, weights, score, uc,
                      avail_f, free_ids, own)
        self._args = (*lead, _ptr(fest, np.float64, n * p, "fest", out=True),
                      _ptr(dist, np.float64, p * p, "dist"),
                      _ptr(avg, np.float64, p, "avg", out=order == 3),
                      *_csr_ptrs(indptr, indices, n, weights),
                      _ptr(score, np.float64, n, "score", out=True), *uc_ptr,
                      *(a.ctypes.data for a in own),
                      _ptr(avail_f, np.float64, p, "avail_f", out=True),
                      free_ids.ctypes.data, self.assignment.ctypes.data,
                      self._state.ctypes.data)

    def __call__(self) -> np.ndarray | slice | None:
        k = self._fn(*self._args)
        if not k:
            return None
        return slice(0, k) if self._rows is None else self._rows[:k]

    def counters(self) -> dict[str, int]:
        cycles, _, hits, exhaustions, rebuilt, updates = self._state.tolist()
        return {"topolb.cycles": cycles, "topolb.reserve_hits": hits,
                "topolb.reserve_exhaustions": exhaustions,
                "topolb.rows_rebuilt": rebuilt,
                "topolb.neighbor_updates": updates}


class PartitionBisector:
    """Graph-growing bisection over ranges of one ``order`` array.

    ``bisect(lo, hi, r, k1, k2, target)`` splits ``order[lo:hi]`` in
    place, stably, side A first, and returns |A|. Side A grows by BFS from
    a pseudo-peripheral seed found from ``order[lo + r]`` until it holds
    ``target`` load, with at least ``k1`` members and leaving at least
    ``k2``. :meth:`split` runs the whole recursion of such bisections in
    one call. Array sizes and dtypes are checked once, here; each call
    passes raw pointers. ``state`` is the all-zero scratch every call
    restores.
    """

    __slots__ = ("order", "state", "_fn", "_recursive", "_args", "_keep")

    def __init__(self, fns, indptr, indices, vertex_weights, order):
        n = vertex_weights.size
        if not (0 < order.size <= n and 0 <= order.min()
                and order.max() < n):
            raise ValueError("partition_bisect: order must hold vertex ids")
        graph = _graph_ptrs(indptr, indices, vertex_weights)
        self.order = order
        self.state = np.zeros(n, dtype=np.uint8)
        queue = np.empty(n, dtype=np.int64)
        self._fn, self._recursive = fns
        self._keep = (indptr, indices, vertex_weights, queue)
        self._args = (order.size, *graph,
                      _ptr(order, np.int64, order.size, "order", out=True),
                      self.state.ctypes.data, queue.ctypes.data)

    def __call__(self, lo: int, hi: int, r: int, k1: int, k2: int,
                 target: float) -> int:
        na = self._fn(*self._args, lo, hi, r, k1, k2, target)
        if na < 0:
            raise ValueError(
                f"partition_bisect: bad range [{lo}, {hi}) with r={r}, "
                f"k1={k1}, k2={k2}")
        return na

    def split(self, k: int, rng: np.random.Generator) -> np.ndarray:
        """Recursively bisect all of ``order`` into ``k`` leaves and return
        their sizes, in one call; ``order`` ends grouped leaf by leaf.

        A range of ``k > 1`` leaves draws ``r = rng.integers(0, hi - lo)``
        from ``rng``'s own bit generator, under its lock, targets side A at
        the NumPy pairwise sum of the range's weights times ``k1 / k`` (``k1
        = k // 2``), bisects, then splits side A and side B in that order:
        the draws, the targets and ``rng``'s final state are those of
        ``repro.partition.recursive_bisection._split_lists``."""
        sizes = np.zeros(k, dtype=np.int64)
        gather = np.empty(self.order.size)
        bitgen = rng.bit_generator
        with bitgen.lock:
            rc = self._recursive(*self._args, gather.ctypes.data, k,
                                 bitgen.ctypes.bit_generator, sizes.ctypes.data)
        if rc < 0:
            raise ValueError(f"partition_recursive: cannot split "
                             f"{self.order.size} vertices into {k}")
        return sizes


# Slots of the io[] array shared with des_kernel.c, and des_run's return
# codes (see its enums).
(_IO_PENDING, _IO_PROCESSED, _IO_CHX, _IO_CHY, _IO_HOPS, _IO_USED,
 _IO_LIMIT, _IO_UNTIL, _IO_NCHANS, _IO_CHANS, _IO_NROUTES, _IO_ROUTES,
 _IO_NOPS, _IO_OPS, _IO_NMSG, _IO_INFLIGHT, _IO_DELIVERED, _IO_RETRANSMITS,
 _IO_TRANSMITS, _IO_ENQUEUES, _IO_SATURATIONS, _IO_SENDS, _IO_LOCAL_SENDS,
 _IO_APP_DELIVERED, _IO_MAX_DEPTH, _IO_SIZE) = range(26)
_RC_STOP, _RC_PY, _RC_DELIVER, _RC_OVERFLOW = range(4)
_OP_PY, _OP_SEND, _OP_INJECT = 0.0, 1.0, 2.0  # push kinds
#: The counters C keeps in io[] and the profiler counter each one adds to;
#: C retransmits only after a buffer drop, so one count feeds two.
_COUNTERS = ((_IO_RETRANSMITS, "netsim.buffer_drops"),
             (_IO_RETRANSMITS, "netsim.retransmits"),
             (_IO_TRANSMITS, "netsim.transmissions"),
             (_IO_ENQUEUES, "netsim.enqueues"),
             (_IO_SATURATIONS, "netsim.saturation_events"),
             (_IO_SENDS, "netsim.messages"),
             (_IO_LOCAL_SENDS, "netsim.local_messages"),
             (_IO_APP_DELIVERED, "netsim.delivered"))


class DesEngine:
    """The compiled event core of one :class:`~repro.netsim.NetworkSimulator`.

    It is also the simulator's ``queue``, with the API of
    :class:`~repro.netsim.eventqueue.EventQueue`: ``call``, ``schedule``,
    ``run``, ``step``, ``now``, ``pending`` and ``processed``. A Python
    callback is a heap record pointing to a ``(fn, args)`` slot kept here;
    the per-hop events, deliveries and :meth:`start_app`'s closed loops run
    in C. Route sets and every push are buffered here, in arrays that io[]
    always describes, and C applies them at the start of the next
    ``des_run`` call; so C is entered once per return, not once per
    message.

    A channel is named by two ints: ``(a, b)`` for a link, ``(-1, p)`` and
    ``(-2, p)`` for processor ``p``'s NIC channels; C interns each name on
    first sight with the default parameters given here, or with the
    bandwidth of ``overrides`` (``{(a, b): bandwidth}``); the parameters
    after it are ``des_new``'s. At each return, before any Python event
    runs, the wrapper adds C's new delivery records, retransmits and buffer
    drops to ``stats`` (a :class:`~repro.netsim.messages.MessageStats`)
    and, given a profiler ``prof``, C's ``netsim.*`` counts to it; ``prof``
    also counts the returns as ``kernel.des_returns``. The simulator sets
    the hook ``on_return(code, msg_id, hops)``, which handles a message C
    hands back: :attr:`DELIVER` (a ``send`` message, already recorded) or
    :attr:`OVERFLOW` (the full channel is :attr:`overflow_channel`);
    ``hops`` is its route length, NIC channels excluded.
    """

    DELIVER, OVERFLOW = _RC_DELIVER, _RC_OVERFLOW
    _PACK_OP = struct.Struct("6d").pack_into

    __slots__ = ("on_return", "stats", "_prof", "_fns", "_late",
                 "_h", "_io", "_dio", "_slots", "_next_slot",
                 "_chans", "_routes", "_ops", "_nsets", "_keep",
                 "__weakref__")

    def __init__(self, fns, stats, prof, overrides, nic_channels,
                 saturation_depth, bandwidth, alpha, capacity, nic_bandwidth,
                 nprocs, local, max_retries, retry_delay, retry_backoff):
        from repro.netsim.eventqueue import schedule_error

        self._fns = fns
        self._late = schedule_error
        self._io = (ctypes.c_int64 * _IO_SIZE)()
        self._dio = (ctypes.c_double * 4)()
        handle = fns[0](nic_channels, saturation_depth,
                        ctypes.addressof(self._io),
                        ctypes.addressof(self._dio), bandwidth, alpha,
                        -1.0 if capacity is None else capacity,
                        -1.0 if nic_bandwidth is None else nic_bandwidth,
                        nprocs, local, max_retries, retry_delay,
                        retry_backoff)
        if not handle:  # pragma: no cover - allocation failure inside C
            raise MemoryError("des_new")
        self._h = ctypes.c_void_p(handle)
        weakref.finalize(self, fns[1], handle)
        self._slots: dict[int, tuple] = {}
        self._next_slot = self._nsets = 0
        self._keep: list = []  # arrays C holds pointers into
        # Applied at the next des_run: link overrides (3 doubles each), route
        # sets (int64 words) and pushes (6 doubles each); io[] holds each
        # buffer's address and the count C has not applied yet.
        self._chans = array.array("d", [v for (a, b), bw in overrides.items()
                                        for v in (a, b, bw)])
        self._io[_IO_NCHANS] = len(self._chans) // 3
        self._io[_IO_CHANS] = self._chans.buffer_info()[0]
        self._routes = array.array("q")
        self._ops = np.empty(6 * 64)
        self._io[_IO_OPS] = self._ops.ctypes.data
        self.on_return = None
        self.stats = stats
        self._prof = prof

    # ------------------------------------------------------ EventQueue API
    @property
    def now(self) -> float:
        """Current simulation time (time of the last fired event)."""
        return self._dio[0]

    @property
    def pending(self) -> int:
        """Number of events not yet fired, of both kinds."""
        return self._io[_IO_PENDING] + self._io[_IO_NOPS]

    @property
    def processed(self) -> int:
        """Number of events fired so far, of both kinds."""
        return self._io[_IO_PROCESSED]

    def call(self, time: float, fn, *args) -> None:
        """Fire ``fn(*args)`` at simulation ``time``."""
        if not time >= self._dio[0]:
            raise self._late(time, self._dio[0])
        slot = self._next_slot
        self._next_slot = slot + 1
        self._slots[slot] = (fn, args)
        self._push(_OP_PY, slot, 0.0, 0.0, 0.0, time)

    def schedule(self, time: float, callback) -> None:
        """Fire ``callback()`` at simulation ``time``."""
        self.call(float(time), callback)

    def run(self, max_events: int | None = None,
            until: float | None = None) -> float:
        """Fire events as :meth:`EventQueue.run` does; return the final time."""
        io, slots = self._io, self._slots
        io[_IO_LIMIT] = -1 if max_events is None else max(int(max_events), 0)
        io[_IO_UNTIL] = until is not None
        self._dio[1] = math.inf if until is None else until
        run_c, h, on_return = self._fns[2], self._h, self.on_return
        prof = self._prof
        while True:
            r = run_c(h)
            if prof is not None:
                self._pull_counters(prof)
            if io[_IO_DELIVERED] != self.stats.count or io[_IO_RETRANSMITS]:
                self._pull_stats()
            code = r & 7
            if code == _RC_PY:
                fn, args = slots.pop(r >> 3)
                fn(*args)
            elif code == _RC_STOP:
                return self._dio[0]
            elif code <= _RC_OVERFLOW:
                on_return(code, r >> 3, io[_IO_HOPS])
            else:  # pragma: no cover - out of memory in C
                raise MemoryError("des_run")

    def step(self) -> bool:
        """Fire exactly one event; False when the queue is empty."""
        before = self._io[_IO_PROCESSED]
        self.run(1)
        return self._io[_IO_PROCESSED] != before

    # ------------------------------------------------------ network state
    @property
    def overflow_channel(self) -> tuple[int, int]:
        """The name of the full channel of the last :attr:`OVERFLOW`."""
        return self._io[_IO_CHX], self._io[_IO_CHY]

    @property
    def next_id(self) -> int:
        """The id of the next message, sent by Python or by C."""
        return self._io[_IO_NMSG]

    @property
    def inflight(self) -> int:
        """Application messages neither delivered nor finally dropped."""
        return self._io[_IO_INFLIGHT]

    def add_routes(self, routes: list[list[int]]) -> int:
        """Intern one route set, each route a flat list of channel names
        ``[x0, y0, x1, y1, ...]``; its id."""
        words = self._routes
        if not self._io[_IO_NROUTES]:
            del words[:]  # applied already
        words.append(len(routes))
        for route in routes:
            words.append(len(route) // 2)
            words.fromlist(route)
        self._io[_IO_NROUTES] = len(words)
        self._io[_IO_ROUTES] = words.buffer_info()[0]
        self._nsets += 1
        return self._nsets - 1

    def send(self, msg: int, size: float, route_set: int, time: float,
             pair: int) -> None:
        """Send message ``msg`` (:attr:`next_id`) over ``pair = src * p +
        dst`` at ``time``: push its injection, or its local delivery. The
        caller has checked that this is not in the past."""
        io = self._io
        n = io[_IO_NOPS]
        if 6 * n == self._ops.size:
            self._grow_ops()
        self._PACK_OP(self._ops, 48 * n, _OP_SEND, msg, size, route_set,
                      pair, time)
        io[_IO_NOPS] = n + 1
        io[_IO_NMSG] = msg + 1

    def inject(self, msg: int, time: float, attempts: int) -> None:
        """Push a re-injection at ``time`` of a sent message, which has
        been retransmitted ``attempts`` times."""
        if not time >= self._dio[0]:
            raise self._late(time, self._dio[0])
        self._push(_OP_INJECT, msg, attempts, 0.0, 0.0, time)

    def start_app(self, iterations: int, arrays, sets, grid) -> None:
        """Register a closed-loop application and push its first compute
        steps: ``des_app``'s seven arrays (the last two written by C), and
        each CSR entry's route set or a grid's description."""
        n, nnz = arrays[3].size, int(arrays[0][-1])
        sizes = (n + 1, nnz, nnz, n, n, iterations, iterations)
        ptrs = [_ptr(a, dtype, size, "des_app", out=k > 4) for k, (a, dtype, size)
                in enumerate(zip(arrays, "qqdqdqd", sizes))]
        routes = [None if a is None else _ptr(a, np.int64, a.size, "des_app")
                  for a in (sets, grid)]
        self._keep.append(arrays)
        self._sync()
        self._nsets = _checked(self._fns[4](self._h, n, iterations,
                                            *ptrs[:5], *routes, *ptrs[5:]))

    def message(self, msg: int):
        """Application message ``msg`` as a :class:`~repro.netsim.messages.
        Message`, or, with ``msg`` < 0, the one in flight sent first."""
        from repro.netsim.messages import Message

        out = (ctypes.c_double * 5)()
        msg = self._fns[5](self._h, msg, out)
        src, dst, size, sent, attempts = out
        return Message(msg, int(src), int(dst), size, sent,
                       attempts=int(attempts))

    def drop(self, msg: int) -> None:
        """Python finally dropped application message ``msg``."""
        self._fns[6](self._h, msg)

    def links(self) -> list[tuple]:
        """``(x, y, busy, bytes, max_queue, buffered)`` per used channel, in
        first-use order."""
        self._sync()
        n = self._io[_IO_USED]
        xs, ys, peaks = (np.empty(n, np.int64) for _ in range(3))
        busy, carried, buffered = (np.empty(n) for _ in range(3))
        self._fns[3](self._h, *(a.ctypes.data for a in (
            xs, ys, busy, carried, peaks, buffered)))
        return list(zip(xs.tolist(), ys.tolist(), busy.tolist(),
                        carried.tolist(), peaks.tolist(), buffered.tolist()))

    def _pull_counters(self, prof) -> None:
        """Count this return as ``kernel.des_returns`` and add C's counts
        since the last one to ``prof``: only the nonzero ones, so that no
        counter appears at zero. Retransmits stay in io[] for
        :meth:`_pull_stats`."""
        io = self._io
        prof.count("kernel.des_returns")
        for slot, name in _COUNTERS:
            if io[slot]:
                prof.count(name, io[slot])
                if slot != _IO_RETRANSMITS:
                    io[slot] = 0
        if io[_IO_MAX_DEPTH]:
            prof.count_max("netsim.max_queue_depth", io[_IO_MAX_DEPTH])

    def _pull_stats(self) -> None:
        """Add C's new deliveries, retransmits and buffer drops to stats."""
        io, stats = self._io, self.stats
        start, n = stats.count, io[_IO_DELIVERED]
        latency, size = np.empty(n - start), np.empty(n - start)
        self._fns[7](self._h, start, latency.ctypes.data, size.ctypes.data)
        stats.extend(latency.tolist(), size.tolist(), self._dio[2],
                     self._dio[3])
        stats.retransmits += io[_IO_RETRANSMITS]
        stats.buffer_drops += io[_IO_RETRANSMITS]
        io[_IO_RETRANSMITS] = 0

    def _push(self, kind: float, a, b, c, d, time: float) -> None:
        """Buffer one push: a Python record, a send or a re-injection (the
        hot :meth:`send` inlines this)."""
        io = self._io
        n = io[_IO_NOPS]
        if 6 * n == self._ops.size:
            self._grow_ops()
        self._PACK_OP(self._ops, 48 * n, kind, a, b, c, d, time)
        io[_IO_NOPS] = n + 1

    def _grow_ops(self) -> None:
        self._ops = np.concatenate((self._ops, self._ops))
        self._io[_IO_OPS] = self._ops.ctypes.data

    def _sync(self) -> None:
        """Let C apply the buffered work without firing an event."""
        io = self._io
        run_limits = io[_IO_LIMIT], io[_IO_UNTIL]  # of a run this may be in
        io[_IO_LIMIT] = io[_IO_UNTIL] = 0
        if self._fns[2](self._h) & 7 > _RC_OVERFLOW:  # pragma: no cover
            raise MemoryError("des_run")
        io[_IO_LIMIT], io[_IO_UNTIL] = run_limits


def _checked(rc: int) -> int:
    """``rc``, unless it is the C side's out-of-memory -1."""
    if rc < 0:  # pragma: no cover - allocation failure inside C
        raise MemoryError("des_kernel allocation")
    return rc


def _ptr(arr: np.ndarray, dtype, size: int, name: str, out: bool = False) -> int:
    """Raw data pointer of a C-contiguous ``dtype`` array of ``size``."""
    if not (arr.dtype == dtype and arr.flags.c_contiguous and arr.size == size
            and (arr.flags.writeable or not out)):
        raise ValueError(
            f"{name}: expected {size} contiguous "
            f"{'writeable ' if out else ''}{np.dtype(dtype).name}")
    return arr.ctypes.data


def _csr_ptrs(indptr, indices, n: int, *weights) -> list[int]:
    """Pointers to an ``n``-row CSR adjacency and its per-nonzero weights.

    Sizes are checked here; the contents are ``TaskGraph.csr_arrays()``,
    read-only and valid by construction."""
    nnz = int(indptr[-1]) if indptr.size == n + 1 else -1
    return [_ptr(indptr, np.int64, n + 1, "indptr"),
            _ptr(indices, np.int64, nnz, "indices"),
            *(_ptr(w, np.float64, nnz, "weights") for w in weights)]


def _graph_ptrs(indptr, indices, vertex_weights, edge_weights=None) -> list[int]:
    """Pointers to the CSR adjacency of ``vertex_weights.size`` vertices,
    its vertex weights, then its edge weights if given."""
    n = vertex_weights.size
    ptrs = _csr_ptrs(indptr, indices, n)
    ptrs.append(_ptr(vertex_weights, np.float64, n, "vertex_weights"))
    if edge_weights is not None:
        ptrs.append(_ptr(edge_weights, np.float64, int(indptr[-1]),
                         "edge_weights"))
    return ptrs


def _compiler() -> str | None:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _cache_dir() -> str:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return override
    uid = getattr(os, "getuid", lambda: 0)()
    return os.path.join(tempfile.gettempdir(), f"repro-native-{uid}")


def _build(extra_flags: tuple[str, ...] = (),
           outdir: str | None = None) -> NativeKernels:
    """Compile the sources (or reuse the cached object) and load them.

    ``extra_flags`` and ``outdir`` let the sanitizer test build an
    instrumented copy into a temporary directory; production builds use
    neither."""
    cc = _compiler()
    if cc is None:
        raise RuntimeError("no C compiler (cc, gcc or clang) on PATH")
    flags = (*_CFLAGS, *extra_flags)
    digest = hashlib.sha256(repr((flags, os.path.basename(cc))).encode())
    for path in _SOURCES:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    outdir = outdir or _cache_dir()
    os.makedirs(outdir, exist_ok=True)
    so_path = os.path.join(outdir, f"repro_kernels_{digest.hexdigest()[:16]}.so")
    if not os.path.exists(so_path):
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=outdir)
        os.close(fd)
        try:
            subprocess.run([cc, *flags, "-o", tmp, *_SOURCES, "-lm"],
                           check=True, capture_output=True, timeout=120)
            os.replace(tmp, so_path)  # atomic: concurrent builds both win
        except subprocess.CalledProcessError as exc:
            tail = exc.stderr.decode(errors="replace").strip()[-800:]
            raise RuntimeError(
                f"{os.path.basename(cc)} failed to compile the kernels "
                f"(exit {exc.returncode}): {tail}"
            ) from None
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return NativeKernels(ctypes.CDLL(so_path))


def load() -> NativeKernels | None:
    """The compiled kernels, or ``None`` when unavailable.

    ``REPRO_NO_NATIVE`` is consulted on every call (so tests can flip the
    reference route with a plain env monkeypatch); the build runs once per
    process, and the cause of a failure is kept in ``_error``.
    """
    global _cached, _error
    if os.environ.get("REPRO_NO_NATIVE"):
        return None
    with _lock:
        if _cached is _UNSET:
            try:
                _cached = _build()
            except Exception as exc:
                _cached, _error = None, str(exc) or type(exc).__name__
        return _cached  # type: ignore[return-value]


def available() -> bool:
    """True when the compiled kernels can be used in this process."""
    return load() is not None


def kernels_or_fallback() -> NativeKernels | None:
    """The compiled kernels for a production call site, or ``None``, in
    which case the caller runs its reference body. Each ``None`` counts
    ``kernel.reference_fallbacks`` on the active profiler; the first one in
    a process emits a :class:`RuntimeWarning` naming the cause."""
    global _warned
    native = load()
    if native is None:
        obs.count("kernel.reference_fallbacks")
        with _lock:
            first, _warned = not _warned, True
        if first:
            cause = ("REPRO_NO_NATIVE is set"
                     if os.environ.get("REPRO_NO_NATIVE") else _error)
            warnings.warn(
                f"compiled kernels unavailable ({cause}); running the "
                "reference bodies, which give the same results more slowly",
                RuntimeWarning, stacklevel=2)
    return native
