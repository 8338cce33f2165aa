"""On-demand compiled kernels for the mappers' and partitioners' production paths.

``repro.mapping.refine_kernel.c`` holds six scalar C functions: RefineTopoLB's
cost table and one sweep with the incremental delta structure, the cycle
loop of first- and second-order TopoLB, the per-cycle recentre-and-argmin
pass of third-order TopoLB, and the two loops of the phase-1 partitioner —
one graph-growing bisection over a range of an order array, and one FM
refinement pass. This module compiles the file with the system C compiler
(``cc``/``gcc``/``clang``) the first time it is needed, caches the shared
object under the system temp directory keyed by a hash of the source and
build flags, and loads it through :mod:`ctypes` — no
third-party build dependency. ``-ffp-contract=off`` keeps the C arithmetic
bitwise identical to the Python reference bodies — no fused multiply-adds.

Every call site is compiled or reference, with nothing in between: when
:func:`kernels_or_fallback` returns ``None`` (no C compiler, a failed build,
or ``REPRO_NO_NATIVE`` set) it runs its bit-identical reference body — the
``kernel="reference"`` loops of RefineTopoLB and TopoLB, and the
partitioner's walks over ``csr_lists``. The wrappers check each array's size
and dtype once, when a run binds them, and pass raw pointers on every call.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import warnings

import numpy as np

from repro import obs

__all__ = ["load", "available", "kernels_or_fallback"]

_SOURCE = os.path.join(os.path.dirname(__file__), "refine_kernel.c")
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
        self._cycles = bind("topolb_cycles", i64,
                            *[i64] * 5, *[ptr] * 18)
        self._recentre = bind("topolb3_recentre", None,
                              i64, ptr, ptr, i64, *[ptr] * 3, i64,
                              ptr, ptr)
        self._bisect = bind("partition_bisect", i64,
                            i64, *[ptr] * 6, *[i64] * 5, ctypes.c_double)
        self._refine_pass = bind("partition_refine_pass", i64,
                                 i64, *[ptr] * 8, ctypes.c_double,
                                 *[ptr] * 3)

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
                      reserve: int) -> "TopoLBCycles":
        """``topolb_cycles`` bound to one first- or second-order run (see
        :class:`TopoLBCycles`)."""
        return TopoLBCycles(self._cycles, fest, dist, avg, indptr, indices,
                            weights, order, selection, score, avail_f,
                            reserve)

    def topolb3_recentre(self, fest, uc, delta, free_buf, f_min,
                         f_argmin) -> "Recentre":
        """``topolb3_recentre`` bound to one third-order run (see
        :class:`Recentre`)."""
        return Recentre(self._recentre, fest, uc, delta, free_buf, f_min,
                        f_argmin)

    def partition_bisector(self, indptr, indices, vertex_weights,
                           order) -> "PartitionBisector":
        """``partition_bisect`` bound to one graph and one ``order`` array
        (see :class:`PartitionBisector`)."""
        return PartitionBisector(self._bisect, indptr, indices,
                                 vertex_weights, order)

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
    """First- and second-order TopoLB's cycle loop over one ``fest`` table.

    Each call runs cycles in C until the run ends, returning ``None``, or,
    under the "gain" rule, until a cycle dirtied rows, returning their
    ascending ids: the caller refreshes those rows' sums in ``score``
    (``score[rows] = fest[rows] @ avail_f``) and calls again. ``score`` is
    the free-column row sums under "gain", the static volumes under
    "volume", and unread under "max_cost". ``avail_f`` (1.0 at a free
    processor) and ``fest`` update in place. Afterwards ``assignment`` holds
    the placement and :meth:`counters` the five ``topolb.*`` counters.
    """

    __slots__ = ("assignment", "_dirty", "_state", "_fn", "_args", "_keep")

    _SELECTIONS = ("gain", "max_cost", "volume")

    def __init__(self, fn, fest, dist, avg, indptr, indices, weights, order,
                 selection, score, avail_f, reserve):
        n, p = fest.shape
        free_ids = np.flatnonzero(avail_f).astype(np.int64)
        if not (order in (1, 2) and 0 < reserve and 0 < n <= free_ids.size):
            raise ValueError("topolb_cycles: bad order, reserve or sizes")
        self.assignment = np.full(n, -1, dtype=np.int64)
        self._dirty = np.empty(2 * n, dtype=np.int64)
        self._state = np.zeros(6, dtype=np.int64)
        self._state[1] = free_ids.size
        scratch = (np.empty(n), np.empty(n, dtype=np.int64),
                   np.empty(n * reserve), np.empty(n * reserve, dtype=np.int64),
                   np.empty(n, dtype=np.int64))
        unassigned = np.ones(n, dtype=np.uint8)
        self._fn = fn
        self._keep = (fest, dist, avg, indptr, indices, weights, score,
                      avail_f, free_ids, unassigned, scratch)
        self._args = (n, p, reserve, order, self._SELECTIONS.index(selection),
                      _ptr(fest, np.float64, n * p, "fest", out=True),
                      _ptr(dist, np.float64, p * p, "dist"),
                      _ptr(avg, np.float64, p, "avg"),
                      *_csr_ptrs(indptr, indices, n, weights),
                      _ptr(score, np.float64, n, "score", out=True),
                      *(a.ctypes.data for a in scratch),
                      _ptr(avail_f, np.float64, p, "avail_f", out=True),
                      free_ids.ctypes.data, unassigned.ctypes.data,
                      self.assignment.ctypes.data, self._dirty.ctypes.data,
                      self._state.ctypes.data)

    def __call__(self) -> np.ndarray | None:
        k = self._fn(*self._args)
        return self._dirty[:k] if k else None

    def counters(self) -> dict[str, int]:
        cycles, _, hits, exhaustions, rebuilt, updates = self._state.tolist()
        return {"topolb.cycles": cycles, "topolb.reserve_hits": hits,
                "topolb.reserve_exhaustions": exhaustions,
                "topolb.rows_rebuilt": rebuilt,
                "topolb.neighbor_updates": updates}


class Recentre:
    """Third-order TopoLB's per-cycle pass over one ``fest`` table.

    ``recentre(rows, nfree)`` recentres ``rows`` of ``fest`` by
    ``uc[r] * delta`` over the free columns ``free_buf[:nfree]``
    (ascending, non-empty) and writes each row's first minimum to ``f_min``
    / ``f_argmin``. The caller writes each cycle's ``delta`` in place.
    """

    __slots__ = ("_fn", "_args", "_keep", "_p", "_nfree_max")

    def __init__(self, fn, fest, uc, delta, free_buf, f_min, f_argmin):
        n, p = fest.shape
        if not 0 < free_buf.size <= p:
            raise ValueError("topolb3_recentre: free_buf must be non-empty")
        self._fn = fn
        self._p, self._nfree_max = p, free_buf.size
        self._keep = (fest, uc, delta, free_buf, f_min, f_argmin)
        self._args = (_ptr(fest, np.float64, n * p, "fest", out=True),
                      _ptr(uc, np.float64, n, "uc"),
                      _ptr(delta, np.float64, p, "delta"),
                      _ptr(free_buf, np.int64, free_buf.size, "free_buf"),
                      _ptr(f_min, np.float64, n, "f_min", out=True),
                      _ptr(f_argmin, np.int64, n, "f_argmin", out=True))

    def recentre(self, rows: np.ndarray, nfree: int) -> None:
        fest, uc, delta, free, f_min, f_argmin = self._args
        if not 0 < nfree <= self._nfree_max:
            raise ValueError("topolb3_recentre: nfree out of range")
        self._fn(self._p, fest,
                 _ptr(rows, np.int64, rows.size, "rows"), rows.size,
                 uc, delta, free, nfree, f_min, f_argmin)


class PartitionBisector:
    """Graph-growing bisection over ranges of one ``order`` array.

    ``bisect(lo, hi, r, k1, k2, target)`` splits ``order[lo:hi]`` in
    place, stably, side A first, and returns |A|. Side A grows by BFS from
    a pseudo-peripheral seed found from ``order[lo + r]`` until it holds
    ``target`` load, with at least ``k1`` members and leaving at least
    ``k2``. Array sizes and dtypes are checked once, here; each call passes
    raw pointers. ``state`` is the all-zero scratch every call restores.
    """

    __slots__ = ("order", "state", "_fn", "_args", "_keep")

    def __init__(self, fn, indptr, indices, vertex_weights, order):
        n = vertex_weights.size
        if not (0 < order.size <= n and 0 <= order.min()
                and order.max() < n):
            raise ValueError("partition_bisect: order must hold vertex ids")
        graph = _graph_ptrs(indptr, indices, vertex_weights)
        self.order = order
        self.state = np.zeros(n, dtype=np.uint8)
        queue = np.empty(n, dtype=np.int64)
        self._fn = fn
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


def _build() -> NativeKernels:
    cc = _compiler()
    if cc is None:
        raise RuntimeError("no C compiler (cc, gcc or clang) on PATH")
    with open(_SOURCE, "rb") as fh:
        source = fh.read()
    key = hashlib.sha256(
        source + repr((_CFLAGS, os.path.basename(cc))).encode()
    ).hexdigest()[:16]
    outdir = _cache_dir()
    os.makedirs(outdir, exist_ok=True)
    so_path = os.path.join(outdir, f"refine_kernel_{key}.so")
    if not os.path.exists(so_path):
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=outdir)
        os.close(fd)
        try:
            subprocess.run(
                [cc, *_CFLAGS, "-o", tmp, _SOURCE],
                check=True, capture_output=True, timeout=120,
            )
            os.replace(tmp, so_path)  # atomic: concurrent builds both win
        except subprocess.CalledProcessError as exc:
            tail = exc.stderr.decode(errors="replace").strip()[-800:]
            raise RuntimeError(
                f"{os.path.basename(cc)} failed to compile "
                f"{os.path.basename(_SOURCE)} (exit {exc.returncode}): {tail}"
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
