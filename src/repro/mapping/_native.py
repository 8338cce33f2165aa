"""On-demand compiled kernels for the mappers' and partitioners' production paths.

``repro.mapping.refine_kernel.c`` holds four scalar C functions: one
RefineTopoLB sweep with the incremental delta structure, the per-cycle
recentre-and-argmin pass of third-order TopoLB, and the two loops of the
phase-1 partitioner — one graph-growing bisection over a range of an order
array, and one FM refinement pass. This module compiles the file with the
system C compiler (``cc``/``gcc``/``clang``) the first time it is needed,
caches the shared object under the system temp directory keyed by a hash of
the source and build flags, and loads it through :mod:`ctypes` — no
third-party build dependency. ``-ffp-contract=off`` keeps the C arithmetic
bitwise identical to the Python reference bodies — no fused multiply-adds.

Every call site is compiled or reference, with nothing in between: when
:func:`kernels_or_fallback` returns ``None`` (no C compiler, a failed build,
or ``REPRO_NO_NATIVE`` set) it runs its bit-identical reference body — the
``kernel="reference"`` loops of RefineTopoLB and third-order TopoLB, and the
partitioner's walks over ``csr_lists``.
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
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_lock = threading.Lock()
_UNSET = object()
_cached: object = _UNSET
_error: str | None = None  # why the build failed, once it has
_warned = False


class NativeKernels:
    """Thin typed wrappers around the compiled functions."""

    def __init__(self, lib: ctypes.CDLL):
        fn = lib.refine_sweep_incremental
        i64 = ctypes.c_int64
        arr = np.ctypeslib.ndpointer
        fn.restype = i64
        fn.argtypes = [
            i64, i64,
            arr(np.float64, flags="C_CONTIGUOUS"),  # cost (n, p)
            arr(np.float64, flags="C_CONTIGUOUS"),  # dist (p, p)
            arr(np.int64, flags="C_CONTIGUOUS"),    # assign (n)
            arr(np.int64, flags="C_CONTIGUOUS"),    # indptr (n + 1)
            arr(np.int64, flags="C_CONTIGUOUS"),    # indices (nnz)
            arr(np.float64, flags="C_CONTIGUOUS"),  # weights (nnz)
            arr(np.int64, flags="C_CONTIGUOUS"),    # perm (n)
            arr(np.int64, flags="C_CONTIGUOUS"),    # best_b (n)
            arr(np.float64, flags="C_CONTIGUOUS"),  # best_val (n)
            arr(np.uint8, flags="C_CONTIGUOUS"),    # valid (n)
            arr(np.int64, flags="C_CONTIGUOUS"),    # stats (4)
        ]
        self._fn = fn

        recentre = lib.topolb3_recentre
        recentre.restype = None
        recentre.argtypes = [
            i64,
            arr(np.float64, flags="C_CONTIGUOUS"),  # fest (n, p)
            arr(np.int64, flags="C_CONTIGUOUS"),    # rows (k)
            i64,
            arr(np.float64, flags="C_CONTIGUOUS"),  # uc (n)
            arr(np.float64, flags="C_CONTIGUOUS"),  # delta (p)
            arr(np.int64, flags="C_CONTIGUOUS"),    # free_ids (nfree)
            i64,
            arr(np.float64, flags="C_CONTIGUOUS"),  # f_min (n)
            arr(np.int64, flags="C_CONTIGUOUS"),    # f_argmin (n)
        ]
        self._recentre = recentre

        bisect = lib.partition_bisect
        bisect.restype = i64
        bisect.argtypes = [i64, *[ctypes.c_void_p] * 6,
                           i64, i64, i64, i64, i64, ctypes.c_double]
        self._bisect = bisect

        refine_pass = lib.partition_refine_pass
        refine_pass.restype = i64
        refine_pass.argtypes = [i64, *[ctypes.c_void_p] * 8, ctypes.c_double,
                                *[ctypes.c_void_p] * 3]
        self._refine_pass = refine_pass

    def sweep(self, cost, dist, assign, indptr, indices, weights, perm,
              best_b, best_val, valid, stats) -> bool:
        n, p = cost.shape
        rc = self._fn(n, p, cost, dist, assign, indptr, indices, weights,
                      perm, best_b, best_val, valid, stats)
        if rc < 0:  # pragma: no cover - allocation failure inside C
            raise MemoryError("refine_sweep_incremental scratch allocation")
        return bool(rc)

    def topolb3_recentre(self, fest, rows, uc, delta, free_ids,
                         f_min, f_argmin) -> None:
        """Third-order TopoLB's per-cycle pass, in place: recentre the
        ``rows`` of ``fest`` over the free columns ``free_ids`` (ascending,
        non-empty) and write each row's first minimum to ``f_min`` /
        ``f_argmin``."""
        n, p = fest.shape
        if not (0 < free_ids.size <= p and rows.size <= n
                and uc.size == f_min.size == f_argmin.size == n
                and delta.size == p):
            raise ValueError("topolb3_recentre: inconsistent array sizes")
        self._recentre(p, fest, rows, rows.size, uc, delta,
                       free_ids, free_ids.size, f_min, f_argmin)

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


def _graph_ptrs(indptr, indices, vertex_weights, edge_weights=None) -> list[int]:
    """Pointers to the CSR adjacency of ``vertex_weights.size`` vertices.

    Sizes are checked here; the contents are ``TaskGraph.csr_arrays()``,
    read-only and valid by construction, as for the refine sweep."""
    n = vertex_weights.size
    nnz = int(indptr[-1]) if indptr.size == n + 1 else -1
    ptrs = [_ptr(indptr, np.int64, n + 1, "indptr"),
            _ptr(indices, np.int64, nnz, "indices"),
            _ptr(vertex_weights, np.float64, n, "vertex_weights")]
    if edge_weights is not None:
        ptrs.append(_ptr(edge_weights, np.float64, nnz, "edge_weights"))
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
