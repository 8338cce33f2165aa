"""On-demand compiled kernels for the mappers' production paths.

``repro.mapping.refine_kernel.c`` holds two scalar C functions: one
RefineTopoLB sweep with the incremental delta structure, and the per-cycle
recentre-and-argmin pass of third-order TopoLB. This module compiles the
file with the system C compiler (``cc``/``gcc``/``clang``) the first time it
is needed, caches the shared object under the system temp directory keyed by
a hash of the source and build flags, and loads it through :mod:`ctypes` —
no third-party build dependency.

The compiled paths are strictly optional: :class:`~repro.mapping.refine.
RefineTopoLB`'s ``"vectorized"`` kernel falls back to the NumPy block sweep,
and third-order :class:`~repro.mapping.topolb.TopoLB` to its NumPy
recentring, when no toolchain is available (or when ``REPRO_NO_NATIVE`` is
set, which the test suite uses to pin both paths). ``-ffp-contract=off``
keeps the C arithmetic bitwise identical to the NumPy reference kernels —
no fused multiply-adds.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading

import numpy as np

__all__ = ["load", "available"]

_SOURCE = os.path.join(os.path.dirname(__file__), "refine_kernel.c")
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_lock = threading.Lock()
_UNSET = object()
_cached: object = _UNSET


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


def _build() -> NativeKernels | None:
    cc = _compiler()
    if cc is None:
        return None
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
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return NativeKernels(ctypes.CDLL(so_path))


def load() -> NativeKernels | None:
    """The compiled kernels, or ``None`` when unavailable.

    ``REPRO_NO_NATIVE`` is consulted on every call (so tests can flip the
    fallback path with a plain env monkeypatch); the build itself — including
    failure — runs once and is remembered for the life of the process.
    """
    global _cached
    if os.environ.get("REPRO_NO_NATIVE"):
        return None
    with _lock:
        if _cached is _UNSET:
            try:
                _cached = _build()
            except Exception:
                _cached = None
        return _cached  # type: ignore[return-value]


def available() -> bool:
    """True when the compiled kernels can be used in this process."""
    return load() is not None
