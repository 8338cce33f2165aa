"""On-demand compiled kernel for RefineTopoLB's production sweep.

``repro.mapping.refine_kernel.c`` holds a scalar C implementation of one
RefineTopoLB sweep with the incremental delta structure. This module
compiles it with the system C compiler (``cc``/``gcc``/``clang``) the first
time it is needed, caches the shared object under the system temp directory
keyed by a hash of the source and build flags, and loads it through
:mod:`ctypes` — no third-party build dependency.

The compiled path is strictly optional: :class:`~repro.mapping.refine.
RefineTopoLB`'s ``"vectorized"`` kernel falls back to the NumPy block sweep
when no toolchain is available (or when ``REPRO_NO_NATIVE`` is set, which
the test suite uses to pin both paths). ``-ffp-contract=off`` keeps the C arithmetic
bitwise identical to the NumPy reference kernel — no fused multiply-adds.
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


class NativeRefine:
    """Thin typed wrapper around the compiled sweep function."""

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

    def sweep(self, cost, dist, assign, indptr, indices, weights, perm,
              best_b, best_val, valid, stats) -> bool:
        n, p = cost.shape
        rc = self._fn(n, p, cost, dist, assign, indptr, indices, weights,
                      perm, best_b, best_val, valid, stats)
        if rc < 0:  # pragma: no cover - allocation failure inside C
            raise MemoryError("refine_sweep_incremental scratch allocation")
        return bool(rc)


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


def _build() -> NativeRefine | None:
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
    return NativeRefine(ctypes.CDLL(so_path))


def load() -> NativeRefine | None:
    """The compiled sweep, or ``None`` when unavailable.

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
    """True when the compiled sweep can be used in this process."""
    return load() is not None
