"""Kernel selection for the mapper hot paths.

The performance-critical mappers (:class:`~repro.mapping.topolb.TopoLB`,
:class:`~repro.mapping.refine.RefineTopoLB`) ship one production kernel plus
one reference oracle for their inner loops:

``"vectorized"`` (the default, the production kernel)
    Compiled loops (:mod:`repro.mapping._native`). TopoLB: the whole cycle
    loop for first and second order, and the per-cycle recentring for
    third. RefineTopoLB: the cost table and the incremental sweep. Every
    path produces **bit-identical assignments** to the reference kernel
    (enforced by ``tests/mapping/test_kernel_equivalence.py``); without a C
    compiler (or with ``REPRO_NO_NATIVE`` set) the mapper runs its
    ``"reference"`` body instead.

``"reference"``
    The original scalar loops, kept verbatim as the executable
    specification. Slower, but trivially auditable against the paper's
    pseudocode; the equivalence suite and the ``BENCH_kernels_*.json``
    before/after profiles are both recorded against this path.

The kernel is the mapper's business, not the caller's: no request, spec,
HTTP body or CLI flag selects it. Mappers take ``kernel=None`` to mean
:data:`DEFAULT_KERNEL`, and the production body falls back to the reference
body by itself when the compiled loops are unavailable. ``"reference"`` is
built explicitly in two places only: the full-tier ``kernel-differential``
oracle (through :meth:`repro.engine.specs.ParsedSpec.build`) and the tests.
See ``docs/PERFORMANCE.md`` for the kernel design notes.
"""

from __future__ import annotations

from repro.exceptions import MappingError

__all__ = [
    "KERNELS",
    "DEFAULT_KERNEL",
    "get_default_kernel",
    "resolve_kernel",
]

#: Every kernel name any mapper understands.
KERNELS = ("vectorized", "reference")

DEFAULT_KERNEL = "vectorized"


def get_default_kernel() -> str:
    """The kernel a mapper built with ``kernel=None`` uses (recorded in the
    perfbench environment block)."""
    return DEFAULT_KERNEL


def resolve_kernel(kernel: str | None) -> str:
    """Resolve a constructor's ``kernel`` argument (``None`` = default)."""
    if kernel is None:
        return DEFAULT_KERNEL
    if kernel not in KERNELS:
        raise MappingError(f"kernel must be one of {KERNELS}, got {kernel!r}")
    return kernel
