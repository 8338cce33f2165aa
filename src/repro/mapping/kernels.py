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

The kernel is chosen at construction: mappers take ``kernel=None`` to mean
:data:`DEFAULT_KERNEL`, and spec-built mappers receive it as an argument
(:meth:`repro.engine.specs.ParsedSpec.build`), which the engine, the CLI's
``--kernel`` and the validation oracles pass explicitly. There is no
process-wide switch. See ``docs/PERFORMANCE.md`` for the kernel design
notes.
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
    """The kernel a mapper built with ``kernel=None`` uses."""
    return DEFAULT_KERNEL


def resolve_kernel(kernel: str | None) -> str:
    """Resolve a constructor's ``kernel`` argument (``None`` = default)."""
    if kernel is None:
        return DEFAULT_KERNEL
    if kernel not in KERNELS:
        raise MappingError(f"kernel must be one of {KERNELS}, got {kernel!r}")
    return kernel
