"""Shared low-level utilities: heaps, RNG, validation."""

from repro.utils.priority_queue import AddressableMaxHeap, AddressableMinHeap
from repro.utils.rng import as_rng
from repro.utils.validation import (
    check_permutation,
    check_shape_volume,
)

__all__ = [
    "AddressableMaxHeap",
    "AddressableMinHeap",
    "as_rng",
    "check_permutation",
    "check_shape_volume",
]
