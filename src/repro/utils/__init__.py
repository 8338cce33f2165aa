"""Shared low-level utilities: RNG, validation."""

from repro.utils.rng import as_rng
from repro.utils.validation import (
    check_permutation,
    check_shape_volume,
)

__all__ = [
    "as_rng",
    "check_permutation",
    "check_shape_volume",
]
