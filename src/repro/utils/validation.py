"""Argument-validation helpers shared across modules."""

from __future__ import annotations

import argparse
import math
from collections.abc import Sequence

import numpy as np

from repro.exceptions import ReproError

__all__ = [
    "check_permutation",
    "check_shape_volume",
    "finite_float",
]


def check_permutation(assignment: np.ndarray, n: int, err: type[ReproError] = ReproError) -> None:
    """Raise ``err`` unless ``assignment`` is a permutation of ``range(n)``."""
    arr = np.asarray(assignment)
    if arr.shape != (n,):
        raise err(f"expected a length-{n} assignment, got shape {arr.shape}")
    seen = np.zeros(n, dtype=bool)
    if arr.min(initial=0) < 0 or arr.max(initial=-1) >= n:
        raise err("assignment values out of range")
    seen[arr] = True
    if not seen.all():
        missing = int(np.flatnonzero(~seen)[0])
        raise err(f"assignment is not a permutation: value {missing} missing")


def check_shape_volume(shape: Sequence[int], err: type[ReproError] = ReproError) -> int:
    """Validate a dimension tuple and return its volume (product)."""
    if len(shape) == 0:
        raise err("shape must have at least one dimension")
    for extent in shape:
        if int(extent) != extent or extent < 1:
            raise err(f"shape extents must be positive integers, got {shape!r}")
    return int(math.prod(int(e) for e in shape))


def finite_float(text: str) -> float:
    """An argparse ``type`` for a float flag: ``nan`` and ``inf`` are usage
    errors (exit 2), not values that fail every later call."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value
