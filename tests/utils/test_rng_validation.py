"""Tests for RNG coercion and validation helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ReproError
from repro.utils.rng import as_rng
from repro.utils.validation import check_permutation, check_shape_volume


class TestAsRng:
    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_int_seed_reproducible(self):
        assert as_rng(42).integers(0, 1 << 30) == as_rng(42).integers(0, 1 << 30)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(7)
        assert as_rng(gen) is gen


class TestCheckPermutation:
    def test_accepts_identity(self):
        check_permutation(np.arange(5), 5)

    def test_accepts_shuffle(self):
        check_permutation(np.array([2, 0, 1, 4, 3]), 5)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ReproError, match="length-4"):
            check_permutation(np.arange(5), 4)

    def test_rejects_duplicate(self):
        with pytest.raises(ReproError, match="not a permutation"):
            check_permutation(np.array([0, 0, 2]), 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ReproError, match="out of range"):
            check_permutation(np.array([0, 1, 5]), 3)


class TestCheckShapeVolume:
    def test_volume(self):
        assert check_shape_volume((2, 3, 4)) == 24

    def test_single_dim(self):
        assert check_shape_volume((7,)) == 7

    def test_rejects_empty(self):
        with pytest.raises(ReproError):
            check_shape_volume(())

    @pytest.mark.parametrize("bad", [(0,), (2, -1), (2, 1.5)])
    def test_rejects_nonpositive_or_fractional(self, bad):
        with pytest.raises(ReproError):
            check_shape_volume(bad)
