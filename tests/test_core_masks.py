"""Tests for the row-based conditional sampler and mask generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    RowConditionalSampler,
    deserialize_mask,
    diagonal_mask,
    mask_erase_ratio,
    proposed_mask,
    random_mask,
    serialize_mask,
    uniform_mask,
)


class TestRowConditionalSampler:
    def test_mask_shape_and_dtype(self):
        sampler = RowConditionalSampler(grid_size=8, erase_per_row=2)
        mask = sampler.sample_mask(seed=0)
        assert mask.shape == (8, 8)
        assert mask.dtype == np.uint8
        assert set(np.unique(mask)) <= {0, 1}

    def test_exactly_t_erased_per_row(self):
        sampler = RowConditionalSampler(grid_size=8, erase_per_row=3)
        mask = sampler.sample_mask(seed=1)
        assert np.all((mask == 0).sum(axis=1) == 3)

    def test_erase_ratio_property(self):
        sampler = RowConditionalSampler(grid_size=8, erase_per_row=2)
        assert sampler.erase_ratio == pytest.approx(0.25)

    def test_intra_row_constraint_satisfied(self):
        sampler = RowConditionalSampler(grid_size=16, erase_per_row=3,
                                        intra_row_min_distance=2)
        mask = sampler.sample_mask(seed=2)
        for row in range(16):
            erased = np.flatnonzero(mask[row] == 0)
            gaps = np.diff(np.sort(erased))
            assert np.all(gaps > 2)

    def test_rejects_excessive_erase_per_row(self):
        with pytest.raises(ValueError):
            RowConditionalSampler(grid_size=4, erase_per_row=4)

    def test_rejects_infeasible_intra_constraint(self):
        with pytest.raises(ValueError):
            RowConditionalSampler(grid_size=8, erase_per_row=4, intra_row_min_distance=3)

    def test_sample_masks_batch(self):
        sampler = RowConditionalSampler(grid_size=8, erase_per_row=1)
        masks = sampler.sample_masks(5, seed=0)
        assert masks.shape == (5, 8, 8)
        # independent draws should not all coincide
        assert not all(np.array_equal(masks[0], masks[i]) for i in range(1, 5))

    def test_seeded_masks_are_reproducible(self):
        sampler = RowConditionalSampler(grid_size=8, erase_per_row=2)
        assert np.array_equal(sampler.sample_mask(seed=9), sampler.sample_mask(seed=9))

    def test_repr_mentions_parameters(self):
        sampler = RowConditionalSampler(grid_size=8, erase_per_row=2)
        assert "T=2" in repr(sampler)

    @given(st.integers(4, 16), st.integers(1, 3), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_row_balance_property(self, grid, erase, seed):
        erase = min(erase, grid - 1)
        if erase * 2 > grid:
            erase = grid // 2
        sampler = RowConditionalSampler(grid, erase)
        mask = sampler.sample_mask(seed=seed)
        assert np.all((mask == 0).sum(axis=1) == erase)
        assert mask_erase_ratio(mask) == pytest.approx(erase / grid)


class TestMaskStrategies:
    def test_proposed_mask_erase_count(self):
        mask = proposed_mask(8, 2, seed=0)
        assert (mask == 0).sum() == 16

    def test_random_mask_balanced_rows(self):
        mask = random_mask(8, 2, seed=0, balanced_rows=True)
        assert np.all((mask == 0).sum(axis=1) == 2)

    def test_random_mask_unbalanced_total(self):
        mask = random_mask(8, 2, seed=0, balanced_rows=False)
        assert (mask == 0).sum() == 16

    def test_random_mask_ignores_distance_constraints(self):
        """Over many draws the unconstrained sampler must produce at least one
        adjacent pair — the failure mode the paper's Fig. 2(a) illustrates."""
        found_adjacent = False
        for seed in range(30):
            mask = random_mask(8, 3, seed=seed)
            for row in mask:
                erased = np.flatnonzero(row == 0)
                if np.any(np.diff(np.sort(erased)) == 1):
                    found_adjacent = True
        assert found_adjacent

    def test_proposed_mask_avoids_adjacent_erasures(self):
        for seed in range(10):
            mask = proposed_mask(8, 2, intra_row_min_distance=1, seed=seed)
            for row in mask:
                erased = np.flatnonzero(row == 0)
                assert np.all(np.diff(np.sort(erased)) > 1)

    def test_diagonal_mask_structure(self):
        mask = diagonal_mask(8, erase_per_row=1)
        assert np.all((mask == 0).sum(axis=1) == 1)
        assert np.all((mask == 0).sum(axis=0) == 1)
        assert np.all(np.diag(mask) == 0)

    def test_diagonal_mask_multiple_per_row(self):
        mask = diagonal_mask(8, erase_per_row=2)
        assert np.all((mask == 0).sum(axis=1) == 2)

    def test_uniform_mask_factor_two(self):
        mask = uniform_mask(8, factor=2)
        assert mask.sum() == 32  # keeps exactly half
        assert np.all(mask.sum(axis=1) == 4)

    def test_mask_erase_ratio_values(self):
        assert mask_erase_ratio(np.ones((4, 4))) == 0.0
        assert mask_erase_ratio(np.zeros((4, 4))) == 1.0


class TestMaskSerialization:
    def test_roundtrip(self):
        mask = proposed_mask(16, 4, seed=3)
        assert np.array_equal(deserialize_mask(serialize_mask(mask)), mask)

    def test_serialized_size_within_paper_bound(self):
        """Paper: a 32×32 binary mask costs ≈128 bytes; ours must not exceed
        that by more than the 5-byte header."""
        mask = proposed_mask(32, 8, seed=1)
        assert len(serialize_mask(mask)) <= 133

    def test_structured_masks_compress_well(self):
        mask = diagonal_mask(32, erase_per_row=1)
        assert len(serialize_mask(mask)) < 120

    @given(st.integers(2, 32), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, grid, seed):
        erase = max(1, grid // 4)
        mask = random_mask(grid, erase, seed=seed)
        assert np.array_equal(deserialize_mask(serialize_mask(mask)), mask)
