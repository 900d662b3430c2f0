"""Tests for the Easz reconstruction transformer, training loop and config."""

import numpy as np
import pytest

from repro.core import (
    EaszConfig,
    EaszReconstructor,
    EaszTrainer,
    proposed_mask,
    reconstruct_image,
    reconstruction_loss,
)
from repro.datasets import CifarLikeDataset
from repro.metrics import psnr
from repro import nn


class TestEaszConfig:
    def test_derived_quantities(self):
        config = EaszConfig(patch_size=32, subpatch_size=4, erase_per_row=2)
        assert config.grid_size == 8
        assert config.tokens_per_patch == 64
        assert config.token_dim == 16
        assert config.erase_ratio == pytest.approx(0.25)

    def test_color_token_dim(self):
        config = EaszConfig(patch_size=16, subpatch_size=4, channels=3)
        assert config.token_dim == 48

    def test_invalid_patch_subpatch_combo(self):
        with pytest.raises(ValueError):
            EaszConfig(patch_size=30, subpatch_size=4)

    def test_invalid_heads(self):
        with pytest.raises(ValueError):
            EaszConfig(d_model=30, num_heads=4)

    def test_invalid_erase_per_row(self):
        with pytest.raises(ValueError):
            EaszConfig(patch_size=16, subpatch_size=4, erase_per_row=4)

    def test_paper_preset_model_size(self):
        config = EaszConfig.paper()
        model = EaszReconstructor(config)
        size_mb = model.model_size_bytes() / 2 ** 20
        # paper reports an 8.7 MB reconstruction model; the preset should land
        # in the single-digit-MB regime
        assert 2.0 < size_mb < 12.0

    def test_small_preset_is_cheap(self):
        config = EaszConfig.small()
        assert EaszReconstructor(config).num_parameters() < 200_000

    def test_with_erase_ratio(self):
        config = EaszConfig(patch_size=32, subpatch_size=4)
        adjusted = config.with_erase_ratio(0.5)
        assert adjusted.erase_per_row == 4
        assert adjusted.patch_size == config.patch_size

    def test_with_erase_ratio_clamped(self):
        config = EaszConfig(patch_size=16, subpatch_size=4)
        assert config.with_erase_ratio(0.99).erase_per_row == 3
        assert config.with_erase_ratio(0.0).erase_per_row == 0


class TestEaszReconstructor:
    def test_forward_output_shape(self, tiny_config):
        model = EaszReconstructor(tiny_config)
        tokens = np.random.default_rng(0).random(
            (3, tiny_config.tokens_per_patch, tiny_config.token_dim))
        mask = proposed_mask(tiny_config.grid_size, tiny_config.erase_per_row, seed=0)
        out = model(tokens, mask)
        assert out.shape == tokens.shape
        assert np.all(out.data >= 0.0) and np.all(out.data <= 1.0)

    def test_forward_rejects_wrong_mask_size(self, tiny_config):
        model = EaszReconstructor(tiny_config)
        tokens = np.zeros((1, tiny_config.tokens_per_patch, tiny_config.token_dim))
        with pytest.raises(ValueError):
            model(tokens, np.ones((3, 3)))

    def test_reconstruct_tokens_keeps_original_values(self, tiny_config):
        model = EaszReconstructor(tiny_config)
        rng = np.random.default_rng(1)
        tokens = rng.random((2, tiny_config.tokens_per_patch, tiny_config.token_dim))
        mask = proposed_mask(tiny_config.grid_size, tiny_config.erase_per_row, seed=1)
        out = model.reconstruct_tokens(tokens, mask, keep_original=True)
        kept = np.asarray(mask, dtype=bool).reshape(-1)
        assert np.allclose(out[:, kept, :], tokens[:, kept, :])

    def test_reconstruct_tokens_without_keep_overwrites_everything(self, tiny_config):
        model = EaszReconstructor(tiny_config)
        tokens = np.random.default_rng(2).random(
            (1, tiny_config.tokens_per_patch, tiny_config.token_dim))
        mask = proposed_mask(tiny_config.grid_size, tiny_config.erase_per_row, seed=1)
        out = model.reconstruct_tokens(tokens, mask, keep_original=False)
        kept = np.asarray(mask, dtype=bool).reshape(-1)
        assert not np.allclose(out[:, kept, :], tokens[:, kept, :])

    def test_prediction_ignores_erased_input_values(self, tiny_config):
        """The encoder only sees kept tokens, so the values stored at erased
        positions must not influence the output."""
        model = EaszReconstructor(tiny_config)
        rng = np.random.default_rng(3)
        tokens = rng.random((1, tiny_config.tokens_per_patch, tiny_config.token_dim))
        mask = proposed_mask(tiny_config.grid_size, tiny_config.erase_per_row, seed=2)
        erased = ~np.asarray(mask, dtype=bool).reshape(-1)
        altered = tokens.copy()
        altered[:, erased, :] = 0.999
        with nn.no_grad():
            out_a = model(tokens, mask).data
            out_b = model(altered, mask).data
        assert np.allclose(out_a, out_b)

    def test_same_model_supports_multiple_erase_ratios(self, tiny_config):
        """The agility claim: one model, any erase ratio."""
        model = EaszReconstructor(tiny_config)
        tokens = np.random.default_rng(0).random(
            (1, tiny_config.tokens_per_patch, tiny_config.token_dim))
        for erase_per_row in (1, 2):
            mask = proposed_mask(tiny_config.grid_size, erase_per_row, seed=0)
            out = model.reconstruct_tokens(tokens, mask)
            assert out.shape == tokens.shape

    def test_reconstruction_flops_scale_with_image_area(self, tiny_config):
        model = EaszReconstructor(tiny_config)
        small = model.reconstruction_flops((32, 32))
        large = model.reconstruction_flops((64, 64))
        assert large == pytest.approx(4 * small, rel=0.01)

    def test_reconstruct_image_gray_and_color(self, tiny_config, gray_image, rgb_image):
        model = EaszReconstructor(tiny_config)
        mask = proposed_mask(tiny_config.grid_size, tiny_config.erase_per_row, seed=0)
        out_gray = reconstruct_image(model, gray_image, mask)
        out_rgb = reconstruct_image(model, rgb_image, mask)
        assert out_gray.shape == gray_image.shape
        assert out_rgb.shape == rgb_image.shape

    def test_model_checkpoint_roundtrip(self, tiny_config, tmp_path):
        model = EaszReconstructor(tiny_config)
        path = str(tmp_path / "model.npz")
        nn.save_checkpoint(model, path)
        clone = EaszReconstructor(EaszConfig(**{**tiny_config.__dict__, "seed": 99}))
        nn.load_checkpoint(clone, path)
        tokens = np.random.default_rng(0).random(
            (1, tiny_config.tokens_per_patch, tiny_config.token_dim))
        mask = proposed_mask(tiny_config.grid_size, 1, seed=0)
        assert np.allclose(model.reconstruct_tokens(tokens, mask),
                           clone.reconstruct_tokens(tokens, mask))


class TestTraining:
    def test_loss_decreases_during_pretraining(self, tiny_config):
        dataset = CifarLikeDataset(num_images=64, size=tiny_config.patch_size, seed=1)
        trainer = EaszTrainer(config=tiny_config, use_perceptual_loss=False)
        result = trainer.pretrain(dataset, steps=40, batch_size=8)
        assert result.steps == 40
        first_phase = np.mean(result.losses[:5])
        last_phase = np.mean(result.losses[-5:])
        assert last_phase < first_phase

    def test_trained_model_beats_untrained(self, tiny_config, trained_tiny_model, gray_image):
        mask = proposed_mask(tiny_config.grid_size, tiny_config.erase_per_row, seed=0)
        untrained = EaszReconstructor(tiny_config)
        rec_trained = reconstruct_image(trained_tiny_model, gray_image, mask)
        rec_untrained = reconstruct_image(untrained, gray_image, mask)
        assert psnr(gray_image, rec_trained) > psnr(gray_image, rec_untrained)

    def test_finetune_continues_to_improve_or_hold(self, tiny_config):
        dataset = CifarLikeDataset(num_images=64, size=tiny_config.patch_size, seed=2)
        trainer = EaszTrainer(config=tiny_config, use_perceptual_loss=False)
        pre = trainer.pretrain(dataset, steps=30, batch_size=8)
        fine = trainer.finetune(dataset, steps=10, batch_size=8)
        assert np.mean(fine.losses) <= np.mean(pre.losses[:10])

    def test_wrong_patch_size_rejected(self, tiny_config):
        trainer = EaszTrainer(config=tiny_config, use_perceptual_loss=False)
        bad = [np.zeros((2, tiny_config.patch_size * 2, tiny_config.patch_size * 2))]
        with pytest.raises(ValueError):
            trainer.train_on_batches(bad)

    def test_perceptual_loss_path_runs(self, tiny_config):
        dataset = CifarLikeDataset(num_images=16, size=tiny_config.patch_size, seed=3)
        config = EaszConfig(**{**tiny_config.__dict__, "loss_lambda": 0.3})
        trainer = EaszTrainer(config=config, use_perceptual_loss=True)
        result = trainer.pretrain(dataset, steps=3, batch_size=4)
        assert len(result.perceptual_losses) == 3
        assert all(np.isfinite(result.losses))
        assert any(p > 0 for p in result.perceptual_losses)

    def test_reconstruction_loss_components(self):
        prediction = np.full((2, 4, 4), 0.6)
        target = np.full((2, 4, 4), 0.5)
        total, l1, perceptual = reconstruction_loss(prediction, target, patch_size=4,
                                                    loss_lambda=0.0)
        assert float(l1.data) == pytest.approx(0.1)
        assert float(total.data) == pytest.approx(0.1)
        assert float(perceptual.data) == 0.0

    def test_reconstruction_loss_mask_weighting(self):
        prediction = np.zeros((1, 4, 4))
        target = np.zeros((1, 4, 4))
        target[:, 0, :] = 1.0  # error only at token 0
        mask_err_on_erased = np.array([[0, 1], [1, 1]])
        mask_err_on_kept = np.array([[1, 1], [1, 0]])
        loss_erased, _, _ = reconstruction_loss(prediction, target, 4, loss_lambda=0.0,
                                                mask=mask_err_on_erased)
        loss_kept, _, _ = reconstruction_loss(prediction, target, 4, loss_lambda=0.0,
                                              mask=mask_err_on_kept)
        assert float(loss_erased.data) > float(loss_kept.data)

    def test_evaluate_mse_on_erased_positions(self, tiny_config, trained_tiny_model):
        trainer = EaszTrainer(model=trained_tiny_model, config=tiny_config,
                              use_perceptual_loss=False)
        dataset = CifarLikeDataset(num_images=8, size=tiny_config.patch_size, seed=4)
        patches = np.stack([dataset[i] for i in range(8)])
        mask = proposed_mask(tiny_config.grid_size, 1, seed=0)
        value = trainer.evaluate_mse(patches, mask)
        assert 0.0 < value < 0.5

    def test_evaluate_mse_zero_when_nothing_erased(self, tiny_config, trained_tiny_model):
        trainer = EaszTrainer(model=trained_tiny_model, config=tiny_config,
                              use_perceptual_loss=False)
        patches = np.zeros((2, tiny_config.patch_size, tiny_config.patch_size))
        full_mask = np.ones((tiny_config.grid_size, tiny_config.grid_size), dtype=np.uint8)
        assert trainer.evaluate_mse(patches, full_mask) == 0.0

    def test_training_result_properties_empty(self):
        from repro.core.training import TrainingResult
        result = TrainingResult()
        assert np.isnan(result.final_loss)
