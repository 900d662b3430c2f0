"""Tests for repro.nn layers, functional ops and initialisers."""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn import init


class TestFunctional:
    def test_layer_norm_zero_mean_unit_var(self):
        x = np.random.default_rng(0).normal(3.0, 2.0, size=(4, 16))
        out = F.layer_norm(nn.Tensor(x)).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.var(axis=-1), 1.0, atol=1e-3)

    def test_layer_norm_affine_applied(self):
        x = nn.Tensor(np.random.default_rng(0).normal(size=(2, 4)))
        weight = nn.Tensor(np.full(4, 2.0))
        bias = nn.Tensor(np.full(4, 1.0))
        plain = F.layer_norm(x).data
        affine = F.layer_norm(x, weight, bias).data
        assert np.allclose(affine, plain * 2.0 + 1.0)

    def test_dropout_eval_is_identity(self):
        x = nn.Tensor(np.ones((8, 8)))
        assert np.allclose(F.dropout(x, p=0.5, training=False).data, 1.0)

    def test_dropout_train_scales_kept_units(self):
        rng = np.random.default_rng(0)
        x = nn.Tensor(np.ones((200, 200)))
        out = F.dropout(x, p=0.5, training=True, rng=rng).data
        kept = out[out > 0]
        assert np.allclose(kept, 2.0)
        assert 0.4 < (out > 0).mean() < 0.6

    def test_mse_and_l1_losses(self):
        a = nn.Tensor([1.0, 2.0])
        b = nn.Tensor([0.0, 4.0])
        assert F.mse_loss(a, b).item() == pytest.approx((1 + 4) / 2)
        assert F.l1_loss(a, b).item() == pytest.approx((1 + 2) / 2)

    def test_smooth_l1_between_l1_and_l2(self):
        a = nn.Tensor([0.0])
        b = nn.Tensor([3.0])
        value = F.smooth_l1_loss(a, b).item()
        assert value == pytest.approx(3.0 - 0.5)

    def test_cross_entropy_prefers_correct_class(self):
        logits = nn.Tensor([[10.0, 0.0], [0.0, 10.0]])
        good = F.cross_entropy(logits, np.array([0, 1])).item()
        bad = F.cross_entropy(logits, np.array([1, 0])).item()
        assert good < bad

    def test_attention_output_shape_and_weights(self):
        rng = np.random.default_rng(0)
        q = nn.Tensor(rng.normal(size=(2, 5, 8)))
        out, weights = F.scaled_dot_product_attention(q, q, q)
        assert out.shape == (2, 5, 8)
        assert np.allclose(weights.data.sum(axis=-1), 1.0)

    def test_attention_mask_blocks_positions(self):
        q = nn.Tensor(np.random.default_rng(0).normal(size=(1, 3, 4)))
        mask = np.zeros((1, 3, 3))
        mask[:, :, 2] = -1e9
        _, weights = F.scaled_dot_product_attention(q, q, q, mask=mask)
        assert np.allclose(weights.data[..., 2], 0.0, atol=1e-6)


class TestInitialisers:
    def test_xavier_uniform_bound(self):
        rng = np.random.default_rng(0)
        w = init.xavier_uniform((64, 32), rng)
        bound = np.sqrt(6.0 / (64 + 32))
        assert np.abs(w).max() <= bound + 1e-12

    def test_kaiming_normal_scale(self):
        rng = np.random.default_rng(0)
        w = init.kaiming_normal((256, 128), rng)
        assert w.std() == pytest.approx(np.sqrt(2.0 / 128), rel=0.15)

    def test_truncated_normal_within_bounds(self):
        rng = np.random.default_rng(0)
        w = init.truncated_normal((1000,), rng, std=0.5, bound=2.0)
        assert np.abs(w).max() <= 1.0 + 1e-12

    def test_zeros_and_ones(self):
        assert np.all(init.zeros((3, 3)) == 0)
        assert np.all(init.ones((3, 3)) == 1)


class TestLinearAndNorm:
    def test_linear_shapes(self):
        layer = nn.Linear(8, 4)
        out = layer(nn.Tensor(np.zeros((5, 8))))
        assert out.shape == (5, 4)

    def test_linear_no_bias(self):
        layer = nn.Linear(8, 4, bias=False)
        assert layer.bias is None
        assert len(list(layer.parameters())) == 1

    def test_linear_batched_input(self):
        layer = nn.Linear(8, 4)
        out = layer(nn.Tensor(np.zeros((2, 3, 8))))
        assert out.shape == (2, 3, 4)

    def test_linear_trains_to_fit_line(self):
        rng = np.random.default_rng(0)
        layer = nn.Linear(1, 1, rng=rng)
        optimizer = nn.SGD(layer.parameters(), lr=0.1)
        x = rng.normal(size=(64, 1))
        y = 3.0 * x + 0.5
        for _ in range(300):
            optimizer.zero_grad()
            loss = F.mse_loss(layer(nn.Tensor(x)), nn.Tensor(y))
            loss.backward()
            optimizer.step()
        assert layer.weight.data[0, 0] == pytest.approx(3.0, abs=0.05)
        assert layer.bias.data[0] == pytest.approx(0.5, abs=0.05)

    def test_layernorm_module(self):
        layer = nn.LayerNorm(8)
        out = layer(nn.Tensor(np.random.default_rng(0).normal(size=(3, 8))))
        assert out.shape == (3, 8)
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-6)


class TestModulePlumbing:
    def test_parameters_discovered_recursively(self):
        model = nn.Sequential(nn.Linear(4, 8), nn.GELU(), nn.Linear(8, 2))
        names = [name for name, _ in model.named_parameters()]
        assert len(names) == 4
        assert any("layer0" in n for n in names)

    def test_num_parameters_and_size_bytes(self):
        model = nn.Linear(10, 10)
        assert model.num_parameters() == 110
        assert model.size_bytes() == 440

    def test_train_eval_propagates(self):
        model = nn.Sequential(nn.Dropout(0.5), nn.Linear(2, 2))
        model.eval()
        assert not model[0].training
        model.train()
        assert model[0].training

    def test_state_dict_roundtrip(self):
        a = nn.Linear(4, 4, rng=np.random.default_rng(0))
        b = nn.Linear(4, 4, rng=np.random.default_rng(99))
        b.load_state_dict(a.state_dict())
        assert np.allclose(a.weight.data, b.weight.data)

    def test_load_state_dict_missing_key_raises(self):
        a = nn.Linear(4, 4)
        with pytest.raises(KeyError):
            a.load_state_dict({"weight": np.zeros((4, 4))})

    def test_load_state_dict_shape_mismatch_raises(self):
        a = nn.Linear(4, 4)
        state = a.state_dict()
        state["weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            a.load_state_dict(state)

    def test_zero_grad_clears_all(self):
        model = nn.Linear(3, 3)
        out = model(nn.Tensor(np.ones((1, 3))))
        out.sum().backward()
        assert model.weight.grad is not None
        model.zero_grad()
        assert model.weight.grad is None

    def test_sequential_indexing(self):
        model = nn.Sequential(nn.Linear(2, 2), nn.GELU())
        assert isinstance(model[1], nn.GELU)
        assert len(model) == 2


class TestConvolutionAndPooling:
    def test_conv2d_output_shape_with_padding(self):
        conv = nn.Conv2d(3, 8, 3, padding=1)
        out = conv(nn.Tensor(np.zeros((2, 3, 16, 16))))
        assert out.shape == (2, 8, 16, 16)

    def test_conv2d_output_shape_with_stride(self):
        conv = nn.Conv2d(1, 4, 3, stride=2, padding=1)
        out = conv(nn.Tensor(np.zeros((1, 1, 16, 16))))
        assert out.shape == (1, 4, 8, 8)

    def test_conv2d_matches_manual_correlation(self):
        conv = nn.Conv2d(1, 1, 3, padding=0, bias=False)
        kernel = np.arange(9, dtype=float).reshape(1, 1, 3, 3)
        conv.weight.data = kernel
        image = np.random.default_rng(0).normal(size=(1, 1, 5, 5))
        out = conv(nn.Tensor(image)).data[0, 0]
        expected = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                expected[i, j] = (image[0, 0, i:i + 3, j:j + 3] * kernel[0, 0]).sum()
        assert np.allclose(out, expected)

    def test_conv2d_gradient_flows_to_input(self):
        conv = nn.Conv2d(2, 3, 3, padding=1)
        x = nn.Tensor(np.random.default_rng(0).normal(size=(1, 2, 6, 6)), requires_grad=True)
        (conv(x) ** 2).mean().backward()
        assert x.grad is not None
        assert np.isfinite(x.grad).all()

    def test_avgpool_reduces_and_averages(self):
        pool = nn.AvgPool2d(2)
        x = nn.Tensor(np.arange(16, dtype=float).reshape(1, 1, 4, 4))
        out = pool(x)
        assert out.shape == (1, 1, 2, 2)
        assert out.data[0, 0, 0, 0] == pytest.approx((0 + 1 + 4 + 5) / 4)
