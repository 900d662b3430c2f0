"""Tests for attention, transformer blocks and stacks."""

import numpy as np
import pytest

from repro import nn


class TestMultiHeadAttention:
    def test_output_shape(self):
        attn = nn.MultiHeadSelfAttention(16, 4)
        x = nn.Tensor(np.random.default_rng(0).normal(size=(3, 7, 16)))
        assert attn(x).shape == (3, 7, 16)

    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError):
            nn.MultiHeadSelfAttention(10, 3)

    def test_gradients_reach_all_projections(self):
        attn = nn.MultiHeadSelfAttention(8, 2)
        x = nn.Tensor(np.random.default_rng(0).normal(size=(2, 4, 8)), requires_grad=True)
        (attn(x) ** 2).mean().backward()
        for _, param in attn.named_parameters():
            assert param.grad is not None
        assert np.isfinite(x.grad).all()

    def test_permutation_equivariance_without_positional_info(self):
        attn = nn.MultiHeadSelfAttention(8, 2)
        attn.eval()
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 5, 8))
        perm = rng.permutation(5)
        with nn.no_grad():
            out = attn(nn.Tensor(x)).data
            out_perm = attn(nn.Tensor(x[:, perm, :])).data
        assert np.allclose(out[:, perm, :], out_perm, atol=1e-8)

    def test_attention_flops_scale_quadratically_in_tokens(self):
        attn = nn.MultiHeadSelfAttention(16, 4)
        small = attn.attention_flops(8)
        large = attn.attention_flops(32)
        assert large > small
        # the token-quadratic part grows 16x while projections grow 4x
        assert large < 16 * small
        assert large > 4 * small


class TestTransformerBlock:
    def test_forward_shape_preserved(self):
        block = nn.TransformerBlock(16, 4)
        x = nn.Tensor(np.random.default_rng(0).normal(size=(2, 6, 16)))
        assert block(x).shape == (2, 6, 16)

    def test_block_contains_three_layernorms(self):
        """The paper (Fig. 5) specifies three LayerNorms per block."""
        block = nn.TransformerBlock(16, 4)
        norms = [m for m in block._modules.values() if isinstance(m, nn.LayerNorm)]
        assert len(norms) == 3

    def test_block_gradient_flow(self):
        block = nn.TransformerBlock(8, 2)
        x = nn.Tensor(np.random.default_rng(0).normal(size=(2, 4, 8)), requires_grad=True)
        block(x).sum().backward()
        assert np.isfinite(x.grad).all()
        assert all(p.grad is not None for p in block.parameters())

    def test_flops_positive_and_monotone_in_tokens(self):
        block = nn.TransformerBlock(16, 4)
        assert 0 < block.flops(4) < block.flops(16)

    def test_feedforward_hidden_multiplier(self):
        ff = nn.FeedForward(8, hidden_mult=4)
        first_linear = ff.net[0]
        assert first_linear.out_features == 32


class TestTransformerStack:
    def test_stack_depth_and_shape(self):
        stack = nn.TransformerStack(3, 16, 4)
        assert len(list(stack.blocks())) == 3
        x = nn.Tensor(np.zeros((1, 5, 16)))
        assert stack(x).shape == (1, 5, 16)

    def test_stack_flops_is_sum_of_blocks(self):
        stack = nn.TransformerStack(2, 16, 4)
        per_block = next(iter(stack.blocks())).flops(10)
        assert stack.flops(10) == pytest.approx(2 * per_block)

    def test_stack_parameters_grow_with_depth(self):
        shallow = nn.TransformerStack(1, 16, 4)
        deep = nn.TransformerStack(4, 16, 4)
        assert deep.num_parameters() == pytest.approx(4 * shallow.num_parameters())

    def test_state_dict_roundtrip_through_stack(self):
        a = nn.TransformerStack(2, 8, 2, rng=np.random.default_rng(0))
        b = nn.TransformerStack(2, 8, 2, rng=np.random.default_rng(5))
        b.load_state_dict(a.state_dict())
        x = nn.Tensor(np.random.default_rng(1).normal(size=(1, 3, 8)))
        with nn.no_grad():
            assert np.allclose(a(x).data, b(x).data)


class TestOptimizers:
    def _quadratic_problem(self):
        rng = np.random.default_rng(0)
        target = rng.normal(size=(10,))
        param = nn.Parameter(np.zeros(10))
        return param, target

    @pytest.mark.parametrize("optimizer_cls,kwargs", [
        (nn.SGD, {"lr": 0.1}),
        (nn.SGD, {"lr": 0.05, "momentum": 0.9}),
        (nn.Adam, {"lr": 0.05}),
        (nn.AdamW, {"lr": 0.05, "weight_decay": 0.0}),
    ])
    def test_optimizers_minimise_quadratic(self, optimizer_cls, kwargs):
        param, target = self._quadratic_problem()
        optimizer = optimizer_cls([param], **kwargs)
        for _ in range(200):
            optimizer.zero_grad()
            loss = ((param - nn.Tensor(target)) ** 2).mean()
            loss.backward()
            optimizer.step()
        assert np.allclose(param.data, target, atol=0.05)

    def test_empty_parameter_list_rejected(self):
        with pytest.raises(ValueError):
            nn.SGD([], lr=0.1)

    def test_adamw_decays_weights_without_gradient_signal(self):
        param = nn.Parameter(np.ones(4))
        optimizer = nn.AdamW([param], lr=0.1, weight_decay=0.5)
        # gradient of zero loss contribution: use a tiny constant gradient
        for _ in range(10):
            optimizer.zero_grad()
            (param * 0.0).sum().backward()
            optimizer.step()
        assert np.all(param.data < 1.0)

    def test_weight_decay_in_plain_adam_shrinks_weights(self):
        """With a zero data gradient, L2-coupled Adam still pulls weights to zero."""
        param = nn.Parameter(np.ones(4))
        optimizer = nn.Adam([param], lr=0.05, weight_decay=1.0)
        for _ in range(20):
            optimizer.zero_grad()
            (param * 0.0).sum().backward()
            optimizer.step()
        assert np.all(param.data < 0.5)

    def test_clip_grad_norm_limits_norm(self):
        param = nn.Parameter(np.zeros(3))
        param.grad = np.array([3.0, 4.0, 0.0])
        returned = nn.clip_grad_norm([param], max_norm=1.0)
        assert returned == pytest.approx(5.0)
        assert np.linalg.norm(param.grad) == pytest.approx(1.0)


class TestSerialization:
    def test_save_and_load_checkpoint(self, tmp_path):
        model = nn.Sequential(nn.Linear(4, 8), nn.GELU(), nn.Linear(8, 2))
        path = tmp_path / "ckpt.npz"
        nn.save_checkpoint(model, str(path), metadata={"epoch": 3})
        clone = nn.Sequential(nn.Linear(4, 8, rng=np.random.default_rng(77)),
                              nn.GELU(), nn.Linear(8, 2, rng=np.random.default_rng(88)))
        metadata = nn.load_checkpoint(clone, str(path))
        assert metadata == {"epoch": 3}
        x = nn.Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        with nn.no_grad():
            assert np.allclose(model(x).data, clone(x).data)

    def test_checkpoint_creates_directories(self, tmp_path):
        model = nn.Linear(2, 2)
        path = tmp_path / "nested" / "dir" / "model.npz"
        nn.save_checkpoint(model, str(path))
        assert path.exists()

    def test_state_dict_num_bytes(self):
        model = nn.Linear(10, 10)
        assert nn.state_dict_num_bytes(model.state_dict()) == 110 * 4
