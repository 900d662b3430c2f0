"""Fused float32 inference engine: the one inference path of the reconstructor.

:meth:`EaszReconstructor.forward` is the float64 autograd graph used for
training.  Every inference call — :func:`repro.core.reconstruct_image`,
:func:`repro.core.reconstruct_batch`, ``reconstruct_tokens`` and both
servers — runs through a :class:`FusedBatchEngine` compiled from the model
instead.  Besides dropping autograd and computing in single precision, the
engine attacks *reduction* traffic: at the model's small ``d_model``,
``axis=-1`` softmax max/sum and layer-norm mean/variance reductions cost
more than the GEMMs themselves.

* all weights are pre-cast to float32 **once** (transposed for row-major
  GEMMs, the attention scale folded into the query projection, the Q/K/V
  projections concatenated) and invalidated by a cheap parameter
  fingerprint;
* layer-norm mean and variance are computed as matmuls against a constant
  ``1/d`` vector, turning the slow strided reductions into BLAS calls, and
  the centred rows are scaled by the reciprocal standard deviation (one
  multiply) instead of divided by it;
* attention runs on strided views of the fused QKV output: each head's
  ``(seq, head_dim)`` query/key/value matrix is already BLAS-ready with
  leading dimension ``3·d_model``, and the per-head results are written
  straight into a ``(count, seq, heads, head_dim)`` buffer, so neither the
  Q/K/V split nor the head merge copies anything;
* softmax skips the per-row max subtraction (a guarded fast path: scores of a
  trained reconstructor stay tiny; one cheap whole-array max falls back to
  the safe path if they ever exceed ``_SOFTMAX_GUARD``);
* GELU's ½ is folded into the second feed-forward weight and its two
  constants into two scalars, leaving seven elementwise passes;
* only the token positions the caller needs (the erased sub-patches when the
  original pixels are kept) are carried through the last decoder block:
  keys and values still span the whole patch, but queries, out-projection,
  residual, feed-forward, the final norm, the output head and the sigmoid
  run on those rows alone.

The engine processes stacked tokens from any number of images in chunks of
about :data:`CHUNK_ROWS` token rows, so one engine call serves a whole
batch in chunks whose working set stays cache-sized (the sweep behind
the row count covers 16- and 64-token patches).  Numerics differ from the
float64 autograd forward only by float32 rounding; reconstructions agree to
~1e-6, far below a pixel quantisation step.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FusedBatchEngine", "CHUNK_ROWS"]

_F32 = np.float32

#: Token rows per engine chunk (64 patches of 16 tokens, 16 of 64).  Chunks
#: are sized in rows because the best patch count falls as patches grow.
#: Medians of interleaved sweeps, in ms per 256² RGB frame on a 2-vCPU Xeon
#: (OpenBLAS 0.3.31).  The 16-token row ran at one BLAS thread, the thread
#: count of a serving process (six runs); the 64-token rows ran at
#: OpenBLAS's default of two (five runs):
#:
#: ========================  ===  ===  ===  ===  ===  ===
#: patches per chunk           8   16   32   64  128  256
#: ========================  ===  ===  ===  ===  ===  ===
#: 16 tokens, d_model 48      95   62   64   62   77   88
#: 64 tokens, d_model 64      83   86   81  104  117    -
#: 64 tokens, d_model 192    341  322  316  381  408    -
#: ========================  ===  ===  ===  ===  ===  ===
#:
#: Smaller chunks pay per-op overhead, larger ones spill the cache; 1024
#: rows lies in the flat optimum of both patch sizes (256–1024 rows at 16
#: tokens, 512–2048 at 64).  The 16-token row is the benchmark geometry,
#: where 16 to 64 patches lie within the host's run-to-run spread (64 was
#: fastest in four of the six runs); the 64-token rows are ``EaszConfig()``
#: and ``EaszConfig.paper()``, where 1024 rows ran 0.74–0.94x the time of
#: 64-patch chunks in each of the five runs.
CHUNK_ROWS = 1024

#: tanh-approximation GELU constants: ``gelu(x) = ½·x·(1 + tanh(x·(L + C·x²)))``.
_GELU_LINEAR = _F32(np.sqrt(2.0 / np.pi))
_GELU_CUBIC = _F32(np.sqrt(2.0 / np.pi) * 0.044715)

#: Attention scores above this trigger the numerically-safe max-subtracted
#: softmax.  float32 ``exp`` is exact to overflow up to ~88; 60 leaves two
#: orders of magnitude of headroom for the row sums.
_SOFTMAX_GUARD = 60.0


def _fingerprint(model):
    """Cheap parameter identity+content token.

    The identity of every ``p.data`` array changes when the optimizer or
    ``load_state_dict`` rebinds it; its element sum catches in-place
    mutation such as ``p.data *= 0.5``.  The sum is compared by its bit
    pattern, so a NaN weight (NaN != NaN) still matches itself.
    """
    return tuple((id(p.data), p.data.sum().tobytes()) for p in model.parameters())


class _CompiledBlock:
    """Float32 views of one transformer block, laid out for the engine."""

    __slots__ = ("qkv_weight", "qkv_bias", "out_weight", "out_bias",
                 "ff1_weight", "ff1_bias", "ff2_weight", "ff2_bias",
                 "norm_attn", "norm_ff", "norm_out", "eps",
                 "num_heads", "head_dim")

    def __init__(self, block):
        attn = block.attention
        scale = 1.0 / np.sqrt(attn.head_dim)
        # folding the 1/sqrt(head_dim) scale into Q removes one full pass
        # over the (batch·heads, seq, seq) score tensor per block
        query_w = attn.query.weight.data * scale
        query_b = attn.query.bias.data * scale
        qkv_weight = np.concatenate(
            [query_w, attn.key.weight.data, attn.value.weight.data]).T
        qkv_bias = np.concatenate(
            [query_b, attn.key.bias.data, attn.value.bias.data])
        # the pre-norm affine (y = unit_norm(x)·w + b) feeds straight into the
        # next projection, so fold it into the projection weights: two fewer
        # full elementwise passes per folded norm
        norm_w, norm_b = block.norm_attn.weight.data, block.norm_attn.bias.data
        self.qkv_weight = np.ascontiguousarray(
            (norm_w[:, None] * qkv_weight).astype(_F32))
        self.qkv_bias = (qkv_bias + norm_b @ qkv_weight).astype(_F32)
        self.out_weight = np.ascontiguousarray(attn.out.weight.data.T.astype(_F32))
        self.out_bias = attn.out.bias.data.astype(_F32)
        ff1, ff2 = block.feed_forward.net[0], block.feed_forward.net[2]
        norm_w, norm_b = block.norm_ff.weight.data, block.norm_ff.bias.data
        ff1_weight = ff1.weight.data.T
        self.ff1_weight = np.ascontiguousarray(
            (norm_w[:, None] * ff1_weight).astype(_F32))
        self.ff1_bias = (ff1.bias.data + norm_b @ ff1_weight).astype(_F32)
        # GELU's ½ is folded here; the engine computes 2·gelu(hidden)
        self.ff2_weight = np.ascontiguousarray((0.5 * ff2.weight.data.T).astype(_F32))
        self.ff2_bias = ff2.bias.data.astype(_F32)
        self.norm_out = (block.norm_out.weight.data.astype(_F32),
                         block.norm_out.bias.data.astype(_F32))
        self.eps = _F32(block.norm_attn.eps)
        self.num_heads = attn.num_heads
        self.head_dim = attn.head_dim


class FusedBatchEngine:
    """Compiled inference engine bound to one :class:`EaszReconstructor`.

    Construction is cheap (a few float32 casts); engines are cached on the
    model by :meth:`EaszReconstructor.batch_engine` and rebuilt whenever the
    parameter fingerprint changes (optimizer step, ``load_state_dict``,
    in-place mutation).
    """

    def __init__(self, model):
        self._model = model
        self._config = model.config
        self._token = _fingerprint(model)
        self.encoder_blocks = [_CompiledBlock(b) for b in model.encoder.blocks()]
        self.decoder_blocks = [_CompiledBlock(b) for b in model.decoder.blocks()]
        self.input_weight = np.ascontiguousarray(
            model.input_projection.weight.data.T.astype(_F32))
        self.input_bias = model.input_projection.bias.data.astype(_F32)
        self.output_weight = np.ascontiguousarray(
            model.output_projection.weight.data.T.astype(_F32))
        self.output_bias = model.output_projection.bias.data.astype(_F32)
        self.positional = model.positional_embedding.data.astype(_F32)
        d_model = self._config.d_model
        self._mean_vector = np.full((d_model, 1), 1.0 / d_model, dtype=_F32)
        self._ones = {}

    def is_current(self):
        """True while the model parameters still match the compiled weights."""
        return self._token == _fingerprint(self._model)

    # ------------------------------------------------------------------ #
    def _ones_column(self, seq):
        ones = self._ones.get(seq)
        if ones is None:
            ones = np.ones((seq, 1), dtype=_F32)
            self._ones[seq] = ones
        return ones

    # One method per primitive, so ``bench_throughput.py`` can time each at
    # the shapes real calls run it with.
    def _norm(self, x, eps, affine=None):
        """Layer norm; without ``affine`` it is folded into the next GEMM."""
        mean = x @ self._mean_vector
        centred = x - mean
        inv_std = (centred * centred) @ self._mean_vector
        inv_std += eps
        np.sqrt(inv_std, out=inv_std)
        np.reciprocal(inv_std, out=inv_std)
        centred *= inv_std
        if affine is not None:
            centred *= affine[0]
            centred += affine[1]
        return centred

    @staticmethod
    def _qkv(normed, block):
        qkv = normed @ block.qkv_weight
        qkv += block.qkv_bias
        return qkv

    def _attention(self, qkv, count, seq, block, rows):
        """Per-head attention on strided views; merged heads, ``(rows, d)``.

        ``rows`` selects the query positions (all when None); keys and
        values always span the whole sequence.
        """
        heads, head_dim = block.num_heads, block.head_dim
        # (count, heads, seq, head_dim) views with leading dimension 3·d_model:
        # BLAS-ready as they are, so the Q/K/V split copies nothing
        query, key, value = qkv.reshape(count, seq, 3, heads, head_dim).transpose(2, 0, 3, 1, 4)
        if rows is not None:
            query = query[:, :, rows]
        scores = query @ key.swapaxes(-1, -2)
        if float(scores.max()) > _SOFTMAX_GUARD:  # pragma: no cover - guard path
            scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        row_sums = scores @ self._ones_column(seq)
        np.reciprocal(row_sums, out=row_sums)
        scores *= row_sums
        # heads written in place into their (count, rows, heads, head_dim)
        # slots: the merge copies nothing either
        merged = np.empty((count, query.shape[2], heads, head_dim), dtype=_F32)
        np.matmul(scores, value, out=merged.transpose(0, 2, 1, 3))
        return merged.reshape(-1, heads * head_dim)

    @staticmethod
    def _out_projection(merged, residual, block):
        attended = merged @ block.out_weight
        attended += block.out_bias
        attended += residual
        return attended

    @staticmethod
    def _feed_forward(normed, residual, block):
        """``ff2(gelu(ff1(normed))) + residual``; GELU's ½ lives in ``ff2_weight``."""
        hidden = normed @ block.ff1_weight
        hidden += block.ff1_bias
        gelu = hidden * hidden
        gelu *= _GELU_CUBIC
        gelu += _GELU_LINEAR
        gelu *= hidden
        np.tanh(gelu, out=gelu)
        gelu += _F32(1.0)
        gelu *= hidden
        out = gelu @ block.ff2_weight
        out += block.ff2_bias
        out += residual
        return out

    def _head(self, features):
        """Output projection + sigmoid."""
        out = features @ self.output_weight
        out += self.output_bias
        np.negative(out, out)
        np.exp(out, out)
        out += _F32(1.0)
        np.reciprocal(out, out)
        return out

    def _block_forward(self, x, count, seq, block, rows=None):
        """One transformer block over ``count`` sequences of ``seq`` tokens.

        With ``rows`` (grid positions) only those tokens leave the block.
        """
        qkv = self._qkv(self._norm(x, block.eps), block)
        merged = self._attention(qkv, count, seq, block, rows)
        if rows is not None:
            x = x.reshape(count, seq, -1)[:, rows].reshape(merged.shape)
        attended = self._out_projection(merged, x, block)
        out = self._feed_forward(self._norm(attended, block.eps), attended, block)
        return self._norm(out, block.eps, block.norm_out)

    # ------------------------------------------------------------------ #
    def _predict_chunk(self, kept_tokens, kept_indices, out_indices):
        """Forward one chunk: kept tokens in, predictions at ``out_indices``."""
        cfg = self._config
        count, num_kept = kept_tokens.shape[0], kept_tokens.shape[1]
        x = kept_tokens.reshape(-1, cfg.token_dim).astype(_F32) @ self.input_weight
        x += self.input_bias
        x3 = x.reshape(count, num_kept, cfg.d_model)
        x3 += self.positional[kept_indices]
        x = x3.reshape(-1, cfg.d_model)
        for block in self.encoder_blocks:
            x = self._block_forward(x, count, num_kept, block)
        full = np.zeros((count, cfg.tokens_per_patch, cfg.d_model), dtype=_F32)
        full[:, kept_indices, :] = x.reshape(count, num_kept, cfg.d_model)
        full += self.positional
        if self.decoder_blocks:
            x = full.reshape(-1, cfg.d_model)
            for block in self.decoder_blocks[:-1]:
                x = self._block_forward(x, count, cfg.tokens_per_patch, block)
            selected = self._block_forward(x, count, cfg.tokens_per_patch,
                                           self.decoder_blocks[-1], rows=out_indices)
        else:
            selected = full[:, out_indices, :].reshape(-1, cfg.d_model)
        return self._head(selected).reshape(count, len(out_indices), cfg.token_dim)

    def predict(self, kept_tokens, kept_indices, out_indices):
        """Predict token pixels for a stacked multi-image patch batch.

        Parameters
        ----------
        kept_tokens:
            ``(total_patches, num_kept, token_dim)`` array holding only the
            *kept* sub-patch tokens (grid order) of every patch in the batch,
            images concatenated along the first axis.
        kept_indices / out_indices:
            Flat grid positions of the kept tokens and of the positions to
            predict (typically the erased ones).

        Returns a float32 ``(total_patches, len(out_indices), token_dim)``
        array of sigmoid pixel predictions.
        """
        kept_tokens = np.asarray(kept_tokens)
        total = kept_tokens.shape[0]
        if len(out_indices) == 0:
            return np.zeros((total, 0, self._config.token_dim), dtype=_F32)
        chunk = max(1, CHUNK_ROWS // self._config.tokens_per_patch)
        if total <= chunk:
            return self._predict_chunk(kept_tokens, kept_indices, out_indices)
        return np.concatenate([
            self._predict_chunk(kept_tokens[start:start + chunk], kept_indices, out_indices)
            for start in range(0, total, chunk)
        ])
