"""Block contracts: MLP blocks, attention, patch embedding, and the
relative-position bias construction."""

import gc
import importlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from helpers import check_gradients, msa_oracle, relative_index_loop
from litnet.blocks import (LN_EPS, MlpBlockParams, MsaParams, PatchEmbedParams,
                           TransformerBlockParams, mlp_block, msa, patch_embed,
                           transformer_block)
from litnet.errors import ConfigError, ShapeError
from litnet.tensor import Tape, Tensor, attention, mul, sum_all, tensor

tensor_module = importlib.import_module("litnet.tensor")


def make_mlp(rng, channels=6, expansion=2):
    return MlpBlockParams.create(rng, channels, expansion, dtype=np.float64)


def make_msa(rng, channels=8, heads=2, grid=None):
    return MsaParams.create(rng, channels, heads, grid, dtype=np.float64)


def test_mlp_block_zero_weights_is_identity():
    rng = np.random.default_rng(0)
    p = make_mlp(rng)
    p.fc1_w.data[:] = 0.0
    p.fc2_w.data[:] = 0.0
    p.fc1_b.data[:] = 0.0
    p.fc2_b.data[:] = 0.0
    x = tensor(rng.normal(size=(2, 5, 6)))
    out = mlp_block(x, p)
    assert np.array_equal(out.data, x.data)


def test_mlp_block_token_permutation_equivariance():
    rng = np.random.default_rng(1)
    p = make_mlp(rng)
    x = rng.normal(size=(1, 7, 6))
    perm = rng.permutation(7)
    direct = mlp_block(tensor(x[:, perm]), p).data
    permuted = mlp_block(tensor(x), p).data[:, perm]
    assert np.array_equal(direct, permuted)


def test_mlp_block_matches_composition_oracle():
    rng = np.random.default_rng(2)
    p = make_mlp(rng, channels=5, expansion=3)
    x = rng.normal(size=(1, 1, 5))

    # hand-composed LN -> fc1 -> gelu -> fc2 -> residual
    from scipy.special import erf
    token = x[0, 0]
    mu, var = token.mean(), token.var()
    xhat = (token - mu) / np.sqrt(var + LN_EPS) * p.ln_g.data + p.ln_b.data
    h = xhat @ p.fc1_w.data + p.fc1_b.data
    h = h * 0.5 * (1.0 + erf(h / np.sqrt(2.0)))
    want = token + (h @ p.fc2_w.data + p.fc2_b.data)

    got = mlp_block(tensor(x), p).data[0, 0]
    assert np.abs(got - want).max() < 1e-12


def test_msa_single_token_attention_is_one():
    rng = np.random.default_rng(3)
    p = make_msa(rng, channels=6, heads=3)
    x = tensor(rng.normal(size=(2, 1, 6)))
    out, attn = msa(x, p, with_attn=True)
    assert np.array_equal(attn, np.ones((2, 3, 1, 1)))
    want = (x.data @ p.qkv_w.data + p.qkv_b.data)[..., 12:] @ p.out_w.data + p.out_b.data
    assert np.abs(out.data - want).max() < 1e-12


def test_msa_identity_attention_is_value_projection():
    # a table of 0 at displacement (0, 0) and -1000 elsewhere outweighs
    # every q.k logit, so each token attends to itself alone
    rng = np.random.default_rng(4)
    p = make_msa(rng, channels=8, heads=2, grid=(1, 5))
    p.rel_bias.data[:] = -1000.0
    p.rel_bias.data[:, 0, 4] = 0.0
    x = tensor(rng.normal(size=(1, 5, 8)))
    out, attn = msa(x, p, with_attn=True)
    assert np.array_equal(attn, np.broadcast_to(np.eye(5), (1, 2, 5, 5)))
    v = (x.data @ p.qkv_w.data + p.qkv_b.data)[..., 16:]
    want = v @ p.out_w.data + p.out_b.data
    assert np.abs(out.data - want).max() < 1e-12


def test_msa_matches_unfused_oracle():
    rng = np.random.default_rng(5)
    p = make_msa(rng, channels=8, heads=2)
    x = rng.normal(size=(1, 4, 8))
    out, attn = msa(tensor(x), p, with_attn=True)
    want_out, want_attn = msa_oracle(x, p.qkv_w.data, p.qkv_b.data,
                                     p.out_w.data, p.out_b.data, heads=2)
    assert np.abs(out.data - want_out).max() < 1e-10
    assert np.abs(attn - want_attn).max() < 1e-10


def test_msa_with_relative_bias_matches_oracle():
    rng = np.random.default_rng(6)
    p = make_msa(rng, channels=8, heads=2, grid=(2, 3))
    assert p.rel_bias.shape == (2, 3, 5)
    x = rng.normal(size=(2, 6, 8))
    out, attn = msa(tensor(x), p, with_attn=True)
    bias = p.rel_bias.data.reshape(2, 15)[:, relative_index_loop(2, 3)]
    want_out, want_attn = msa_oracle(x, p.qkv_w.data, p.qkv_b.data,
                                     p.out_w.data, p.out_b.data, heads=2, bias=bias)
    assert np.abs(out.data - want_out).max() < 1e-10
    assert np.abs(attn - want_attn).max() < 1e-10


def test_msa_attention_rows_sum_to_one():
    rng = np.random.default_rng(7)
    p = make_msa(rng, channels=6, heads=2)
    _, attn = msa(tensor(rng.normal(size=(2, 9, 6))), p, with_attn=True)
    assert np.abs(attn.sum(axis=-1) - 1.0).max() < 1e-10


def test_msa_token_count_must_match_grid_when_relative():
    rng = np.random.default_rng(9)
    p = make_msa(rng, channels=6, heads=2, grid=(2, 2))
    with pytest.raises(ShapeError, match="grid of 5 queries"):
        msa(tensor(rng.normal(size=(1, 5, 6))), p)


def test_msa_with_a_relative_bias_keeps_nothing_after_the_call():
    # a cached int64 index of the 960-token grid would keep 7 MiB
    rng = np.random.default_rng(8)
    p = MsaParams.create(rng, 8, 2, grid=(24, 40))
    assert p.rel_bias.shape == (2, 47, 79)
    x = tensor(rng.normal(size=(1, 960, 8)).astype(np.float32))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        msa(x, p)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert retained < 2 ** 20


def test_msa_records_five_ops_on_a_tape():
    # the qkv projection and its bias, attention, which reads q, k and v in
    # place, and the output projection and its bias: no slices or transposes
    rng = np.random.default_rng(11)
    p = make_msa(rng, channels=8, heads=2, grid=(2, 3))
    x = Tensor(rng.normal(size=(2, 6, 8)), requires_grad=True)
    with Tape() as tape:
        msa(x, p)
    assert len(tape._nodes) == 5


def test_msa_rejects_indivisible_heads():
    with pytest.raises(ConfigError):
        MsaParams.create(np.random.default_rng(0), channels=6, heads=4)


def test_transformer_block_zero_weights_is_identity():
    rng = np.random.default_rng(10)
    p = TransformerBlockParams.create(rng, 6, 2, 2, dtype=np.float64)
    for t in (p.attn.qkv_w, p.attn.qkv_b, p.attn.out_w, p.attn.out_b,
              p.mlp.fc1_w, p.mlp.fc1_b, p.mlp.fc2_w, p.mlp.fc2_b):
        t.data[:] = 0.0
    x = tensor(rng.normal(size=(2, 4, 6)))
    out, _ = transformer_block(x, p)
    assert np.array_equal(out.data, x.data)


def test_transformer_block_decomposes_into_mlp_block():
    rng = np.random.default_rng(11)
    p = TransformerBlockParams.create(rng, 8, 2, 2, dtype=np.float64)
    x = tensor(rng.normal(size=(1, 5, 8)))
    out, _ = transformer_block(x, p)
    from litnet.tensor import add, layer_norm
    attended, _ = msa(layer_norm(x, p.ln_g, p.ln_b, LN_EPS), p.attn)
    want = mlp_block(add(x, attended), p.mlp)
    assert np.abs(out.data - want.data).max() < 1e-12


def test_transformer_block_matches_composed_oracle():
    rng = np.random.default_rng(12)
    p = TransformerBlockParams.create(rng, 8, 4, 3, dtype=np.float64)
    x = rng.normal(size=(2, 6, 8))

    def ln(v, g, b):
        mu = v.mean(axis=-1, keepdims=True)
        var = v.var(axis=-1, keepdims=True)
        return (v - mu) / np.sqrt(var + LN_EPS) * g + b

    from scipy.special import erf
    attended, _ = msa_oracle(ln(x, p.ln_g.data, p.ln_b.data),
                             p.attn.qkv_w.data, p.attn.qkv_b.data,
                             p.attn.out_w.data, p.attn.out_b.data, heads=4)
    mid = x + attended
    h = ln(mid, p.mlp.ln_g.data, p.mlp.ln_b.data) @ p.mlp.fc1_w.data + p.mlp.fc1_b.data
    h = h * 0.5 * (1.0 + erf(h / np.sqrt(2.0)))
    want = mid + (h @ p.mlp.fc2_w.data + p.mlp.fc2_b.data)

    out, _ = transformer_block(tensor(x), p)
    assert np.abs(out.data - want).max() < 1e-10


def test_patch_embed_token_counts():
    rng = np.random.default_rng(13)
    p = PatchEmbedParams.create(rng, 16, dtype=np.float64)
    out = patch_embed(tensor(rng.normal(size=(1, 224, 224, 3))), p)
    assert out.shape == (1, 56 * 56, 16)
    out = patch_embed(tensor(rng.normal(size=(2, 8, 8, 3))), p)
    assert out.shape == (2, 4, 16)


def test_patch_embed_identity_projection_recovers_flattened_patch():
    rng = np.random.default_rng(14)
    p = PatchEmbedParams.create(rng, 50, dtype=np.float64)
    p.w.data[:] = 0.0
    p.w.data[:48, :48] = np.eye(48)
    p.b.data[:] = 0.0
    img = rng.normal(size=(1, 8, 8, 3))
    tok = patch_embed(tensor(img), p).data
    want = img[0, 4:8, 0:4, :].reshape(-1)  # patch (1, 0): rows 4..7, cols 0..3
    assert np.array_equal(tok[0, 2, :48], want)
    assert np.all(tok[0, :, 48:] == 0.0)


def test_patch_embed_rejects_indivisible_extents():
    rng = np.random.default_rng(15)
    p = PatchEmbedParams.create(rng, 8)
    with pytest.raises(ConfigError):
        patch_embed(tensor(np.zeros((1, 10, 8, 3))), p)


def relative_bias(table: np.ndarray) -> np.ndarray:
    """The [heads, T, T] logits bias that ``attention`` adds for a
    [heads, 2H-1, 2W-1] table: its logits for zero queries and keys, read
    as the exponentiation receives them (one tile on these small grids)."""
    heads, h2, w2 = table.shape
    zeros = Tensor(np.zeros((1, (h2 + 1) // 2 * ((w2 + 1) // 2), 3 * heads)))
    logits = []
    exp_rows = tensor_module._exp_rows

    def keep(z, ones, sums, shift):
        logits.append(z.copy())
        exp_rows(z, ones, sums, shift)

    with mock.patch.object(tensor_module, "_exp_rows", keep):
        attention(zeros, heads, Tensor(table))
    (tile,) = logits
    return tile[0]


def test_relative_bias_degenerate_grid():
    bias = relative_bias(np.array([[[3.25]]]))
    assert bias.shape == (1, 1, 1)
    assert bias[0, 0, 0] == 3.25


def test_relative_bias_diagonal_is_constant():
    rng = np.random.default_rng(16)
    table = rng.normal(size=(3, 5, 5))
    bias = relative_bias(table)
    diag = bias[:, np.arange(9), np.arange(9)]
    assert np.all(diag == table[:, 2:3, 2])  # displacement (0, 0)


def test_relative_index_matches_enumeration_oracle():
    for h, w in [(2, 2), (3, 4), (4, 4), (1, 5), (5, 1)]:
        table = np.arange(2 * (2 * h - 1) * (2 * w - 1), dtype=np.float64).reshape(2, 2 * h - 1, -1)
        want = table.reshape(2, -1)[:, relative_index_loop(h, w)]
        assert np.array_equal(relative_bias(table), want)
    assert len(np.unique(relative_bias(np.arange(9.0).reshape(1, 3, 3)))) == 9


def test_relative_bias_translation_property():
    # pairs with equal 2-d displacement (per the enumeration oracle) must
    # share one bias value, exhaustively on a 4x4 grid
    rng = np.random.default_rng(17)
    h, w = 4, 4
    bias = relative_bias(rng.normal(size=(2, 2 * h - 1, 2 * w - 1)))
    oracle_classes = relative_index_loop(h, w)
    for head in range(2):
        for disp in np.unique(oracle_classes):
            values = bias[head][oracle_classes == disp]
            assert np.all(values == values[0])


def test_relative_bias_extent_mismatch():
    rng = np.random.default_rng(19)
    p = make_msa(rng, channels=6, heads=2, grid=(2, 2))
    p.rel_bias = tensor(np.zeros((2, 3, 4)))
    with pytest.raises(ShapeError, match=r"bias table \(2, 3, 4\) is not \[2, 2H-1, 2W-1\]"):
        msa(tensor(rng.normal(size=(1, 4, 6))), p)


def test_block_gradients():
    rng = np.random.default_rng(18)
    p = TransformerBlockParams.create(rng, 8, 2, 2, grid=(2, 2), dtype=np.float64)
    x = tensor(rng.uniform(-1, 1, size=(1, 4, 8)), requires_grad=True)
    probe = Tensor(rng.normal(size=(1, 4, 8)))
    params = [x, p.attn.qkv_w, p.attn.out_w, p.attn.rel_bias, p.mlp.fc1_w, p.ln_g]
    check_gradients(lambda: sum_all(mul(transformer_block(x, p)[0], probe)), params)
