"""Block contracts: MLP blocks, attention, patch embedding, and the
relative-position bias construction."""

import numpy as np
import pytest

from helpers import check_gradients, msa_oracle, relative_index_loop
from litnet.blocks import (LN_EPS, MlpBlockParams, MsaParams, PatchEmbedParams,
                           TransformerBlockParams, mlp_block, msa, patch_embed,
                           relative_index_map, transformer_block)
from litnet.errors import ConfigError, ValidationError
from litnet.tensor import Tensor, mul, sum_all, tensor


def make_mlp(rng, channels=6, expansion=2):
    return MlpBlockParams.create(rng, channels, expansion, dtype=np.float64)


def make_msa(rng, channels=8, heads=2, grid=None, relative=False):
    return MsaParams.create(rng, channels, heads, grid, relative, dtype=np.float64)


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


def test_msa_identity_override_is_value_projection():
    rng = np.random.default_rng(4)
    p = make_msa(rng, channels=8, heads=2)
    x = tensor(rng.normal(size=(1, 5, 8)))
    override = np.broadcast_to(np.eye(5), (2, 5, 5))
    out, attn = msa(x, p, attn_override=override)
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
    p = make_msa(rng, channels=8, heads=2, grid=(2, 3), relative=True)
    x = rng.normal(size=(2, 6, 8))
    out, attn = msa(tensor(x), p, with_attn=True)
    bias = p.rel_bias.data[:, relative_index_loop(2, 3)]
    want_out, want_attn = msa_oracle(x, p.qkv_w.data, p.qkv_b.data,
                                     p.out_w.data, p.out_b.data, heads=2, bias=bias)
    assert np.abs(out.data - want_out).max() < 1e-10
    assert np.abs(attn - want_attn).max() < 1e-10


def test_msa_attention_rows_sum_to_one():
    rng = np.random.default_rng(7)
    p = make_msa(rng, channels=6, heads=2)
    _, attn = msa(tensor(rng.normal(size=(2, 9, 6))), p, with_attn=True)
    assert np.abs(attn.sum(axis=-1) - 1.0).max() < 1e-10


def test_msa_override_row_sum_validation():
    rng = np.random.default_rng(8)
    p = make_msa(rng, channels=6, heads=2)
    x = tensor(rng.normal(size=(1, 3, 6)))
    bad = np.full((2, 3, 3), 0.4)
    with pytest.raises(ValidationError):
        msa(x, p, attn_override=bad)


def test_msa_token_count_must_match_grid_when_relative():
    rng = np.random.default_rng(9)
    p = make_msa(rng, channels=6, heads=2, grid=(2, 2), relative=True)
    with pytest.raises(ConfigError):
        msa(tensor(rng.normal(size=(1, 5, 6))), p)


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


def relative_bias(table: np.ndarray, h: int, w: int) -> np.ndarray:
    """The [heads, T, T] logits bias that ``msa`` adds for an h x w grid."""
    return table[:, relative_index_map(h, w)]


def test_relative_bias_degenerate_grid():
    bias = relative_bias(np.array([[3.25]]), 1, 1)
    assert bias.shape == (1, 1, 1)
    assert bias[0, 0, 0] == 3.25


def test_relative_bias_diagonal_is_constant():
    rng = np.random.default_rng(16)
    bias = relative_bias(rng.normal(size=(3, 5 * 5)), 3, 3)
    diag = bias[:, np.arange(9), np.arange(9)]
    assert np.all(diag == diag[:, :1])


def test_relative_index_matches_enumeration_oracle():
    for h, w in [(2, 2), (3, 4), (4, 4), (1, 5)]:
        assert np.array_equal(relative_index_map(h, w), relative_index_loop(h, w))
    idx = relative_index_map(2, 2)
    assert len(np.unique(idx)) == 9  # (2*2-1)^2 distinct displacements


def test_relative_bias_translation_property():
    # pairs with equal 2-d displacement (per the enumeration oracle) must
    # share one bias value, exhaustively on a 4x4 grid
    rng = np.random.default_rng(17)
    h, w = 4, 4
    bias = relative_bias(rng.normal(size=(2, (2 * h - 1) * (2 * w - 1))), h, w)
    oracle_classes = relative_index_loop(h, w)
    for head in range(2):
        for disp in np.unique(oracle_classes):
            values = bias[head][oracle_classes == disp]
            assert np.all(values == values[0])


def test_relative_bias_extent_mismatch():
    rng = np.random.default_rng(19)
    p = make_msa(rng, channels=6, heads=2, grid=(2, 2), relative=True)
    p.rel_bias = tensor(np.zeros((2, 10)))
    with pytest.raises(ConfigError, match="expected 9 displacement entries"):
        msa(tensor(rng.normal(size=(1, 4, 6))), p)


def test_block_gradients():
    rng = np.random.default_rng(18)
    p = TransformerBlockParams.create(rng, 8, 2, 2, grid=(2, 2), relative=True,
                                      dtype=np.float64)
    x = tensor(rng.uniform(-1, 1, size=(1, 4, 8)), requires_grad=True)
    probe = Tensor(rng.normal(size=(1, 4, 8)))
    params = [x, p.attn.qkv_w, p.attn.out_w, p.attn.rel_bias, p.mlp.fc1_w, p.ln_g]
    check_gradients(lambda: sum_all(mul(transformer_block(x, p)[0], probe)), params)
