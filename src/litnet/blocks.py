"""Token-mixing blocks: MLP blocks, multi-head self-attention, patch
embedding, and both positional-encoding schemes."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ValidationError
from .init import ones, weight, zeros
from .tensor import (Tensor, add, attention, gelu, layer_norm, matmul, reshape,
                     slice_last, transpose)

LN_EPS = 1e-5
PATCH_SIZE = 4
PATCH_DIM = PATCH_SIZE * PATCH_SIZE * 3  # 48


@dataclass
class MlpBlockParams:
    """Residual MLP block: x + fc2(gelu(fc1(LN(x))))."""

    ln_g: Tensor
    ln_b: Tensor
    fc1_w: Tensor
    fc1_b: Tensor
    fc2_w: Tensor
    fc2_b: Tensor

    @classmethod
    def create(cls, rng: np.random.Generator, channels: int, expansion: int,
               dtype=np.float32) -> "MlpBlockParams":
        hidden = expansion * channels
        return cls(
            ln_g=ones(channels, dtype),
            ln_b=zeros(channels, dtype),
            fc1_w=weight(rng, (channels, hidden), dtype),
            fc1_b=zeros(hidden, dtype),
            fc2_w=weight(rng, (hidden, channels), dtype),
            fc2_b=zeros(channels, dtype),
        )

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {
            f"{prefix}.ln.g": self.ln_g,
            f"{prefix}.ln.b": self.ln_b,
            f"{prefix}.fc1.w": self.fc1_w,
            f"{prefix}.fc1.b": self.fc1_b,
            f"{prefix}.fc2.w": self.fc2_w,
            f"{prefix}.fc2.b": self.fc2_b,
        }


def mlp_block(x: Tensor, p: MlpBlockParams) -> Tensor:
    """Token-wise residual MLP; no cross-token mixing."""
    h = layer_norm(x, p.ln_g, p.ln_b, LN_EPS)
    h = add(matmul(h, p.fc1_w), p.fc1_b)
    h = gelu(h)
    h = add(matmul(h, p.fc2_w), p.fc2_b)
    return add(x, h)


@dataclass
class MsaParams:
    """Fused-projection multi-head self-attention parameters.

    The stock blocks use an inner dimension equal to the channel count
    (qkv maps C to 3C, head_dim = C / heads). The inner and output
    dimensions are kept general so the attention-as-convolution
    construction can host per-head value paths of full channel width.
    """

    qkv_w: Tensor  # [C, 3 * inner]
    qkv_b: Tensor  # [3 * inner]
    out_w: Tensor  # [inner, out_dim]
    out_b: Tensor  # [out_dim]
    num_heads: int
    rel_bias: Tensor | None = None  # [heads, (2H-1)(2W-1)]
    grid: tuple[int, int] | None = None

    @property
    def inner_dim(self) -> int:
        return self.qkv_w.shape[1] // 3

    @property
    def head_dim(self) -> int:
        return self.inner_dim // self.num_heads

    @classmethod
    def create(cls, rng: np.random.Generator, channels: int, heads: int,
               grid: tuple[int, int] | None = None, relative: bool = False,
               dtype=np.float32) -> "MsaParams":
        if heads < 1 or channels % heads != 0:
            raise ConfigError(f"channels {channels} not divisible by heads {heads}")
        rel = None
        if relative:
            if grid is None:
                raise ConfigError("relative positional bias requires the stage grid")
            h, w = grid
            rel = weight(rng, (heads, (2 * h - 1) * (2 * w - 1)), dtype)
        return cls(
            qkv_w=weight(rng, (channels, 3 * channels), dtype),
            qkv_b=zeros(3 * channels, dtype),
            out_w=weight(rng, (channels, channels), dtype),
            out_b=zeros(channels, dtype),
            num_heads=heads,
            rel_bias=rel,
            grid=grid,
        )

    def named(self, prefix: str) -> dict[str, Tensor]:
        out = {
            f"{prefix}.qkv.w": self.qkv_w,
            f"{prefix}.qkv.b": self.qkv_b,
            f"{prefix}.out.w": self.out_w,
            f"{prefix}.out.b": self.out_b,
        }
        if self.rel_bias is not None:
            out[f"{prefix}.rel_bias"] = self.rel_bias
        return out


@lru_cache(maxsize=None)
def relative_index_map(h: int, w: int) -> np.ndarray:
    """[T, T] indices into a (2h-1)(2w-1) displacement table.

    Entry (i, j) encodes the 2-d displacement between token i and token j
    of an h x w grid, so equal displacements share one table slot.
    """
    ys, xs = np.divmod(np.arange(h * w), w)
    dy = ys[:, None] - ys[None, :] + (h - 1)
    dx = xs[:, None] - xs[None, :] + (w - 1)
    return (dy * (2 * w - 1) + dx).astype(np.int64)


def _split_heads(t: Tensor, heads: int) -> Tensor:
    n, tokens, dim = t.shape
    return transpose(reshape(t, (n, tokens, heads, dim // heads)), (0, 2, 1, 3))


def msa(x: Tensor, p: MsaParams, attn_override: np.ndarray | None = None,
        with_attn: bool = False) -> tuple[Tensor, np.ndarray | None]:
    """Scaled dot-product attention over all tokens.

    Returns (output, attention probabilities [N, heads, T, T] or None).
    The probabilities are returned only when ``with_attn`` is set; asking
    for them builds the full [N, heads, T, T] array, which ``attention``
    otherwise never holds outside a tape. When ``attn_override`` (an array
    of [N, heads, T, T] or [heads, T, T]) is given it replaces the softmax
    output; rows must sum to 1 within 1e-6.
    """
    n, tokens, _ = x.shape
    inner = p.inner_dim
    qkv = add(matmul(x, p.qkv_w), p.qkv_b)
    q = _split_heads(slice_last(qkv, 0, inner), p.num_heads)
    k = _split_heads(slice_last(qkv, inner, 2 * inner), p.num_heads)
    v = _split_heads(slice_last(qkv, 2 * inner, 3 * inner), p.num_heads)

    if attn_override is None:
        index = None
        if p.rel_bias is not None:
            if p.grid is None:
                raise ConfigError("relative bias present but the stage grid is unset")
            h, w = p.grid
            if tokens != h * w:
                raise ConfigError(f"{tokens} tokens do not match the {h}x{w} grid "
                                  "required by the relative bias table")
            expected = (2 * h - 1) * (2 * w - 1)
            if p.rel_bias.ndim != 2 or p.rel_bias.shape[1] != expected:
                raise ConfigError(
                    f"relative bias table of shape {p.rel_bias.shape} does not match grid "
                    f"{h}x{w} (expected {expected} displacement entries per head)")
            index = relative_index_map(h, w)
        ctx, attn = attention(q, k, v, p.rel_bias, index, with_probs=with_attn)
    else:
        probs = np.asarray(attn_override)
        if probs.shape == (p.num_heads, tokens, tokens):
            probs = np.broadcast_to(probs, (n,) + probs.shape)
        if probs.shape != (n, p.num_heads, tokens, tokens):
            raise ValidationError(
                f"attention override shape {probs.shape} does not match "
                f"[N={n}, heads={p.num_heads}, T={tokens}]")
        row_sums = probs.sum(axis=-1)
        if np.abs(row_sums - 1.0).max() > 1e-6:
            raise ValidationError("attention override rows must sum to 1 within 1e-6")
        probs = np.ascontiguousarray(probs, dtype=x.data.dtype)
        ctx = matmul(Tensor(probs), v)
        attn = probs if with_attn else None

    ctx = reshape(transpose(ctx, (0, 2, 1, 3)), (n, tokens, inner))
    out = add(matmul(ctx, p.out_w), p.out_b)
    return out, attn


@dataclass
class TransformerBlockParams:
    """Pre-norm attention sublayer followed by a residual MLP block."""

    ln_g: Tensor
    ln_b: Tensor
    attn: MsaParams
    mlp: MlpBlockParams

    @classmethod
    def create(cls, rng: np.random.Generator, channels: int, heads: int, expansion: int,
               grid: tuple[int, int] | None = None, relative: bool = False,
               dtype=np.float32) -> "TransformerBlockParams":
        return cls(
            ln_g=ones(channels, dtype),
            ln_b=zeros(channels, dtype),
            attn=MsaParams.create(rng, channels, heads, grid, relative, dtype),
            mlp=MlpBlockParams.create(rng, channels, expansion, dtype),
        )

    def named(self, prefix: str) -> dict[str, Tensor]:
        out = {f"{prefix}.ln1.g": self.ln_g, f"{prefix}.ln1.b": self.ln_b}
        out.update(self.attn.named(f"{prefix}.attn"))
        out.update(self.mlp.named(f"{prefix}.mlp"))
        return out


def transformer_block(x: Tensor, p: TransformerBlockParams,
                      with_attn: bool = False) -> tuple[Tensor, np.ndarray | None]:
    """x' = x + MSA(LN(x)); out = x' + MLP(LN(x')). Returns (out, attention
    probabilities or None); asking with ``with_attn`` builds them, as in ``msa``."""
    attended, attn = msa(layer_norm(x, p.ln_g, p.ln_b, LN_EPS), p.attn, with_attn=with_attn)
    x = add(x, attended)
    return mlp_block(x, p.mlp), attn


@dataclass
class PatchEmbedParams:
    """Non-overlapping 4x4 patch flattening plus linear projection."""

    w: Tensor  # [48, C1]
    b: Tensor  # [C1]

    @classmethod
    def create(cls, rng: np.random.Generator, channels: int, dtype=np.float32) -> "PatchEmbedParams":
        return cls(w=weight(rng, (PATCH_DIM, channels), dtype), b=zeros(channels, dtype))

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.w": self.w, f"{prefix}.b": self.b}


def patch_embed(images: Tensor, p: PatchEmbedParams) -> Tensor:
    """[N, H, W, 3] images to [N, (H/4)(W/4), C1] tokens."""
    n, h, w, c = images.shape
    if c != 3:
        raise ConfigError(f"patch embedding expects RGB input, got {c} channels")
    if h % PATCH_SIZE or w % PATCH_SIZE:
        raise ConfigError(f"image extents {h}x{w} are not divisible by the patch size {PATCH_SIZE}")
    gh, gw = h // PATCH_SIZE, w // PATCH_SIZE
    x = reshape(images, (n, gh, PATCH_SIZE, gw, PATCH_SIZE, 3))
    x = transpose(x, (0, 1, 3, 2, 4, 5))
    x = reshape(x, (n, gh * gw, PATCH_DIM))
    return add(matmul(x, p.w), p.b)
