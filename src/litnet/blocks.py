"""Token-mixing blocks: MLP blocks, multi-head self-attention, patch
embedding, and both positional-encoding schemes."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, NumericError
from .init import ones, weight, zeros
from .tensor import (Tensor, add, attention, gelu, layer_norm, matmul, relative_slot,
                     reshape, residual_mlp, transpose)

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
    """Token-wise residual MLP, x + fc2(gelu(fc1(LN(x)))); no cross-token
    mixing. Runs as the one row-tiled op ``tensor.residual_mlp``.

    When that op's output is not finite, the seven unfused ops replay the
    block on untracked views of its inputs, so that the error names the
    first op whose output went non-finite, e.g. ``non-finite values
    produced by matmul``; a finite block pays nothing for this.
    """
    params = (p.ln_g, p.ln_b, p.fc1_w, p.fc1_b, p.fc2_w, p.fc2_b)
    try:
        return residual_mlp(x, *params, eps=LN_EPS)
    except NumericError:
        x, ln_g, ln_b, fc1_w, fc1_b, fc2_w, fc2_b = (Tensor(t.data) for t in (x, *params))
        h = layer_norm(x, ln_g, ln_b, LN_EPS)
        h = gelu(add(matmul(h, fc1_w), fc1_b))
        add(x, add(matmul(h, fc2_w), fc2_b))
        raise


@dataclass
class MsaParams:
    """Fused-projection multi-head self-attention parameters.

    ``qkv_w`` maps C channels to q, k and v of ``num_heads`` heads of d
    channels, in the layout ``tensor.attention`` reads, and ``out_w`` maps
    heads * d channels to the output; the stock blocks use d = C / heads.
    The widths are kept general so that ``equivalence.build_msa_as_conv``
    can host per-head value paths of full channel width; its fixed
    ``rel_bias`` table makes every head attend one-hot to a pixel shift.

    ``rel_bias``, when set, is the [heads, 2H-1, 2W-1] relative position
    table of the stage's H x W grid; its shape fixes the grid (layout in
    ``tensor.attention``).
    """

    qkv_w: Tensor  # [C, 3 * heads * d]
    qkv_b: Tensor  # [3 * heads * d]
    out_w: Tensor  # [heads * d, out_dim]
    out_b: Tensor  # [out_dim]
    num_heads: int
    rel_bias: Tensor | None = None  # [heads, 2H-1, 2W-1]

    @classmethod
    def create(cls, rng: np.random.Generator, channels: int, heads: int,
               grid: tuple[int, int] | None = None, dtype=np.float32) -> "MsaParams":
        """Random projections, plus a relative bias table exactly when
        ``grid`` (H, W) is given."""
        if heads < 1 or channels % heads != 0:
            raise ConfigError(f"channels {channels} not divisible by heads {heads}")
        rel = None
        if grid is not None:
            h, w = grid
            rel = weight(rng, (heads, 2 * h - 1, 2 * w - 1), dtype)
        return cls(
            qkv_w=weight(rng, (channels, 3 * channels), dtype),
            qkv_b=zeros(3 * channels, dtype),
            out_w=weight(rng, (channels, channels), dtype),
            out_b=zeros(channels, dtype),
            num_heads=heads,
            rel_bias=rel,
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


# Unused by the model; kept because perfbench clears its cache (ROADMAP item 4).
@lru_cache(maxsize=None)
def relative_index_map(h: int, w: int) -> np.ndarray:
    """[T, T] indices into a (2h-1)(2w-1) displacement table.

    Entry (i, j) encodes the 2-d displacement between token i and token j
    of an h x w grid, so equal displacements share one table slot.
    """
    ys, xs = np.divmod(np.arange(h * w), w)
    return relative_slot(ys[:, None] - ys[None, :], xs[:, None] - xs[None, :],
                         h, w).astype(np.int64)


def msa(x: Tensor, p: MsaParams, with_attn: bool = False) -> tuple[Tensor, np.ndarray | None]:
    """Scaled dot-product attention over all tokens, plus the relative
    position bias when ``p.rel_bias`` is set.

    Returns (output, attention probabilities [N, heads, T, T] or None).
    The probabilities are returned only when ``with_attn`` is set; asking
    for them builds the full [N, heads, T, T] array, which ``attention``
    otherwise never holds outside a tape. ``attention`` reads q, k and v in
    place from the qkv projection, so the block records five ops.
    """
    qkv = add(matmul(x, p.qkv_w), p.qkv_b)
    ctx, attn = attention(qkv, p.num_heads, p.rel_bias, with_probs=with_attn)
    return add(matmul(ctx, p.out_w), p.out_b), attn


@dataclass
class TransformerBlockParams:
    """Pre-norm attention sublayer followed by a residual MLP block."""

    ln_g: Tensor
    ln_b: Tensor
    attn: MsaParams
    mlp: MlpBlockParams

    @classmethod
    def create(cls, rng: np.random.Generator, channels: int, heads: int, expansion: int,
               grid: tuple[int, int] | None = None, dtype=np.float32) -> "TransformerBlockParams":
        return cls(
            ln_g=ones(channels, dtype),
            ln_b=zeros(channels, dtype),
            attn=MsaParams.create(rng, channels, heads, grid, dtype),
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
