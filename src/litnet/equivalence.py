"""Numerical demonstrations that per-pixel FC layers, convolutions, and
multi-head self-attention coincide under explicit constructions, plus
gradient-based receptive-field probes.

The attention-to-convolution bridge (Cordonnier, Loukas & Jaggi, arXiv
1911.03584) assigns each head a pixel shift from the kernel's offset
alphabet, and a fixed relative position bias table makes the model's own
``attention`` kernel put one-hot weight on the shifted pixel, so head h's
value/output path carries exactly the kernel slice at its shift. On
interior pixels the result equals the zero-padded convolution bit for bit
up to float accumulation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .blocks import MsaParams, mlp_block, msa
from .errors import ConfigError
from .tensor import Tape, Tensor, conv2d, matmul, mul, reshape, sum_all

INFLUENCE_THRESHOLD = 1e-8  # relative to the strongest pixel


def centered_taps(kernel: int) -> tuple[tuple[int, int], ...]:
    """The kernel's offset alphabet: tap coordinates shifted by -(K-1)//2.

    For odd K these are the usual centered offsets; for K = 2 they are
    {0, 1}^2, matching stride-2 token merging.
    """
    shift = (kernel - 1) // 2
    return tuple((ky - shift, kx - shift)
                 for ky in range(kernel) for kx in range(kernel))


@dataclass(frozen=True)
class HeadShiftMap:
    """Bijection from head index to a pixel shift of a K x K kernel."""

    shifts: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(set(self.shifts)) != len(self.shifts):
            raise ConfigError(f"head shifts must be distinct, got {self.shifts}")

    @property
    def num_heads(self) -> int:
        return len(self.shifts)

    @classmethod
    def for_kernel(cls, kernel: int) -> "HeadShiftMap":
        return cls(centered_taps(kernel))

    def permuted(self, perm: Sequence[int]) -> "HeadShiftMap":
        return HeadShiftMap(tuple(self.shifts[i] for i in perm))


def _check_shift_map(shift_map: HeadShiftMap, kernel: int) -> None:
    expected = kernel * kernel
    if shift_map.num_heads != expected:
        raise ConfigError(
            f"{shift_map.num_heads} heads cannot realize a {kernel}x{kernel} kernel; "
            f"need exactly {expected} (a perfect square)")
    if set(shift_map.shifts) != set(centered_taps(kernel)):
        raise ConfigError(
            f"head shifts {shift_map.shifts} are not a bijection onto the "
            f"{kernel}x{kernel} kernel offsets")


def interior_mask(grid: tuple[int, int], kernel: int) -> np.ndarray:
    """[H, W] mask of pixels whose full K x K support lies in the grid."""
    h, w = grid
    mask = np.ones((h, w), dtype=bool)
    for dy, dx in centered_taps(kernel):
        shifted = np.zeros((h, w), dtype=bool)
        ys = np.arange(h) + dy
        xs = np.arange(w) + dx
        ok_y = (ys >= 0) & (ys < h)
        ok_x = (xs >= 0) & (xs < w)
        shifted[np.ix_(ok_y, ok_x)] = True
        mask &= shifted
    return mask


def build_msa_as_conv(conv_w: np.ndarray, shift_map: HeadShiftMap,
                      grid: tuple[int, int]) -> MsaParams:
    """Attention parameters that reproduce a convolution on an H x W grid.

    Queries and keys are zero, so each logit is the relative position bias
    of its (query - key) displacement: for head h, 0 at -f(h), -1000 at
    (0, 0) and -2000 elsewhere. exp(-1000) is exactly 0 in float32 and
    float64, so pixel p attends one-hot to p + f(h), or to itself when that
    lies off the grid (:func:`interior_mask` leaves such pixels out of
    exact comparisons). Head h's value projection is the identity on the
    input channels and its slice of the output projection is the kernel
    slice at f(h), so ``msa`` on a flattened image equals the zero-padded
    convolution on every interior pixel. With K = 1 the construction is a
    per-pixel FC layer.
    """
    conv_w = np.asarray(conv_w, dtype=np.float64)
    if conv_w.ndim != 4 or conv_w.shape[0] != conv_w.shape[1]:
        raise ConfigError(f"expected a [K, K, Cin, Cout] kernel, got {conv_w.shape}")
    kernel, _, cin, cout = conv_w.shape
    _check_shift_map(shift_map, kernel)
    heads = shift_map.num_heads
    inner = heads * cin

    qkv_w = np.zeros((cin, 3 * inner))
    for head in range(heads):
        start = 2 * inner + head * cin
        qkv_w[:, start:start + cin] = np.eye(cin)
    out_w = np.zeros((inner, cout))
    shift = (kernel - 1) // 2
    for head, (dy, dx) in enumerate(shift_map.shifts):
        out_w[head * cin:(head + 1) * cin, :] = conv_w[dy + shift, dx + shift]

    h, w = grid
    table = np.full((heads, (2 * h - 1) * (2 * w - 1)), -2000.0)
    table[:, (h - 1) * (2 * w - 1) + (w - 1)] = -1000.0
    for head, (dy, dx) in enumerate(shift_map.shifts):
        if abs(dy) < h and abs(dx) < w:  # else no key lies at the shift
            table[head, (h - 1 - dy) * (2 * w - 1) + (w - 1 - dx)] = 0.0

    return MsaParams(
        qkv_w=Tensor(qkv_w),
        qkv_b=Tensor(np.zeros(3 * inner)),
        out_w=Tensor(out_w),
        out_b=Tensor(np.zeros(cout)),
        num_heads=heads,
        rel_bias=Tensor(table),
        grid=(h, w),
    )


def msa_vs_conv_deviation(image: np.ndarray, conv_w: np.ndarray,
                          shift_map: HeadShiftMap | None = None) -> float:
    """Max abs deviation between the two routes on interior pixels.

    Outputs align by pixel index in both parities; for even K the
    symmetric-padding conv output is smaller than the grid, but it still
    covers every interior pixel. A grid without one raises ConfigError.
    """
    x = Tensor(np.asarray(image, dtype=np.float64)[None])
    got = AttentionProbe(conv_w, shift_map).apply(x).data[0]
    want = ConvProbe(conv_w).apply(x).data[0]
    (h, w), kernel = image.shape[:2], conv_w.shape[0]
    ys, xs = np.nonzero(interior_mask((h, w), kernel))
    if ys.size == 0:
        raise ConfigError(f"a {kernel}x{kernel} kernel has no interior pixel on the {h}x{w} grid")
    return float(np.abs(got[ys, xs] - want[ys, xs]).max())


def verify_fc_equals_1x1_conv(w: np.ndarray, rng: np.random.Generator | None = None,
                              dtype=np.float64) -> float:
    """Apply one weight matrix as a per-pixel FC layer and as a 1x1 conv.

    Returns the max abs deviation between the two routes on a random
    image with entries in [-1, 1].
    """
    w = np.asarray(w, dtype=dtype)
    if w.ndim != 2:
        raise ConfigError(f"expected a [Cin, Cout] matrix, got shape {w.shape}")
    rng = rng or np.random.default_rng(0)
    cin = w.shape[0]
    image = rng.uniform(-1.0, 1.0, size=(5, 6, cin)).astype(dtype)

    tokens = Tensor(image.reshape(1, 30, cin))
    fc = matmul(tokens, Tensor(w)).data.reshape(5, 6, -1)
    conv = conv2d(Tensor(image[None]), Tensor(w[None, None])).data[0]
    return float(np.abs(fc - conv).max())


# --------------------------------------------------------------------------
# Receptive-field probes
# --------------------------------------------------------------------------


class MlpProbe:
    """Token-wise residual MLP as a probe layer (support: one pixel)."""

    def __init__(self, params):
        self.params = params

    def apply(self, x: Tensor) -> Tensor:
        n, h, w, c = x.shape
        tokens = reshape(x, (n, h * w, c))
        return reshape(mlp_block(tokens, self.params), (n, h, w, c))


class ConvProbe:
    """Zero-padded stride-1 convolution as a probe layer; on one image it
    is the reference side of ``msa_vs_conv_deviation``."""

    def __init__(self, conv_w: np.ndarray):
        self.conv_w = np.asarray(conv_w, dtype=np.float64)

    def apply(self, x: Tensor) -> Tensor:
        kernel = self.conv_w.shape[0]
        return conv2d(x, Tensor(self.conv_w), stride=1, padding=(kernel - 1) // 2)


class AttentionProbe:
    """The attention-as-convolution construction as a probe layer: ``msa``
    with the parameters of ``build_msa_as_conv`` for the input's grid."""

    def __init__(self, conv_w: np.ndarray, shift_map: HeadShiftMap | None = None):
        self.conv_w = np.asarray(conv_w, dtype=np.float64)
        self.shift_map = shift_map or HeadShiftMap.for_kernel(self.conv_w.shape[0])

    def apply(self, x: Tensor) -> Tensor:
        n, h, w, c = x.shape
        params = build_msa_as_conv(self.conv_w, self.shift_map, (h, w))
        out, _ = msa(reshape(x, (n, h * w, c)), params)
        return reshape(out, (n, h, w, out.shape[-1]))


@dataclass
class ReceptiveFieldReport:
    """Influence of input pixels on one query pixel's output.

    ``masks[d]`` marks the input pixels whose gradient magnitude exceeds
    ``threshold`` (relative to the strongest pixel) after the first d + 1
    layers; ``k_eff`` is the bounding-box side of the final mask.
    """

    query: tuple[int, int]
    masks: list[np.ndarray]
    magnitudes: list[np.ndarray]
    k_eff: int
    threshold: float = INFLUENCE_THRESHOLD


def _mask_extent(mask: np.ndarray) -> int:
    ys, xs = np.nonzero(mask)
    if ys.size == 0:
        return 0
    return int(max(ys.max() - ys.min(), xs.max() - xs.min())) + 1


def receptive_field_probe(stack: Sequence, grid: tuple[int, int],
                          query: tuple[int, int], channels: int = 3,
                          rng: np.random.Generator | None = None) -> ReceptiveFieldReport:
    """Differentiate each prefix of ``stack`` at one query pixel.

    The scalar probed is the channel sum of the output at ``query``; the
    gradient with respect to the input image gives the influence map.
    """
    rng = rng or np.random.default_rng(0)
    h, w = grid
    qy, qx = query
    if not (0 <= qy < h and 0 <= qx < w):
        raise ConfigError(f"query {query} outside grid {grid}")
    base = rng.uniform(-1.0, 1.0, size=(1, h, w, channels))

    masks, magnitudes = [], []
    for depth in range(1, len(stack) + 1):
        x = Tensor(base.copy(), requires_grad=True)
        with Tape() as tape:
            y = x
            for layer in stack[:depth]:
                y = layer.apply(y)
            pick = np.zeros(y.shape)
            pick[0, qy, qx, :] = 1.0
            scalar = sum_all(mul(y, Tensor(pick)))
        tape.backward(scalar)
        mag = np.abs(x.grad[0]).max(axis=-1)
        peak = mag.max()
        mask = mag > (INFLUENCE_THRESHOLD * peak if peak > 0 else INFLUENCE_THRESHOLD)
        masks.append(mask)
        magnitudes.append(mag)
    return ReceptiveFieldReport(query=(qy, qx), masks=masks, magnitudes=magnitudes,
                                k_eff=_mask_extent(masks[-1]))


def export_attention_maps(attention: Mapping[tuple[int, int], np.ndarray], stage: int,
                          block: int = 0) -> np.ndarray:
    """Average attention probabilities [heads, T, T] over an image batch.

    ``attention`` maps (stage, block) to [N, heads, T, T], as
    ``ForwardRecord.attention`` holds them after a forward pass.
    """
    blocks = sorted(b for s, b in attention if s == stage)
    if not blocks:
        raise ConfigError(
            f"stage {stage} block {block} has no attention; "
            "the first two stages do not have self-attention layers")
    if block not in blocks:
        raise ConfigError(f"stage {stage} has blocks {blocks[0]}-{blocks[-1]}, got block {block}")
    return attention[(stage, block)].mean(axis=0)
