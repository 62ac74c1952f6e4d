"""Numerical demonstrations that per-pixel FC layers, convolutions, and
multi-head self-attention coincide under explicit constructions, plus
gradient-based receptive-field probes.

The attention-to-convolution bridge (Cordonnier, Loukas & Jaggi, arXiv
1911.03584) assigns each head a pixel shift from the kernel's offset
alphabet, and a fixed [heads, 2H-1, 2W-1] relative position bias table
makes the model's own ``attention`` kernel put one-hot weight on the
shifted pixel, so head h's value/output path carries exactly the kernel
slice at its shift. On interior pixels the result equals the zero-padded
convolution bit for bit up to float accumulation order.

Head shifts are a plain sequence of (dy, dx) pairs, one per head, which
must be a bijection onto ``centered_taps(K)``; None means that tuple in
tap order. ``build_msa_as_conv(conv_w, grid, shifts)`` returns the
``MsaParams``, and ``attention_as_conv(x, conv_w, shifts)`` and
``padded_conv(x, conv_w)`` apply the two routes to an [N, H, W, C] image.
``receptive_field_probe`` takes any sequence of such Tensor -> Tensor
functions as its layer stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .blocks import MsaParams, msa
from .errors import ConfigError
from .tensor import Tape, Tensor, conv2d, matmul, reshape

INFLUENCE_THRESHOLD = 1e-8  # relative to the strongest pixel
Shifts = Sequence[tuple[int, int]]  # one (dy, dx) pixel shift per head


def centered_taps(kernel: int) -> tuple[tuple[int, int], ...]:
    """The kernel's offset alphabet: tap coordinates shifted by -(K-1)//2.

    For odd K these are the usual centered offsets; for K = 2 they are
    {0, 1}^2, matching stride-2 token merging.
    """
    shift = (kernel - 1) // 2
    return tuple((ky - shift, kx - shift)
                 for ky in range(kernel) for kx in range(kernel))


def interior_mask(grid: tuple[int, int], kernel: int) -> np.ndarray:
    """[H, W] mask of pixels whose full K x K support lies in the grid."""
    h, w = grid
    before = (kernel - 1) // 2  # how far the taps reach up and left
    after = kernel - 1 - before  # and down and right
    mask = np.zeros((h, w), dtype=bool)
    mask[before:h - after, before:w - after] = True
    return mask


def build_msa_as_conv(conv_w: np.ndarray, grid: tuple[int, int],
                      shifts: Shifts | None = None) -> MsaParams:
    """Attention parameters that reproduce a convolution on an H x W grid.

    Head h gets the pixel shift ``shifts[h]`` (default: the kernel's offsets
    in tap order). Queries and keys are zero, so each logit is the relative
    position bias of its (query - key) displacement, read from a
    [heads, 2H-1, 2W-1] table whose entry [h, H-1+dy, W-1+dx] holds
    displacement (dy, dx): for head h, 0 at -shifts[h], -1000 at (0, 0) and
    -2000 elsewhere. exp(-1000) is exactly 0 in float32 and float64, so
    pixel p attends one-hot to p + shifts[h], or to itself when that lies
    off the grid (:func:`interior_mask` leaves such pixels out of exact
    comparisons). Head h's value projection is the identity on the input
    channels and its slice of the output projection is the kernel slice at
    its shift, so ``msa`` on a flattened image equals the zero-padded
    convolution on every interior pixel. With K = 1 the construction is a
    per-pixel FC layer.
    """
    conv_w = np.asarray(conv_w, dtype=np.float64)
    if conv_w.ndim != 4 or conv_w.shape[0] != conv_w.shape[1]:
        raise ConfigError(f"expected a [K, K, Cin, Cout] kernel, got {conv_w.shape}")
    kernel, _, cin, cout = conv_w.shape
    taps = centered_taps(kernel)
    shifts = taps if shifts is None else tuple((int(dy), int(dx)) for dy, dx in shifts)
    if sorted(shifts) != sorted(taps):
        raise ConfigError(f"{len(shifts)} head shifts {shifts} are not a bijection onto "
                          f"the {len(taps)} offsets of a {kernel}x{kernel} kernel")
    heads, (h, w) = len(shifts), grid

    table = np.full((heads, 2 * h - 1, 2 * w - 1), -2000.0)
    table[:, h - 1, w - 1] = -1000.0
    for head, (dy, dx) in enumerate(shifts):
        if abs(dy) < h and abs(dx) < w:  # else no key lies at the shift
            table[head, h - 1 - dy, w - 1 - dx] = 0.0
    shift = (kernel - 1) // 2
    values = np.tile(np.eye(cin), heads)  # zero queries and keys, then the values
    qkv_w = np.concatenate([np.zeros((cin, 2 * heads * cin)), values], axis=1)
    out_w = np.concatenate([conv_w[dy + shift, dx + shift] for dy, dx in shifts])
    return MsaParams(
        qkv_w=Tensor(qkv_w),
        qkv_b=Tensor(np.zeros(3 * heads * cin)),
        out_w=Tensor(out_w),
        out_b=Tensor(np.zeros(cout)),
        num_heads=heads,
        rel_bias=Tensor(table),
    )


def attention_as_conv(x: Tensor, conv_w: np.ndarray,
                      shifts: Shifts | None = None) -> Tensor:
    """``msa`` on an [N, H, W, Cin] image with the parameters of
    :func:`build_msa_as_conv` for its grid; returns [N, H, W, Cout]."""
    n, h, w, c = x.shape
    params = build_msa_as_conv(conv_w, (h, w), shifts)
    out, _ = msa(reshape(x, (n, h * w, c)), params)
    return reshape(out, (n, h, w, out.shape[-1]))


def padded_conv(x: Tensor, conv_w: np.ndarray) -> Tensor:
    """Zero-padded stride-1 convolution: the reference side of
    :func:`msa_vs_conv_deviation`."""
    conv_w = np.asarray(conv_w, dtype=np.float64)
    return conv2d(x, Tensor(conv_w), stride=1, padding=(conv_w.shape[0] - 1) // 2)


def msa_vs_conv_deviation(image: np.ndarray, conv_w: np.ndarray) -> float:
    """Max abs deviation between the two routes, with heads in tap order, on
    interior pixels.

    Outputs align by pixel index in both parities; for even K the
    symmetric-padding conv output is smaller than the grid, but it still
    covers every interior pixel. A grid without one raises ConfigError.
    """
    x = Tensor(np.asarray(image, dtype=np.float64)[None])
    got = attention_as_conv(x, conv_w).data[0]
    want = padded_conv(x, conv_w).data[0]
    (h, w), kernel = image.shape[:2], conv_w.shape[0]
    ys, xs = np.nonzero(interior_mask((h, w), kernel))
    if ys.size == 0:
        raise ConfigError(f"a {kernel}x{kernel} kernel has no interior pixel on the {h}x{w} grid")
    return float(np.abs(got[ys, xs] - want[ys, xs]).max())


def verify_fc_equals_1x1_conv(w: np.ndarray, rng: np.random.Generator | None = None) -> float:
    """Apply one weight matrix as a per-pixel FC layer and as a 1x1 conv.

    Returns the max abs deviation between the two routes, in float64, on a
    random image with entries in [-1, 1].
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ConfigError(f"expected a [Cin, Cout] matrix, got shape {w.shape}")
    rng = rng or np.random.default_rng(0)
    cin = w.shape[0]
    image = rng.uniform(-1.0, 1.0, size=(5, 6, cin))

    tokens = Tensor(image.reshape(1, 30, cin))
    fc = matmul(tokens, Tensor(w)).data.reshape(5, 6, -1)
    conv = conv2d(Tensor(image[None]), Tensor(w[None, None])).data[0]
    return float(np.abs(fc - conv).max())


# --------------------------------------------------------------------------
# Receptive-field probes
# --------------------------------------------------------------------------


@dataclass
class ReceptiveFieldReport:
    """Influence of input pixels on one query pixel's output.

    ``masks[d]`` marks the input pixels whose gradient magnitude exceeds
    ``INFLUENCE_THRESHOLD`` (relative to the strongest pixel) after the
    first d + 1 layers; ``k_eff`` is the bounding-box side of the final mask.
    """

    query: tuple[int, int]
    masks: list[np.ndarray]
    k_eff: int


def _mask_extent(mask: np.ndarray) -> int:
    ys, xs = np.nonzero(mask)
    if ys.size == 0:
        return 0
    return int(max(ys.max() - ys.min(), xs.max() - xs.min())) + 1


def receptive_field_probe(stack: Sequence[Callable[[Tensor], Tensor]], grid: tuple[int, int],
                          query: tuple[int, int],
                          rng: np.random.Generator | None = None) -> ReceptiveFieldReport:
    """Differentiate each prefix of ``stack``, a sequence of functions from
    a 3-channel [1, H, W, 3] image to one of the same grid, at one query pixel.

    The scalar probed is the channel sum of the output at ``query``; the
    gradient with respect to the input image gives the influence map.
    """
    rng = rng or np.random.default_rng(0)
    h, w = grid
    qy, qx = query
    if not (0 <= qy < h and 0 <= qx < w):
        raise ConfigError(f"query {query} outside grid {grid}")
    base = rng.uniform(-1.0, 1.0, size=(1, h, w, 3))

    masks = []
    for depth in range(1, len(stack) + 1):
        x = Tensor(base.copy(), requires_grad=True)
        with Tape() as tape:
            y = x
            for layer in stack[:depth]:
                y = layer(y)
            pick = np.zeros(y.shape, y.dtype)
            pick[0, qy, qx, :] = 1.0
            scalar = matmul(Tensor(pick.reshape(1, -1)), reshape(y, (-1, 1)))  # the query's channel sum
        tape.backward(scalar)
        mag = np.abs(x.grad[0]).max(axis=-1)
        peak = mag.max()
        mask = mag > (INFLUENCE_THRESHOLD * peak if peak > 0 else INFLUENCE_THRESHOLD)
        masks.append(mask)
    return ReceptiveFieldReport(query=(qy, qx), masks=masks, k_eff=_mask_extent(masks[-1]))
