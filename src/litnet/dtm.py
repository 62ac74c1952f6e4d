"""Deformable convolution and the token merging module.

A deformable convolution samples the input at the regular kernel grid
shifted by learned, input-dependent offsets (predicted by a plain conv
over the same input), evaluated with bilinear interpolation. Token
merging composes one such conv with batch norm and GELU and halves the
spatial extents. Deformable token merging (DTM) has the offset
predictor; the uniform patch-merging baseline is the same module
without it, a stride-2 2x2 conv, which is what the deformable conv
computes when every offset is zero. One class, ``DtmParams``, holds
both: the conv, its optional offset predictor and the batch norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Mapping

import numpy as np

from .blocks import PATCH_SIZE
from .errors import ConfigError, StateError
from .init import weight, zeros, ones
from .tensor import (BatchNormState, Tensor, add, batch_norm, conv2d,
                     deform_sample, gelu, matmul, reshape)


def tap_grid(kernel: int) -> np.ndarray:
    """[K*K, 2] raw tap coordinates (ky, kx) in row-major tap order."""
    ky, kx = np.divmod(np.arange(kernel * kernel), kernel)
    return np.stack([ky, kx], axis=1).astype(np.int64)


@dataclass
class DtmParams:
    """Token merging: GELU(BN(DC(x))), stride-2 2x2 kernel.

    The conv has an offset predictor (same kernel and stride) for DTM
    and none for the uniform merge (``offset_w`` and ``offset_b`` None),
    which then samples only the regular grid. The predictor has 2*K*K
    output channels, (dy, dx) per tap, and is zero-initialized in both
    weights and biases, so initial offsets are exactly zero.
    """

    w: Tensor                 # [K, K, Cin, Cout]
    b: Tensor                 # [Cout]
    offset_w: Tensor | None   # [K, K, Cin, 2*K*K]
    offset_b: Tensor | None   # [2*K*K]
    bn_g: Tensor
    bn_b: Tensor
    bn_state: BatchNormState = field(default_factory=BatchNormState)
    stride: ClassVar[int] = 2
    padding: ClassVar[int] = 0

    @property
    def kernel(self) -> int:
        return self.w.shape[0]

    @classmethod
    def create(cls, rng: np.random.Generator, cin: int, cout: int,
               dtype=np.float32, deformable: bool = True) -> "DtmParams":
        return cls(
            w=weight(rng, (2, 2, cin, cout), dtype),
            b=zeros(cout, dtype),
            offset_w=zeros((2, 2, cin, 8), dtype) if deformable else None,
            offset_b=zeros(8, dtype) if deformable else None,
            bn_g=ones(cout, dtype),
            bn_b=zeros(cout, dtype),
        )

    def named(self, prefix: str) -> dict[str, Tensor]:
        out = {f"{prefix}.conv.w": self.w, f"{prefix}.conv.b": self.b}
        if self.offset_w is not None:
            out[f"{prefix}.offset_conv.w"] = self.offset_w
            out[f"{prefix}.offset_conv.b"] = self.offset_b
        out[f"{prefix}.bn.g"] = self.bn_g
        out[f"{prefix}.bn.b"] = self.bn_b
        return out

    @staticmethod
    def state_names(prefix: str) -> tuple[str, str]:
        """Checkpoint names of the running mean and variance, set or not."""
        return f"{prefix}.bn.running_mean", f"{prefix}.bn.running_var"

    def named_state(self, prefix: str) -> dict[str, np.ndarray]:
        if self.bn_state.mean is None:
            return {}
        return dict(zip(self.state_names(prefix), (self.bn_state.mean, self.bn_state.var)))


def deformable_conv(x: Tensor, p: DtmParams) -> tuple[Tensor, np.ndarray]:
    """Deformable convolution of an NHWC tensor.

    Each output location accumulates bilinear samples taken at the
    regular tap positions shifted by the predicted offsets. Returns the output
    and, for inspection, the offset field [N, Ho, Wo, K*K, 2], which no op writes into.
    """
    n, h, w, cin = x.shape
    k, s, pad = p.kernel, p.stride, p.padding
    cout = p.w.shape[3]
    offsets = conv2d(x, p.offset_w, p.offset_b, stride=s, padding=pad)
    ho, wo = offsets.shape[1], offsets.shape[2]
    offsets = reshape(offsets, (n, ho, wo, k * k, 2))

    taps = tap_grid(k).astype(x.data.dtype)
    base = np.empty((ho, wo, k * k, 2), dtype=x.data.dtype)
    base[..., 0] = (np.arange(ho) * s - pad)[:, None, None] + taps[:, 0]
    base[..., 1] = (np.arange(wo) * s - pad)[None, :, None] + taps[:, 1]
    positions = add(offsets, Tensor(base))

    samples = deform_sample(x, positions)                       # [N, Ho, Wo, K*K, Cin]
    flat = reshape(samples, (n, ho, wo, k * k * cin))
    out = matmul(flat, reshape(p.w, (k * k * cin, cout)), p.b)
    return out, offsets.data


def dtm_forward(x: Tensor, p: DtmParams, mode: str = "train") -> tuple[Tensor, np.ndarray | None]:
    """Merge tokens: halve each spatial extent, map Cin to Cout channels.

    Returns the merged map and the offset field of the deformable conv,
    or None when the merge has no offset predictor.
    """
    _, h, w, _ = x.shape
    if h % 2 or w % 2:
        raise ConfigError(f"token merging requires even spatial extents, got {h}x{w}")
    if p.offset_w is None:
        y, offsets = conv2d(x, p.w, p.b, p.stride, p.padding), None
    else:
        y, offsets = deformable_conv(x, p)
    y = batch_norm(y, p.bn_g, p.bn_b, p.bn_state, mode)
    return gelu(y), offsets


def trace_offsets(offset_fields: Mapping[int, np.ndarray], token: tuple[int, int]) -> np.ndarray:
    """Expand one final-stage token of the first image through the three
    merge modules.

    ``offset_fields`` maps stage index (2, 3, 4) to that stage's offset
    field [N, Ho, Wo, K*K, 2], as ``ForwardRecord.offsets`` holds them
    after a forward pass of a model with DTM merges. ``token`` must lie
    on the stage-4 grid, whose extents are those of the stage-4 field.
    Starting from the token's location there, each merge expands a
    position q into 2q + tap + offset for its four taps; offsets at
    fractional positions are looked up at the nearest grid location.
    The 4^3 = 64 leaf positions land on the stage-1 grid and are mapped
    to image pixels by the patch size, ``PATCH_SIZE``.

    Returns [64, 2] (image_y, image_x), leaf index k4*16 + k3*4 + k2.
    With all offsets zero the leaves tile the token's 32x32 image
    footprint on a regular 4-pixel grid.
    """
    for stage in (2, 3, 4):
        if stage not in offset_fields:
            raise StateError(f"no offset field recorded for the stage-{stage} merge; "
                             "record a forward pass of a model with DTM merges first")
    h4, w4 = np.shape(offset_fields[4])[1:3]
    if not (0 <= token[0] < h4 and 0 <= token[1] < w4):
        raise ConfigError(f"token {token} outside the {h4}x{w4} final-stage grid")

    taps = tap_grid(2).astype(np.float64)
    positions = [np.asarray(token, dtype=np.float64)]
    for stage in (4, 3, 2):
        field_arr = np.asarray(offset_fields[stage][0], dtype=np.float64)
        ho, wo = field_arr.shape[0], field_arr.shape[1]
        children = []
        for pos in positions:
            iy = int(np.clip(np.rint(pos[0]), 0, ho - 1))
            ix = int(np.clip(np.rint(pos[1]), 0, wo - 1))
            for k in range(4):
                children.append(2.0 * pos + taps[k] + field_arr[iy, ix, k])
        positions = children
    return np.asarray(positions) * PATCH_SIZE
