"""Shared test utilities: independent oracles and a finite-difference
gradient checker.

Every oracle here is written directly from the defining summation with
plain Python loops, independent of the library's vectorized paths.
"""

from __future__ import annotations

import math
import tracemalloc
from typing import Callable, Sequence

import numpy as np

from litnet.model import (BLOCK_MLP, BLOCK_TRANSFORMER, MERGE_DTM, MERGE_LINEAR,
                          ModelConfig, StageSpec)
from litnet.tensor import Tape, Tensor, matmul, reshape

GRAD_TOL = 1e-4
FD_STEP = 1e-5


def fd_gradient(value_fn: Callable[[], float], t: Tensor, h: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of a scalar function w.r.t. ``t.data``."""
    flat = t.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + h
        fp = value_fn()
        flat[i] = saved - h
        fm = value_fn()
        flat[i] = saved
        grad[i] = (fp - fm) / (2.0 * h)
    return grad.reshape(t.data.shape)


def grad_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max abs difference normalized by the numeric gradient's peak."""
    scale = max(np.abs(numeric).max(), 1e-8)
    return float(np.abs(analytic - numeric).max() / scale)


def dot(a: Tensor, b: Tensor) -> Tensor:
    """The scalar a . b of two tensors of one size and dtype, as a [1, 1]
    matmul of reshapes: ``dot(Tensor(probe), out)`` weights ``out`` by a fixed
    array, and the constant ``probe`` gets no gradient array."""
    return matmul(reshape(a, (1, -1)), reshape(b, (-1, 1)))


def check_gradients(make_loss: Callable[[], Tensor], params: Sequence[Tensor],
                    h: float = FD_STEP, tol: float = GRAD_TOL) -> dict[int, float]:
    """Compare tape gradients of ``make_loss`` against central differences.

    ``make_loss`` must rebuild the loss from current parameter values on
    every call (it runs once under a tape and twice per scalar for the
    finite differences).
    """
    for p in params:
        p.grad = None
    with Tape() as tape:
        loss = make_loss()
    tape.backward(loss)
    errors = {}
    for idx, p in enumerate(params):
        assert p.grad is not None, f"parameter {idx} received no gradient"
        numeric = fd_gradient(lambda: make_loss().item(), p, h)
        err = grad_rel_error(p.grad, numeric)
        errors[idx] = err
        assert err < tol, f"parameter {idx}: gradient error {err:.2e} >= {tol}"
    return errors


def traced_bytes(fn: Callable[[], object]) -> tuple[int, int]:
    """(kept, peak): the bytes that ``fn()`` allocated and still held when it
    returned, its result among them, and the most it held at once, both
    above what was held when it started, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()  # held until the memory is read
        kept, peak = tracemalloc.get_traced_memory()
        return kept - base, peak - base
    finally:
        tracemalloc.stop()


# --------------------------------------------------------------------------
# Oracles
# --------------------------------------------------------------------------


def matmul_loop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            for kk in range(k):
                out[i, j] += a[i, kk] * b[kk, j]
    return out


def conv2d_loop(x: np.ndarray, w: np.ndarray, bias: np.ndarray | None = None,
                stride: int = 1, padding: int = 0) -> np.ndarray:
    """Direct summation over taps with explicit zero padding."""
    n, h, wd, cin = x.shape
    k = w.shape[0]
    cout = w.shape[3]
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wd + 2 * padding - k) // stride + 1
    out = np.zeros((n, ho, wo, cout), dtype=np.float64)
    for b in range(n):
        for i in range(ho):
            for j in range(wo):
                for ky in range(k):
                    for kx in range(k):
                        yy = i * stride + ky - padding
                        xx = j * stride + kx - padding
                        if 0 <= yy < h and 0 <= xx < wd:
                            out[b, i, j, :] += x[b, yy, xx, :] @ w[ky, kx]
    if bias is not None:
        out += bias
    return out


def conv2d_weight_grad_loop(x: np.ndarray, g: np.ndarray, k: int,
                            stride: int = 1, padding: int = 0) -> np.ndarray:
    """Gradient of sum(conv2d(x, w) * g) in the [K, K, Cin, Cout] kernel w:
    each tap's sum over outputs of the input pixel it reads times g."""
    n, h, wd, cin = x.shape
    _, ho, wo, cout = g.shape
    gw = np.zeros((k, k, cin, cout), dtype=np.float64)
    for b in range(n):
        for i in range(ho):
            for j in range(wo):
                for ky in range(k):
                    for kx in range(k):
                        yy = i * stride + ky - padding
                        xx = j * stride + kx - padding
                        if 0 <= yy < h and 0 <= xx < wd:
                            gw[ky, kx] += np.outer(x[b, yy, xx, :], g[b, i, j, :])
    return gw


def bilinear_scalar(img: np.ndarray, y: float, x: float) -> np.ndarray:
    """Scalar bilinear interpolation; out-of-bounds neighbors contribute zero."""
    h, w, c = img.shape
    y0, x0 = int(np.floor(y)), int(np.floor(x))
    wy1, wx1 = y - y0, x - x0
    out = np.zeros(c, dtype=np.float64)
    for cy, wy in ((y0, 1.0 - wy1), (y0 + 1, wy1)):
        for cx, wx in ((x0, 1.0 - wx1), (x0 + 1, wx1)):
            if 0 <= cy < h and 0 <= cx < w:
                out += wy * wx * img[cy, cx, :]
    return out


def deformable_conv_loop(x: np.ndarray, w: np.ndarray, bias: np.ndarray,
                         offsets: np.ndarray, stride: int) -> np.ndarray:
    """Direct deformable convolution: sample at tap + learned offset."""
    n, h, wd, cin = x.shape
    k = w.shape[0]
    cout = w.shape[3]
    ho = (h - k) // stride + 1
    wo = (wd - k) // stride + 1
    out = np.zeros((n, ho, wo, cout), dtype=np.float64)
    for b in range(n):
        for i in range(ho):
            for j in range(wo):
                for ky in range(k):
                    for kx in range(k):
                        tap = ky * k + kx
                        dy, dx = offsets[b, i, j, tap]
                        sample = bilinear_scalar(x[b], i * stride + ky + dy,
                                                 j * stride + kx + dx)
                        out[b, i, j, :] += sample @ w[ky, kx]
    return out + bias


def msa_oracle(x: np.ndarray, qkv_w: np.ndarray, qkv_b: np.ndarray,
               out_w: np.ndarray, out_b: np.ndarray, heads: int,
               bias: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Unfused attention: per-head q/k/v, explicit softmax, concat, project."""
    n, t, c = x.shape
    inner = qkv_w.shape[1] // 3
    dh = inner // heads
    qkv = x @ qkv_w + qkv_b
    q, k, v = qkv[..., :inner], qkv[..., inner:2 * inner], qkv[..., 2 * inner:]
    out = np.zeros((n, t, out_w.shape[1]), dtype=np.float64)
    attn_all = np.zeros((n, heads, t, t), dtype=np.float64)
    for b in range(n):
        ctx = np.zeros((t, inner), dtype=np.float64)
        for head in range(heads):
            sl = slice(head * dh, (head + 1) * dh)
            logits = (q[b][:, sl] / np.sqrt(dh)) @ k[b][:, sl].T
            if bias is not None:
                logits = logits + bias[head]
            logits = logits - logits.max(axis=1, keepdims=True)
            e = np.exp(logits)
            attn = e / e.sum(axis=1, keepdims=True)
            attn_all[b, head] = attn
            ctx[:, sl] = attn @ v[b][:, sl]
        out[b] = ctx @ out_w + out_b
    return out, attn_all


def attention_loop(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                   table: np.ndarray | None = None) -> np.ndarray:
    """Row-by-row float64 softmax(q k^T / sqrt(d) + bias) v of [N, heads, T, d]
    queries and [N, heads, T', d] keys and values. The bias of a
    [heads, 2H-1, 2W-1] table is its flattened entry at
    ``relative_index_loop(H, W)``."""
    q, k, v = (np.asarray(a, dtype=np.float64) for a in (q, k, v))
    n, heads, t, d = q.shape
    if table is not None:
        index = relative_index_loop((table.shape[1] + 1) // 2, (table.shape[2] + 1) // 2)
        table = np.reshape(table, (heads, -1))
    width, dv = k.shape[2], v.shape[3]
    s = 1.0 / math.sqrt(d)
    out = np.empty((n, heads, t, dv))
    for b in range(n):
        for h in range(heads):
            for i in range(t):
                z = [s * math.fsum(float(q[b, h, i, c]) * float(k[b, h, j, c]) for c in range(d))
                     + (0.0 if table is None else float(table[h, index[i, j]]))
                     for j in range(width)]
                top = max(z)
                e = [math.exp(x - top) for x in z]
                total = math.fsum(e)
                for c in range(dv):
                    out[b, h, i, c] = math.fsum(e[j] * float(v[b, h, j, c])
                                                for j in range(width)) / total
    return out


def delta_attention_loop(shifts: Sequence[tuple[int, int]], h: int, w: int) -> np.ndarray:
    """One-hot attention [heads, T, T] of an h x w grid: head i sends pixel
    p to p + shifts[i], or to p itself when that lies off the grid."""
    t = h * w
    attn = np.zeros((len(shifts), t, t))
    for head, (dy, dx) in enumerate(shifts):
        for py in range(h):
            for px in range(w):
                row = py * w + px
                qy, qx = py + dy, px + dx
                col = qy * w + qx if 0 <= qy < h and 0 <= qx < w else row
                attn[head, row, col] = 1.0
    return attn


def relative_index_loop(h: int, w: int) -> np.ndarray:
    """Brute-force displacement enumeration for an h x w grid."""
    t = h * w
    idx = np.zeros((t, t), dtype=np.int64)
    for i in range(t):
        for j in range(t):
            dy = (i // w) - (j // w)
            dx = (i % w) - (j % w)
            idx[i, j] = (dy + h - 1) * (2 * w - 1) + (dx + w - 1)
    return idx


# --------------------------------------------------------------------------
# Tiny configs
# --------------------------------------------------------------------------


def micro_config(num_classes: int = 3, resolution: int = 32,
                 relative: bool = True) -> ModelConfig:
    """Smallest full model: every stage one block, a few channels."""
    kinds = (BLOCK_MLP, BLOCK_MLP, BLOCK_TRANSFORMER, BLOCK_TRANSFORMER)
    merges = [MERGE_LINEAR, MERGE_DTM, MERGE_DTM, MERGE_DTM]
    stages = tuple(
        StageSpec(patch_size=p, channels=c, depth=1, heads=n, expansion=2,
                  block_kind=k, merge_kind=m)
        for p, c, n, k, m in zip([4, 2, 2, 2], [4, 4, 8, 8], [0, 0, 2, 2], kinds, merges)
    )
    return ModelConfig(stages=stages,
                       positional_encoding="relative" if relative else "absolute",
                       num_classes=num_classes, resolution=resolution)

