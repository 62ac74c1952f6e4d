"""Dense tensor arithmetic with reverse-mode automatic differentiation.

Data lives in numpy arrays: channels last, row major, float32 or float64.
Ops are pure functions of their inputs. While a ``Tape`` is active on the
current thread, each differentiable op appends one node to it;
``Tape.backward`` replays the nodes in reverse and accumulates gradients
into every ``requires_grad`` leaf. A tape serves exactly one forward
computation and is consumed by its backward pass.

Every op checks its output for non-finite values and raises
``NumericError`` instead of propagating them. Nothing here counts work
or times ops; the benchmark in ``perfbench/`` does that from outside by
wrapping these functions.

``gelu`` evaluates float64 data with scipy's ``erf``. Float32 data uses
the clamped odd/even rational ``erf`` of Eigen and XLA instead, computed
in blocks of ``_BLOCK`` elements into preallocated scratch. It
differs from the float64 GELU by at most 4 * eps32 * max(|x|, 1), where
eps32 is the float32 machine epsilon (2.2 measured on a dense grid over
[-8, 8]). The GELU backward pass of either dtype runs in the same blocks.

``attention`` fuses softmax(q @ k^T / sqrt(d) + bias[h, index]) @ v, after
FlashAttention (Dao et al., arXiv 2205.14135) and chunked attention (Rabe
& Staats, arXiv 2112.05682). It works on tiles of about ``_ATTN_TILE``
logits: whole rows of one head, whole heads when a head is smaller than a
tile, or whole images when all of an image's heads are. A tile's bias rows
are gathered once from the [heads, K] table into tile-sized scratch and
reused for every image. For each image the tile's scaled logits are
written into scratch with one matrix product, the bias is added, the tile
is checked for non-finite values and normalised in place (row max,
subtract, ``exp``, divide by the row sum, as ``softmax`` does its row
blocks), and one more product writes its rows of the output. The
[N, heads, T, T'] probabilities are built in full only when a tape records
the op, whose backward pass reads them, or when the caller asks for them;
otherwise the output and the tile scratch are all the op allocates. Row
tiles round their products differently from one full-size product, so
float32 outputs are not bit-identical to the unfused
``softmax(q k^T / sqrt(d) + bias) @ v``; they stay within 8 float32 ulps
of max(P @ |v|), the largest sum of |terms| behind one output (3.35 was
the worst measured). The table's gradient is scatter-added with one flat
``np.bincount``, as is ``gather_last``'s.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

from .errors import NumericError, ShapeError, StateError, ValidationError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Elements per block of the blocked kernels (float32 GELU, softmax), sized
# so that a block and its scratch arrays stay in a core's L2 cache.
_BLOCK = 65536
# Logits per attention tile (2 MiB of float32). Each tile runs two matrix
# products, which gain from more rows per call: lit-s's stage-1 attention
# ([1, 3, 3136, 32] with bias) took 166 ms in 2**19-logit tiles and 280 ms
# in _BLOCK-sized ones (2-vCPU x86-64, OpenBLAS, best of 5).
_ATTN_TILE = 2 ** 19
# Eigen/XLA float32 erf(z) = z * P(z^2) / Q(z^2) on [-4, 4]; beyond, float32
# erf is +-1. P's coefficients are halved so that 0.5 + z * P / Q is Phi.
# Both are listed from the highest power of z^2 down.
_ERF_CLAMP = 4.0
_ERF_P = tuple(np.float32(0.5 * c) for c in (
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
    -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
    -1.60960333262415e-02))
_ERF_Q = tuple(np.float32(c) for c in (
    -1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
    -7.37332916720468e-03, -1.42647390514189e-02))


class Tensor:
    """A dense n-dimensional array with optional gradient tracking.

    ``grad`` is populated (same shape as ``data``) only after a backward
    pass reaches this tensor as a ``requires_grad`` leaf.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data: np.ndarray, requires_grad: bool = False):
        if not isinstance(data, np.ndarray):
            data = np.asarray(data, dtype=np.float64)
        if data.dtype not in (np.float32, np.float64):
            data = data.astype(np.float64)
        self.data = data
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def tensor(values, dtype=np.float64, requires_grad: bool = False) -> Tensor:
    """Wrap ``values`` in a Tensor with the given dtype."""
    return Tensor(np.asarray(values, dtype=dtype), requires_grad=requires_grad)


# --------------------------------------------------------------------------
# Tape machinery
# --------------------------------------------------------------------------

_LOCAL = threading.local()


def _tape_stack() -> list:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = []
        _LOCAL.stack = stack
    return stack


def _current_tape() -> "Tape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered record of differentiable ops for one forward computation.

    Use as a context manager around the forward pass, then call
    ``backward`` on the recorded loss. Tapes are confined to one thread
    and one computation; backward consumes the tape.
    """

    __slots__ = ("_nodes", "_produced", "_consumed")

    def __init__(self):
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self._produced: set[int] = set()
        self._consumed = False

    def __enter__(self) -> "Tape":
        if self._consumed:
            raise StateError("cannot reuse a consumed tape")
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = _tape_stack()
        if not stack or stack[-1] is not self:
            raise StateError("tape stack corrupted: exiting a tape that is not current")
        stack.pop()

    def _record(self, out: Tensor, inputs: tuple[Tensor, ...], backward_fn: Callable) -> None:
        self._nodes.append((out, inputs, backward_fn))
        self._produced.add(id(out))

    def backward(self, loss: Tensor) -> None:
        """Populate ``grad`` on every requires_grad leaf reachable from ``loss``."""
        if self._consumed:
            raise StateError("tape already consumed by a previous backward pass")
        if id(loss) not in self._produced:
            raise StateError("loss was not produced under this tape")
        if loss.data.size != 1:
            raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
        self._consumed = True

        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        leaves: dict[int, Tensor] = {}
        for out, inputs, backward_fn in reversed(self._nodes):
            g = grads.pop(id(out), None)
            if g is None:
                continue
            input_grads = backward_fn(g)
            for t, ig in zip(inputs, input_grads):
                if ig is None or not t.requires_grad:
                    continue
                key = id(t)
                if key in grads:
                    grads[key] = grads[key] + ig
                else:
                    grads[key] = ig
                if key not in self._produced:
                    leaves[key] = t
        for key, t in leaves.items():
            g = grads.get(key)
            if g is None:
                continue
            t.grad = g.copy() if t.grad is None else t.grad + g


# --------------------------------------------------------------------------
# Op plumbing
# --------------------------------------------------------------------------


def _all_finite(arr: np.ndarray) -> bool:
    """Whether ``arr`` holds no NaN or infinity, without a full-size temporary:
    NaN propagates through min and max, +inf shows in the max, -inf in the min."""
    return arr.size == 0 or bool(np.isfinite(arr.min()) and np.isfinite(arr.max()))


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not _all_finite(arr):
        raise NumericError(f"non-finite values produced by {op}")


def _recording_tape(inputs: tuple[Tensor, ...]) -> "Tape | None":
    """The tape an op on ``inputs`` records on, or None when it records nothing."""
    tape = _current_tape()
    return tape if tape is not None and any(t.requires_grad for t in inputs) else None


def _apply(op: str, inputs: tuple[Tensor, ...], out_data: np.ndarray, backward_fn: Callable) -> Tensor:
    _check_finite(out_data, op)
    tape = _recording_tape(inputs)
    out = Tensor(out_data, requires_grad=tape is not None)
    if tape is not None:
        tape._record(out, inputs, backward_fn)
    return out


def _sum_to_suffix(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    return g


# --------------------------------------------------------------------------
# Elementwise and structural ops
# --------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` may also be a suffix of ``a``'s shape (bias,
    positional table, shared attention bias), broadcast over leading axes."""
    if a.shape == b.shape:
        return _apply("add", (a, b), a.data + b.data, lambda g: (g, g))
    if a.ndim > b.ndim and a.shape[a.ndim - b.ndim :] == b.shape:
        bshape = b.shape
        return _apply("add", (a, b), a.data + b.data, lambda g: (g, _sum_to_suffix(g, bshape)))
    if b.ndim > a.ndim and b.shape[b.ndim - a.ndim :] == a.shape:
        ashape = a.shape
        return _apply("add", (a, b), a.data + b.data, lambda g: (_sum_to_suffix(g, ashape), g))
    raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    ad, bd = a.data, b.data
    return _apply("mul", (a, b), ad * bd, lambda g: (g * bd, g * ad))


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return _apply("scale", (a,), a.data * s, lambda g: (g * s,))


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(d) for d in shape)
    in_shape = a.shape
    try:
        out = a.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"reshape: cannot view {in_shape} as {shape}") from exc
    return _apply("reshape", (a,), out, lambda g: (g.reshape(in_shape),))


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(int(d) for d in axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"transpose: {axes} is not a permutation of rank {a.ndim}")
    inverse = tuple(np.argsort(axes))
    return _apply("transpose", (a,), np.ascontiguousarray(a.data.transpose(axes)),
                  lambda g: (g.transpose(inverse),))


def slice_last(a: Tensor, start: int, stop: int) -> Tensor:
    last = a.shape[-1]
    if not (0 <= start < stop <= last):
        raise ShapeError(f"slice_last: [{start}:{stop}] out of range for extent {last}")

    def bwd(g):
        full = np.zeros_like(a.data)
        full[..., start:stop] = g
        return (full,)

    return _apply("slice_last", (a,), np.ascontiguousarray(a.data[..., start:stop]), bwd)


def sum_all(a: Tensor) -> Tensor:
    shape = a.shape
    return _apply("sum_all", (a,), np.asarray(a.data.sum(), dtype=a.data.dtype),
                  lambda g: (np.broadcast_to(g, shape).astype(a.data.dtype, copy=True),))


def sum_axis(a: Tensor, axis: int) -> Tensor:
    axis = axis % a.ndim
    shape = a.shape

    def bwd(g):
        return (np.broadcast_to(np.expand_dims(g, axis), shape).astype(g.dtype, copy=True),)

    return _apply("sum_axis", (a,), a.data.sum(axis=axis), bwd)


def mean_axis(a: Tensor, axis: int) -> Tensor:
    return scale(sum_axis(a, axis), 1.0 / a.shape[axis % a.ndim])


def _scatter_rows(values: np.ndarray, index: np.ndarray, width: int) -> np.ndarray:
    """[rows, width] sums out[r, k] of values[r, j] over the j with index[j] == k,
    for [rows, n] ``values`` and an [n] ``index``: one bincount over the
    flat bins r * width + index[j]."""
    rows = values.shape[0]
    bins = (np.arange(rows)[:, None] * width + index).reshape(-1)
    sums = np.bincount(bins, weights=values.reshape(-1), minlength=rows * width)
    return sums.astype(values.dtype, copy=False).reshape(rows, width)


# Unused by the model; kept because perfbench wraps it by name (ROADMAP item 4).
def gather_last(a: Tensor, index: np.ndarray) -> Tensor:
    """out[..., *index.shape] = a[..., index]; gradient scatter-adds into ``a``."""
    index = np.asarray(index, dtype=np.int64)
    last = a.shape[-1]
    if index.size and (index.min() < 0 or index.max() >= last):
        raise ShapeError(f"gather_last: index out of range for extent {last}")
    rows = math.prod(a.shape[:-1])

    def bwd(g):
        ga = _scatter_rows(g.reshape(rows, index.size), index.reshape(-1), last)
        return (ga.reshape(a.shape),)

    return _apply("gather_last", (a,), a.data[..., index], bwd)


# --------------------------------------------------------------------------
# Linear algebra
# --------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product ``[..., m, k] @ [..., k, n]``.

    Leading axes must match exactly, or ``b`` may be a plain 2-d weight
    matrix shared over all leading axes of ``a``.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-d, got {a.shape} and {b.shape}")
    k = a.shape[-1]
    if b.shape[-2] != k:
        raise ShapeError(f"matmul: inner extents differ, {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data
    if b.ndim == 2:
        def bwd(g):
            return (g @ bd.T, ad.reshape(-1, k).T @ g.reshape(-1, bd.shape[1]))
    elif a.shape[:-2] == b.shape[:-2]:
        def bwd(g):
            return (g @ bd.swapaxes(-1, -2), ad.swapaxes(-1, -2) @ g)
    else:
        raise ShapeError(f"matmul: leading axes differ, {a.shape} @ {b.shape}")
    return _apply("matmul", (a, b), ad @ bd, bwd)


# --------------------------------------------------------------------------
# Nonlinearities and normalizations
# --------------------------------------------------------------------------


def _softmax_rows(z: np.ndarray, out: np.ndarray, what: str) -> None:
    """Softmax of each last-axis row of the tile ``z`` into ``out``, which may
    be ``z`` itself: row max, subtract, ``exp``, divide by the row sum.

    NaN and -inf show in the tile minimum, +inf in a row maximum; either
    raises NumericError naming ``what`` before anything is written.
    """
    zmax = z.max(axis=-1, keepdims=True)
    if not (np.isfinite(z.min()) and np.isfinite(zmax).all()):
        raise NumericError(f"non-finite {what}")
    np.subtract(z, zmax, out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)


# Unused by the model; kept because perfbench wraps it by name (ROADMAP item 4).
def softmax(x: Tensor) -> Tensor:
    """Numerically stable softmax over the last axis (max subtraction always
    on), in tiles of whole rows of about ``_BLOCK`` elements."""
    xd = x.data
    width = xd.shape[-1]
    xv = xd.reshape(-1, width)
    out = np.empty(xd.shape, xd.dtype)
    ov = out.reshape(xv.shape)
    rows = max(1, _BLOCK // max(width, 1))
    for r0 in range(0, xv.shape[0], rows):
        _softmax_rows(xv[r0:r0 + rows], ov[r0:r0 + rows], "input to softmax")
    return _apply("softmax", (x,), out,
                  lambda g: (out * (g - (g * out).sum(axis=-1, keepdims=True)),))


def attention(q: Tensor, k: Tensor, v: Tensor, bias: Tensor | None = None,
              index: np.ndarray | None = None,
              with_probs: bool = False) -> tuple[Tensor, np.ndarray | None]:
    """softmax(q @ k^T / sqrt(d) + bias[h, index]) @ v, one tile at a time.

    ``q`` is [N, heads, T, d], ``k`` is [N, heads, T', d] and ``v`` is
    [N, heads, T', dv]. The optional ``bias`` is a [heads, K] table and
    ``index`` a [T, T'] array of entries in [0, K). Returns the
    [N, heads, T, dv] output and the [N, heads, T, T'] probabilities when
    ``with_probs`` is set, else None. The probabilities are built in full
    only when asked for or when a tape records the op, whose backward pass
    needs them. Differentiable in q, k, v and the table; see the module
    docstring for the tiling.
    """
    if (bias is None) != (index is None):
        raise ShapeError("attention: give a bias table and its index together, or neither")
    if q.ndim != 4 or k.ndim != 4 or v.ndim != 4 or k.shape[:2] != q.shape[:2] \
            or k.shape[3] != q.shape[3] or v.shape[:3] != k.shape[:3] \
            or min(q.shape[3], k.shape[2]) < 1:
        raise ShapeError(f"attention: q {q.shape}, k {k.shape} and v {v.shape} are not "
                         "[N, heads, T, d], [N, heads, T', d] and [N, heads, T', dv]")
    n, heads, t, d = q.shape
    width = k.shape[2]
    inputs = (q, k, v)
    if bias is not None:
        index = np.asarray(index, dtype=np.int64)
        if bias.ndim != 2 or bias.shape[0] != heads or index.shape != (t, width):
            raise ShapeError(f"attention: bias table {bias.shape} and index {index.shape} "
                             f"do not fit {heads} heads of {t}x{width} logits")
        inputs += (bias,)
    tape = _recording_tape(inputs)
    s = 1.0 / math.sqrt(d)
    dtype = np.result_type(*(x.data for x in inputs))
    out = np.empty((n, heads, t, v.shape[3]), dtype)
    probs = np.empty((n, heads, t, width), dtype) if with_probs or tape is not None else None
    # A tile is whole rows of one head, whole heads when a head fits in a
    # tile, or whole images when an image's heads all fit.
    rows = max(1, min(t, _ATTN_TILE // width))
    tile_heads = max(1, min(heads, _ATTN_TILE // (t * width))) if rows == t else 1
    images = max(1, min(n, _ATTN_TILE // (heads * t * width))) if tile_heads == heads else 1
    tile = images * tile_heads * rows
    q_scratch = np.empty(tile * d, dtype)
    z_scratch = np.empty(tile * width, dtype) if probs is None else None
    if bias is not None:
        bias_scratch = np.empty(tile_heads * rows * width, bias.dtype)
    kt = k.data.swapaxes(-1, -2)
    for r0 in range(0, t, rows):
        r1 = min(r0 + rows, t)
        if bias is not None:
            idx = index[r0:r1]
            if idx.min() < 0 or idx.max() >= bias.shape[1]:
                raise ShapeError(f"attention: bias index out of range for {bias.shape[1]} entries")
        for h0 in range(0, heads, tile_heads):
            h1 = min(h0 + tile_heads, heads)
            if bias is not None:
                tile_bias = bias_scratch[:(h1 - h0) * idx.size].reshape((h1 - h0,) + idx.shape)
                for tile_row, table_row in zip(tile_bias, bias.data[h0:h1]):
                    np.take(table_row, idx, out=tile_row, mode="clip")  # bounds checked above
            for b0 in range(0, n, images):
                b1 = min(b0 + images, n)
                shape = (b1 - b0, h1 - h0, r1 - r0)
                cells = math.prod(shape)
                qs = np.multiply(q.data[b0:b1, h0:h1, r0:r1], s,
                                 out=q_scratch[:cells * d].reshape(shape + (d,)))
                z = probs[b0:b1, h0:h1, r0:r1] if probs is not None \
                    else z_scratch[:cells * width].reshape(shape + (width,))
                np.matmul(qs, kt[b0:b1, h0:h1], out=z)
                if bias is not None:
                    z += tile_bias
                _softmax_rows(z, z, "attention logits")
                np.matmul(z, v.data[b0:b1, h0:h1], out=out[b0:b1, h0:h1, r0:r1])

    def bwd(g):
        gv = probs.swapaxes(-1, -2) @ g
        ds = g @ v.data.swapaxes(-1, -2)
        ds -= (ds * probs).sum(axis=-1, keepdims=True)
        ds *= probs
        gq = ds @ k.data
        gq *= s
        gk = ds.swapaxes(-1, -2) @ q.data
        gk *= s
        if bias is None:
            return (gq, gk, gv)
        per_head = ds.sum(axis=0).reshape(heads, t * width)
        return (gq, gk, gv, _scatter_rows(per_head, index.reshape(-1), bias.shape[1]))

    return _apply("attention", inputs, out, bwd), (probs if with_probs else None)


def _gelu32(x: np.ndarray, keep_cdf: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """x * Phi(x) of float32 data, and Phi(x) itself when ``keep_cdf``.

    Runs block by block with ufuncs writing into block-sized scratch;
    without ``keep_cdf`` it allocates nothing of full size but the output.
    """
    flat = x.reshape(-1)
    n = flat.size
    out = np.empty(n, np.float32)
    squares = np.empty(min(n, _BLOCK), np.float32)
    phi = np.empty(n, np.float32) if keep_cdf else np.empty_like(squares)
    for lo in range(0, n, _BLOCK):
        xb = flat[lo:lo + _BLOCK]
        m = xb.size
        # The output block holds z, then Q(z^2), then the result.
        z, z2 = out[lo:lo + m], squares[:m]
        p = phi[lo:lo + m] if keep_cdf else phi[:m]
        np.multiply(xb, _INV_SQRT2, out=z)
        np.minimum(z, _ERF_CLAMP, out=z)
        np.maximum(z, -_ERF_CLAMP, out=z)
        np.multiply(z, z, out=z2)
        np.multiply(z2, _ERF_P[0], out=p)
        for c in _ERF_P[1:-1]:
            p += c
            p *= z2
        p += _ERF_P[-1]
        p *= z
        q = z
        np.multiply(z2, _ERF_Q[0], out=q)
        for c in _ERF_Q[1:-1]:
            q += c
            q *= z2
        q += _ERF_Q[-1]
        p /= q
        p += 0.5
        np.multiply(xb, p, out=q)
    return out.reshape(x.shape), (phi.reshape(x.shape) if keep_cdf else None)


def _gelu_grad(g: np.ndarray, x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """g * (Phi(x) + x * pdf(x)), block by block into block-sized scratch."""
    gf, xf, cf = g.reshape(-1), x.reshape(-1), cdf.reshape(-1)
    gx = np.empty(xf.size, x.dtype)
    scratch = np.empty(min(xf.size, _BLOCK), x.dtype)
    for lo in range(0, xf.size, _BLOCK):
        xb = xf[lo:lo + _BLOCK]
        t = scratch[:xb.size]
        np.multiply(xb, xb, out=t)
        t *= -0.5
        np.exp(t, out=t)
        t *= _INV_SQRT_2PI
        t *= xb
        t += cf[lo:lo + _BLOCK]
        np.multiply(gf[lo:lo + _BLOCK], t, out=gx[lo:lo + _BLOCK])
    return gx.reshape(x.shape)


def gelu(x: Tensor) -> Tensor:
    """Exact GELU, x * Phi(x) with the erf-based normal CDF.

    Float64 data uses scipy's ``erf``. Float32 data uses the clamped
    rational ``erf`` of Eigen and XLA, evaluated in blocks; it is within
    4 * eps32 * max(|x|, 1) of the float64 result. Only a call that
    records on a tape keeps Phi(x) for the backward pass, which is
    blocked for both dtypes.
    """
    xd = x.data
    if xd.dtype == np.float32:
        out, cdf = _gelu32(xd, keep_cdf=_recording_tape((x,)) is not None)
    else:
        cdf = 0.5 * (1.0 + erf(xd * _INV_SQRT2))
        out = xd * cdf
    return _apply("gelu", (x,), out, lambda g: (_gelu_grad(g, xd, cdf),))


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last (channel) dimension, then apply the affine."""
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"layer_norm: affine shapes {gamma.shape}/{beta.shape} do not match channels {c}")
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = xhat * gamma.data + beta.data

    def bwd(g):
        lead = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=lead)
        dbeta = g.sum(axis=lead)
        gx = g * gamma.data
        dx = inv * (gx - gx.mean(axis=-1, keepdims=True) - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
        return (dx, dgamma, dbeta)

    return _apply("layer_norm", (x, gamma, beta), out, bwd)


class BatchNormState:
    """Running statistics for batch normalization.

    Uninitialized until the first train-mode pass (or explicit seeding);
    eval mode before that raises StateError.
    """

    __slots__ = ("mean", "var")

    def __init__(self, mean: np.ndarray | None = None, var: np.ndarray | None = None):
        self.mean = mean
        self.var = var

    def seed_identity(self, channels: int, dtype=np.float32) -> "BatchNormState":
        self.mean = np.zeros(channels, dtype=dtype)
        self.var = np.ones(channels, dtype=dtype)
        return self


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState,
               mode: str = "train", momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """Channel-wise batch normalization over the N, H, W axes of an NHWC tensor.

    Train mode normalizes with batch statistics and updates the running
    stats in ``state`` (biased variance throughout). Eval mode requires
    initialized running stats.
    """
    if x.ndim != 4:
        raise ShapeError(f"batch_norm expects an NHWC tensor, got shape {x.shape}")
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batch_norm: affine shapes {gamma.shape}/{beta.shape} do not match channels {c}")
    if mode not in ("train", "eval"):
        raise ValidationError(f"batch_norm mode must be 'train' or 'eval', got {mode!r}")
    axes = (0, 1, 2)
    if mode == "train":
        mu = x.data.mean(axis=axes)
        centered = x.data - mu
        var = (centered * centered).mean(axis=axes)
        if state.mean is None:
            state.mean = mu.astype(x.data.dtype)
            state.var = var.astype(x.data.dtype)
        else:
            state.mean = (1.0 - momentum) * state.mean + momentum * mu
            state.var = (1.0 - momentum) * state.var + momentum * var
    elif state.mean is None or state.var is None:
        raise StateError("batch_norm eval mode before any train step and without seeded stats")
    else:
        centered = x.data - state.mean
        var = state.var
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = xhat * gamma.data + beta.data

    def bwd(g):
        dgamma = (g * xhat).sum(axis=axes)
        dbeta = g.sum(axis=axes)
        gx = g * gamma.data
        if mode == "eval":  # the running statistics do not depend on x
            return (gx * inv, dgamma, dbeta)
        dx = inv * (gx - gx.mean(axis=axes, keepdims=True)
                    - xhat * (gx * xhat).mean(axis=axes, keepdims=True))
        return (dx, dgamma, dbeta)

    return _apply("batch_norm", (x, gamma, beta), out, bwd)


# --------------------------------------------------------------------------
# Convolution and sampling
# --------------------------------------------------------------------------


def conv2d(x: Tensor, w: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-d convolution of an NHWC input with a KxKxCinxCout kernel.

    Zero padding; output extents floor((H + 2*pad - K) / stride) + 1.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d: expected NHWC input and KKCC kernel, got {x.shape} and {w.shape}")
    n, h, wd, cin = x.shape
    kh, kw, wcin, cout = w.shape
    if kh != kw:
        raise ShapeError(f"conv2d: kernel must be square, got {w.shape}")
    if wcin != cin:
        raise ShapeError(f"conv2d: input channels {cin} do not match kernel {w.shape}")
    if stride < 1:
        raise ShapeError(f"conv2d: stride must be >= 1, got {stride}")
    if bias is not None and bias.shape != (cout,):
        raise ShapeError(f"conv2d: bias shape {bias.shape} does not match output channels {cout}")
    k, s, p = kh, stride, padding
    hp, wp = h + 2 * p, wd + 2 * p
    ho, wo = (hp - k) // s + 1, (wp - k) // s + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv2d: kernel {k} does not fit input {x.shape} with padding {p}")

    xp = x.data
    if p:
        xp = np.zeros((n, hp, wp, cin), dtype=x.data.dtype)
        xp[:, p:p + h, p:p + wd, :] = x.data
    patches = np.empty((n, ho, wo, k, k, cin), dtype=x.data.dtype)
    for ky in range(k):
        for kx in range(k):
            patches[:, :, :, ky, kx, :] = xp[:, ky:ky + s * ho:s, kx:kx + s * wo:s, :]
    cols = patches.reshape(n * ho * wo, k * k * cin)
    wmat = w.data.reshape(k * k * cin, cout)
    out = (cols @ wmat).reshape(n, ho, wo, cout)
    if bias is not None:
        out = out + bias.data

    def bwd(g):
        gmat = g.reshape(n * ho * wo, cout)
        gw = (cols.T @ gmat).reshape(w.shape)
        gcols = (gmat @ wmat.T).reshape(n, ho, wo, k, k, cin)
        gxp = np.zeros((n, hp, wp, cin), dtype=g.dtype)
        for ky in range(k):
            for kx in range(k):
                gxp[:, ky:ky + s * ho:s, kx:kx + s * wo:s, :] += gcols[:, :, :, ky, kx, :]
        gx = gxp[:, p:p + h, p:p + wd, :] if p else gxp
        grads = [gx, gw]
        if bias is not None:
            grads.append(g.sum(axis=(0, 1, 2)))
        return tuple(grads)

    inputs = (x, w) if bias is None else (x, w, bias)
    return _apply("conv2d", inputs, out, bwd)


def deform_sample(x: Tensor, positions: Tensor) -> Tensor:
    """Bilinear samples of an NHWC map at fractional positions.

    ``positions`` has shape [N, Ho, Wo, K, 2] with (y, x) in input pixel
    units; out-of-bounds neighbors contribute zero. Output is
    [N, Ho, Wo, K, C]. Differentiable in ``x`` and ``positions``.
    """
    if x.ndim != 4:
        raise ShapeError(f"deform_sample expects an NHWC tensor, got {x.shape}")
    if positions.ndim != 5 or positions.shape[-1] != 2 or positions.shape[0] != x.shape[0]:
        raise ShapeError(f"deform_sample: bad positions shape {positions.shape} for input {x.shape}")
    if not _all_finite(positions.data):
        raise NumericError("non-finite sampling positions")
    n, h, w, c = x.shape
    py, px = positions.data[..., 0], positions.data[..., 1]
    y0, x0 = np.floor(py), np.floor(px)
    wy1, wx1 = py - y0, px - x0
    wy0, wx0 = 1.0 - wy1, 1.0 - wx1
    y0, x0 = y0.astype(np.int64), x0.astype(np.int64)
    nidx = np.broadcast_to(np.arange(n).reshape(n, 1, 1, 1), y0.shape)

    def gather(cy, cx):
        valid = (cy >= 0) & (cy < h) & (cx >= 0) & (cx < w)
        vals = x.data[nidx, np.clip(cy, 0, h - 1), np.clip(cx, 0, w - 1), :]
        return vals * valid[..., None], valid

    v00, m00 = gather(y0, x0)
    v01, m01 = gather(y0, x0 + 1)
    v10, m10 = gather(y0 + 1, x0)
    v11, m11 = gather(y0 + 1, x0 + 1)
    out = ((wy0 * wx0)[..., None] * v00 + (wy0 * wx1)[..., None] * v01
           + (wy1 * wx0)[..., None] * v10 + (wy1 * wx1)[..., None] * v11)

    def bwd(g):
        gx = np.zeros_like(x.data)
        for cy, cx, mask, wgt in (
            (y0, x0, m00, wy0 * wx0),
            (y0, x0 + 1, m01, wy0 * wx1),
            (y0 + 1, x0, m10, wy1 * wx0),
            (y0 + 1, x0 + 1, m11, wy1 * wx1),
        ):
            contrib = g * (mask * wgt)[..., None]
            np.add.at(gx, (nidx, np.clip(cy, 0, h - 1), np.clip(cx, 0, w - 1)), contrib)
        dfdy = (v10 - v00) * wx0[..., None] + (v11 - v01) * wx1[..., None]
        dfdx = (v01 - v00) * wy0[..., None] + (v11 - v10) * wy1[..., None]
        gpos = np.stack(((g * dfdy).sum(axis=-1), (g * dfdx).sum(axis=-1)), axis=-1)
        return (gx, gpos)

    return _apply("deform_sample", (x, positions), out, bwd)


# --------------------------------------------------------------------------
# Loss
# --------------------------------------------------------------------------


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of [N, K] logits against integer labels [N]."""
    if logits.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy expects [N, K] logits, got {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    n, k = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ShapeError(f"labels out of range for {k} classes")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logsumexp
    loss = -logp[np.arange(n), labels].mean()

    def bwd(g):
        probs = np.exp(logp)
        probs[np.arange(n), labels] -= 1.0
        return (g * probs / n,)

    return _apply("softmax_cross_entropy", (logits,),
                  np.asarray(loss, dtype=logits.data.dtype), bwd)
