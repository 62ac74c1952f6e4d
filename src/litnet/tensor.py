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

``attention`` fuses softmax(q @ k^T / sqrt(d) + B) @ v, after
FlashAttention (Dao et al., arXiv 2205.14135) and chunked attention (Rabe
& Staats, arXiv 2112.05682). It reads q, k and v in place from the
[N, T, 3 * heads * d] qkv projection, as strided views whose row stride
BLAS takes as leading dimension, and writes a token-major [N, T, heads * d]
output. The optional B is a relative position bias
looked up by 2-d displacement, as in Swin (Liu et al., arXiv 2103.14030),
in a [heads, 2H-1, 2W-1] table of an H x W token grid. No [T, T] index is
built: B for query (yi, xi) is an [H, W] window of a flipped copy of the
table, read in place. The op works on tiles of about ``_ATTN_TILE``
logits: whole rows of one head (under a bias, the nearest whole number of
grid rows, at least one), whole heads when a head is smaller than a tile,
or whole images when all of an image's heads are. For each tile the scaled
logits are written into scratch with one matrix product and the bias is
added from the window view. The tile is left unnormalised, as exp(z) or
exp(z - row max), and its row sums come from one matrix-vector product
with a column of ones. One more product writes its rows of the output,
and only those [rows, d] rows are divided by the row sums, as
FlashAttention-2 (Dao, arXiv 2307.08691) does. q, k and the table are
checked once, up front: a non-finite value is refused, and when the bound
2 * (sqrt(d) max|q| max|k| + max|table|) on every logit and every z - row
max is below a quarter of the dtype's largest value, no tile can overflow
and the tiles skip their own check. Otherwise each tile checks its
minimum and row maxima, which catches a logit that overflows. Softmax is
shift-invariant, which is also what the online normaliser of Milakov &
Gimelshein (arXiv 1805.02867) rests on, so the row-max shift only keeps
exp in range. When the tiles need no check, the tighter Cauchy-Schwarz
bound B = max_i |q_i| max_j |k_j| / sqrt(d) + max|table| on every |z|
decides whether they need the shift: when B < -ln(tiny), every exp(z) is
a normal number, and when B + ln T + ln max(1, max|v|) < ln(max / 4),
neither a row sum nor exp(z) @ v can overflow (tiny and max of the dtype,
from ``np.finfo``). Then each tile takes exp(z) directly, with no row max
and no subtract; otherwise it takes exp(z - row max). The row norms are
reduced from the strided q and k views, in their dtype, with no
full-size copy, and the choice is made once per call. The [N, heads, T, T]
probabilities are built in full only when a tape records the op, whose
backward pass reads them, or when the caller asks for them; they are then
the kept tiles divided by the same row sums, so the output is the same
bits whether taped, with probabilities or plain. Otherwise the output and
the tile scratch are all the op allocates. Row tiles round their products
differently from one full-size product, so float32 outputs are not
bit-identical to the unfused ``softmax(q k^T / sqrt(d) + bias) @ v``; they
stay within 8 float32 ulps of max(P @ |v|), the largest sum of |terms|
behind one output (7.3 was the worst measured, on either exp path). The
table's gradient is scatter-added with one flat ``np.bincount``, as is
``gather_last``'s, by a [T, T] slot index that only the backward pass
forms.

``residual_mlp`` is a transformer's MLP sublayer, x + fc2(gelu(fc1(LN(x)))),
as one op, after the fused elementwise chains of "Data Movement Is All
You Need" (Ivanov et al., arXiv 2007.00072). It runs ``_MLP_ROWS`` tokens
at a time: layer norm, the first product and its bias, GELU (the blocked
float32 kernel above, or scipy's ``erf``), the second product, its bias
and the residual, each step into tile-sized scratch, so that no [T, 4C]
array exists outside a tape. Under a tape it keeps the layer-norm
statistics, the pre-activations and the GELU cdf in full, and one
backward pass recomputes the rest from them.

``deform_sample`` builds one sparse matrix S of bilinear corner weights,
four per sample: its output is S @ x and its input gradient S^T @ g.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.sparse import csr_array
from scipy.special import erf

from .errors import NumericError, ShapeError, StateError, ValidationError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Elements per block of the blocked float32 GELU and of ``softmax`` (which
# alone uses ``_softmax_rows``), sized so that a block and its scratch
# arrays stay in a core's L2 cache.
_BLOCK = 65536
# Logits per attention tile (2 MiB of float32). Each tile runs two matrix
# products, which gain from more rows per call: lit-s's stage-1 attention
# ([1, 3, 3136, 32] with bias) took 166 ms in 2**19-logit tiles and 280 ms
# in _BLOCK-sized ones (2-vCPU x86-64, OpenBLAS, best of 5).
_ATTN_TILE = 2 ** 19
# Tokens per row tile of ``residual_mlp``. Its two products gain from more
# rows per call: lit-s's stage-1 MLP block (T 3136, C 96) took 17.6 ms in
# 128-row tiles and 13.8 ms in 512-row ones (2-vCPU x86-64, OpenBLAS, lower
# quartile of 21 calls).
_MLP_ROWS = 512
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
    positional table, shared attention bias), broadcast over leading axes;
    any other pair of shapes, ``a`` a suffix of ``b`` too, is a ShapeError."""
    if a.shape == b.shape:
        return _apply("add", (a, b), a.data + b.data, lambda g: (g, g))
    if a.ndim > b.ndim and a.shape[a.ndim - b.ndim :] == b.shape:
        bshape = b.shape
        return _apply("add", (a, b), a.data + b.data, lambda g: (g, _sum_to_suffix(g, bshape)))
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


def relative_slot(dy, dx, h: int, w: int):
    """Flat slot of the (query - key) displacement (dy, dx) in an h x w
    grid's [2h-1, 2w-1] relative-bias table; elementwise on arrays, where
    the grouped scalars keep it at one pass per operator."""
    return (dy + (h - 1)) * (2 * w - 1) + (dx + (w - 1))


def _max_abs(arr: np.ndarray) -> float:
    """max |arr| as a float64 scalar, without a full-size temporary: NaN
    when ``arr`` holds a NaN, inf when it holds an infinity, 0 when empty."""
    return float(np.maximum(arr.max(), -arr.min())) if arr.size else 0.0


def _unshifted_exp_fits(q: np.ndarray, k: np.ndarray, v: np.ndarray, s: float,
                        table_peak: float, info: np.finfo) -> bool:
    """Whether exp(z) of every logit z = s q_i . k_j + bias is safe without a
    row-max shift. By Cauchy-Schwarz |z| <= B = s max_i |q_i| max_j |k_j| +
    ``table_peak``. Safe means every exp(z) is a normal number (B < -ln tiny),
    and no row sum or entry of exp(z) @ v reaches a quarter of the largest
    value (B + ln T + ln max(1, max|v|) < ln(max / 4)), both from ``info``. The
    squared row norms are taken over all images and heads in q's and k's
    dtype, from their strided views; a norm that overflows makes the answer
    False."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = [math.sqrt(np.einsum("...i,...i->...", a, a).max(initial=0.0)) for a in (q, k)]
        bound = s * norms[0] * norms[1] + table_peak
    spread = math.log(k.shape[2]) + math.log(max(_max_abs(v), 1.0))
    return bound < -math.log(info.tiny) and bound + spread < math.log(info.max / 4)


def _exp_rows(z: np.ndarray, ones: np.ndarray, sums: np.ndarray, shift: bool,
              checked: bool) -> None:
    """exp(z - row max) of each last-axis row of the logits tile ``z``, or
    exp(z) when not ``shift``, in place, and the row sums into ``sums`` as
    one matrix-vector product z @ ``ones``. When ``checked`` (which implies
    ``shift``), NaN and -inf in the tile minimum and +inf in a row maximum
    raise NumericError before anything is written."""
    if shift:
        zmax = z.max(axis=-1, keepdims=True)
        if checked and not (np.isfinite(z.min()) and np.isfinite(zmax).all()):
            raise NumericError("non-finite attention logits")
        np.subtract(z, zmax, out=z)
    np.exp(z, out=z)
    np.matmul(z, ones, out=sums)


def attention(qkv: Tensor, heads: int, bias: Tensor | None = None,
              with_probs: bool = False) -> tuple[Tensor, np.ndarray | None]:
    """softmax(q @ k^T / sqrt(d) + B) @ v, one tile at a time.

    ``qkv`` is the [N, T, 3 * heads * d] output of a qkv projection: q, k
    and v in turn along its last axis, each as ``heads`` runs of d channels,
    read in place as strided [N, heads, T, d] views. The optional ``bias``
    is the [heads, 2H-1, 2W-1] table of an H x W grid of T = H * W
    row-major tokens, and
    B[h, i, j] = bias[h, yi - yj + H - 1, xi - xj + W - 1]. A window view of
    the table holds B as [heads, H, W, H, W], so a tile of whole grid rows
    adds one slice of it. Returns the [N, T, heads * d] output and the
    [N, heads, T, T] probabilities when ``with_probs`` is set, else None.
    The probabilities are built in full only when asked for or when a tape
    records the op, whose backward pass needs them. The tiles exponentiate
    the logits z directly when the Cauchy-Schwarz bound on |z| shows that
    exp(z), the row sums and exp(z) @ v stay in range, and as exp(z - row
    max) otherwise. Differentiable in ``qkv`` and the table, whose gradient
    the backward pass sums by ``relative_slot``; see the module docstring
    for the tiling and the two bounds.
    """
    if qkv.ndim != 3 or heads < 1 or qkv.shape[2] % (3 * heads) or 0 in qkv.shape[1:]:
        raise ShapeError(f"attention: qkv {qkv.shape} is not [N, T, 3 * {heads} * d] with T, d > 0")
    n, t, channels = qkv.shape
    d = channels // (3 * heads)
    q, k, v = qkv.data.reshape(n, t, 3, heads, d).transpose(2, 0, 3, 1, 4)
    inputs = (qkv,)
    rows = max(1, min(t, _ATTN_TILE // t))
    if bias is not None:
        gh, gw = ((e + 1) // 2 for e in bias.shape[1:]) if bias.ndim == 3 else (0, 0)
        if bias.shape[:1] != (heads,) or not all(e % 2 for e in bias.shape[1:]) or gh * gw != t:
            raise ShapeError(f"attention: bias table {bias.shape} is not [{heads}, 2H-1, 2W-1] "
                             f"for an H x W grid of {t} queries")
        rows = max(1, round(rows / gw)) * gw
        # window[h, yi, xi] is the [H, W] bias of query (yi, xi) over every
        # key; flipping a copy of the table keeps each window row contiguous
        flipped = np.ascontiguousarray(bias.data[:, ::-1, ::-1])
        window = sliding_window_view(flipped, (gh, gw), axis=(1, 2))[:, ::-1, ::-1]
        inputs += (bias,)
    tape = _recording_tape(inputs)
    s = 1.0 / math.sqrt(d)
    dtype = np.result_type(*(x.data for x in inputs))
    # s |q_i . k_j| <= sqrt(d) max|q| max|k|, so every logit z lies within
    # bound of 0 and every z - row max within 2 * bound; when that is below a
    # quarter of the dtype's largest value, no tile needs its own check, and
    # the tighter norm bound may show that no tile needs the shift either
    table = bias.data if bias is not None else np.zeros(0)
    peaks = [_max_abs(a) for a in (q, k, table)]
    if not all(map(math.isfinite, peaks)):
        raise NumericError("non-finite attention logits")
    bound = math.sqrt(d) * peaks[0] * peaks[1] + peaks[2]
    info = np.finfo(dtype)
    checked = not 2 * bound < float(info.max) / 4
    shift = checked or not _unshifted_exp_fits(q, k, v, s, peaks[2], info)
    out = np.empty((n, t, heads, d), dtype)  # token-major, as the output projection reads it
    probs = np.empty((n, heads, t, t), dtype) if with_probs or tape is not None else None
    # A tile is whole rows of one head, whole heads when a head fits in a
    # tile, or whole images when an image's heads all fit.
    tile_heads = max(1, min(heads, _ATTN_TILE // (t * t))) if rows == t else 1
    images = max(1, min(n, _ATTN_TILE // (heads * t * t))) if tile_heads == heads else 1
    tile = images * tile_heads * rows
    q_scratch = np.empty(tile * d, dtype)
    z_scratch = np.empty(tile * t, dtype) if probs is None else None
    sum_scratch = np.empty(tile, dtype)
    ones = np.ones((t, 1), dtype)
    for r0 in range(0, t, rows):
        r1 = min(r0 + rows, t)
        for h0 in range(0, heads, tile_heads):
            h1 = min(h0 + tile_heads, heads)
            for b0 in range(0, n, images):
                b1 = min(b0 + images, n)
                shape = (b1 - b0, h1 - h0, r1 - r0)
                cells = math.prod(shape)
                qs = np.multiply(q[b0:b1, h0:h1, r0:r1], s,
                                 out=q_scratch[:cells * d].reshape(shape + (d,)))
                z = probs[b0:b1, h0:h1, r0:r1] if probs is not None \
                    else z_scratch[:cells * t].reshape(shape + (t,))
                np.matmul(qs, k[b0:b1, h0:h1].swapaxes(-1, -2), out=z)
                if bias is not None:  # a tile is contiguous, so zb is a view of it
                    zb = z.reshape(shape[:2] + (-1, gw, gh, gw))
                    np.add(zb, window[h0:h1, r0 // gw:r1 // gw], out=zb)
                sums = sum_scratch[:cells].reshape(shape + (1,))
                _exp_rows(z, ones, sums, shift, checked)
                o = np.matmul(z, v[b0:b1, h0:h1], out=out[b0:b1, r0:r1, h0:h1].swapaxes(1, 2))
                o /= sums
                if probs is not None:
                    z /= sums

    def bwd(g):
        g = g.reshape(n, t, heads, d).transpose(0, 2, 1, 3)
        grad = np.empty((n, t, 3, heads, d), dtype)  # laid out as qkv
        gq, gk, gv = grad.transpose(2, 0, 3, 1, 4)
        np.matmul(probs.swapaxes(-1, -2), g, out=gv)
        ds = g @ v.swapaxes(-1, -2)
        ds -= (ds * probs).sum(axis=-1, keepdims=True)
        ds *= probs
        np.matmul(ds, k, out=gq)
        gq *= s
        np.matmul(ds.swapaxes(-1, -2), q, out=gk)
        gk *= s
        if bias is None:
            return (grad.reshape(qkv.shape),)
        ys, xs = np.divmod(np.arange(t), gw)
        slots = relative_slot(ys[:, None] - ys, xs[:, None] - xs, gh, gw)
        per_head = ds.sum(axis=0).reshape(heads, t * t)
        gb = _scatter_rows(per_head, slots.reshape(-1), bias.size // heads)
        return (grad.reshape(qkv.shape), gb.reshape(bias.shape))

    result = _apply("attention", inputs, out.reshape(n, t, heads * d), bwd)
    return result, (probs if with_probs else None)


def _gelu32(x: np.ndarray, out: np.ndarray, phi: np.ndarray, squares: np.ndarray) -> None:
    """x * Phi(x) of float32 data into ``out``, which must not overlap x.

    Runs block by block with ufuncs. ``phi`` receives Phi(x) when it holds
    at least x.size elements; a smaller ``phi`` is block scratch, as
    ``squares`` is (each at least min(x.size, ``_BLOCK``) elements).
    """
    flat, res, phi = x.reshape(-1), out.reshape(-1), phi.reshape(-1)
    n = flat.size
    keep = phi.size >= n
    for lo in range(0, n, _BLOCK):
        xb = flat[lo:lo + _BLOCK]
        m = xb.size
        # The output block holds z, then Q(z^2), then the result.
        z, z2 = res[lo:lo + m], squares[:m]
        p = phi[lo:lo + m] if keep else phi[:m]
        np.multiply(xb, _INV_SQRT2, out=z)
        np.clip(z, -_ERF_CLAMP, _ERF_CLAMP, out=z)
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
        out = np.empty(xd.shape, np.float32)
        squares = np.empty(min(xd.size, _BLOCK), np.float32)
        cdf = np.empty_like(out) if _recording_tape((x,)) is not None else None
        _gelu32(xd, out, np.empty_like(squares) if cdf is None else cdf, squares)
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

    return _apply("layer_norm", (x, gamma, beta), out,
                  lambda g: _norm_grads(g, xhat, inv, gamma.data, -1))


def _norm_grads(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gamma: np.ndarray,
                stat_axes: int | tuple[int, ...] | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dx, dgamma, dbeta) of xhat * gamma + beta for the output gradient ``g``,
    from the normalized input ``xhat`` and 1 / sqrt(var + eps) ``inv``, with the
    statistics taken over ``stat_axes`` (-1 in layer norm, (0, 1, 2) in batch
    norm) or, for None, fixed ones that do not depend on x (batch-norm eval)."""
    lead = tuple(range(g.ndim - 1))
    dgamma = (g * xhat).sum(axis=lead)
    dbeta = g.sum(axis=lead)
    gx = g * gamma
    if stat_axes is None:
        return (gx * inv, dgamma, dbeta)
    dx = inv * (gx - gx.mean(axis=stat_axes, keepdims=True)
                - xhat * (gx * xhat).mean(axis=stat_axes, keepdims=True))
    return (dx, dgamma, dbeta)


def residual_mlp(x: Tensor, gamma: Tensor, beta: Tensor, w1: Tensor, b1: Tensor,
                 w2: Tensor, b2: Tensor, eps: float = 1e-5) -> Tensor:
    """x + gelu(layer_norm(x) @ w1 + b1) @ w2 + b2 over the last (channel)
    axis, ``_MLP_ROWS`` tokens at a time.

    ``x`` is [..., C], ``gamma`` and ``beta`` [C], ``w1`` [C, H], ``b1``
    [H], ``w2`` [H, C] and ``b2`` [C]. Each row tile runs the steps of the
    unfused ops in their order, into tile-sized scratch; the layer-norm
    statistics, pre-activations h and GELU cdf are kept in full only when a
    tape records the op, and one backward pass reads them. Row tiles only
    change how the two products are blocked. A float64 result is within
    1e-12 of the composed ops on O(1) data.

    Float32 error, to first order in eps32 and against the exact result
    for the same inputs: with n = max(C, H) + 8, each float32 sum of terms
    is off by at most n * eps32 times its sum of |terms|, and GELU by
    4 * eps32 * max(|h|, 1) with a slope of at most 1.13. Layer norm,
    whose centring loses n * eps32 * max|x| / sigma, is off in channel c by
    n * eps32 * L_c, L_c = |gamma_c| (1 + |xhat_c|) (1 + max|x| / sigma)
    + |beta_c|. So output c is within
        eps32 * (n * (|x_c| + sum_j |a_j w2_jc| + |b2_c|)
                 + sum_j |w2_jc| (4 max(|h_j|, 1) + 2.5 n S_j)),
    S_j = sum_c |w1_cj| L_c + |b1_j|, where a = gelu(h).
    """
    c = x.shape[-1]
    hidden = w1.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,) or w1.shape != (c, hidden) \
            or b1.shape != (hidden,) or w2.shape != (hidden, c) or b2.shape != (c,):
        raise ShapeError(f"residual_mlp: parameters {gamma.shape}, {beta.shape}, {w1.shape}, "
                         f"{b1.shape}, {w2.shape}, {b2.shape} do not fit {c} channels")
    inputs = (x, gamma, beta, w1, b1, w2, b2)
    tape = _recording_tape(inputs)
    dtype = np.result_type(*(t.data for t in inputs))
    xf = x.data.reshape(-1, c)
    m = xf.shape[0]
    rows = max(1, min(m, _MLP_ROWS))
    out = np.empty((m, c), dtype)
    normed = np.empty((rows, c), dtype)
    act = np.empty((rows, hidden), dtype)
    squares = np.empty(min(rows * hidden, _BLOCK), dtype) if dtype == np.float32 else None
    # under a tape the statistics, pre-activations and cdf are kept in full
    keep = m if tape is not None else rows
    mu, inv = np.empty((keep, 1), dtype), np.empty((keep, 1), dtype)
    pre, cdf = np.empty((keep, hidden), dtype), np.empty((keep, hidden), dtype)
    for r0 in range(0, m, rows):
        r1 = min(r0 + rows, m)
        k0, k1 = (r0, r1) if tape is not None else (0, r1 - r0)
        xt, ln, o = xf[r0:r1], normed[:r1 - r0], out[r0:r1]
        h, a, phi = pre[k0:k1], act[:r1 - r0], cdf[k0:k1]
        mean, scale = mu[k0:k1], inv[k0:k1]
        np.mean(xt, axis=-1, keepdims=True, out=mean)
        np.subtract(xt, mean, out=ln)
        np.multiply(ln, ln, out=o)
        np.mean(o, axis=-1, keepdims=True, out=scale)
        scale += eps
        np.sqrt(scale, out=scale)
        np.divide(1.0, scale, out=scale)
        ln *= scale
        ln *= gamma.data
        ln += beta.data
        np.matmul(ln, w1.data, out=h)
        h += b1.data
        if dtype == np.float32:
            _gelu32(h, a, phi, squares)
        else:
            np.multiply(h, _INV_SQRT2, out=phi)
            erf(phi, out=phi)
            phi += 1.0
            phi *= 0.5
            np.multiply(h, phi, out=a)
        np.matmul(a, w2.data, out=o)
        o += b2.data
        o += xt

    def bwd(g):
        g = g.reshape(m, c)
        xhat = (xf - mu) * inv
        gw2 = (pre * cdf).T @ g
        gh = _gelu_grad(g @ w2.data.T, pre, cdf)
        gw1 = (xhat * gamma.data + beta.data).T @ gh
        dx, dgamma, dbeta = _norm_grads(gh @ w1.data.T, xhat, inv, gamma.data, -1)
        dx += g
        return (dx.reshape(x.shape), dgamma, dbeta, gw1, gh.sum(axis=0), gw2, g.sum(axis=0))

    return _apply("residual_mlp", inputs, out.reshape(x.shape), bwd)


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
    stat_axes = axes if mode == "train" else None
    return _apply("batch_norm", (x, gamma, beta), out,
                  lambda g: _norm_grads(g, xhat, inv, gamma.data, stat_axes))


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

    S, a [N*Ho*Wo*K, N*H*W] CSR matrix, holds each sample's four corner
    weights, zero off the map. The output is S @ x, the input gradient
    S^T @ g, and each position gradient sum_C(g * (S_d @ x)), where S_d
    has S's pattern and the weights' derivatives in y or x (backward only).
    """
    if x.ndim != 4:
        raise ShapeError(f"deform_sample expects an NHWC tensor, got {x.shape}")
    if positions.ndim != 5 or positions.shape[-1] != 2 or positions.shape[0] != x.shape[0]:
        raise ShapeError(f"deform_sample: bad positions shape {positions.shape} for input {x.shape}")
    if not _all_finite(positions.data):
        raise NumericError("non-finite sampling positions")
    n, h, w, c = x.shape
    pos = positions.data.reshape(n, math.prod(positions.shape[1:4]), 2)
    y0, x0 = np.floor(pos[..., 0]), np.floor(pos[..., 1])
    wy, wx = pos[..., 0] - y0, pos[..., 1] - x0
    # corners (y0, x0), (y0, x0 + 1), (y0 + 1, x0), (y0 + 1, x0 + 1), in that order
    cy = y0.astype(np.int64)[..., None] + (0, 0, 1, 1)
    cx = x0.astype(np.int64)[..., None] + (0, 1, 0, 1)
    inside = (cy >= 0) & (cy < h) & (cx >= 0) & (cx < w)
    fy = np.where(inside, np.stack((1.0 - wy, 1.0 - wy, wy, wy), axis=-1), 0)
    fx = np.where(inside, np.stack((1.0 - wx, wx, 1.0 - wx, wx), axis=-1), 0)
    cols = np.ravel_multi_index((np.arange(n)[:, None, None], cy, cx), (n, h, w), mode="clip")
    sample = csr_array(((fy * fx).ravel(), cols.ravel(), np.arange(0, cols.size + 1, 4)),
                       shape=(cols.size // 4, n * h * w))
    flat = x.data.reshape(-1, c)
    out = (sample @ flat).reshape(positions.shape[:-1] + (c,))

    def bwd(g):
        g = g.reshape(-1, c)
        dy = np.array((-1, -1, 1, 1), dtype=pos.dtype) * fx     # d(fy * fx) / dy
        dx = fy * np.array((-1, 1, -1, 1), dtype=pos.dtype)     # d(fy * fx) / dx
        slopes = (csr_array((d.ravel(), sample.indices, sample.indptr), shape=sample.shape)
                  for d in (dy, dx))
        gpos = np.stack([np.einsum("sc,sc->s", g, s @ flat) for s in slopes], axis=-1)
        return ((sample.T @ g).reshape(x.shape), gpos.reshape(positions.shape))

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
