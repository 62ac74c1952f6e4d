"""Dense tensor arithmetic with reverse-mode automatic differentiation.

Data lives in numpy arrays: channels last, row major, float32 or float64.
Ops are pure functions of their inputs. While a ``Tape`` is active on the
current thread, each differentiable op appends one node to it: the
output's ``key``, one entry per input and the op's backward function. An
entry is None for an input that needs no gradient, else the input's key,
with the ``Tensor`` itself only for a leaf, an input the tape did not
produce. So the tape holds no intermediate tensor, and an output that no
backward function reads is freed as soon as the forward drops it.
``Tape.backward`` replays the nodes in reverse, routes gradients by key
and accumulates them into every ``requires_grad`` leaf. A tape serves
one forward computation; its backward pass consumes it and drops its nodes.

The model runs in one dtype, so an op of several Tensor operands refuses a
float32 and float64 mix by ``_one_dtype``, a one-line ``ShapeError`` before it
allocates. A fixed weighting of an output is a ``matmul`` of the two flattened.

Every op checks its output for non-finite values and raises
``NumericError`` instead of propagating them. Nothing here counts work
or times ops; the benchmark in ``perfbench/`` does that from outside by
wrapping these functions.

Every sum or mean along an axis is one BLAS matrix-vector product:
``_row_sums`` multiplies by a column of ones to sum the last axis,
``_lead_sums`` multiplies a row of ones into the leading axes, and a mean
is such a sum divided by its extent. numpy's own reductions along a short
axis of a float32 array ran 5-14x slower (a row mean over [8192, 16] took
248 us, a @ ones 40 us, on 2-vCPU x86-64 with OpenBLAS). A float32 sum of
n terms stays within n * eps32 times the sum of their magnitudes, and a
NaN or infinity among the terms reaches the sum. Only the ``softmax``
that the model no longer calls keeps numpy's reductions.

``gelu`` and ``residual_mlp`` share one GELU kernel, ``_gelu_into``, which
runs in blocks of ``_BLOCK`` elements and may write in place: float64
data goes through scipy's ``erf``, float32 data through the clamped
odd/even rational ``erf`` of Eigen and XLA. The float32 result differs
from the float64 GELU by at most 4 * eps32 * max(|x|, 1), where eps32 is
the float32 machine epsilon (2.2 measured on a dense grid over [-8, 8]).
The GELU backward pass of either dtype runs in the same blocks.

Layer norm (Ba et al., arXiv 1607.06450) and batch norm (Ioffe & Szegedy,
arXiv 1502.03167) normalise over different axes, and ``layer_norm``, each
row tile of ``residual_mlp`` and ``batch_norm`` share two steps:
``_center`` takes the mean, x - mean and the biased variance (batch norm
over axis 0 of its [N*H*W, C] view; its eval mode takes x minus the running
mean instead), and ``_scale_shift`` applies inv = 1 / sqrt(var + NORM_EPS),
gamma and beta in place. A norm's tape node keeps only its [..., 1] or [C]
mean and inv beside x; ``_norm_grads`` recomputes x-hat from them.

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
FlashAttention-2 (Dao, arXiv 2307.08691) does. Softmax is
shift-invariant, which is also what the online normaliser of Milakov &
Gimelshein (arXiv 1805.02867) rests on, so the row-max shift only keeps
exp in range. One Cauchy-Schwarz bound per call, B = max_i |q_i| max_j
|k_j| / sqrt(d) + max|table| on every logit |z|, picks the mode of all
tiles. When B < -ln(tiny), every exp(z) is a normal number, and when
B + ln T + ln max(1, max|v|) < ln(max / 4), neither a row sum nor
exp(z) @ v can overflow (tiny and max of the dtype, from ``np.finfo``);
then each tile takes exp(z) directly, with no row max, subtract or check.
Otherwise each tile first checks its minimum and row maxima, which
refuses a non-finite or overflowing logit before it writes anything, and
takes exp(z - row max). A NaN or infinity in q, k or the table, or a
squared norm that overflows, fails B, and every table entry is the bias
of some (query, key) pair, so every bad logit meets a check. The row
norms are reduced from the strided q and k views, in their dtype, with
no full-size copy. The [N, heads, T, T]
probabilities are built in full only when a tape records the op, whose
backward pass reads them, or when the caller asks for them; they are then
the kept tiles divided by the same row sums, so the output is the same
bits whether taped, with probabilities or plain. Otherwise the output and
the tile scratch are all the op allocates. Row tiles round their products
differently from one full-size product, so float32 outputs are not
bit-identical to the unfused ``softmax(q k^T / sqrt(d) + bias) @ v``; they
stay within 8 float32 ulps of max(P @ |v|), the largest sum of |terms|
behind one output (6.7 was the worst measured against a float64 unfused
result, on either exp path). The backward pass takes the softmax row sums
as D_i = sum_j dP_ij P_ij = g_i . o_i from the output o, as FlashAttention's
does, and sums the table's gradient through the forward's window: each
query adds its block of dS, summed over images, into a writeable window of
a zeroed flipped table. Beside dP and its image sum it forms no [T, T] array.

``residual_mlp`` is a transformer's MLP sublayer, x + fc2(gelu(fc1(LN(x)))),
as one op, after the fused elementwise chains of "Data Movement Is All
You Need" (Ivanov et al., arXiv 2007.00072). It runs ``_MLP_ROWS`` tokens
at a time: layer norm (the two steps above), the first product and its
bias, GELU in place on it (the shared kernel above), the second product,
its bias and the residual. Outside a tape this needs one [rows, 4C] tile
and block scratch for the GELU cdf. Under a tape it keeps the layer-norm
statistics and the GELU cdf in full, and not the pre-activations. The
backward pass runs in the same row tiles and recomputes the rest from
them, with the forward's own ops in the forward's order, so that the
gradients are those of a kept pre-activation: x-hat and the layer-norm
output, the pre-activation as one more fc1 product and bias add (the
recomputation trade of Chen et al., arXiv 1604.06174), the GELU output
for fc2's weight gradient, fc2's input gradient with the GELU slope
applied in place (``_gelu_grad``), then fc1's weight gradient and the
row-local layer-norm gradient. Beside the tile scratch it allocates only
dx and the parameter gradients, which the tiles accumulate.

``deform_sample`` builds one sparse matrix S of bilinear corner weights,
four per sample: its output is S @ x and its input gradient S^T @ g.

``conv2d`` is one product of patch rows and the [K*K*Cin, Cout] kernel;
``_im2col`` gathers the rows in (ky, kx, c) order as one strided copy. A
taped conv keeps its input, zero-padded if need be, not the rows: its
backward gathers them again for the weight gradient (Chen et al. again).

``matmul`` adds a projection's bias in place into its fresh product, the
fused elementwise step of Ivanov et al., so no pre-bias copy stays alive.
"""

from __future__ import annotations

import itertools
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
# The variance offset of every norm, and the weight of a batch's statistics
# in batch norm's running ones.
NORM_EPS = 1e-5
BN_MOMENTUM = 0.1
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
# Every Tensor's ``key``, in creation order.
_KEYS = itertools.count()


class Tensor:
    """A dense n-dimensional array with optional gradient tracking.

    ``grad`` is populated (same shape as ``data``) only after a backward
    pass reaches this tensor as a ``requires_grad`` leaf. ``key`` names the
    tensor on a tape: unlike ``id()``, no later tensor reuses it.
    """

    __slots__ = ("data", "requires_grad", "grad", "key")

    def __init__(self, data: np.ndarray, requires_grad: bool = False):
        if not isinstance(data, np.ndarray):
            data = np.asarray(data, dtype=np.float64)
        if data.dtype not in (np.float32, np.float64):
            data = data.astype(np.float64)
        self.data = data
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.key = next(_KEYS)

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
    """Wrap ``values`` in a Tensor of ``dtype``, float64 unless given, whatever their own dtype."""
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

    A node is (output key, input entries, backward function). An entry is
    None for an input that needs no gradient, else (key, leaf): the input's
    key and, only when this tape did not produce it, the input itself, so
    that its ``grad`` can be set. Gradients are routed by key, and the tape
    holds no intermediate tensor: what a backward function reads, its
    closure keeps. A leaf's ``grad`` is the backward's own array; ``add`` returns
    one array to both its inputs, so two leaves can share one gradient array, and
    nothing may write into a gradient in place.
    """

    __slots__ = ("_nodes", "_produced", "_consumed")

    def __init__(self):
        self._nodes: list[tuple[int, tuple[tuple[int, Tensor | None] | None, ...], Callable]] = []
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
        entries = tuple((t.key, None if t.key in self._produced else t) if t.requires_grad else None
                        for t in inputs)
        self._nodes.append((out.key, entries, backward_fn))
        self._produced.add(out.key)

    def backward(self, loss: Tensor) -> None:
        """Populate ``grad`` on every requires_grad leaf reachable from ``loss``."""
        if self._consumed:
            raise StateError("tape already consumed by a previous backward pass")
        if loss.key not in self._produced:
            raise StateError("loss was not produced under this tape")
        if loss.data.size != 1:
            raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
        self._consumed = True

        grads: dict[int, np.ndarray] = {loss.key: np.ones_like(loss.data)}
        leaves: dict[int, Tensor] = {}
        for out_key, entries, backward_fn in reversed(self._nodes):
            g = grads.pop(out_key, None)
            if g is None:
                continue
            for entry, ig in zip(entries, backward_fn(g)):
                if entry is None or ig is None:
                    continue
                key, leaf = entry
                grads[key] = grads[key] + ig if key in grads else ig
                if leaf is not None:
                    leaves[key] = leaf
        self._nodes.clear()  # frees what the backward functions' closures held
        for key, t in leaves.items():
            g = grads[key]
            t.grad = g if t.grad is None else t.grad + g


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


def _one_dtype(op: str, **operands: Tensor | None) -> np.dtype:
    """The dtype all non-None ``operands`` of ``op`` share; a mix is a one-line ShapeError."""
    dtypes = {name: t.dtype for name, t in operands.items() if t is not None}
    mixed = set(dtypes.values())
    if len(mixed) > 1:
        *names, last = dtypes
        raise ShapeError(f"{op}: {', '.join(names)} and {last} mix {' and '.join(sorted(map(str, mixed)))}")
    return mixed.pop()


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


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Sums of ``a`` over its last axis, kept as a length-1 axis, as one
    matrix-vector product a.reshape(m, C) @ ones[C, 1]."""
    lead, c = a.shape[:-1], a.shape[-1]
    return (a.reshape(math.prod(lead), c) @ np.ones((c, 1), a.dtype)).reshape(lead + (1,))


def _lead_sums(a: np.ndarray, ndim: int = 1) -> np.ndarray:
    """Sums of ``a`` over its first ``ndim`` axes, as one vector-matrix
    product ones[m] @ a.reshape(m, -1), or a copy of ``a`` when m is 1:
    the product takes several times as long as the copy."""
    m, rest = math.prod(a.shape[:ndim]), a.shape[ndim:]
    if m == 1:
        return a.reshape(rest).copy()
    return (np.ones(m, a.dtype) @ a.reshape(m, math.prod(rest))).reshape(rest)


# --------------------------------------------------------------------------
# Elementwise and structural ops
# --------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` may also be a suffix of ``a``'s shape (position
    table, DTM tap grid, ``mlp_block``'s replay), broadcast over leading axes;
    any other pair of shapes, ``a`` a suffix of ``b`` too, is a ShapeError."""
    extra = a.ndim - b.ndim
    if extra < 0 or a.shape[extra:] != b.shape:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    _one_dtype("add", a=a, b=b)
    return _apply("add", (a, b), a.data + b.data, lambda g: (g, _lead_sums(g, extra) if extra else g))


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(d) for d in shape)
    in_shape = a.shape
    try:
        out = a.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"reshape: cannot view {in_shape} as {shape}") from exc
    return _apply("reshape", (a,), out, lambda g: (g.reshape(in_shape),))


def mean_axis(a: Tensor, axis: int) -> Tensor:
    """Mean over ``axis``, as the sum times 1 / extent; the gradient is
    g / extent broadcast back over the axis."""
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"mean_axis: axis {axis} out of range for shape {a.shape}")
    shape = a.shape
    s = a.dtype.type(1.0 / shape[axis])  # a Python float would widen a float32 0-d sum on NumPy 1.x

    def bwd(g):
        return (np.broadcast_to(np.expand_dims(g * s, axis), shape).astype(g.dtype, copy=True),)

    return _apply("mean_axis", (a,), np.asarray(_lead_sums(np.moveaxis(a.data, axis, 0)) * s), bwd)


# Unused by the model; kept because perfbench wraps it by name (ROADMAP item 1).
def gather_last(a: Tensor, index: np.ndarray) -> Tensor:
    """out[..., *index.shape] = a[..., index]; gradient scatter-adds into ``a``."""
    index = np.asarray(index, dtype=np.int64)
    shape, last = a.shape, a.shape[-1]
    if index.size and (index.min() < 0 or index.max() >= last):
        raise ShapeError(f"gather_last: index out of range for extent {last}")
    rows = math.prod(a.shape[:-1])

    def bwd(g):
        bins = (np.arange(rows)[:, None] * last + index.reshape(-1)).reshape(-1)
        sums = np.bincount(bins, weights=g.reshape(-1), minlength=rows * last)
        return (sums.astype(g.dtype, copy=False).reshape(shape),)

    return _apply("gather_last", (a,), a.data[..., index], bwd)


# --------------------------------------------------------------------------
# Linear algebra
# --------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """Matrix product ``[..., m, k] @ [..., k, n]``, plus ``bias`` [n] when given.

    Leading axes must match exactly, or ``b`` may be a plain 2-d weight
    matrix shared over all leading axes of ``a``. The bias is added in place,
    so this is ``add(matmul(a, b), bias)`` in one op and one product-size
    array. The backward pass forms no gradient for an ``a`` that needs none.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-d, got {a.shape} and {b.shape}")
    k = a.shape[-1]
    if b.shape[-2] != k:
        raise ShapeError(f"matmul: inner extents differ, {a.shape} @ {b.shape}")
    if bias is not None and bias.shape != b.shape[-1:]:
        raise ShapeError(f"matmul: bias shape {bias.shape} does not match {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data
    grad_a = a.requires_grad
    if b.ndim == 2:
        def bwd(g):
            rows = math.prod(ad.shape[:-1])  # not -1, which a zero inner or output extent leaves undefined
            return (g @ bd.T if grad_a else None, ad.reshape(rows, k).T @ g.reshape(rows, bd.shape[1]))
    elif a.shape[:-2] == b.shape[:-2]:
        def bwd(g):
            return (g @ bd.swapaxes(-1, -2) if grad_a else None, ad.swapaxes(-1, -2) @ g)
    else:
        raise ShapeError(f"matmul: leading axes differ, {a.shape} @ {b.shape}")
    _one_dtype("matmul", a=a, b=b, bias=bias)
    if bias is None:
        return _apply("matmul", (a, b), ad @ bd, bwd)
    out = ad @ bd
    out += bias.data
    return _apply("matmul", (a, b, bias), out, lambda g: (*bwd(g), _lead_sums(g, g.ndim - 1)))


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


# Unused by the model; kept because perfbench wraps it by name (ROADMAP item 1).
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


def _bias_window(flipped: np.ndarray) -> np.ndarray:
    """[heads, H, W, H, W] view of a [heads, 2H-1, 2W-1] table flipped on both
    grid axes: [h, yi, xi] is query (yi, xi)'s [H, W] bias, each row of it a
    contiguous run. Writeable, so adding each query's block into it sums the
    blocks into the slots they were read from."""
    gh, gw = ((e + 1) // 2 for e in flipped.shape[1:])
    return sliding_window_view(flipped, (gh, gw), axis=(1, 2), writeable=True)[:, ::-1, ::-1]


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
    dtype, from their strided views; a norm that overflows, or a NaN or
    infinity in q, k, v or ``table_peak``, makes the answer False."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = [math.sqrt(np.einsum("...i,...i->...", a, a).max(initial=0.0)) for a in (q, k)]
        bound = s * norms[0] * norms[1] + table_peak
    spread = math.log(k.shape[2]) + math.log(max(_max_abs(v), 1.0))
    return bound < -math.log(info.tiny) and bound + spread < math.log(info.max / 4)


def _exp_rows(z: np.ndarray, ones: np.ndarray, sums: np.ndarray, shift: bool) -> None:
    """exp(z - row max) of each last-axis row of the logits tile ``z`` when
    ``shift``, else exp(z), in place, and the row sums into ``sums`` as one
    matrix-vector product z @ ``ones``. A shifted tile is checked first: NaN
    and -inf in its minimum and +inf in a row maximum raise NumericError
    before anything is written."""
    if shift:
        zmax = z.max(axis=-1, keepdims=True)
        if not (np.isfinite(z.min()) and np.isfinite(zmax).all()):
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
    exp(z), the row sums and exp(z) @ v stay in range, and otherwise check
    the tile and take exp(z - row max). Differentiable in ``qkv`` and the
    table, whose gradient adds dS back through the window it was read
    from; see the module docstring for the tiling and the bound.
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
        inputs += (bias,)
    dtype = _one_dtype("attention", qkv=qkv, bias=bias)  # before the flipped table is copied
    window = _bias_window(np.ascontiguousarray(bias.data[:, ::-1, ::-1])) if bias is not None else None
    tape = _recording_tape(inputs)
    s = 1.0 / math.sqrt(d)
    table_peak = _max_abs(bias.data) if bias is not None else 0.0
    shift = not _unshifted_exp_fits(q, k, v, s, table_peak, np.finfo(dtype))
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
                _exp_rows(z, ones, sums, shift)
                o = np.matmul(z, v[b0:b1, h0:h1], out=out[b0:b1, r0:r1, h0:h1].swapaxes(1, 2))
                o /= sums
                if probs is not None:
                    z /= sums

    def bwd(g):
        g = g.reshape(n, t, heads, d)
        g_dot_o = _row_sums(g * out)  # sum_j dP_ij P_ij = g_i . o_i, token-major as out is
        g = g.transpose(0, 2, 1, 3)
        grad = np.empty((n, t, 3, heads, d), dtype)  # laid out as qkv
        gq, gk, gv = grad.transpose(2, 0, 3, 1, 4)
        np.matmul(probs.swapaxes(-1, -2), g, out=gv)
        ds = g @ v.swapaxes(-1, -2)
        ds -= g_dot_o.transpose(0, 2, 1, 3)
        ds *= probs
        np.matmul(ds, k, out=gq)
        gq *= s
        np.matmul(ds.swapaxes(-1, -2), q, out=gk)
        gk *= s
        if bias is None:
            return (grad.reshape(qkv.shape),)
        blocks = _lead_sums(ds).reshape(heads, gh, gw, gh, gw)
        gflipped = np.zeros(bias.shape, dtype)
        gwindow = _bias_window(gflipped)
        for yi, xi in np.ndindex(gh, gw):  # queries in the forward's row-tile order
            cell = gwindow[:, yi, xi]
            cell += blocks[:, yi, xi]
        return (grad.reshape(qkv.shape), gflipped[:, ::-1, ::-1])

    result = _apply("attention", inputs, out.reshape(n, t, heads * d), bwd)
    return result, (probs if with_probs else None)


def _gelu_into(x: np.ndarray, out: np.ndarray, phi: np.ndarray) -> None:
    """x * Phi(x) into ``out``, which may be x itself if x is contiguous: Phi
    from scipy's ``erf`` for float64 data, from the clamped rational ``erf``
    for float32. Runs block by block with ufuncs, z and z^2 in block scratch.

    ``phi`` receives Phi(x) when it holds at least x.size elements; a
    smaller ``phi`` is block scratch. ``phi`` may be ``out`` unless out is x.
    """
    flat, res, phi = x.reshape(-1), out.reshape(-1), phi.reshape(-1)
    n = flat.size
    keep = phi.size >= n
    scratch = np.empty((2, min(n, _BLOCK)), x.dtype)
    for lo in range(0, n, _BLOCK):
        xb = flat[lo:lo + _BLOCK]
        m = xb.size
        p = phi[lo:lo + m] if keep else phi[:m]
        # z's block holds z, then Q(z^2) (float32)
        z, z2 = scratch[0, :m], scratch[1, :m]
        np.multiply(xb, _INV_SQRT2, out=z)
        if xb.dtype != np.float32:
            erf(z, out=p)
            p += 1.0
            p *= 0.5
            np.multiply(xb, p, out=res[lo:lo + m])
            continue
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
        np.multiply(xb, p, out=res[lo:lo + m])


def _gelu_grad(g: np.ndarray, x: np.ndarray, cdf: np.ndarray, out: np.ndarray) -> np.ndarray:
    """g * (Phi(x) + x * pdf(x)) into the contiguous ``out``, which may be
    ``g`` itself, block by block with block-sized scratch; returns ``out``."""
    gf, xf, cf, of = g.reshape(-1), x.reshape(-1), cdf.reshape(-1), out.reshape(-1)
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
        np.multiply(gf[lo:lo + _BLOCK], t, out=of[lo:lo + _BLOCK])
    return out


def gelu(x: Tensor) -> Tensor:
    """Exact GELU, x * Phi(x) with the erf-based normal CDF, by ``_gelu_into``
    (see the module docstring for its float32 ``erf`` and error). Only a call
    that records on a tape keeps Phi(x); any other takes it in the output."""
    xd = x.data
    out = np.empty(xd.shape, xd.dtype)
    cdf = np.empty_like(out) if _recording_tape((x,)) is not None else out
    _gelu_into(xd, out, cdf)
    return _apply("gelu", (x,), out,
                  lambda g: (_gelu_grad(g, xd, cdf, np.empty(xd.shape, xd.dtype)),))


def _center(x: np.ndarray, axis: int, out: np.ndarray, squares: np.ndarray,
            mean: np.ndarray, var: np.ndarray) -> None:
    """The statistics of ``x`` along its last axis (``axis`` -1, layer-norm
    rows) or of the columns of a 2-d ``x`` (``axis`` 0, batch norm), kept as
    a length-1 axis: the mean into ``mean``, x - mean into ``out`` and the
    biased variance, the mean of (x - mean)^2, into ``var``. Each mean is a
    ``_row_sums`` or ``_lead_sums`` product divided by the extent, as
    ``np.mean`` divides its sum. ``squares`` is scratch of x's shape."""
    sums = _row_sums if axis == -1 else _lead_sums
    n = x.shape[axis]
    np.divide(sums(x), n, out=mean)
    np.subtract(x, mean, out=out)
    np.multiply(out, out, out=squares)
    np.divide(sums(squares), n, out=var)


def _scale_shift(out: np.ndarray, var: np.ndarray, inv: np.ndarray, gamma: np.ndarray,
                 beta: np.ndarray) -> None:
    """1 / sqrt(var + NORM_EPS) into ``inv``, which may be ``var`` itself,
    then the centred ``out`` times inv, times ``gamma``, plus ``beta``, in place."""
    np.add(var, NORM_EPS, out=inv)
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    out *= inv
    out *= gamma
    out += beta


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the last (channel) dimension, then apply the affine."""
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"layer_norm: affine shapes {gamma.shape}/{beta.shape} do not match channels {c}")
    dtype = _one_dtype("layer_norm", x=x, gamma=gamma, beta=beta)
    xf = x.data.reshape(-1, c)
    out = np.empty(xf.shape, dtype)
    mean, inv = (np.empty((xf.shape[0], 1), dtype) for _ in range(2))
    _center(xf, -1, out, np.empty_like(out), mean, inv)
    _scale_shift(out, inv, inv, gamma.data, beta.data)
    return _apply("layer_norm", (x, gamma, beta), out.reshape(x.shape),
                  lambda g: _norm_grads(g, (xf - mean) * inv, inv, gamma.data, -1))


def _norm_grads(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gamma: np.ndarray,
                axis: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dx, dgamma, dbeta) of xhat * gamma + beta for the output gradient
    ``g``, read in the [rows, C] shape of the normalized input ``xhat``, and
    1 / sqrt(var + NORM_EPS) ``inv``, with the statistics taken as
    ``_center`` takes them: along each row (``axis`` -1, layer norm), along
    each column (0, batch norm) or, for None, fixed ones that do not depend
    on x (batch-norm eval).

    dgamma and dbeta are ``_lead_sums``. The two statistic means, of
    g * gamma and of g * gamma * xhat, are matrix-vector products of g and
    g * xhat with gamma / C along rows, and gamma * dbeta / rows and
    gamma * dgamma / rows along columns. dx has g's shape."""
    shape, g = g.shape, g.reshape(xhat.shape)
    gxhat = g * xhat
    dgamma, dbeta = _lead_sums(gxhat), _lead_sums(g)
    if axis is None:
        return ((g * (gamma * inv)).reshape(shape), dgamma, dbeta)
    n = g.shape[axis]
    if axis == -1:
        w = (gamma / n).reshape(-1, 1)
        mean_gx, mean_gxhat = g @ w, gxhat @ w
    else:
        mean_gx, mean_gxhat = gamma * dbeta / n, gamma * dgamma / n
    dx = g * gamma
    dx -= mean_gx
    dx -= np.multiply(xhat, mean_gxhat, out=gxhat)
    dx *= inv
    return (dx.reshape(shape), dgamma, dbeta)


def residual_mlp(x: Tensor, gamma: Tensor, beta: Tensor, w1: Tensor, b1: Tensor,
                 w2: Tensor, b2: Tensor) -> Tensor:
    """x + gelu(layer_norm(x) @ w1 + b1) @ w2 + b2 over the last (channel)
    axis, ``_MLP_ROWS`` tokens at a time, forward and backward.

    ``x`` is [..., C], ``gamma`` and ``beta`` [C], ``w1`` [C, H], ``b1``
    [H], ``w2`` [H, C] and ``b2`` [C]; see the module docstring for the
    tiling and what a tape keeps. Row tiles only change how the two
    products are blocked. A float64 result is within 1e-12 of the composed
    ops on O(1) data.

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
    dtype = _one_dtype("residual_mlp", x=x, gamma=gamma, beta=beta, w1=w1, b1=b1, w2=w2, b2=b2)
    inputs = (x, gamma, beta, w1, b1, w2, b2)
    tape = _recording_tape(inputs)
    xf = x.data.reshape(-1, c)
    m = xf.shape[0]
    rows = max(1, min(m, _MLP_ROWS))
    out = np.empty((m, c), dtype)
    normed = np.empty((rows, c), dtype)
    pre = np.empty((rows, hidden), dtype)
    # under a tape the statistics and the cdf are kept in full; else the cdf is block scratch
    keep = m if tape is not None else rows
    mu, inv = np.empty((keep, 1), dtype), np.empty((keep, 1), dtype)
    cdf = np.empty((m, hidden) if tape is not None else min(rows * hidden, _BLOCK), dtype)
    for r0 in range(0, m, rows):
        r1 = min(r0 + rows, m)
        k0, k1 = (r0, r1) if tape is not None else (0, r1 - r0)
        xt, ln, o = xf[r0:r1], normed[:r1 - r0], out[r0:r1]
        h, scale = pre[:r1 - r0], inv[k0:k1]
        _center(xt, -1, ln, o, mu[k0:k1], scale)
        _scale_shift(ln, scale, scale, gamma.data, beta.data)
        np.matmul(ln, w1.data, out=h)
        h += b1.data
        _gelu_into(h, h, cdf[r0:r1] if tape is not None else cdf)
        np.matmul(h, w2.data, out=o)
        o += b2.data
        o += xt

    def bwd(g):
        g = g.reshape(m, c)
        dx = np.empty((m, c), dtype)
        dgamma, dbeta, gb1 = np.zeros(c, dtype), np.zeros(c, dtype), np.zeros(hidden, dtype)
        gw1, gw2 = np.zeros((c, hidden), dtype), np.zeros((hidden, c), dtype)
        pre, gpre = np.empty((rows, hidden), dtype), np.empty((rows, hidden), dtype)
        xhat, normed = np.empty((rows, c), dtype), np.empty((rows, c), dtype)
        for r0 in range(0, m, rows):
            r1 = min(r0 + rows, m)
            gt, phi, scale = g[r0:r1], cdf[r0:r1], inv[r0:r1]
            h, gh, xh, ln = pre[:r1 - r0], gpre[:r1 - r0], xhat[:r1 - r0], normed[:r1 - r0]
            # the forward's layer norm, fc1 product and bias add, op for op, so h
            # has the bits the forward's GELU read
            np.subtract(xf[r0:r1], mu[r0:r1], out=xh)
            xh *= scale
            np.multiply(xh, gamma.data, out=ln)
            ln += beta.data
            np.matmul(ln, w1.data, out=h)
            h += b1.data
            gw2 += np.multiply(h, phi, out=gh).T @ gt
            _gelu_grad(np.matmul(gt, w2.data.T, out=gh), h, phi, gh)
            gw1 += ln.T @ gh
            gb1 += _lead_sums(gh)
            dxt, dgt, dbt = _norm_grads(gh @ w1.data.T, xh, scale, gamma.data, -1)
            dgamma += dgt
            dbeta += dbt
            np.add(dxt, gt, out=dx[r0:r1])
        return (dx.reshape(x.shape), dgamma, dbeta, gw1, gb1, gw2, _lead_sums(g))

    return _apply("residual_mlp", inputs, out.reshape(x.shape), bwd)


class BatchNormState:
    """Running statistics for batch normalization.

    Uninitialized until the first train-mode pass (or explicit seeding);
    eval mode before that raises StateError.
    """

    __slots__ = ("mean", "var")

    def __init__(self):
        self.mean: np.ndarray | None = None
        self.var: np.ndarray | None = None

    def seed_identity(self, channels: int, dtype=np.float32) -> "BatchNormState":
        self.mean = np.zeros(channels, dtype=dtype)
        self.var = np.ones(channels, dtype=dtype)
        return self


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState,
               mode: str = "train") -> Tensor:
    """Channel-wise batch normalization over the N, H, W axes of an NHWC tensor.

    Train mode normalizes with the batch statistics (biased variance) and
    moves the running ones in ``state`` toward them by ``BN_MOMENTUM``; it
    refuses an empty batch, whose statistics would be 0 / 0. Eval mode uses
    the running ones, which must be initialized.
    """
    if x.ndim != 4:
        raise ShapeError(f"batch_norm expects an NHWC tensor, got shape {x.shape}")
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batch_norm: affine shapes {gamma.shape}/{beta.shape} do not match channels {c}")
    if mode not in ("train", "eval"):
        raise ValidationError(f"batch_norm mode must be 'train' or 'eval', got {mode!r}")
    if mode == "train" and 0 in x.shape[:3]:
        raise ShapeError(f"batch_norm: batch statistics need at least one N*H*W row, got shape {x.shape}")
    dtype = _one_dtype("batch_norm", x=x, gamma=gamma, beta=beta)
    xf = x.data.reshape(-1, c)
    out = np.empty(xf.shape, dtype)
    if mode == "train":
        mean, var = np.empty((1, c), dtype), np.empty((1, c), dtype)
        _center(xf, 0, out, np.empty_like(out), mean, var)
        if state.mean is None:
            state.mean, state.var = mean[0].copy(), var[0].copy()
        else:
            state.mean = (1.0 - BN_MOMENTUM) * state.mean + BN_MOMENTUM * mean[0]
            state.var = (1.0 - BN_MOMENTUM) * state.var + BN_MOMENTUM * var[0]
        inv = var
    elif state.mean is None or state.var is None:
        raise StateError("batch_norm eval mode before any train step and without seeded stats")
    else:
        mean, var = state.mean, state.var
        np.subtract(xf, mean, out=out)
        inv = np.empty_like(var)
    _scale_shift(out, var, inv, gamma.data, beta.data)
    axis = 0 if mode == "train" else None
    return _apply("batch_norm", (x, gamma, beta), out.reshape(x.shape),
                  lambda g: _norm_grads(g, (xf - mean) * inv, inv, gamma.data, axis))


# --------------------------------------------------------------------------
# Convolution and sampling
# --------------------------------------------------------------------------


def _im2col(xp: np.ndarray, k: int, s: int, ho: int, wo: int) -> np.ndarray:
    """[N*Ho*Wo, K*K*C] patch rows of the NHWC ``xp`` in (ky, kx, c) order, one copy."""
    n, c = xp.shape[0], xp.shape[3]
    win = sliding_window_view(xp, (k, k), axis=(1, 2))[:, ::s, ::s]  # [N, Ho, Wo, C, K, K]
    return np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3)).reshape(n * ho * wo, k * k * c)


def conv2d(x: Tensor, w: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-d convolution of an NHWC input with a KxKxCinxCout kernel of its dtype,
    zero padding; output extents floor((H + 2*pad - K) / stride) + 1. The
    backward pass forms no gradient for an ``x`` that needs none."""
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d: expected NHWC input and KKCC kernel, got {x.shape} and {w.shape}")
    n, h, wd, cin = x.shape
    kh, kw, wcin, cout = w.shape
    if kh != kw:
        raise ShapeError(f"conv2d: kernel must be square, got {w.shape}")
    if wcin != cin:
        raise ShapeError(f"conv2d: input channels {cin} do not match kernel {w.shape}")
    if stride < 1 or padding < 0:
        raise ShapeError(f"conv2d: stride must be >= 1 and padding >= 0, got {stride} and {padding}")
    if bias is not None and bias.shape != (cout,):
        raise ShapeError(f"conv2d: bias shape {bias.shape} does not match output channels {cout}")
    k, s, p = kh, stride, padding
    hp, wp = h + 2 * p, wd + 2 * p
    ho, wo = (hp - k) // s + 1, (wp - k) // s + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv2d: kernel {k} does not fit input {x.shape} with padding {p}")
    dtype = _one_dtype("conv2d", x=x, w=w, bias=bias)

    xp = x.data
    if p:
        xp = np.zeros((n, hp, wp, cin), dtype)
        xp[:, p:p + h, p:p + wd, :] = x.data
    wmat = w.data.reshape(k * k * cin, cout)
    out = (_im2col(xp, k, s, ho, wo) @ wmat).reshape(n, ho, wo, cout)
    if bias is not None:
        out += bias.data
    grad_x = x.requires_grad

    def bwd(g):
        gmat = g.reshape(n * ho * wo, cout)
        gw = (_im2col(xp, k, s, ho, wo).T @ gmat).reshape(k, k, cin, cout)
        gx = None
        if grad_x:
            gcols = (gmat @ wmat.T).reshape(n, ho, wo, k, k, cin)
            gx = np.zeros((n, hp, wp, cin), dtype=g.dtype)
            for ky in range(k):
                for kx in range(k):
                    gx[:, ky:ky + s * ho:s, kx:kx + s * wo:s, :] += gcols[:, :, :, ky, kx, :]
            gx = gx[:, p:p + h, p:p + wd, :] if p else gx
        return (gx, gw) if bias is None else (gx, gw, _lead_sums(g, 3))

    return _apply("conv2d", (x, w) if bias is None else (x, w, bias), out, bwd)


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
    _one_dtype("deform_sample", x=x, positions=positions)
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
    logsumexp = np.log(_row_sums(np.exp(shifted)))
    logp = shifted - logsumexp
    loss = -logp[np.arange(n), labels].mean()

    def bwd(g):
        probs = np.exp(logp)
        probs[np.arange(n), labels] -= 1.0
        return (g * probs / n,)

    return _apply("softmax_cross_entropy", (logits,),
                  np.asarray(loss, dtype=logits.data.dtype), bwd)
