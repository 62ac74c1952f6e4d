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
one forward computation; its backward pass consumes it and drops each node
once the node's backward function has returned, so what a closure keeps is
freed before the earlier nodes run, not when the pass ends.

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
runs in blocks of at most ``_BLOCK`` elements, with its x^2 block either
its own or a buffer of the caller's, and may write in place: float64
data goes through scipy's ``erf``, float32 data through the tanh form of
Hendrycks & Gimpel (arXiv 1606.08415), Phi(x) = 0.5 + 0.5 * tanh(x * G(x^2)),
with G a degree-6 polynomial (``_GELU_G``) fitted so that the float32 result
differs from the float64 GELU by at most 1.18 * eps32 * max(|x|, 1), and its
Phi from float64 Phi by at most 0.81 * eps32 (measured on a dense grid over
[-8, 8]; eps32 is the float32 machine epsilon). The bound stated for it is
4 * eps32 * max(|x|, 1). It needs no clamp: from |x| = 5.5 on, |x * G(x^2)|
is at least 9.08, where float32 tanh is within one ulp of +-1, so Phi rounds
to 1 or is at most 2^-25 (against 1.9e-8 exact at -5.5), and where x^2 or
the polynomial overflows, tanh(+-inf) is +-1, not NaN. The GELU backward
pass of either dtype builds the slope in the same blocks, in place in its
output (``_gelu_slope``).

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
table, read in place.

The op works on tiles of about half of ``_ATTN_TILE`` logits. A head whose
T x T logits fit in ``_ATTN_TILE`` // 2 is one tile, with more whole
heads, or whole images, in it when they fit; at lit-s's stage 3, 12 heads
of 196 tokens, that is two tiles of 6 heads, 0.88 MiB of float32. A
larger head runs in the loop order of FlashAttention-2 (Dao, arXiv
2307.08691): a block of about 2s queries meets blocks of about s keys in
turn, s = sqrt(``_ATTN_TILE`` / 4), in whole grid rows under a bias (at
least one). Every axis is cut evenly (``_even_cuts``): R grid rows into
n = ceil(R / target) blocks of ceil(R / n) or floor(R / n) rows, longer
first, and heads and images alike, so no short block is left at the end.
At the 56 x 56 grid of the all-attention layout's stage 1 the query
blocks are 12 + 4 x 11 grid rows and the key blocks 6 x 6 + 4 x 5, a tile
of at most 0.86 MiB of float32. Each query block scales its queries once,
into a [rows, d] scratch that all its key blocks read. Each tile writes its
logits into scratch with one matrix product, adds the bias from the window
view and exponentiates in place; one matrix-vector product with a column
of ones takes its row sums, and one more product 2^z @ v. A block of
queries' first key block writes these products straight into its sums and
its strided rows of the output, and each later one adds into them through
a [rows] and a [rows, d] scratch, so a head of one tile makes no zero-fill
and no add; after the last key block the [rows, d] output rows are divided
by their sums, as FlashAttention-2 does.

The tiles work in base 2, as FlashAttention-2 does: the queries' scale is
log2(e) / sqrt(d) and the flipped table copy is multiplied by log2(e), so a
tile holds z log2(e) and takes 2^(z log2(e)) = exp(z) by ``np.exp2``,
which took 86-89 us against ``np.exp``'s 132-134 us on a float32
[672, 336] tile (2-vCPU x86-64, numpy 2.4, medians of 300). Below, z is a
logit in natural units. The exponent is exp(z) or exp(z - m). One
Cauchy-Schwarz bound per call,
B = max_i |q_i| max_j |k_j| / sqrt(d) + max|table| on every logit |z|,
picks the mode of all tiles. When B < -ln(tiny), every exp(z) is a normal
number, and when B + ln T + ln max(1, max|v|) < ln(max / 4), neither a
row sum nor exp(z) @ v can overflow (tiny and max of the dtype, from
``np.finfo``); then each tile takes exp(z) directly, with no row max,
subtract or check. Otherwise each tile first checks its minimum and row
maxima, which refuses a non-finite or overflowing logit before it writes
anything, and takes exp(z - m), where m is the row's running maximum over
the key blocks so far, the online normaliser of Milakov & Gimelshein
(arXiv 1805.02867): a key block that raises it first scales the row's sum
and output so far by exp(old m - new m). Softmax is shift-invariant, so
the shift only keeps exp in range. A NaN or infinity in q, k or the
table, or a squared norm that overflows, fails B, and every table entry
is the bias of some (query, key) pair, so every bad logit meets a check.
The row norms are reduced from the strided q and k views, in their dtype,
with no full-size copy.

The op keeps each query row's softmax sum, and its final m when shifted,
as [N, heads, T] arrays; a tape keeps them and the output beside qkv and
the table. The [N, heads, T, T] probabilities are built in full only when
the caller asks for them, for a ``ForwardRecord``: one more pass over the
tiles after the output rebuilds each tile's logits and takes
exp(z - m) / sum, so the output is the same bits whether taped, with
probabilities or plain. Tiles round their products differently from one
full-size product, so float32 outputs are not bit-identical to the
unfused ``softmax(q k^T / sqrt(d) + bias) @ v``; they stay within 8
float32 ulps of max(P @ |v|), the largest sum of |terms| behind one output
(6.1 was the worst measured against a float64 unfused result, on either
exp path). A cut head's float32 bits depend on its block shape.

The backward pass runs over the forward's tiles, as FlashAttention's does
(the recomputation trade of Chen et al., arXiv 1604.06174): it rebuilds
each tile's logits with the forward's own code and takes P = exp(z - m) /
sum from the kept row statistics, so a head within one tile gets the
forward's bits of P; dS and the gradients are in natural units. It takes the softmax row sums as D_i = sum_j dP_ij
P_ij = g_i . o_i from the output o, and adds dq up over key blocks and dk
and dv over query blocks, the first block writing in place and later ones
through one [rows, d] or [keys, d] product. The table's gradient sums each
tile's dS along the table's diagonals (``_diagonal_sums``): with the
tile's images summed, each head's [W, W] blocks, one per query and key
grid row, are written skewed by yi - yj into scratch and one product with
ones sums the key rows; the sums are written skewed by xi - xj into a
second scratch, and a second product sums the query columns. Neither
write touches a slot twice, and no Python loop runs per query. Beside the
gradients the backward holds one tile each of P and dS, the scaled
queries, its partial products and the two skew scratches, and forms no
[T, T] array.

``residual_mlp`` is a transformer's MLP sublayer, x + fc2(gelu(fc1(LN(x)))),
as one op, after the fused elementwise chains of "Data Movement Is All
You Need" (Ivanov et al., arXiv 2007.00072). It cuts its m tokens into
ceil(m / ``_MLP_ROWS``) even row tiles (``_even_cuts``: lit-s's 3136
stage-1 tokens into 7 of 448, its 784 stage-2 ones into 2 of 392) and runs
one at a time, each scratch buffer a tile that is dead while it is reused:
layer norm (the two steps above) into the tile's rows of the output, dead
until fc2 writes them, with its squares in the hidden tile, dead until fc1
writes it; the first product into the hidden tile and its bias; GELU in
place on it (the shared kernel above), with its x^2 block in the output
tile when that holds at least half a ``_BLOCK`` (lit-s's 37.6k-75k-element
tiles do; the toy's 8k-25k-element ones keep a block of their own rather
than run more, shorter GELU passes); the second product into the output
tile, its bias and the residual. Outside a tape this needs one [rows, 4C]
tile and one block of GELU cdf beside the output: 1.4 MiB at lit-s's
stage 2, where 512-row tiles with a layer-norm tile and two GELU blocks of
their own took 2.4 MiB. Under a tape it keeps the layer-norm
statistics and the GELU cdf in full, and not the pre-activations. The
backward pass runs in the same row tiles and recomputes the rest from
them, with the forward's own ops in the forward's order, so that the
gradients are those of a kept pre-activation: x-hat and the layer-norm
output, the pre-activation as one more fc1 product and bias add (Chen et
al. again), the GELU output for fc2's weight gradient, the GELU slope
(``_gelu_slope``) in place in that tile, fc2's input gradient into the
freed pre-activation tile and multiplied into the slope, then fc1's weight
gradient and the row-local layer-norm gradient, whose input and g * x-hat
take the freed layer-norm output and pre-activation tiles and whose dx is
written in place. The first tile writes the weight gradients with its
products; later tiles add theirs through one [C, H] scratch. It allocates
dx, the parameter gradients and its tiles up front, and nothing per tile
larger than a [C] or [H] vector.

``deform_sample`` builds one sparse matrix S of bilinear corner weights,
four per sample: its output is S @ x and its input gradient S^T @ g. Its
tape node keeps only the positions: the backward pass rebuilds S and the
corner weights by ``_bilinear_corners``, the forward's own helper, whose
int32 index arithmetic over one axis at a time makes the rebuild cheap.

``conv2d`` is one product of patch rows and the [K*K*Cin, Cout] kernel;
``_im2col`` gathers the rows in (ky, kx, c) order as one strided copy. A
taped conv keeps its input, zero-padded if need be, not the rows: its
backward gathers them again for the weight gradient (Chen et al. again).

``matmul`` adds a projection's bias in place into its fresh product, the
fused elementwise step of Ivanov et al., so no pre-bias copy stays alive.
With a 2-d weight, the product and the input gradient g @ W^T are each one
GEMM over the leading axes flattened into rows (``_dot_rows``), where numpy's
stacked product runs one small GEMM per grid row: lit-s's last merge,
[1, 7, 7, 1536] @ [1536, 768] in float32, took 2.57 ms stacked and 0.73 ms
flat, with the same bits (2-vCPU x86-64, OpenBLAS, medians of 60). An input
that is not C-contiguous keeps the stacked product, so it is never copied.
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
_LOG2E = 1.0 / math.log(2.0)

# Elements per block of the blocked float32 GELU and of ``softmax`` (which
# alone uses ``_softmax_rows``), sized so that a block and its scratch
# arrays stay in a core's L2 cache.
_BLOCK = 65536
# Twice the logits of an attention tile: a tile holds about _ATTN_TILE // 2
# (1 MiB of float32). A head of at most that many logits is one tile, with
# more whole heads or images when they fit; a larger one is cut into blocks
# of about 2s queries by s keys, s = sqrt(_ATTN_TILE / 4), whose passes stay
# in a core's L2 cache. The all-attention layout's stage-1 attention ([1, 3,
# 3136, 32] with bias, eval) took 75.9 ms in 13 x 6-grid-row blocks, 70.8 ms
# in the 18 x 9 blocks of a 2**20 tile, 79.6 ms in the 9 x 5 ones of a 2**18
# tile, and 79.1 ms in whole-row tiles of 168 queries (2-vCPU x86-64,
# OpenBLAS, medians of 31 calls interleaved in one process). The blocks'
# smaller scratch is what they buy: that layer's eval peak fell from 6.84 to
# 5.91 MiB. Holding whole-head tiles to the same half took lit-s's stage-3
# call (12 heads of 196 tokens) from a 2.46 to a 1.43 MiB traced peak.
_ATTN_TILE = 2 ** 19
# Most tokens per row tile of ``residual_mlp``, which cuts m tokens into
# ceil(m / _MLP_ROWS) even tiles. Its two products gain from more rows per
# call: lit-s's stage-1 MLP block (T 3136, C 96) took 17.6 ms in 128-row
# tiles and 13.8 ms in 512-row ones (2-vCPU x86-64, OpenBLAS, lower quartile
# of 21 calls). Its 7 even tiles of 448 rows, with the dead-tile scratch of
# the module docstring, left lit-s's eval forward at 128-129 ms (medians of
# 50, interleaved in one process) and took its traced peak from 4.13 to
# 3.16 MiB.
_MLP_ROWS = 512
# The variance offset of every norm, and the weight of a batch's statistics
# in batch norm's running ones.
NORM_EPS = 1e-5
BN_MOMENTUM = 0.1
# Float32 Phi(x) = 0.5 + 0.5 * tanh(x * G(x^2)), the tanh form of Hendrycks
# & Gimpel (arXiv 1606.08415) with a degree-6 polynomial G, listed from the
# highest power of x^2 down: an iteratively reweighted least-squares fit,
# pushed toward minimax, of atanh(erf(x / sqrt(2))) / x on [0, 5.5], weighted
# by 0.5 * sech^2, Phi's slope in tanh's argument. From 5.5 on, x * G(x^2) is
# at least 9.08, where float32 tanh is within one ulp of 1 (see the module
# docstring).
_GELU_G = tuple(np.float32(c) for c in (
    1.7561830e-09, -1.3226374e-07, 3.9647489e-06, -5.5306216e-05, -3.2594930e-05,
    3.6333084e-02, 7.9788494e-01))
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
    closure keeps, until ``backward`` drops the node once the function has
    returned. A leaf's ``grad`` is the backward's own array; ``add`` returns
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
        nodes = self._nodes
        while nodes:  # a node's closure is freed when the next pop rebinds backward_fn
            out_key, entries, backward_fn = nodes.pop()
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


def _dot_rows(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w for a 2-d ``w``: one GEMM over x's leading axes flattened into
    rows when x is C-contiguous, so the flattening is a view, else numpy's
    stacked product, which runs one GEMM per index of x's leading axes but
    the last."""
    if not x.flags.c_contiguous:
        return x @ w
    return (x.reshape(math.prod(x.shape[:-1]), x.shape[-1]) @ w).reshape(*x.shape[:-1], w.shape[1])


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """Matrix product ``[..., m, k] @ [..., k, n]``, plus ``bias`` [n] when given.

    Leading axes must match exactly, or ``b`` may be a plain 2-d weight
    matrix shared over all leading axes of ``a``. A 2-d weight's product and
    the input gradient g @ b^T are each one GEMM over the flattened rows
    (``_dot_rows``), or numpy's stacked product when ``a`` or g is not
    C-contiguous. The bias is added in place, so this is
    ``add(matmul(a, b), bias)`` in one op and one product-size array. The
    backward pass forms no gradient for an ``a`` that needs none.
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
        product = _dot_rows

        def bwd(g):
            rows = math.prod(ad.shape[:-1])  # not -1, which a zero inner or output extent leaves undefined
            return (_dot_rows(g, bd.T) if grad_a else None,
                    ad.reshape(rows, k).T @ g.reshape(rows, bd.shape[1]))
    elif a.shape[:-2] == b.shape[:-2]:
        product = np.matmul

        def bwd(g):
            return (g @ bd.swapaxes(-1, -2) if grad_a else None, ad.swapaxes(-1, -2) @ g)
    else:
        raise ShapeError(f"matmul: leading axes differ, {a.shape} @ {b.shape}")
    _one_dtype("matmul", a=a, b=b, bias=bias)
    out = product(ad, bd)
    if bias is None:
        return _apply("matmul", (a, b), out, bwd)
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


def _bias_window(table: np.ndarray) -> np.ndarray:
    """[heads, H, W, H, W] view of a C-ordered copy of the [heads, 2H-1, 2W-1]
    table, times log2(e) for the tiles' base-2 exponent, flipped on both grid
    axes: [h, yi, xi, yj, xj] is the bias of query (yi, xi) for key (yj, xj),
    each [W] run of it contiguous, so a tile of whole query and key grid rows
    reads its bias as one slice."""
    gh, gw = ((e + 1) // 2 for e in table.shape[1:])
    flipped = np.multiply(table[:, ::-1, ::-1], _LOG2E, out=np.empty(table.shape, table.dtype))
    return sliding_window_view(flipped, (gh, gw), axis=(1, 2))[:, ::-1, ::-1]


def _window_tile(window: np.ndarray | None, gw: int, h: slice, r: slice, c: slice) -> np.ndarray | None:
    """The [heads, query grid rows, W, key grid rows, W] slice of ``window``
    for the tile of heads ``h``, queries ``r`` and keys ``c``, or None."""
    return None if window is None else window[h, r.start // gw:r.stop // gw, :, c.start // gw:c.stop // gw]


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


def _exp_rows(z: np.ndarray, ones: np.ndarray, sums: np.ndarray,
              rowmax: np.ndarray | None) -> np.ndarray | None:
    """2^z of each last-axis row of the base-2 logits tile ``z`` in place
    when ``rowmax`` is None, else 2^(z - m), and the row sums into ``sums``
    as one matrix-vector product z @ ``ones``, a column of ones at least as
    long as a row. m is ``rowmax``, the rows' running maximum over the
    earlier key blocks (-inf before the first), raised in place to this
    tile's row maxima. Returns 2^(old m - new m), the factor that rescales
    what the earlier key blocks added, or None when unshifted. A shifted
    tile is checked first: NaN and -inf in its minimum and +inf in a row
    maximum raise NumericError before anything is written."""
    scale = None
    if rowmax is not None:
        zmax = z.max(axis=-1, keepdims=True)
        if not (np.isfinite(z.min()) and np.isfinite(zmax).all()):
            raise NumericError("non-finite attention logits")
        np.maximum(zmax, rowmax, out=zmax)
        scale = np.exp2(rowmax - zmax)
        rowmax[...] = zmax
        np.subtract(z, rowmax, out=z)
    np.exp2(z, out=z)
    np.matmul(z, ones[:z.shape[-1]], out=sums)
    return scale


def _matmul_into(a: np.ndarray, b: np.ndarray, out: np.ndarray, partial: np.ndarray | None) -> None:
    """a @ b written into ``out``, or, given ``partial`` scratch of out's
    shape, added to it through that scratch: a tile's share of a gradient
    that the tiles accumulate."""
    if partial is None:
        np.matmul(a, b, out=out)
    else:
        out += np.matmul(a, b, out=partial)


def _diagonal_sums(ds: np.ndarray, gw: int, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The [heads, QY + KY - 1, 2W - 1] sums of the [images, heads, QY * W,
    KY * W] tile ``ds`` of QY query and KY key grid rows along the bias
    table's diagonals: [h, yi - yj + KY - 1, xi - xj + W - 1] sums the
    tile's pairs of queries (yi, xi) and keys (yj, xj) at that displacement
    over its images. After the images are summed, each head takes two
    strided writes, neither of which writes a slot twice, and two products
    with ones: key row yj's [W, W] block of query row yi goes to row
    yi - yj + K - 1 of slab yj of ``y``, and the slabs are summed; entry
    (xi, xj) of each summed block goes to column xj - xi + W - 1 of slab xi
    of ``x``, and those slabs are summed. ``y`` is [K, Q + K - 1, W, W] and
    ``x`` [W, Q + K - 1, 2W - 1] scratch for the largest block, of Q query
    and K key grid rows. Only the slots the writes reach are read, so ``x``
    is zeroed once and ``y`` whenever QY changes."""
    blocks = _lead_sums(ds) if ds.shape[0] > 1 else ds[0]
    qy, ky, full = ds.shape[2] // gw, ds.shape[3] // gw, y.shape[0]
    dy = qy + ky - 1
    sy, sx = y.strides, x.strides
    y_skew = np.ndarray((qy, gw, ky, gw), y.dtype, y, (full - 1) * sy[1], (sy[1], sy[2], sy[0] - sy[1], sy[3]))
    x_skew = np.ndarray((dy, gw, gw), x.dtype, x, (gw - 1) * sx[2], (sx[1], sx[0] - sx[2], sx[2]))
    sums = np.empty((len(blocks), dy, 2 * gw - 1), ds.dtype)
    for block, head_sums in zip(blocks, sums):
        y_skew[...] = block.reshape(qy, gw, ky, gw)
        x_skew[...] = _lead_sums(y[:ky])[full - ky:full - ky + dy]
        head_sums[...] = _lead_sums(x)[:dy, ::-1]
    return sums


def _even_cuts(total: int, most: int) -> list[slice]:
    """range(total) cut into ceil(total / most) runs, in order, whose lengths
    differ by at most one, the longer ones first."""
    count = -(-total // most)
    size, longer = divmod(total, max(count, 1))
    return [slice(i * size + min(i, longer), (i + 1) * size + min(i + 1, longer)) for i in range(count)]


def _attention_cuts(n: int, heads: int, t: int, gw: int) -> tuple[list[slice], ...]:
    """The (images, heads, queries, keys) cuts of ``attention``'s tiles for
    ``n`` images of ``heads`` heads of ``t`` tokens in grid rows of ``gw``,
    each axis cut evenly: whole heads, or whole images, in at most
    ``_ATTN_TILE`` // 2 logits, or, for a larger head, blocks of about 2s
    query and s key tokens, s = sqrt(``_ATTN_TILE`` / 4), in whole grid rows."""
    budget = _ATTN_TILE // 2
    if t * t <= budget:
        whole = [slice(0, t)]
        head_cuts = _even_cuts(heads, budget // (t * t))
        image_cuts = _even_cuts(n, budget // (heads * t * t) if len(head_cuts) == 1 else 1)
        return image_cuts, head_cuts, whole, whole
    side = math.isqrt(_ATTN_TILE // 4)
    queries, keys = ([slice(a.start * gw, a.stop * gw) for a in _even_cuts(t // gw, max(1, round(e / gw)))]
                     for e in (2 * side, side))
    return _even_cuts(n, 1), _even_cuts(heads, 1), queries, keys


def _tiles(images: list[slice], heads: list[slice], queries: list[slice], keys: list[slice]):
    """The (images, heads, queries, keys) slices of each attention tile, from
    the cuts of each axis: query blocks outermost and key blocks innermost,
    so that each block of queries meets every key block in turn."""
    for r, h, b, c in itertools.product(queries, heads, images, keys):
        yield b, h, r, c


def _tile_view(scratch: np.ndarray, b: slice, h: slice, r: slice, width: int) -> np.ndarray:
    """The [images, heads, rows, width] view of a tile in the front of the flat ``scratch``."""
    shape = (b.stop - b.start, h.stop - h.start, r.stop - r.start, width)
    return scratch[:math.prod(shape)].reshape(shape)


def _scaled_queries(scratch: np.ndarray, q: np.ndarray, s: float, b: slice, h: slice, r: slice,
                    c: slice) -> np.ndarray:
    """The tile's queries times ``s``, in the front of the flat ``scratch``:
    written at a query block's first key block and read by the later ones."""
    qs = _tile_view(scratch, b, h, r, q.shape[-1])
    if c.start == 0:
        np.multiply(q[b, h, r], s, out=qs)
    return qs


def _logits(z: np.ndarray, qs: np.ndarray, k: np.ndarray, window: np.ndarray | None) -> None:
    """One tile's logits, the scaled queries ``qs`` times k^T plus the bias,
    into ``z``. ``window`` is the tile's [heads, query grid rows, W, key
    grid rows, W] slice of the bias window, or None."""
    np.matmul(qs, k.swapaxes(-1, -2), out=z)
    if window is not None:  # splitting z's last two axes into grid rows keeps a view
        zb = z.reshape(z.shape[:2] + window.shape[1:])
        np.add(zb, window, out=zb)


def _probs_tile(p: np.ndarray, qs: np.ndarray, k: np.ndarray, window: np.ndarray | None,
                rowmax: np.ndarray | None, sums: np.ndarray) -> None:
    """One tile of the probabilities, 2^(logits - m) / sum, into ``p``, from
    the rows' final maximum m (``rowmax``, None when unshifted) and softmax
    sum that the forward pass left; the other arguments are ``_logits``'s."""
    _logits(p, qs, k, window)
    if rowmax is not None:
        p -= rowmax
    np.exp2(p, out=p)
    p /= sums


def attention(qkv: Tensor, heads: int, bias: Tensor | None = None,
              with_probs: bool = False) -> tuple[Tensor, np.ndarray | None]:
    """softmax(q @ k^T / sqrt(d) + B) @ v, one tile at a time.

    ``qkv`` is the [N, T, 3 * heads * d] output of a qkv projection: q, k
    and v in turn along its last axis, each as ``heads`` runs of d channels,
    read in place as strided [N, heads, T, d] views. The optional ``bias``
    is the [heads, 2H-1, 2W-1] table of an H x W grid of T = H * W
    row-major tokens, and
    B[h, i, j] = bias[h, yi - yj + H - 1, xi - xj + W - 1]. A window view of
    the table holds B as [heads, H, W, H, W], so a tile of whole query and
    key grid rows adds one slice of it. Returns the [N, T, heads * d] output
    and the [N, heads, T, T] probabilities when ``with_probs`` is set, else
    None; the probabilities are built only when asked for. A head of more
    than ``_ATTN_TILE`` // 2 logits runs in blocks of about 2s queries by s
    keys, s = sqrt(``_ATTN_TILE`` / 4), in whole grid rows cut evenly. The
    tiles exponentiate in base 2, with log2(e) in the queries' scale and in
    the table's copy. They exponentiate the logits z directly when the
    Cauchy-Schwarz bound on |z| shows that exp(z), the row sums and
    exp(z) @ v stay in range, and otherwise check each tile and shift it by
    its rows' running maximum. A tape keeps the
    output and each row's sum and maximum, not the probabilities.
    Differentiable in ``qkv`` and the table, whose gradient sums dS along
    the table's diagonals; see the module docstring for the tiling and the
    bound.
    """
    if qkv.ndim != 3 or heads < 1 or qkv.shape[2] % (3 * heads) or 0 in qkv.shape[1:]:
        raise ShapeError(f"attention: qkv {qkv.shape} is not [N, T, 3 * {heads} * d] with T, d > 0")
    n, t, channels = qkv.shape
    d = channels // (3 * heads)
    q, k, v = qkv.data.reshape(n, t, 3, heads, d).transpose(2, 0, 3, 1, 4)
    inputs = (qkv,)
    gw = 1  # without a bias a block is any number of tokens
    if bias is not None:
        gh, gw = ((e + 1) // 2 for e in bias.shape[1:]) if bias.ndim == 3 else (0, 0)
        if bias.shape[:1] != (heads,) or not all(e % 2 for e in bias.shape[1:]) or gh * gw != t:
            raise ShapeError(f"attention: bias table {bias.shape} is not [{heads}, 2H-1, 2W-1] "
                             f"for an H x W grid of {t} queries")
        inputs += (bias,)
    dtype = _one_dtype("attention", qkv=qkv, bias=bias)  # before the flipped table is copied
    # the tiles exponentiate in base 2: q's scale and the window carry log2(e)
    window = _bias_window(bias.data) if bias is not None else None
    s = 1.0 / math.sqrt(d)
    q_scale = _LOG2E * s
    table_peak = _max_abs(bias.data) if bias is not None else 0.0
    shift = not _unshifted_exp_fits(q, k, v, s, table_peak, np.finfo(dtype))
    cuts = _attention_cuts(n, heads, t, gw)
    image_cuts, head_cuts, query_cuts, key_cuts = cuts
    rows, keys = query_cuts[0].stop, key_cuts[0].stop  # the longest blocks come first
    tile = (image_cuts[0].stop if image_cuts else 0) * head_cuts[0].stop * rows
    blocked, split = len(key_cuts) > 1, len(query_cuts) > 1
    ones = np.ones((keys, 1), dtype)

    # the output, token-major as the output projection reads it, and each
    # query row's softmax sum and, when shifted, its running maximum; a
    # query block's first key block writes the first two, and later ones
    # add into them through the partial scratch
    out = np.empty((n, t, heads, d), dtype)
    sums = np.empty((n, heads, t, 1), dtype)
    rowmax = np.full((n, heads, t, 1), -np.inf, dtype) if shift else None

    def row_max(b: slice, h: slice, r: slice) -> np.ndarray | None:
        return None if rowmax is None else rowmax[b, h, r]

    z_scratch, q_scratch = np.empty(tile * keys, dtype), np.empty(tile * d, dtype)
    if blocked:
        sum_part, out_part = np.empty(tile, dtype), np.empty(tile * d, dtype)
    for b, h, r, c in _tiles(*cuts):
        z = _tile_view(z_scratch, b, h, r, c.stop - c.start)
        _logits(z, _scaled_queries(q_scratch, q, q_scale, b, h, r, c), k[b, h, c],
                _window_tile(window, gw, h, r, c))
        o, total = out[b, r, h].swapaxes(1, 2), sums[b, h, r]
        if c.start == 0:  # BLAS takes o's and total's row strides as leading dimensions
            _exp_rows(z, ones, total, row_max(b, h, r))
            np.matmul(z, v[b, h, c], out=o)
        else:
            part = _tile_view(sum_part, b, h, r, 1)
            scale = _exp_rows(z, ones, part, row_max(b, h, r))
            if scale is not None:
                total *= scale
                o *= scale
            total += part
            o += np.matmul(z, v[b, h, c], out=_tile_view(out_part, b, h, r, d))
        if c.stop == t:
            o /= total
    probs = np.empty((n, heads, t, t), dtype) if with_probs else None
    if probs is not None:
        for b, h, r, c in _tiles(*cuts):
            _probs_tile(probs[b, h, r, c], _scaled_queries(q_scratch, q, q_scale, b, h, r, c), k[b, h, c],
                        _window_tile(window, gw, h, r, c), row_max(b, h, r), sums[b, h, r])

    def bwd(g):
        g = g.reshape(n, t, heads, d)
        g_dot_o = _row_sums(g * out).transpose(0, 2, 1, 3)  # sum_j dP_ij P_ij = g_i . o_i
        g = g.transpose(0, 2, 1, 3)
        grad = np.empty((n, t, 3, heads, d), dtype)  # laid out as qkv
        gq, gk, gv = grad.transpose(2, 0, 3, 1, 4)
        # one tile's probabilities and dS, its scaled queries, and partial
        # products for dq when key blocks split a head and for dk and dv
        # when query blocks do
        p_scratch, ds_scratch = np.empty((2, tile * keys), dtype)
        q_scratch = np.empty(tile * d, dtype)
        q_part = np.empty(tile * d, dtype) if blocked else None
        kv_part = np.empty(keys * d, dtype) if split else None
        window = None
        if bias is not None:  # the window is rebuilt, so that a tape keeps no flipped copy
            gtable, window = np.zeros(bias.shape, dtype), _bias_window(bias.data)
            qy, ky = rows // gw, keys // gw
            y_scratch = np.empty((ky, qy + ky - 1, gw, gw), dtype)
            x_scratch = np.zeros((gw, qy + ky - 1, 2 * gw - 1), dtype)
        for b, h, r, c in _tiles(*_attention_cuts(n, heads, t, gw)):  # recut, so a tape keeps no cuts
            width = c.stop - c.start
            p, ds = _tile_view(p_scratch, b, h, r, width), _tile_view(ds_scratch, b, h, r, width)
            _probs_tile(p, _scaled_queries(q_scratch, q, q_scale, b, h, r, c), k[b, h, c],
                        _window_tile(window, gw, h, r, c), row_max(b, h, r), sums[b, h, r])
            gt, later = g[b, h, r], None if r.start == 0 else _tile_view(kv_part, b, h, c, d)
            _matmul_into(p.swapaxes(-1, -2), gt, gv[b, h, c], later)
            np.matmul(gt, v[b, h, c].swapaxes(-1, -2), out=ds)
            ds -= g_dot_o[b, h, r]
            ds *= p
            _matmul_into(ds, k[b, h, c], gq[b, h, r], None if c.start == 0 else _tile_view(q_part, b, h, r, d))
            _matmul_into(ds.swapaxes(-1, -2), q[b, h, r], gk[b, h, c], later)
            if bias is not None:  # table rows from displacement first query row - last key row
                if c.start == 0:  # a block of queries starts from zeroed scratch
                    y_scratch.fill(0)
                y0 = (r.start - c.stop) // gw + gh
                gtable[h, y0:y0 + (r.stop - r.start + width) // gw - 1] += _diagonal_sums(
                    ds, gw, y_scratch, x_scratch)
        gq *= s
        gk *= s
        if bias is None:
            return (grad.reshape(qkv.shape),)
        return (grad.reshape(qkv.shape), gtable)

    result = _apply("attention", inputs, out.reshape(n, t, heads * d), bwd)
    return result, probs


def _gelu_into(x: np.ndarray, out: np.ndarray, phi: np.ndarray, square: np.ndarray | None = None) -> None:
    """x * Phi(x) into ``out``, which may be x itself if x is contiguous: Phi
    from scipy's ``erf`` for float64 data, for float32 as 0.5 + 0.5 * tanh(x *
    G(x^2)) by Horner in G's ``_GELU_G`` and one ``tanh`` in place. Runs block
    by block with ufuncs, with x / sqrt(2) (float64) or x^2 in one block of
    scratch: the contiguous ``square``, whose size (at most ``_BLOCK``) sets
    the block, or else a fresh block of ``_BLOCK`` elements.

    ``phi`` receives Phi(x) when it holds at least x.size elements; a
    smaller ``phi`` is block scratch. ``phi`` may be ``out`` unless out is x.
    """
    flat, res, phi = x.reshape(-1), out.reshape(-1), phi.reshape(-1)
    n = flat.size
    keep = phi.size >= n
    if square is None:
        block, scratch = _BLOCK, np.empty(min(n, _BLOCK), x.dtype)
    else:
        scratch = square.reshape(-1)[:_BLOCK]
        block = scratch.size
    # a float32 |x| past about 4e3 takes x * G(x^2) to +-inf, which tanh maps to +-1
    with np.errstate(over="ignore"):
        for lo in range(0, n, block):
            xb = flat[lo:lo + block]
            m = xb.size
            p, u = phi[lo:lo + m] if keep else phi[:m], scratch[:m]
            if xb.dtype != np.float32:
                np.multiply(xb, _INV_SQRT2, out=u)
                erf(u, out=p)
                p += 1.0
            else:
                np.multiply(xb, xb, out=u)
                np.multiply(u, _GELU_G[0], out=p)
                for c in _GELU_G[1:-1]:
                    p += c
                    p *= u
                p += _GELU_G[-1]
                p *= xb
                np.tanh(p, out=p)
                p += 1.0
            p *= 0.5
            np.multiply(xb, p, out=res[lo:lo + m])


def _gelu_slope(x: np.ndarray, cdf: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The GELU slope Phi(x) + x * pdf(x) into the contiguous ``out``, which
    is neither x nor ``cdf``, block by block in place; returns ``out``."""
    xf, cf, of = x.reshape(-1), cdf.reshape(-1), out.reshape(-1)
    for lo in range(0, xf.size, _BLOCK):
        xb, t = xf[lo:lo + _BLOCK], of[lo:lo + _BLOCK]
        np.multiply(xb, xb, out=t)
        t *= -0.5
        np.exp(t, out=t)
        t *= _INV_SQRT_2PI
        t *= xb
        t += cf[lo:lo + _BLOCK]
    return out


def gelu(x: Tensor) -> Tensor:
    """GELU, x * Phi(x) with the normal CDF Phi, by ``_gelu_into``: exact
    through scipy's ``erf`` for float64; for float32 the tanh form of the
    module docstring, within 4 * eps32 * max(|x|, 1) of the exact one. Only a call
    that records on a tape keeps Phi(x); any other takes it in the output."""
    xd = x.data
    out = np.empty(xd.shape, xd.dtype)
    cdf = np.empty_like(out) if _recording_tape((x,)) is not None else out
    _gelu_into(xd, out, cdf)

    def bwd(g):
        slope = _gelu_slope(xd, cdf, np.empty(xd.shape, xd.dtype))
        slope *= g
        return (slope,)

    return _apply("gelu", (x,), out, bwd)


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
                axis: int | None, dx: np.ndarray | None = None,
                gxhat: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dx, dgamma, dbeta) of xhat * gamma + beta for the output gradient
    ``g``, read in the [rows, C] shape of the normalized input ``xhat``, and
    1 / sqrt(var + NORM_EPS) ``inv``, with the statistics taken as
    ``_center`` takes them: along each row (``axis`` -1, layer norm), along
    each column (0, batch norm) or, for None, fixed ones that do not depend
    on x (batch-norm eval).

    dgamma and dbeta are ``_lead_sums``. The two statistic means, of
    g * gamma and of g * gamma * xhat, are matrix-vector products of g and
    g * xhat with gamma / C along rows, and gamma * dbeta / rows and
    gamma * dgamma / rows along columns. dx has g's shape. For ``axis`` -1
    or 0, ``dx`` and ``gxhat``, when given, are arrays of xhat's shape that
    dx and the g * xhat scratch are written into."""
    shape, g = g.shape, g.reshape(xhat.shape)
    gxhat = np.multiply(g, xhat, out=gxhat)
    dgamma, dbeta = _lead_sums(gxhat), _lead_sums(g)
    if axis is None:
        return ((g * (gamma * inv)).reshape(shape), dgamma, dbeta)
    n = g.shape[axis]
    if axis == -1:
        w = (gamma / n).reshape(-1, 1)
        mean_gx, mean_gxhat = g @ w, gxhat @ w
    else:
        mean_gx, mean_gxhat = gamma * dbeta / n, gamma * dgamma / n
    dx = np.multiply(g, gamma, out=dx)
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
    tiles = _even_cuts(m, _MLP_ROWS)
    rows = tiles[0].stop if tiles else 0  # the longest tiles come first
    out = np.empty((m, c), dtype)
    # the hidden tile, which holds the layer norm's squares until fc1 writes it
    pre = np.empty(rows * max(hidden, c), dtype)
    # GELU's x^2 block is the output tile, dead from fc1 to fc2, unless that
    # tile is so small that GELU would run many more, shorter passes: the
    # toy's 512 x 16 tiles would take 4 passes of 8192 elements for 1 of
    # 32768, and borrowing them anyway cost 1.6-2.2 ms of a 52-58-ms toy
    # train step (paired medians of 80, fork faster in 58 and 63 of 80) and
    # its stage-1 taped call 4.9-5.2 -> 6.2-6.4 ms (2-vCPU x86-64)
    shared = rows * c >= _BLOCK // 2
    block = min(rows * c, _BLOCK) if shared else _BLOCK
    # under a tape the statistics and the cdf are kept in full; else the cdf is block scratch
    keep = m if tape is not None else rows
    mu, inv = np.empty((keep, 1), dtype), np.empty((keep, 1), dtype)
    cdf = np.empty((m, hidden) if tape is not None else min(rows * hidden, block), dtype)
    for tile in tiles:
        r0, r1 = tile.start, tile.stop
        k0, k1 = (r0, r1) if tape is not None else (0, r1 - r0)
        xt, o, scale = xf[tile], out[tile], inv[k0:k1]
        h = pre[:(r1 - r0) * hidden].reshape(r1 - r0, hidden)
        _center(xt, -1, o, pre[:(r1 - r0) * c].reshape(r1 - r0, c), mu[k0:k1], scale)
        _scale_shift(o, scale, scale, gamma.data, beta.data)
        np.matmul(o, w1.data, out=h)
        h += b1.data
        _gelu_into(h, h, cdf[tile] if tape is not None else cdf, o if shared else None)
        np.matmul(h, w2.data, out=o)
        o += b2.data
        o += xt

    def bwd(g):
        g = g.reshape(m, c)
        dx = np.empty((m, c), dtype)
        dgamma, dbeta, gb1 = np.zeros(c, dtype), np.zeros(c, dtype), np.zeros(hidden, dtype)
        gw1, gw2 = np.empty((c, hidden), dtype), np.empty((hidden, c), dtype)
        # two hidden-size tiles, each wide enough to hold a [rows, C] one too
        pre, gpre = np.empty((2, rows * max(hidden, c)), dtype)
        xhat, normed = np.empty((2, rows, c), dtype)
        partial = np.empty(c * hidden, dtype) if m > rows else None  # later tiles' weight products
        for tile in _even_cuts(m, _MLP_ROWS):
            r0, r1 = tile.start, tile.stop
            gw2_partial, gw1_partial = (None, None) if r0 == 0 else \
                (partial.reshape(hidden, c), partial.reshape(c, hidden))
            gt, phi, scale = g[r0:r1], cdf[r0:r1], inv[r0:r1]
            h, gh = (a[:(r1 - r0) * hidden].reshape(r1 - r0, hidden) for a in (pre, gpre))
            xh, ln = xhat[:r1 - r0], normed[:r1 - r0]
            # the forward's layer norm, fc1 product and bias add, op for op, so h
            # has the bits the forward's GELU read
            np.subtract(xf[r0:r1], mu[r0:r1], out=xh)
            xh *= scale
            np.multiply(xh, gamma.data, out=ln)
            ln += beta.data
            np.matmul(ln, w1.data, out=h)
            h += b1.data
            # the GELU output for fc2's weight gradient, then its slope, both in gh
            _matmul_into(np.multiply(h, phi, out=gh).T, gt, gw2, gw2_partial)
            _gelu_slope(h, phi, gh)
            gh *= np.matmul(gt, w2.data.T, out=h)  # fc2's input gradient, into the freed h
            _matmul_into(ln.T, gh, gw1, gw1_partial)
            gb1 += _lead_sums(gh)
            # the layer-norm gradient: its input in the freed ln, its g * xhat in
            # the freed h, and dx written in place
            _, dgt, dbt = _norm_grads(np.matmul(gh, w1.data.T, out=ln), xh, scale, gamma.data, -1,
                                      dx[r0:r1], pre[:(r1 - r0) * c].reshape(r1 - r0, c))
            dgamma += dgt
            dbeta += dbt
            dx[r0:r1] += gt
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


def _bilinear_corners(pos: np.ndarray, h: int, w: int) -> tuple[csr_array, np.ndarray, np.ndarray]:
    """(S, fy, fx) of [N, M, 2] (y, x) positions on N maps of h x w pixels.

    S is the [N*M, N*h*w] CSR matrix of each sample's four corner weights
    fy * fx, in the order (y0, x0), (y0, x0 + 1), (y0 + 1, x0),
    (y0 + 1, x0 + 1); fy and fx are their [N, M, 4] factors, both zero at a
    corner off the map. An off-map corner's column is that of the nearest
    pixel, as ``np.ravel_multi_index``'s mode "clip" gives. The indices are
    built in int32 (int64 past 2**31 pixels), one axis plane at a time: a
    floor more than a pixel off the map is first clipped to one pixel off,
    which leaves both its corners off and the cast in range.
    """
    n = pos.shape[0]
    index, unsigned = (np.int32, np.uint32) if n * h * w < 2 ** 31 else (np.int64, np.uint64)
    fy = np.empty(pos.shape[:2] + (4,), pos.dtype)
    fx = np.empty_like(fy)
    cols = np.empty(fy.shape, index)
    planes = []
    for axis, extent in ((0, h), (1, w)):
        p = pos[..., axis]
        lo = np.floor(p)
        frac = p - lo
        # np.maximum and np.minimum, not np.clip, whose Python wrapper fills a
        # cache of ~10 KB over its first hundred calls that a traced peak counts
        c0 = np.minimum(np.maximum(lo, -2, out=lo), extent, out=lo).astype(index)
        c1 = c0 + 1
        # negative corners wrap to large unsigned values, so one test finds both edges
        on_map = [c.view(unsigned) < extent for c in (c0, c1)]
        for c in (c0, c1):
            np.minimum(np.maximum(c, 0, out=c), extent - 1, out=c)
        planes.append(((1.0 - frac, frac), on_map, (c0, c1)))
    (wy, vy, cy), (wx, vx, cx) = planes
    base = (np.arange(n, dtype=index) * (h * w))[:, None]
    starts = [base + c * w for c in cy]
    for corner, (a, b) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        inside = vy[a] & vx[b]
        np.multiply(wy[a], inside, out=fy[..., corner])
        np.multiply(wx[b], inside, out=fx[..., corner])
        np.add(starts[a], cx[b], out=cols[..., corner])
    sample = csr_array(((fy * fx).reshape(-1), cols.reshape(-1), np.arange(0, cols.size + 1, 4, dtype=index)),
                       shape=(cols.size // 4, n * h * w))
    return sample, fy, fx


def deform_sample(x: Tensor, positions: Tensor) -> Tensor:
    """Bilinear samples of an NHWC map at fractional positions.

    ``positions`` has shape [N, Ho, Wo, K, 2] with (y, x) in input pixel
    units; out-of-bounds neighbors contribute zero. Output is
    [N, Ho, Wo, K, C]. Differentiable in ``x`` and ``positions``.

    S, a [N*Ho*Wo*K, N*H*W] CSR matrix, holds each sample's four corner
    weights, zero off the map. The output is S @ x, the input gradient
    S^T @ g, and each position gradient sum_C(g * (S_d @ x)), where S_d
    has S's pattern and the weights' derivatives in y or x. A tape keeps
    the positions, not S: the backward pass rebuilds S and the weights by
    ``_bilinear_corners``, as the forward built them.
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
    flat = x.data.reshape(-1, c)
    out = (_bilinear_corners(pos, h, w)[0] @ flat).reshape(positions.shape[:-1] + (c,))

    def bwd(g):
        g = g.reshape(-1, c)
        sample, fy, fx = _bilinear_corners(pos, h, w)
        # d(fy * fx) / dy is fx with its y0 corners negated, d / dx fy with its
        # x0 ones, one strided corner plane at a time (np.negative in place on
        # such a float32 view reads the wrong elements on numpy 2.4)
        dy, dx = fx.copy(), fy.copy()
        for d, corners in ((dy, (0, 1)), (dx, (0, 2))):
            for corner in corners:
                d[..., corner] *= -1
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
