"""Forward-path contracts of the tensor primitives against independent
oracles."""

import importlib
import math
import warnings
from contextlib import contextmanager
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erf

from helpers import (FD_STEP, GRAD_TOL, attention_gradients_loop, attention_loop, bilinear_scalar,
                     check_gradients, conv2d_loop, conv2d_weight_grad_loop, dot, grad_rel_error,
                     kept_by_node, matmul_loop, relative_index_loop, traced_bytes)
from litnet.data import synthetic_dataset
from litnet.errors import NumericError, ShapeError, StateError
from litnet.model import build, toy_config
from litnet.tensor import (_ATTN_TILE, _BLOCK, NORM_EPS, BatchNormState, Tape, Tensor, add,
                           attention, batch_norm, conv2d, deform_sample, gather_last, gelu,
                           layer_norm, matmul, mean_axis, reshape, residual_mlp, softmax,
                           softmax_cross_entropy, tensor)
from litnet.train import AdamW, train_step

# the module itself: the package binds ``litnet.tensor`` to the tensor() factory
tensor_module = importlib.import_module("litnet.tensor")

EPS32 = float(np.finfo(np.float32).eps)
EPS64 = float(np.finfo(np.float64).eps)

# frozen with mpmath at 50 digits: gelu(1) = 1 * Phi(1)
GELU_AT_ONE = 0.8413447460685429


def test_matmul_identity():
    a = tensor(np.eye(2))
    b = tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(matmul(a, b).data, b.data)


def test_matmul_orthogonal_selection():
    a = tensor([[1.0, 0.0]])
    b = tensor([[0.0], [5.0]])
    assert np.array_equal(matmul(a, b).data, [[0.0]])


@pytest.mark.parametrize("with_bias", [False, True], ids=["plain", "bias"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("a_shape", [(4, 3), (2, 3, 5, 3)], ids=["2d", "4d"])
def test_matmul_matches_loop_oracle(a_shape, dtype, with_bias):
    # a 4-d input times the 2-d weight runs as one GEMM over its 30 rows; a
    # float32 sum of n terms stays within n * eps32 of the sum of their magnitudes
    rng = np.random.default_rng(1)
    a = rng.normal(size=a_shape)
    b = rng.normal(size=(3, 5))
    c = rng.normal(size=5) if with_bias else np.zeros(5)
    got = matmul(tensor(a, dtype), tensor(b, dtype), tensor(c, dtype) if with_bias else None).data
    assert got.dtype == dtype and got.shape == (*a_shape[:-1], 5)
    want = matmul_loop(a.reshape(-1, 3), b).reshape(got.shape) + c
    if dtype == np.float64:
        assert np.abs(got - want).max() < 1e-12
    else:
        magnitude = np.abs(a) @ np.abs(b) + np.abs(c)
        assert (np.abs(got - want) <= 4 * EPS32 * magnitude).all()


def test_matmul_shape_error_reports_both_shapes():
    with pytest.raises(ShapeError) as exc:
        matmul(tensor(np.zeros((2, 3))), tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)


@pytest.mark.parametrize("dtype,bias_dtype", [(np.float32, np.float32), (np.float64, np.float64),
                                              (np.float32, np.float64), (np.float64, np.float32)])
@pytest.mark.parametrize("a_shape", [(5, 3), (2, 5, 3)], ids=["2d", "3d"])
def test_matmul_bias_is_bit_equal_to_adding_it_after(a_shape, dtype, bias_dtype):
    rng = np.random.default_rng(2)
    a, w = (tensor(rng.normal(size=s), dtype=dtype) for s in (a_shape, (3, 4)))
    bias = tensor(rng.normal(size=4), dtype=bias_dtype)
    if dtype != bias_dtype:  # the model runs in one dtype; a mix is refused
        with pytest.raises(ShapeError, match="^matmul: a, b and bias mix float32 and float64$"):
            matmul(a, w, bias)
        return
    got, want = matmul(a, w, bias).data, add(matmul(a, w), bias).data
    assert got.dtype == want.dtype == dtype
    assert got.tobytes() == want.tobytes()


def test_a_non_contiguous_input_times_a_2d_weight_gives_the_product_and_gradients():
    # a transposed view is not C-contiguous, so the product and the input
    # gradient take numpy's stacked product; the gradients equal those of the
    # contiguous copy, whose path passes the finite-difference check in
    # test_autodiff.py
    rng = np.random.default_rng(53)
    base = rng.normal(size=(2, 5, 3, 16))
    w, b, probe = rng.normal(size=(16, 7)), rng.normal(size=7), rng.normal(size=(2, 3, 5, 7))
    view = base.swapaxes(1, 2)
    assert not view.flags.c_contiguous
    grads = []
    for data in (view, np.ascontiguousarray(view)):
        a, wt, bt = Tensor(data, requires_grad=True), tensor(w, requires_grad=True), \
            tensor(b, requires_grad=True)
        with Tape() as tape:
            out = matmul(a, wt, bt)
            loss = dot(Tensor(probe), out)
        want = matmul_loop(data.reshape(-1, 16), w).reshape(out.shape) + b
        assert np.abs(out.data - want).max() < 1e-12
        tape.backward(loss)
        grads.append((a.grad, wt.grad, bt.grad))
    for got, want in zip(*grads):
        assert np.abs(got - want).max() < 1e-12
    assert np.abs(grads[0][0] - probe @ w.T).max() < 1e-12


def test_a_2d_weight_takes_a_non_contiguous_output_gradient():
    rng = np.random.default_rng(54)
    a = Tensor(rng.normal(size=(2, 3, 5, 16)), requires_grad=True)
    w = tensor(rng.normal(size=(16, 7)), requires_grad=True)
    g = rng.normal(size=(2, 5, 3, 7)).swapaxes(1, 2)
    with Tape() as tape:
        matmul(a, w)
    (_, _, backward), = tape._nodes
    ga, gw = backward(g)
    assert np.abs(ga - g @ w.data.T).max() < 1e-12
    assert np.abs(gw - a.data.reshape(-1, 16).T @ g.reshape(-1, 7)).max() < 1e-12


def test_a_contiguous_4d_input_times_a_2d_weight_allocates_only_its_output():
    # the [1, 28, 28, 384] @ [384, 192] product of lit-s's first merge
    rng = np.random.default_rng(55)
    a = Tensor(rng.normal(size=(1, 28, 28, 384)).astype(np.float32))
    w = Tensor(rng.normal(size=(384, 192)).astype(np.float32))
    matmul(a, w)  # warm-up
    kept, peak = traced_bytes(lambda: matmul(a, w))
    out_bytes = 28 * 28 * 192 * 4
    assert out_bytes <= kept <= peak <= out_bytes + 2 ** 12


@pytest.mark.parametrize("bias_shape", [(5,), (1, 4)])
def test_matmul_rejects_a_bias_that_does_not_fit(bias_shape):
    with pytest.raises(ShapeError, match="bias shape"):
        matmul(tensor(np.zeros((2, 3))), tensor(np.zeros((3, 4))), tensor(np.zeros(bias_shape)))


def test_matmul_names_itself_for_a_non_finite_bias():
    with pytest.raises(NumericError, match="non-finite values produced by matmul"):
        matmul(tensor(np.zeros((2, 3))), tensor(np.zeros((3, 4))), tensor([0.0, np.nan, 0.0, 0.0]))


@pytest.mark.parametrize("axis", [3, -4])
def test_mean_axis_rejects_an_axis_outside_the_rank(axis):
    with pytest.raises(ShapeError, match="mean_axis: axis"):
        mean_axis(tensor(np.ones((2, 3, 4))), axis)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mean_axis_keeps_the_dtype_down_to_a_scalar(dtype):
    # a 0-d product is a numpy scalar, which Tensor would widen to float64
    x = Tensor(np.arange(4.0, dtype=dtype), requires_grad=True)
    with Tape() as tape:
        out = mean_axis(x, 0)
    tape.backward(out)
    assert out.dtype == x.grad.dtype == dtype and out.item() == 1.5


def test_softmax_symmetry():
    out = softmax(tensor([0.0, 0.0])).data
    assert np.allclose(out, [0.5, 0.5], atol=1e-15)


def test_softmax_stability_at_large_logits():
    out = softmax(tensor([1000.0, 0.0])).data
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(1.0, abs=1e-12)


def test_softmax_matches_extended_precision_oracle():
    rng = np.random.default_rng(2)
    x = rng.normal(size=5)
    got = softmax(tensor(x)).data
    xl = x.astype(np.longdouble)
    e = np.exp(xl)
    want = (e / e.sum()).astype(np.float64)
    assert np.abs(got - want).max() < 1e-12


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    out = softmax(tensor(rng.normal(size=(4, 7, 9)))).data
    assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-12
    assert np.all(out > 0)


def test_softmax_rejects_non_finite_input():
    with pytest.raises(NumericError):
        softmax(tensor([np.inf, 0.0]))


def test_softmax_allocates_only_its_output():
    x = np.random.default_rng(28).normal(size=(1, 3, 1024, 1024)).astype(np.float32)
    _, peak = traced_bytes(lambda: softmax(Tensor(x)))
    assert peak <= x.nbytes + 2 ** 20  # the output is x's size


def attention_inputs(rng, n, heads, t, d, dtype=np.float32):
    """[N, heads, T, d] queries, keys and values."""
    return tuple(rng.normal(size=(n, heads, t, d)).astype(dtype) for _ in range(3))


def merge_heads(x):
    """[N, heads, T, d] as [N, T, heads * d], each token's heads side by side."""
    n, heads, t, d = x.shape
    return x.transpose(0, 2, 1, 3).reshape(n, t, heads * d)


def split_heads(x, heads):
    """[N, T, heads * d] as [N, heads, T, d]."""
    n, t, channels = x.shape
    return x.reshape(n, t, heads, channels // heads).transpose(0, 2, 1, 3)


def pack_qkv(q, k, v):
    """The [N, T, 3 * heads * d] qkv projection that ``attention`` reads q, k and v from."""
    return np.concatenate([merge_heads(a) for a in (q, k, v)], axis=-1)


def bias_table(rng, heads, grid, dtype=np.float32):
    """A random [heads, 2H-1, 2W-1] relative bias table of an H x W grid."""
    h, w = grid
    return rng.normal(size=(heads, 2 * h - 1, 2 * w - 1)).astype(dtype)


def dense_bias(table):
    """The [T, T] bias of a [2H-1, 2W-1] table, indexed by displacement:
    entry [(yi, xi), (yj, xj)] is table[yi - yj + H - 1, xi - xj + W - 1]."""
    h, w = (table.shape[0] + 1) // 2, (table.shape[1] + 1) // 2
    dy = np.arange(h)[:, None, None, None] - np.arange(h)[:, None] + h - 1
    dx = np.arange(w)[:, None, None] - np.arange(w) + w - 1
    return table[dy, dx].reshape(h * w, h * w)


def unfused_attention(q, k, v, table=None):
    """float64 (output, probabilities) of the unfused path, one head at a
    time: logits of the scaled queries and a contiguous k^T, plus the dense
    bias, a full-row max-shifted softmax, then @ v. Computing in float64
    keeps the reference's own rounding out of a float32 result's error."""
    q, k, v = (a.astype(np.float64) for a in (q, k, v))
    table = None if table is None else table.astype(np.float64)
    s = 1.0 / math.sqrt(q.shape[-1])
    out = np.empty(q.shape[:3] + v.shape[3:])
    probs = np.empty(q.shape[:3] + k.shape[2:3])
    for b, h in np.ndindex(q.shape[:2]):
        z = (q[b, h] * s) @ np.ascontiguousarray(k[b, h].T)
        if table is not None:
            z += dense_bias(table[h])
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        probs[b, h] = e / e.sum(axis=-1, keepdims=True)
        out[b, h] = probs[b, h] @ v[b, h]
    return out, probs


def run_attention(q, k, v, table=None, with_probs=False):
    """``attention`` of [N, heads, T, d] q, k and v packed into one projection:
    the output as [N, heads, T, d], and the probabilities or None."""
    bias = None if table is None else Tensor(table)
    out, probs = attention(Tensor(pack_qkv(q, k, v)), q.shape[1], bias, with_probs=with_probs)
    return split_heads(out.data, q.shape[1]), probs


# Tiles round their matrix products differently from one full-size
# product, so the float32 output is not bit-identical to the unfused path.
# It stays within this many float32 ulps of max(P @ |v|), the largest sum
# of |terms| behind one output, against the float64 unfused path. With the
# base-2 exponent and even blocks, the worst measured over this file's
# float32 stage-shape and TILE_EDGES inputs was 5.11 on the unshifted exp
# path (heads_not_dividing without a bias) and 3.97 on the shifted one
# (stage 1's shape); over the four stage shapes at seeds 21-25, 6.10 and
# 5.50 (stage 3's shape, seed 23). Before them: 4.75 and 4.72; 6.04 and 4.88.
ATTENTION_ULPS = 8


def attention_ulps(got, want, probs, v) -> float:
    return float(np.abs(got - want).max() / (EPS32 * (probs @ np.abs(v)).max()))


@contextmanager
def exp_path(path=None):
    """Spy on ``_exp_rows`` and yield, for each tile ``attention`` gives it,
    whether the tile is shifted. On the "shifted" path the call's bound is
    made to refuse the unshifted exp, so every tile subtracts its rows'
    running maximum, which is safe for any logits; the "unshifted" path
    asserts at exit that every tile took exp(z) directly, as O(1) inputs
    do; None only records."""
    shifts = []
    exp_rows, fits = tensor_module._exp_rows, tensor_module._unshifted_exp_fits

    def spy(z, ones, sums, rowmax):
        shifts.append(rowmax is not None)
        return exp_rows(z, ones, sums, rowmax)

    with mock.patch.object(tensor_module, "_exp_rows", spy), mock.patch.object(
            tensor_module, "_unshifted_exp_fits", (lambda *args: False) if path == "shifted" else fits):
        yield shifts
    if path == "unshifted":
        assert shifts and not any(shifts)


# each oracle test below runs both paths on the same inputs
EXP_PATHS = ["unshifted", "shifted"]


def test_attention_matches_the_loop_oracle():
    rng = np.random.default_rng(20)
    q, k, v = attention_inputs(rng, 2, 3, 6, 4, np.float64)
    table = bias_table(rng, 3, (2, 3), np.float64)
    want = attention_loop(q, k, v, table)
    for path in EXP_PATHS:
        with exp_path(path):
            got, _ = run_attention(q, k, v, table)
        assert np.abs(got - want).max() < 1e-12, path


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n,heads,grid", [(1, 3, 56), (1, 6, 28), (1, 12, 14), (2, 16, 7)],
                         ids=["stage1", "stage2", "stage3", "stage4"])
def test_attention_with_relative_bias_matches_the_unfused_path(dtype, n, heads, grid):
    rng = np.random.default_rng(21)
    q, k, v = attention_inputs(rng, n, heads, grid * grid, 32, dtype)
    table = bias_table(rng, heads, (grid, grid), dtype)
    want, probs = unfused_attention(q, k, v, table)
    for path in EXP_PATHS:
        with exp_path(path):
            got, _ = run_attention(q, k, v, table)
        assert got.dtype == dtype
        if dtype == np.float64:
            assert np.abs(got - want).max() < 1e-12, path
        else:
            assert attention_ulps(got, want, probs, v) <= ATTENTION_ULPS, path


# [N, heads, T] without a bias and [N, heads, (H, W)] with one, each with the
# _ATTN_TILE it runs under. A head of T * T logits within half the tile is
# one tile, with more heads or images when they fit; a larger one is cut
# into blocks of about 2s queries by s keys, s = isqrt(tile // 4), in whole
# grid rows under a bias (at least one). Each axis is cut evenly: n =
# ceil(R / target) blocks of ceil(R / n) or floor(R / n), longer first
TILE_EDGES = {
    "t1": ((2, 3, 1, _ATTN_TILE), (2, 3, (1, 1), _ATTN_TILE)),                    # T = 1
    # a head fills half its tile exactly
    "head_fills_tile": ((1, 2, 64, 2 * 64 * 64), (1, 2, (32, 32), 2 ** 21)),
    # 8 blocks of 50 queries by 10 of 27 and 5 of 26 keys; at the default
    # tile a 25 x 48 grid takes 13 then 12 query rows by 7, 6, 6 and 6 key rows
    "rows_not_dividing": ((1, 2, 400, 3000), (1, 2, (25, 48), _ATTN_TILE)),
    # a query's 40 logits are longer than the tile: blocks of 4 queries by 2
    # keys; an 800-token grid row is longer than a block of either side
    "row_longer_than_tile": ((1, 1, 40, 30), (1, 1, (2, 800), _ATTN_TILE)),
    # N > 1, one tile spans all heads of all images
    "tile_spans_heads": ((3, 4, 16, _ATTN_TILE), (3, 4, (4, 4), _ATTN_TILE)),
    # tiles of two heads, then one
    "heads_not_dividing": ((2, 3, 400, 4 * 400 * 400), (2, 3, (20, 24), 2 * _ATTN_TILE)),
    # tiles of two images, two and one
    "images_not_dividing": ((5, 2, 256, _ATTN_TILE), (5, 2, (16, 16), _ATTN_TILE)),
    # queries 20 + 20 by keys 14 + 13 + 13; grid query rows 5 + 5 by key rows 3 + 3 + 2 + 2
    "keys_not_dividing": ((1, 2, 40, 1024), (1, 2, (10, 6), 1024)),
    # queries 10 by keys 5; grid query rows 2 by one key row
    "one_key_row": ((1, 2, 30, 100), (1, 2, (6, 10), 400)),
    # even cuts leave no short last block: queries 3 x 15 by keys 5 x 9;
    # grid query rows 3 x 3 by key rows 4 x 2 + 1
    "last_blocks_partial": ((1, 2, 45, 400), (1, 2, (9, 8), 1024)),
    # N > 1 with key blocks: queries 15 + 15 by keys 10; grid query rows 3 + 3 by key rows 2
    "images_key_blocks": ((3, 2, 30, 400), (3, 2, (6, 5), 400)),
    # a 40-token grid row is longer than a block of 20 queries or 10 keys:
    # blocks of one grid row each; without a bias, 4 queries by 2 keys
    "grid_row_longer_than_block": ((1, 2, 12, 20), (1, 2, (3, 40), 400)),
}


def tile_edge(case, with_bias):
    """(n, heads, T, tile, grid) of a TILE_EDGES case; grid is None without a bias."""
    plain, (n, heads, grid, tile) = TILE_EDGES[case]
    return (n, heads, grid[0] * grid[1], tile, grid) if with_bias else (*plain, None)


@pytest.mark.parametrize("with_bias", [False, True], ids=["plain", "bias"])
@pytest.mark.parametrize("case", TILE_EDGES)
def test_attention_tile_edges_match_the_unfused_path(case, with_bias):
    rng = np.random.default_rng(22)
    n, heads, t, tile, grid = tile_edge(case, with_bias)
    for dtype in (np.float32, np.float64):
        q, k, v = attention_inputs(rng, n, heads, t, 8, dtype)
        table = bias_table(rng, heads, grid, dtype) if with_bias else None
        want, probs = unfused_attention(q, k, v, table)
        for path in EXP_PATHS:
            with mock.patch.object(tensor_module, "_ATTN_TILE", tile), exp_path(path):
                got, _ = run_attention(q, k, v, table)
            if dtype == np.float64:
                assert np.abs(got - want).max() < 1e-12, path
            else:
                assert attention_ulps(got, want, probs, v) <= ATTENTION_ULPS, path


def attention_cuts(q, k, v, table=None):
    """The (images, heads, queries, keys) cuts that ``attention`` tiles
    q, k and v by, read from its ``_tiles`` call."""
    seen, tiles = [], tensor_module._tiles

    def spy(*cuts):
        seen.append(cuts)
        return tiles(*cuts)

    with mock.patch.object(tensor_module, "_tiles", spy):
        run_attention(q, k, v, table)
    (cuts,) = seen
    return cuts


def assert_even(cuts, total, unit=1):
    """``cuts`` tile range(total) in order, in runs of whole ``unit``s whose
    lengths differ by at most one unit, the longer ones first."""
    assert cuts[0].start == 0 and cuts[-1].stop == total
    assert all(a.stop == b.start for a, b in zip(cuts, cuts[1:]))
    lengths = [c.stop - c.start for c in cuts]
    assert all(n % unit == 0 for n in lengths)
    assert lengths == sorted(lengths, reverse=True) and lengths[0] - lengths[-1] <= unit


@pytest.mark.parametrize("n,heads,t", [(1, 12, 196), (4, 24, 49), (1, 3, 512), (9, 3, 100), (2, 7, 300)],
                         ids=["lit_s_stage3", "lit_s_stage4_batch4", "head_fills_half", "images_split",
                              "heads_split"])
def test_a_whole_head_tile_holds_at_most_half_an_attention_tile(n, heads, t):
    # heads of at most _ATTN_TILE // 2 logits are tiled whole, as many heads
    # or images together as fit in that budget, cut evenly. At lit-s's
    # stage 3 a tile of all 12 heads held 0.46M logits (1.76 MiB of float32)
    sizes = []
    exp_rows = tensor_module._exp_rows

    def spy(z, ones, sums, rowmax):
        sizes.append(z.size)
        return exp_rows(z, ones, sums, rowmax)

    q, k, v = attention_inputs(np.random.default_rng(42), n, heads, t, 4)
    with mock.patch.object(tensor_module, "_exp_rows", spy):
        run_attention(q, k, v)
    assert sizes and max(sizes) <= _ATTN_TILE // 2
    images, head_cuts, queries, keys = attention_cuts(q, k, v)
    assert queries == keys == [slice(0, t)]
    assert_even(images, n)
    assert_even(head_cuts, heads)


@pytest.mark.parametrize("grid", [(56, 56), (28, 28), (43, 37)],
                         ids=["lit_s_stage1", "lit_s_stage2", "prime_width"])
@pytest.mark.parametrize("with_bias", [False, True], ids=["plain", "bias"])
def test_a_cut_head_takes_even_blocks(grid, with_bias):
    # R grid rows (tokens without a bias) go into n = ceil(R / target)
    # blocks of ceil(R / n) or floor(R / n): at 56 x 56, query blocks of 12
    # and 11 grid rows and key blocks of 6 and 5, where whole 13- and 6-row
    # blocks left 4- and 2-row stubs
    h, w = grid
    rng = np.random.default_rng(43)
    q, k, v = attention_inputs(rng, 1, 1, h * w, 4)
    table = bias_table(rng, 1, grid) if with_bias else None
    images, heads, queries, keys = attention_cuts(q, k, v, table)
    unit = w if with_bias else 1
    side = math.isqrt(_ATTN_TILE // 4)
    for cuts, target in ((queries, 2 * side), (keys, side)):
        assert_even(cuts, h * w, unit)
        assert len(cuts) == -(-(h * w // unit) // max(1, round(target / unit)))


def test_attention_on_a_tape_equals_the_eval_result():
    rng = np.random.default_rng(23)
    q, k, v = attention_inputs(rng, 2, 3, 40, 8)
    table = bias_table(rng, 3, (5, 8))
    with Tape():
        taped, taped_probs = attention(Tensor(pack_qkv(q, k, v), requires_grad=True), 3,
                                       Tensor(table, requires_grad=True), with_probs=True)
    got, probs = run_attention(q, k, v, table, with_probs=True)
    plain, no_probs = run_attention(q, k, v, table)
    assert split_heads(taped.data, 3).tobytes() == got.tobytes() == plain.tobytes()
    assert taped_probs.tobytes() == probs.tobytes()
    assert no_probs is None


@pytest.mark.parametrize("where,bad,message", [
    ("q", np.nan, "attention logits"), ("k", np.inf, "attention logits"),
    ("q", -np.inf, "attention logits"), ("table", np.nan, "attention logits"),
    ("table", -np.inf, "attention logits"), ("overflow", np.float32(3e38), "attention logits"),
    ("neg_overflow", np.float32(-3e38), "attention logits"), ("v", np.nan, "produced by attention"),
], ids=["q_nan", "k_pos_inf", "q_neg_inf", "table_nan", "table_neg_inf",
        "bias_overflows_a_logit", "neg_overflow", "v_nan"])
def test_attention_rejects_non_finite_values(where, bad, message):
    rng = np.random.default_rng(24)
    q, k, v = attention_inputs(rng, 1, 2, 30, 4)
    table = bias_table(rng, 2, (5, 6))
    # token 29 at (4, 5) lies (4, 2) from token 3 at (0, 3): slot [4 + 4, 2 + 5]
    if where.endswith("overflow"):  # a logit of +-1e38 plus a bias of +-3e38 is past float32's range
        q[0, 1, 29], k[0, 1, 3] = [1e19, 0, 0, 0], [np.sign(bad) * 2e19, 0, 0, 0]
        table[1, 8, 7] = bad
    elif where == "table":
        table[1, 8, 7] = bad
    else:
        {"q": q, "k": k, "v": v}[where][0, 1, 29, 3] = bad
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError, match=message):
        run_attention(q, k, v, table)


def test_attention_checks_each_tile_when_the_logit_bound_is_too_large():
    # max_i |q_i| = max_j |k_j| = 1e19 put the Cauchy-Schwarz bound past
    # exp's range, so every tile shifts and is checked, but the large
    # entries meet only zeros, so every logit stays small
    rng = np.random.default_rng(29)
    q, k, v = attention_inputs(rng, 1, 2, 30, 4)
    table = bias_table(rng, 2, (5, 6))
    q[..., 0], k[..., 1] = 0.0, 0.0
    q[0, 1, 7, 1], k[0, 0, 11, 0] = 1e19, 1e19
    flags = []
    exp_rows = tensor_module._exp_rows

    def spy(z, ones, sums, rowmax):
        flags.append(rowmax is not None)
        return exp_rows(z, ones, sums, rowmax)

    with mock.patch.object(tensor_module, "_exp_rows", spy):
        got, _ = run_attention(q, k, v, table)
    assert flags and all(flags)
    want, probs = unfused_attention(q, k, v, table)
    assert attention_ulps(got, want, probs, v) <= ATTENTION_ULPS


@pytest.mark.parametrize("entry,v_peak", [(200.0, None), (30.0, 1e30)],
                         ids=["table_entry_200", "v_peak_1e30"])
def test_attention_shifts_when_unshifted_exp_could_overflow(entry, v_peak):
    # exp(200) is past float32's range; exp(30) is not, but exp(30) * 1e30
    # in exp(z) @ v is, so the norm bound alone would not see it
    rng = np.random.default_rng(31)
    q, k, v = attention_inputs(rng, 1, 2, 30, 4)
    table = bias_table(rng, 2, (5, 6))
    table[1, 8, 7] = entry
    if v_peak is not None:
        v *= np.float32(v_peak) / np.abs(v).max()
    with exp_path() as shifts:
        got, _ = run_attention(q, k, v, table)
    assert shifts and all(shifts)
    assert np.isfinite(got).all()
    want, probs = unfused_attention(q, k, v, table)
    assert attention_ulps(got, want, probs, v) <= ATTENTION_ULPS


# a 6 x 5 grid under a 400-logit tile: query blocks of 3 and 3 grid rows,
# each meeting key blocks of grid rows 0-1, 2-3 and 4-5 in turn
LATER_BLOCKS = (6, 5), 400


@pytest.mark.parametrize("path", ["shifted", "unshifted"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("where", ["q", "k", "table"])
def test_attention_refuses_a_non_finite_value_met_in_a_later_block(where, bad, path):
    # q: query 29 lies in the second query block; k: key 29 in the last key
    # block; table row 3 is displacement dy = -2, which every query meets
    # only in key rows 2-5. The shifted path checks each tile and refuses
    # one after the first; with the unshifted exp forced, the value reaches
    # the output, whose check refuses it
    rng = np.random.default_rng(39)
    grid, tile = LATER_BLOCKS
    q, k, v = attention_inputs(rng, 1, 2, 30, 4)
    table = bias_table(rng, 2, grid)
    if where == "table":
        table[1, 3, 4] = bad
    else:
        {"q": q, "k": k}[where][0, 1, 29, 3] = bad
    with mock.patch.object(tensor_module, "_ATTN_TILE", tile), exp_path() as shifts, \
            mock.patch.object(tensor_module, "_unshifted_exp_fits", lambda *args: path == "unshifted"), \
            np.errstate(invalid="ignore", over="ignore"), pytest.raises(NumericError, match="attention"):
        run_attention(q, k, v, table)
    assert len(shifts) > 1 and all(shifts) == (path == "shifted")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_rescales_when_the_row_maximum_rises_in_a_later_key_block(dtype):
    # key channel 0 grows by 20 per key block and every query's channel 0 is
    # 1, so each later key block raises every row's maximum
    rng = np.random.default_rng(40)
    grid, tile = LATER_BLOCKS
    q, k, v = attention_inputs(rng, 1, 2, 30, 4, dtype)
    table = bias_table(rng, 2, grid, dtype)
    q[..., 0] = 1.0
    k[..., 0] += np.repeat(20.0 * np.arange(3), 10).astype(dtype)
    rises = []
    exp_rows = tensor_module._exp_rows

    def spy(z, ones, sums, rowmax):
        before = rowmax.copy()
        scale = exp_rows(z, ones, sums, rowmax)
        rises.append(bool(np.all(rowmax > before)))
        return scale

    with mock.patch.object(tensor_module, "_ATTN_TILE", tile), exp_path("shifted"), \
            mock.patch.object(tensor_module, "_exp_rows", spy):
        got, _ = run_attention(q, k, v, table)
    assert rises == [True] * 12  # 2 heads x 2 query blocks x 3 key blocks
    want, probs = unfused_attention(q, k, v, table)
    if dtype == np.float64:
        assert np.abs(got - want).max() < 1e-12
    else:
        assert attention_ulps(got, want, probs, v) <= ATTENTION_ULPS


@pytest.mark.parametrize("path", EXP_PATHS)
def test_attention_with_probs_in_key_blocks_keeps_the_plain_output(path):
    # the probabilities are rebuilt from the kept row maxima and sums after
    # the output is formed, so asking for them changes no output bit
    rng = np.random.default_rng(41)
    n, heads, t, tile, grid = tile_edge("last_blocks_partial", True)
    q, k, v = attention_inputs(rng, 2, heads, t, 8)
    table = bias_table(rng, heads, grid)
    with mock.patch.object(tensor_module, "_ATTN_TILE", tile), exp_path(path):
        plain, _ = run_attention(q, k, v, table)
        got, probs = run_attention(q, k, v, table, with_probs=True)
    assert got.tobytes() == plain.tobytes()
    assert np.abs(probs.astype(np.float64).sum(axis=-1) - 1.0).max() <= 8 * EPS32
    want = unfused_attention(q, k, v, table)[1]
    assert np.abs(probs - want).max() <= ATTENTION_ULPS * EPS32


def test_a_toy_train_step_takes_the_unshifted_path_in_every_tile():
    # the toy model's train step at batch 32 and 64 px, forward and taped,
    # exponentiates every attention tile without the row-max shift or check
    model = build(toy_config(), seed=7)
    images, labels = synthetic_dataset(32, seed=7)
    with exp_path("unshifted") as shifts:
        train_step(model, images, labels, AdamW(model.named_params()))
    assert len(shifts) >= sum(spec.depth for spec in toy_config().stages[2:])


@pytest.mark.parametrize("with_bias", [False, True], ids=["plain", "bias"])
def test_attention_of_an_empty_batch_is_empty(with_bias):
    rng = np.random.default_rng(30)
    q, k, v = attention_inputs(rng, 0, 2, 6, 3)
    table = bias_table(rng, 2, (2, 3)) if with_bias else None
    got, probs = run_attention(q, k, v, table, with_probs=True)
    assert got.shape == (0, 2, 6, 3) and probs.shape == (0, 2, 6, 6)


@pytest.mark.parametrize("table_shape", [
    (2, 4, 5),   # an even extent, though (4 + 1) // 2 * 3 = 6 = T
    (3, 3, 5),   # three heads for two
    (2, 3, 3),   # a 2 x 2 grid for 6 tokens
    (2, 15),     # a flat (2H-1)(2W-1) table
], ids=["even_extent", "head_count", "grid_size", "flat"])
def test_attention_rejects_a_table_that_does_not_fit(table_shape):
    rng = np.random.default_rng(25)
    q, k, v = attention_inputs(rng, 1, 2, 6, 3, np.float64)
    with pytest.raises(ShapeError, match="is not \\[2, 2H-1, 2W-1\\]"):
        run_attention(q, k, v, np.zeros(table_shape))


@pytest.mark.parametrize("shape,heads", [
    ((6, 12), 2),      # no batch axis
    ((1, 6, 10), 2),   # 10 channels do not split into q, k and v of two heads
    ((1, 0, 12), 2),   # no tokens
    ((1, 6, 0), 2),    # no channels
    ((1, 6, 12), 0),   # no heads
], ids=["rank", "indivisible", "no_tokens", "no_channels", "no_heads"])
def test_attention_rejects_a_projection_that_does_not_split(shape, heads):
    with pytest.raises(ShapeError, match="is not \\[N, T, 3 \\* "):
        attention(Tensor(np.zeros(shape)), heads)


def composed_attention(q, kt, v, table):
    """softmax(q k^T / sqrt(d) + bias) v of unfused ops, with k^T given as
    ``kt``, the bias gathered from the flattened table at ``relative_index_loop``."""
    scale = Tensor(np.eye(q.shape[-1], dtype=q.dtype) / math.sqrt(q.shape[-1]))  # q @ scale is q * s
    logits = matmul(matmul(q, scale), kt)
    heads, h2, w2 = table.shape
    flat = reshape(table, (heads, h2 * w2))
    bias = gather_last(flat, relative_index_loop((h2 + 1) // 2, (w2 + 1) // 2))
    return matmul(softmax(add(logits, bias)), v)


def attention_gradients(q, k, v, table, g, fused):
    """Gradients of sum(attention(q, k, v, table) * g) in q, k, v and the table;
    the fused op's are split out of its one qkv gradient, and its table may be
    None, which gives None for the table's gradient."""
    heads = q.shape[1]
    if not fused:
        leaves = [Tensor(a, requires_grad=True) for a in (q, k.swapaxes(-1, -2), v, table)]
        with Tape() as tape:
            loss = dot(Tensor(g), composed_attention(*leaves))
        tape.backward(loss)
        q_grad, kt_grad, v_grad, table_grad = (t.grad for t in leaves)
        return [q_grad, kt_grad.swapaxes(-1, -2), v_grad, table_grad]
    qkv = Tensor(pack_qkv(q, k, v), requires_grad=True)
    bias = None if table is None else Tensor(table, requires_grad=True)
    with Tape() as tape:
        loss = dot(Tensor(merge_heads(g)), attention(qkv, heads, bias)[0])
    tape.backward(loss)
    return [*np.split(split_heads(qkv.grad, 3 * heads), 3, axis=1), None if bias is None else bias.grad]


# grids that are not square, one grid row or column, and a single token;
# the hypothesis properties draw only H, W <= 4
@pytest.mark.parametrize("grid", [(2, 3), (5, 8), (1, 7), (7, 1), (1, 1)],
                         ids=lambda grid: f"{grid[0]}x{grid[1]}")
def test_attention_gradients_equal_the_composed_ops(grid):
    rng = np.random.default_rng(26)
    t = grid[0] * grid[1]
    q, k, v = attention_inputs(rng, 2, 3, t, 4, np.float64)
    table = bias_table(rng, 3, grid, np.float64)
    g = np.random.default_rng(27).normal(size=(2, 3, t, 4))
    for fused, composed in zip(attention_gradients(q, k, v, table, g, True),
                               attention_gradients(q, k, v, table, g, False)):
        assert np.abs(fused - composed).max() < 1e-12


def table_gradient_and_ds(q, k, v, table, g):
    """The fused op's table gradient and the [N, heads, T, T] dS its backward
    pass sums into the table, caught where a tile of it is summed over images
    (every case here is one tile)."""
    seen = []
    diagonal_sums = tensor_module._diagonal_sums

    def spy(ds, *args):
        seen.append(ds.copy())
        return diagonal_sums(ds, *args)

    with mock.patch.object(tensor_module, "_diagonal_sums", spy):
        gb = attention_gradients(q, k, v, table, g, True)[3]
    (ds,) = seen
    return gb, ds


@pytest.mark.parametrize("n,heads,grid", [(2, 3, (5, 8)), (3, 2, (12, 10)), (1, 1, (1, 9))],
                         ids=["5x8", "12x10", "1x9"])
def test_float32_table_gradient_is_within_the_summation_bound_of_float64(n, heads, grid):
    # the float32 backward sums each slot's terms in float32: first over
    # images, then query by query. A float32 sum of n terms is within
    # n * eps32 * sum|terms| of their exact sum, and the terms themselves,
    # float32 dS, differ from float64 dS by an error that the sum carries
    # through unchanged: sum|dS32 - dS64| over the slot's terms. The float64
    # result carries the same summation bound in eps64.
    rng = np.random.default_rng(29)
    t = grid[0] * grid[1]
    inputs = [*attention_inputs(rng, n, heads, t, 8), bias_table(rng, heads, grid),
              rng.normal(size=(n, heads, t, 8)).astype(np.float32)]
    gb32, ds32 = table_gradient_and_ds(*inputs)
    gb64, ds64 = table_gradient_and_ds(*(a.astype(np.float64) for a in inputs))
    assert gb32.dtype == np.float32 and gb32.shape == inputs[3].shape
    slots = relative_index_loop(*grid).reshape(-1)
    width = inputs[3][0].size

    def slot_sums(per_pair):
        """[heads, 2H-1, 2W-1] sums of [N, heads, T, T] terms over images and slots."""
        return np.stack([np.bincount(slots, per_pair[:, h].sum(axis=0).reshape(-1), width)
                         for h in range(heads)]).reshape(gb32.shape)

    terms = n * np.bincount(slots, minlength=width).reshape(gb32.shape[1:])
    ds32 = ds32.astype(np.float64)
    bound = (terms * (EPS32 * slot_sums(np.abs(ds32)) + EPS64 * slot_sums(np.abs(ds64)))
             + slot_sums(np.abs(ds32 - ds64)))
    assert np.all(np.abs(gb32 - gb64) <= bound)
    # the bound is not vacuous: it is far below the gradient's own size
    assert bound.max() < 1e-3 * np.abs(gb64).max()


def test_taped_attention_backward_allocates_only_the_gradients_dp_and_its_image_sum():
    n, heads, grid, d = 1, 3, 32, 32
    t = grid * grid
    rng = np.random.default_rng(30)
    qkv = Tensor(rng.normal(size=(n, t, 3 * heads * d)).astype(np.float32), requires_grad=True)
    bias = Tensor(bias_table(rng, heads, (grid, grid)), requires_grad=True)
    with Tape() as tape:
        out = attention(qkv, heads, bias)[0]
        loss = dot(Tensor(np.ones_like(out.data)), out)
    _, peak = traced_bytes(lambda: tape.backward(loss))
    # above the forward's probabilities, the backward pass holds the two
    # gradients, dP = g v^T (turned into dS in place) and dS summed over
    # images; no index array, no float64 copy and no dS * P product
    logits = n * heads * t * t * qkv.data.itemsize
    assert peak <= qkv.grad.nbytes + bias.grad.nbytes + 2 * logits + 2 ** 20


@pytest.mark.parametrize("with_bias", [False, True], ids=["plain", "bias"])
@pytest.mark.parametrize("case", TILE_EDGES)
def test_attention_tile_edge_gradients_match_the_loop_oracle(case, with_bias):
    # the backward rebuilds each of the forward's tiles from the kept row
    # sums and maxima, adds dq up over key blocks, dk and dv over query
    # blocks, and the table gradient over tiles, heads and images
    rng = np.random.default_rng(33)
    n, heads, t, tile, grid = tile_edge(case, with_bias)
    q, k, v = attention_inputs(rng, n, heads, t, 8, np.float64)
    table = bias_table(rng, heads, grid, np.float64) if with_bias else None
    g = rng.normal(size=(n, heads, t, 8))
    want = attention_gradients_loop(q, k, v, table, g)
    for path in EXP_PATHS:
        with mock.patch.object(tensor_module, "_ATTN_TILE", tile), exp_path(path):
            got = attention_gradients(q, k, v, table, g, True)
        for name, a, b in zip(("q", "k", "v", "table"), got, want):
            assert (a is None) == (b is None), name
            assert b is None or np.abs(a - b).max() < 1e-12, (path, name)


@pytest.mark.parametrize("with_bias", [False, True], ids=["plain", "bias"])
def test_attention_gradients_in_row_tiles_match_finite_differences(with_bias):
    rng = np.random.default_rng(34)
    n, heads, grid, d = 2, 2, (3, 4), 3
    t = grid[0] * grid[1]
    qkv = Tensor(rng.normal(size=(n, t, 3 * heads * d)), requires_grad=True)
    bias = Tensor(bias_table(rng, heads, grid, np.float64), requires_grad=True) if with_bias else None
    probe = Tensor(rng.normal(size=(n, t, heads * d)))
    # blocks of 6 queries by 3 keys; a bias rounds them to query grid rows 2 + 1 by one key row
    with mock.patch.object(tensor_module, "_ATTN_TILE", 5 * t):
        check_gradients(lambda: dot(probe, attention(qkv, heads, bias)[0]),
                        [qkv] if bias is None else [qkv, bias])


# the TILE_EDGES cases whose heads are cut into key blocks
KEY_BLOCK_EDGES = ["rows_not_dividing", "row_longer_than_tile", "keys_not_dividing", "one_key_row",
                   "last_blocks_partial", "images_key_blocks", "grid_row_longer_than_block"]


@pytest.mark.parametrize("with_bias", [False, True], ids=["plain", "bias"])
@pytest.mark.parametrize("case", KEY_BLOCK_EDGES)
def test_attention_key_block_gradients_match_finite_differences(case, with_bias):
    # central differences of the loss along random directions of qkv and of
    # the table against the taped gradient's projection on them
    rng = np.random.default_rng(38)
    n, heads, t, tile, grid = tile_edge(case, with_bias)
    leaves = [Tensor(rng.normal(size=(n, t, 3 * heads * 2)), requires_grad=True)]
    if with_bias:
        leaves.append(Tensor(bias_table(rng, heads, grid, np.float64), requires_grad=True))
    probe = Tensor(rng.normal(size=(n, t, heads * 2)))

    def loss():
        return dot(probe, attention(leaves[0], heads, leaves[1] if with_bias else None)[0])

    with mock.patch.object(tensor_module, "_ATTN_TILE", tile):
        with Tape() as tape:
            out = loss()
        tape.backward(out)
        for leaf in leaves:
            saved = leaf.data.copy()
            for _ in range(3):
                u = rng.normal(size=saved.shape)
                leaf.data[...] = saved + FD_STEP * u
                up = loss().item()
                leaf.data[...] = saved - FD_STEP * u
                down = loss().item()
                leaf.data[...] = saved
                numeric = (up - down) / (2 * FD_STEP)
                assert grad_rel_error(np.float64(np.vdot(leaf.grad, u)), np.float64(numeric)) < GRAD_TOL


@pytest.mark.parametrize("where", ["q", "k", "v", "table"])
def test_a_taped_attention_refuses_a_nan_before_it_records(where):
    rng = np.random.default_rng(35)
    q, k, v = attention_inputs(rng, 1, 2, 30, 4)
    table = bias_table(rng, 2, (5, 6))
    if where == "table":
        table[1, 8, 7] = np.nan
    else:
        {"q": q, "k": k, "v": v}[where][0, 1, 29, 3] = np.nan
    qkv, bias = Tensor(pack_qkv(q, k, v), requires_grad=True), Tensor(table, requires_grad=True)
    with mock.patch.object(tensor_module, "_ATTN_TILE", 12 * 30), Tape() as tape, \
            np.errstate(invalid="ignore"), pytest.raises(NumericError, match="attention"):
        attention(qkv, 2, bias)
    assert not tape._nodes


def test_a_taped_attention_keeps_no_probability_map():
    n, heads, grid, d = 1, 3, 32, 32
    rng = np.random.default_rng(36)
    qkv = Tensor(rng.normal(size=(n, grid * grid, 3 * heads * d)).astype(np.float32), requires_grad=True)
    bias = Tensor(bias_table(rng, heads, (grid, grid)), requires_grad=True)
    kept = kept_by_node(lambda: attention(qkv, heads, bias))
    # the output, which the backward's g . o reads, and the flipped table
    # that its windows view; the [1, 3, 1024, 1024] probabilities take 12 MiB
    assert kept <= qkv.data.nbytes // 3 + bias.data.nbytes + 2 ** 16


def test_a_taped_attention_and_its_backward_peak_at_the_gradients_and_two_tiles():
    n, heads, grid, d = 1, 3, 32, 32
    t = grid * grid
    rng = np.random.default_rng(37)
    qkv = Tensor(rng.normal(size=(n, t, 3 * heads * d)).astype(np.float32), requires_grad=True)
    bias = Tensor(bias_table(rng, heads, (grid, grid)), requires_grad=True)
    probe = Tensor(rng.normal(size=(n, t, heads * d)).astype(np.float32))

    def forward_and_backward():
        with Tape() as tape:
            loss = dot(probe, attention(qkv, heads, bias)[0])
        tape.backward(loss)

    _, peak = traced_bytes(forward_and_backward)
    # the gradients of qkv and the table; the output, its gradient and g * o,
    # each a third of qkv; the backward's probability and dS blocks and the
    # table gradient's two skew scratches, within two tiles. The full
    # [1, 3, 1024, 1024] map and dS would take 12 MiB each
    out = qkv.data.nbytes // 3
    tiles = 2 * min(_ATTN_TILE, n * heads * t * t) * qkv.data.itemsize
    assert peak <= qkv.data.nbytes + bias.data.nbytes + 3 * out + tiles + 2 ** 20


@pytest.mark.parametrize("with_bias", [False, True], ids=["plain", "bias"])
@pytest.mark.parametrize("n,heads,grid", [(1, 3, 32), (2, 3, 4)], ids=["row_tiles", "one_tile"])
def test_attention_allocates_only_its_output_and_tile_scratch(n, heads, grid, with_bias):
    rng = np.random.default_rng(28)
    t = grid * grid
    qkv = Tensor(rng.normal(size=(n, t, 3 * heads * 32)).astype(np.float32))
    table = np.zeros((heads, 2 * grid - 1, 2 * grid - 1), np.float32) if with_bias else None
    bias = None if table is None else Tensor(table)
    _, peak = traced_bytes(lambda: attention(qkv, heads, bias))
    # the output, a third of qkv, and the logits tile and the bias tile, each
    # no larger than all the logits; the full probabilities of the row_tiles
    # case would take 12 MiB
    tile = min(_ATTN_TILE, n * heads * t * t)
    assert peak <= qkv.data.nbytes // 3 + 2 * tile * qkv.data.itemsize + 2 ** 20


@st.composite
def attention_cases(draw, bias=None):
    """Shapes, dtype, a bias table (drawn when ``bias`` is None) and a tile
    size anywhere from one logit to past all of them, so that tiles of rows,
    of heads and of images all end both inside the input and at its edges.
    T = H * W: H and W are 1-4, 1 x W and H x 1 included, and under a bias
    rounding a tile to whole grid rows lands on both sides of its size
    (``TILE_EDGES`` pins each side)."""
    n, heads = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    grid, d = (draw(st.integers(1, 4)), draw(st.integers(1, 4))), draw(st.integers(1, 4))
    bias = draw(st.booleans()) if bias is None else bias
    t = grid[0] * grid[1]
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    # whole rows of one head, where a bias rounds them to grid rows, or any
    # size up to twice all the logits, whose half takes every head and image
    tile = draw(st.integers(1, t).map(lambda rows: rows * t) | st.integers(1, 2 * n * heads * t * t + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q, k, v = attention_inputs(rng, n, heads, t, d, dtype)
    return tile, q, k, v, bias_table(rng, heads, grid, dtype) if bias else None


PROPERTIES = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@PROPERTIES
@given(attention_cases())
def test_attention_property_matches_the_float64_loop_oracle(case):
    tile, q, k, v, table = case
    with mock.patch.object(tensor_module, "_ATTN_TILE", tile):
        got, probs = run_attention(q, k, v, table, with_probs=True)
    want = attention_loop(q, k, v, table)
    assert got.dtype == q.dtype
    assert np.abs(probs.sum(axis=-1) - 1.0).max() < 8 * np.finfo(q.dtype).eps * k.shape[2]
    if q.dtype == np.float64:
        assert np.abs(got - want).max() < 1e-12
    else:
        # float32 logits carry a relative rounding error, which exp turns
        # into an absolute error in P and @ v into one in the output
        logits = np.abs(q.astype(np.float64)) @ np.abs(k.astype(np.float64)).swapaxes(-1, -2)
        size = logits.max() / math.sqrt(q.shape[-1])
        if table is not None:
            size += np.abs(table).max()
        assert attention_ulps(got, want, probs, v) <= ATTENTION_ULPS * (1.0 + size)


@PROPERTIES
@given(attention_cases(bias=True), st.integers(0, 2 ** 32 - 1))
def test_attention_property_gradients_equal_the_composed_ops(case, seed):
    tile, *inputs = case
    q, k, v, table = (a.astype(np.float64) for a in inputs)
    g = np.random.default_rng(seed).normal(size=q.shape[:3] + v.shape[3:])
    with mock.patch.object(tensor_module, "_ATTN_TILE", tile):
        fused = attention_gradients(q, k, v, table, g, True)
    for got, want in zip(fused, attention_gradients(q, k, v, table, g, False)):
        assert np.abs(got - want).max() < 1e-12


@PROPERTIES
@given(attention_cases(), st.sampled_from([np.nan, np.inf, -np.inf]),
       st.sampled_from(["q", "k", "table"]), st.integers(0, 2 ** 32 - 1))
def test_attention_property_rejects_non_finite_logits(case, bad, where, seed):
    tile, q, k, v, table = case
    rng = np.random.default_rng(seed)
    # every table entry is some (query, key) pair's bias
    target = table if where == "table" and table is not None else k if where == "k" else q
    target[tuple(rng.integers(0, e) for e in target.shape)] = bad
    with mock.patch.object(tensor_module, "_ATTN_TILE", tile), \
            np.errstate(invalid="ignore"), pytest.raises(NumericError, match="attention logits"):
        run_attention(q, k, v, table)


def test_gelu_reference_points():
    assert gelu(tensor([0.0])).data[0] == 0.0
    assert gelu(tensor([10.0])).data[0] == pytest.approx(10.0, abs=1e-6)
    assert gelu(tensor([1.0])).data[0] == pytest.approx(GELU_AT_ONE, abs=1e-15)


def gelu64(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.float64)
    return x * (0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0)))))


def test_gelu_float32_is_within_4_ulps_of_float64_on_a_dense_grid():
    x = np.linspace(-8.0, 8.0, 2_000_001, dtype=np.float32)
    got = gelu(Tensor(x)).data
    assert got.dtype == np.float32
    err = np.abs(got - gelu64(x)) / (EPS32 * np.maximum(np.abs(x.astype(np.float64)), 1.0))
    assert err.max() <= 4.0


def test_gelu_float32_is_within_its_measured_margin_on_a_dense_grid():
    # The tanh form's worst cases on this grid are 1.18 eps32 * max(|x|, 1)
    # for GELU and 0.81 eps32 for its cdf against float64 Phi, the same with
    # numpy 2.4's AVX2 (X86_V3) and AVX-512 (X86_V4) float32 tanh; the bounds
    # leave room for another tanh kernel.
    x = np.linspace(-8.0, 8.0, 2_000_001, dtype=np.float32)
    out, cdf = np.empty_like(x), np.empty_like(x)
    tensor_module._gelu_into(x, out, cdf)
    assert out.tobytes() == gelu(Tensor(x)).data.tobytes()
    x64 = x.astype(np.float64)
    err = np.abs(out - gelu64(x)) / (EPS32 * np.maximum(np.abs(x64), 1.0))
    assert err.max() <= 1.5
    assert np.abs(cdf - 0.5 * (1.0 + erf(x64 / math.sqrt(2.0)))).max() <= 1.25 * EPS32


def test_gelu_float32_saturates_past_5_5_and_stays_finite_without_a_clamp():
    # float32 tanh(t) rounds to 1 once 1 - tanh(t), about 2 exp(-2t), is below
    # half an ulp under 1, 2^-25: past t = 13 ln 2 = 9.01. numpy 2.4's SIMD
    # tanh returns 1 - 2^-24 there up to t = 10, one ulp off, and 1 from 10
    # on; 1 - 2^-24 + 1 ties to 2 and rounds to even, so Phi is 1 either way.
    # Below zero the same ulp leaves Phi at 2^-25, down to x = -5.72 (t = 10),
    # against the exact Phi(-5.5) of 1.9e-8. The kernel's own Horner steps
    # reach t = 9.08 at x = 5.5, and +inf where x^2 or the polynomial
    # overflows, which tanh takes to 1 too.
    big = np.geomspace(5.5, float(np.finfo(np.float32).max), 100_001).astype(np.float32)
    with np.errstate(over="ignore"):
        u = big * big
        t = np.full_like(big, tensor_module._GELU_G[0])
        for c in tensor_module._GELU_G[1:]:
            t = t * u + c
        t *= big
    assert t.min() >= 9.02
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning escapes the kernel
        assert gelu(Tensor(big)).data.tobytes() == big.tobytes()
        low = gelu(Tensor(-big)).data
        assert ((low == 0.0) | (low == -big * np.float32(2.0 ** -25))).all()
        assert (low[big >= 6.0] == 0.0).all()
        # every finite float32, from the largest through the subnormals to
        # zero, has a finite GELU; a non-finite output would raise
        tiny = np.geomspace(float(np.finfo(np.float32).smallest_subnormal), 5.5, 10_001)
        everything = np.concatenate([tiny, big, -tiny, -big, [0.0]]).astype(np.float32)
        assert np.isfinite(gelu(Tensor(everything)).data).all()


def test_gelu_float32_gradient_is_within_4_ulps_of_float64():
    x = np.linspace(-8.0, 8.0, 3 * _BLOCK + 5, dtype=np.float32)
    leaf = Tensor(x, requires_grad=True)
    with Tape() as tape:
        loss = dot(Tensor(np.ones_like(x)), gelu(leaf))
    tape.backward(loss)
    assert leaf.grad.dtype == np.float32
    x64 = x.astype(np.float64)
    pdf = np.exp(-0.5 * x64 * x64) / math.sqrt(2.0 * math.pi)
    want = 0.5 * (1.0 + erf(x64 / math.sqrt(2.0))) + x64 * pdf
    err = np.abs(leaf.grad - want) / (EPS32 * np.maximum(np.abs(x64), 1.0))
    assert err.max() <= 4.0


@pytest.mark.parametrize("size", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1])
def test_gelu_float32_block_edges_equal_the_flat_result(size):
    x = np.random.default_rng(3).normal(scale=3.0, size=_BLOCK + 7).astype(np.float32)
    flat = gelu(Tensor(x)).data
    assert gelu(Tensor(x[:size])).data.tobytes() == flat[:size].tobytes()


def test_gelu_float32_non_contiguous_input_equals_the_flat_result():
    x = np.random.default_rng(4).normal(scale=3.0, size=(300, 500)).astype(np.float32)
    strided = x[::2, ::3]
    assert not strided.flags.c_contiguous
    got = gelu(Tensor(strided)).data
    assert got.shape == strided.shape
    assert got.tobytes() == gelu(Tensor(x)).data[::2, ::3].tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("size", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
def test_gelu_in_place_equals_the_out_of_place_result(size, dtype):
    x = np.random.default_rng(8).normal(scale=3.0, size=size).astype(dtype)
    want = gelu(Tensor(x)).data
    tensor_module._gelu_into(x, x, np.empty(min(size, _BLOCK), dtype))
    assert x.tobytes() == want.tobytes()


def test_gelu_float32_on_a_tape_equals_the_eval_result():
    x = np.random.default_rng(5).normal(scale=3.0, size=2 * _BLOCK + 3).astype(np.float32)
    with Tape():
        taped = gelu(Tensor(x, requires_grad=True)).data
    assert taped.tobytes() == gelu(Tensor(x)).data.tobytes()


@pytest.mark.parametrize("recording", [False, True], ids=["eval", "tape"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "pos_inf", "neg_inf"])
def test_gelu_float32_rejects_non_finite_input(bad, recording):
    x = np.array([0.5, bad, -1.0], dtype=np.float32)
    with Tape(), np.errstate(invalid="ignore"), pytest.raises(NumericError):
        gelu(Tensor(x, requires_grad=recording))


def test_gelu_float64_is_bit_identical_to_the_scipy_expression():
    x = np.random.default_rng(6).normal(scale=3.0, size=10_000)
    assert gelu(Tensor(x)).data.tobytes() == gelu64(x).tobytes()


def test_gelu_float64_gradient_is_bit_identical_to_the_full_size_expression():
    rng = np.random.default_rng(7)
    x = rng.normal(scale=3.0, size=2 * _BLOCK + 3)
    g = rng.normal(size=x.size)
    leaf = Tensor(x, requires_grad=True)
    with Tape() as tape:
        loss = dot(Tensor(g), gelu(leaf))
    tape.backward(loss)
    cdf = 0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0))))
    pdf = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
    assert leaf.grad.tobytes() == (g * (cdf + x * pdf)).tobytes()


def test_layer_norm_constant_token_is_zeroed():
    x = tensor(np.full((1, 3, 8), 2.5))
    out = layer_norm(x, tensor(np.ones(8)), tensor(np.zeros(8)))
    assert np.abs(out.data).max() < 1e-10


def test_layer_norm_already_normalized():
    x = tensor([[1.0, -1.0]])
    out = layer_norm(x, tensor(np.ones(2)), tensor(np.zeros(2)))
    want = np.array([[1.0, -1.0]]) / math.sqrt(1.0 + NORM_EPS)
    assert np.abs(out.data - want).max() < 1e-12


def test_layer_norm_moments():
    rng = np.random.default_rng(4)
    x = tensor(rng.normal(2.0, 3.0, size=(2, 5, 16)))
    out = layer_norm(x, tensor(np.ones(16)), tensor(np.zeros(16))).data
    assert np.abs(out.mean(axis=-1)).max() < 1e-10
    assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-4  # eps folded in


@pytest.mark.parametrize("shape", [(4, 3136, 96), (32, 16, 16, 32)],
                         ids=["layer_norm", "batch_norm"])
def test_a_taped_norm_keeps_its_statistics_and_no_normalized_input(shape):
    # the backward pass recomputes x-hat from x and the saved statistics, so
    # the tape holds no array the size of x beyond the output
    x = Tensor(np.random.default_rng(47).normal(size=shape).astype(np.float32),
               requires_grad=True)
    affine = [Tensor(np.full(shape[-1], v, np.float32), requires_grad=True) for v in (1.0, 0.0)]

    def forward():
        with Tape() as tape:
            if len(shape) == 3:
                out = layer_norm(x, *affine)
            else:
                out = batch_norm(x, *affine, BatchNormState(), "train")
        assert out.requires_grad
        return tape, out  # the tape is held too, or its nodes are freed unmeasured

    held, _ = traced_bytes(forward)
    assert held <= x.data.nbytes + 2 ** 20  # the output is x's size


def mlp_params(rng, c, hidden, dtype=np.float64):
    """(gamma, beta, w1, b1, w2, b2) of a residual MLP, none of them trivial."""
    params = (1.0 + 0.3 * rng.normal(size=c), 0.3 * rng.normal(size=c),
              rng.normal(size=(c, hidden)) / math.sqrt(c), 0.3 * rng.normal(size=hidden),
              rng.normal(size=(hidden, c)) / math.sqrt(hidden), 0.3 * rng.normal(size=c))
    return tuple(p.astype(dtype) for p in params)


def mlp_composition(x, gamma, beta, w1, b1, w2, b2):
    """float64 x + gelu(LN(x) @ w1 + b1) @ w2 + b2 with scipy's erf, and the
    float32 error bound that ``residual_mlp`` documents for these inputs."""
    x, gamma, beta, w1, b1, w2, b2 = (np.asarray(a, np.float64)
                                      for a in (x, gamma, beta, w1, b1, w2, b2))
    mu = x.mean(axis=-1, keepdims=True)
    sigma = np.sqrt(((x - mu) ** 2).mean(axis=-1, keepdims=True) + NORM_EPS)
    xhat = (x - mu) / sigma
    h = (xhat * gamma + beta) @ w1 + b1
    a = h * 0.5 * (1.0 + erf(h / math.sqrt(2.0)))
    out = x + a @ w2 + b2
    n = max(w1.shape) + 8
    lc = np.abs(gamma) * (1.0 + np.abs(xhat)) * (1.0 + np.abs(x).max(axis=-1, keepdims=True)
                                                 / sigma) + np.abs(beta)
    sj = lc @ np.abs(w1) + np.abs(b1)
    bound = EPS32 * (n * (np.abs(x) + np.abs(a) @ np.abs(w2) + np.abs(b2))
                     + (4.0 * np.maximum(np.abs(h), 1.0) + 2.5 * n * sj) @ np.abs(w2))
    return out, bound


def run_mlp(x, params) -> np.ndarray:
    return residual_mlp(Tensor(x), *(Tensor(p) for p in params)).data


def assert_mlp_matches_composition(x, params):
    got = run_mlp(x, params)
    want, bound = mlp_composition(x, *params)
    assert got.dtype == x.dtype and got.shape == x.shape
    if x.dtype == np.float64:
        assert np.abs(got - want).max(initial=0.0) < 1e-12
    else:
        assert np.all(np.abs(got - want) <= bound)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_residual_mlp_matches_the_composition_oracle(dtype):
    # 600 tokens: one full row tile and a partial one
    rng = np.random.default_rng(40)
    x = rng.normal(0.5, 2.0, size=(2, 300, 12)).astype(dtype)
    assert_mlp_matches_composition(x, mlp_params(rng, 12, 48, dtype))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("tokens", [7, 8, 9], ids=["tile-1", "tile", "tile+1"])
def test_residual_mlp_row_tile_edges_match_the_composition_oracle(tokens, dtype):
    rng = np.random.default_rng(41)
    x = rng.normal(size=(1, tokens, 5)).astype(dtype)
    with mock.patch.object(tensor_module, "_MLP_ROWS", 8):
        assert_mlp_matches_composition(x, mlp_params(rng, 5, 20, dtype))


def test_residual_mlp_on_a_tape_equals_the_eval_result():
    rng = np.random.default_rng(42)
    x = rng.normal(size=(3, 250, 16)).astype(np.float32)
    params = mlp_params(rng, 16, 64, np.float32)
    with Tape():
        taped = residual_mlp(*(Tensor(a, requires_grad=True) for a in (x, *params)))
    assert taped.data.tobytes() == run_mlp(x, params).tobytes()


def test_residual_mlp_gradients_match_finite_differences():
    rng = np.random.default_rng(43)
    x = Tensor(rng.normal(size=(1, 5, 3)), requires_grad=True)
    params = [Tensor(p, requires_grad=True) for p in mlp_params(rng, 3, 4)]
    probe = Tensor(rng.normal(size=(1, 5, 3)))
    with mock.patch.object(tensor_module, "_MLP_ROWS", 2):
        check_gradients(lambda: dot(probe, residual_mlp(x, *params)), [x, *params])


def mlp_gradients(x, params, probe, fused: bool) -> list[np.ndarray]:
    """Gradients of sum(out * probe) in x and the six parameters, through
    ``residual_mlp`` or through the taped unfused ops it stands for."""
    leaves = [Tensor(a, requires_grad=True) for a in (x, *params)]
    xt, gamma, beta, w1, b1, w2, b2 = leaves
    with Tape() as tape:
        if fused:
            out = residual_mlp(*leaves)
        else:
            hidden = gelu(add(matmul(layer_norm(xt, gamma, beta), w1), b1))
            out = add(add(matmul(hidden, w2), b2), xt)
        loss = dot(Tensor(probe), out)
    tape.backward(loss)
    return [t.grad for t in leaves]


@pytest.mark.parametrize("tokens", [7, 8, 9], ids=["tile-1", "tile", "tile+1"])
def test_residual_mlp_gradients_match_the_unfused_ops_at_row_tile_edges(tokens):
    rng = np.random.default_rng(48)
    x = rng.normal(0.5, 2.0, size=(1, tokens, 5))
    params, probe = mlp_params(rng, 5, 20), rng.normal(size=x.shape)
    with mock.patch.object(tensor_module, "_MLP_ROWS", 8):
        got = mlp_gradients(x, params, probe, fused=True)
    want = mlp_gradients(x, params, probe, fused=False)
    for name, a, b in zip(("x", "gamma", "beta", "w1", "b1", "w2", "b2"), got, want):
        assert a.shape == b.shape and np.abs(a - b).max() < 1e-12, name


def test_residual_mlp_float32_gradients_match_the_float64_unfused_ops():
    # Bound: each float32 gradient is within n * eps32 times the largest
    # float64 entry of its tensor, n = max(C, H) + tokens, the longest chain
    # of sums behind one entry (0.007 of that was the worst over seeds 49-54).
    rng = np.random.default_rng(49)
    tokens, c, hidden = 1100, 12, 48
    x = rng.normal(0.5, 2.0, size=(2, tokens // 2, c))
    params, probe = mlp_params(rng, c, hidden), rng.normal(size=x.shape)
    got = mlp_gradients(x.astype(np.float32), [p.astype(np.float32) for p in params],
                        probe.astype(np.float32), fused=True)
    want = mlp_gradients(x, params, probe, fused=False)
    n = max(c, hidden) + tokens
    for name, a, b in zip(("x", "gamma", "beta", "w1", "b1", "w2", "b2"), got, want):
        assert a.dtype == np.float32
        assert np.abs(a - b).max() <= n * EPS32 * np.abs(b).max(), name


def test_residual_mlp_allocates_only_its_output_and_tile_scratch():
    rng = np.random.default_rng(44)
    c, hidden = 96, 384
    x = rng.normal(size=(1, 3136, c)).astype(np.float32)
    params = tuple(Tensor(p) for p in mlp_params(rng, c, hidden, np.float32))
    _, peak = traced_bytes(lambda: residual_mlp(Tensor(x), *params))
    # the output, x's size, the one pre-activation tile of 448 rows (3136
    # cut evenly), which holds the layer norm's squares until fc1 overwrites
    # it and which GELU overwrites in place, and one GELU cdf block of an
    # output tile's size; the layer norm and GELU's x^2 block take the
    # output tile itself (measured 42 KB beyond the rest). 512-row tiles
    # with a normed tile and two GELU blocks of their own held 1.45 MiB,
    # separate GELU and cdf tiles would add 1.5 MiB, and the unfused ops
    # held several [3136, 384] arrays of 4.6 MiB
    m = x.size // c
    rows = math.ceil(m / math.ceil(m / tensor_module._MLP_ROWS))
    scratch = (rows * hidden + min(rows * hidden, rows * c, _BLOCK)) * x.itemsize
    assert peak <= x.nbytes + scratch + 2 ** 16


def test_a_taped_residual_mlp_forward_allocates_its_kept_arrays_and_one_tile():
    # the tape keeps the statistics and the cdf in full beside the output;
    # the forward adds one pre-activation tile of 448 rows, and its layer
    # norm and GELU x^2 block take the output tile (measured 37 KB beyond
    # the rest; 512-row tiles with their own normed tile and x^2 block
    # measured 1.02 blocks beyond those)
    rng = np.random.default_rng(51)
    c, hidden = 96, 384
    x = Tensor(rng.normal(size=(1, 3136, c)).astype(np.float32), requires_grad=True)
    params = [Tensor(p, requires_grad=True) for p in mlp_params(rng, c, hidden, np.float32)]

    def forward():
        with Tape() as tape:
            out = residual_mlp(x, *params)
        return tape, out

    kept, peak = traced_bytes(forward)
    m = x.size // c
    rows = math.ceil(m / math.ceil(m / tensor_module._MLP_ROWS))
    held = (m * (hidden + 2) + x.size) * x.data.itemsize
    assert kept <= held + 2 ** 16
    assert peak <= held + rows * hidden * x.data.itemsize + 2 ** 16


def test_residual_mlp_backward_allocates_no_hidden_size_array():
    # The tape keeps the statistics and the cdf, and not the pre-activations,
    # which the backward pass recomputes tile by tile; it adds dx, the weight
    # gradients, two hidden-size and two [rows, C] tiles, and one [C, H]
    # product for the tiles after the first, and nothing per tile. Unfused,
    # it held three [3136, 384] float32 arrays of 4.6 MiB at once.
    rng = np.random.default_rng(50)
    c, hidden = 96, 384
    x = Tensor(rng.normal(size=(1, 3136, c)).astype(np.float32), requires_grad=True)
    params = [Tensor(p, requires_grad=True) for p in mlp_params(rng, c, hidden, np.float32)]
    g = rng.normal(size=x.shape).astype(np.float32)

    def forward_and_backward():
        with Tape() as tape:
            residual_mlp(x, *params)
        (_, _, backward), = tape._nodes
        return backward(g)

    _, peak = traced_bytes(forward_and_backward)
    m, rows = x.size // c, tensor_module._MLP_ROWS
    kept = m * (hidden + 2)  # the statistics and the cdf; the output is dropped
    gradients = x.size + sum(p.size for p in params)
    scratch = rows * (2 * hidden + 2 * c) + c * hidden
    assert peak <= (kept + gradients + scratch) * x.data.itemsize + 2 ** 19


def test_residual_mlp_names_itself_for_a_non_finite_output():
    rng = np.random.default_rng(45)
    params = list(mlp_params(rng, 4, 8))
    params[2][1, 3] = np.nan
    with pytest.raises(NumericError, match="non-finite values produced by residual_mlp"):
        run_mlp(rng.normal(size=(2, 4)), params)


@pytest.mark.parametrize("which", range(6))
def test_residual_mlp_rejects_a_parameter_that_does_not_fit(which):
    rng = np.random.default_rng(46)
    params = list(mlp_params(rng, 4, 8))
    params[which] = params[which][..., 1:]
    with pytest.raises(ShapeError, match="do not fit 4 channels"):
        run_mlp(rng.normal(size=(2, 4)), params)


@PROPERTIES
@given(st.integers(1, 6), st.integers(-1, 13), st.integers(1, 5), st.integers(1, 9),
       st.sampled_from([np.float32, np.float64]), st.integers(0, 2 ** 32 - 1))
def test_residual_mlp_property_matches_the_composition_oracle(rows, extra, c, hidden, dtype,
                                                              seed):
    # token counts from one short of a row tile to two tiles past it
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 2.0, size=(max(1, rows + extra), c)).astype(dtype)
    with mock.patch.object(tensor_module, "_MLP_ROWS", rows):
        assert_mlp_matches_composition(x, mlp_params(rng, c, hidden, dtype))


def test_batch_norm_train_statistics():
    rng = np.random.default_rng(5)
    x = tensor(rng.normal(1.0, 2.0, size=(4, 3, 3, 6)))
    out = batch_norm(x, tensor(np.ones(6)), tensor(np.zeros(6)), BatchNormState(), "train").data
    assert np.abs(out.mean(axis=(0, 1, 2))).max() < 1e-10
    assert np.abs(out.var(axis=(0, 1, 2)) - 1.0).max() < 1e-4


def test_batch_norm_eval_identity_stats():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 4, 4, 3))
    state = BatchNormState().seed_identity(3, np.float64)
    out = batch_norm(tensor(x), tensor(np.ones(3)), tensor(np.zeros(3)), state, "eval").data
    assert np.abs(out - x).max() < 1e-4


def test_batch_norm_eval_before_train_errors():
    x = tensor(np.zeros((1, 2, 2, 3)))
    with pytest.raises(StateError):
        batch_norm(x, tensor(np.ones(3)), tensor(np.zeros(3)), BatchNormState(), "eval")


def test_batch_norm_refuses_an_empty_batch_before_touching_its_state():
    state = BatchNormState().seed_identity(3, np.float64)
    before = state.mean.tobytes(), state.var.tobytes()
    for shape in ((0, 2, 2, 3), (2, 0, 2, 3), (2, 2, 0, 3)):
        with pytest.raises(ShapeError) as exc:
            batch_norm(tensor(np.zeros(shape)), tensor(np.ones(3)), tensor(np.zeros(3)), state, "train")
        assert str(shape) in str(exc.value)
    assert (state.mean.tobytes(), state.var.tobytes()) == before


def test_batch_norm_running_stats_recursion():
    rng = np.random.default_rng(7)
    state = BatchNormState()
    gamma, beta = tensor(np.ones(2)), tensor(np.zeros(2))
    batches = [rng.normal(size=(3, 2, 2, 2)) for _ in range(2)]

    # hand-unrolled momentum recursion (biased variance, momentum 0.1)
    mean = batches[0].mean(axis=(0, 1, 2))
    var = batches[0].var(axis=(0, 1, 2))
    for b in batches[1:]:
        mean = 0.9 * mean + 0.1 * b.mean(axis=(0, 1, 2))
        var = 0.9 * var + 0.1 * b.var(axis=(0, 1, 2))

    for b in batches:
        batch_norm(tensor(b), gamma, beta, state, "train")
    assert np.abs(state.mean - mean).max() < 1e-12
    assert np.abs(state.var - var).max() < 1e-12


NORMS = {
    "layer_norm": lambda x, c: layer_norm(x, tensor(np.ones(c)), tensor(np.zeros(c))),
    "batch_norm": lambda x, c: batch_norm(x, tensor(np.ones(c)), tensor(np.zeros(c)),
                                          BatchNormState(), "train"),
    "residual_mlp": lambda x, c: residual_mlp(
        x, *(Tensor(p) for p in mlp_params(np.random.default_rng(51), c, 4 * c))),
}


@pytest.mark.parametrize("op", NORMS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "pos_inf", "neg_inf"])
def test_a_norm_rejects_a_non_finite_input_anywhere(op, bad):
    # the row and column sums are matrix-vector products, which must carry
    # the bad value into the statistics of its row or column
    shape = (2, 3, 5, 4)
    for flat in (0, 37, math.prod(shape) - 1):
        x = np.random.default_rng(flat).normal(size=shape)
        x.flat[flat] = bad
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match=op):
            NORMS[op](tensor(x), shape[-1])


@pytest.mark.parametrize("op", ["add", "conv2d"])
def test_zero_rows_give_zero_bias_gradients(op):
    x = Tensor(np.zeros((0, 4, 4, 3)), requires_grad=True)
    bias = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        out = add(x, bias) if op == "add" else conv2d(x, tensor(np.ones((1, 1, 3, 3))), bias)
        loss = dot(Tensor(np.ones(out.shape)), out)
    tape.backward(loss)
    assert out.shape == (0, 4, 4, 3) and loss.item() == 0.0
    assert bias.grad.shape == (3,) and np.all(bias.grad == 0.0)


@pytest.mark.parametrize("shape", [(8192, 16), (3136, 96), (7, 1000), (1, 1)])
def test_float32_row_and_column_sums_are_within_the_summation_bound(shape):
    # a float32 sum of n terms is within n * eps32 * sum|terms| of the exact one
    a = np.random.default_rng(52).normal(3.0, 10.0, size=shape).astype(np.float32)
    a64 = a.astype(np.float64)
    rows = tensor_module._row_sums(a)
    assert rows.dtype == np.float32 and rows.shape == (shape[0], 1)
    assert np.all(np.abs(rows - a64.sum(axis=1, keepdims=True))
                  <= shape[1] * EPS32 * np.abs(a64).sum(axis=1, keepdims=True))
    columns = tensor_module._lead_sums(a)
    assert columns.dtype == np.float32 and columns.shape == (shape[1],)
    assert np.all(np.abs(columns - a64.sum(axis=0))
                  <= shape[0] * EPS32 * np.abs(a64).sum(axis=0))
    lead = tensor_module._lead_sums(a.reshape(1, shape[0], 1, shape[1]), 3)
    assert lead.shape == (shape[1],) and np.array_equal(lead, columns)


@pytest.mark.parametrize("ndim", [1, 2])
def test_lead_sums_over_an_extent_of_one_is_a_copy(ndim):
    # a sum of one term is that term; the caller may write into the result
    a = np.random.default_rng(53).normal(size=(1, 1, 3, 5)).astype(np.float32)
    sums = tensor_module._lead_sums(a, ndim)
    assert sums.shape == a.shape[ndim:] and sums.dtype == a.dtype
    assert np.array_equal(sums, a.reshape(sums.shape))
    assert not np.shares_memory(sums, a)


def test_conv2d_1x1_identity_kernel():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(1, 5, 5, 3))
    w = np.eye(3)[None, None]
    out = conv2d(tensor(x), tensor(w)).data
    assert np.array_equal(out, x)


def test_conv2d_impulse_response():
    x = np.zeros((1, 5, 5, 1))
    x[0, 2, 2, 0] = 1.0
    w = np.ones((3, 3, 1, 1))
    out = conv2d(tensor(x), tensor(w), padding=1).data[0, :, :, 0]
    want = np.zeros((5, 5))
    want[1:4, 1:4] = 1.0
    assert np.array_equal(out, want)


def test_conv2d_matches_loop_oracle_random():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(1, 5, 5, 2))
    w = rng.normal(size=(3, 3, 2, 3))
    b = rng.normal(size=3)
    got = conv2d(tensor(x), tensor(w), tensor(b), stride=1, padding=1).data
    assert np.abs(got - conv2d_loop(x, w, b, 1, 1)).max() < 1e-12


@pytest.mark.parametrize("kernel", [1, 2, 3])
@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_conv2d_exhaustive_small_shapes(kernel, stride, padding):
    rng = np.random.default_rng(kernel * 10 + stride)
    for h in range(kernel, 9):
        for w in range(kernel, 9, 2):
            x = rng.normal(size=(1, h, w, 2))
            wt = rng.normal(size=(kernel, kernel, 2, 2))
            got = conv2d(tensor(x), tensor(wt), stride=stride, padding=padding).data
            want = conv2d_loop(x, wt, None, stride, padding)
            assert got.shape == want.shape
            assert np.abs(got - want).max() < 1e-12


def test_conv2d_rejects_bad_stride_and_channels():
    x = tensor(np.zeros((1, 4, 4, 2)))
    with pytest.raises(ShapeError):
        conv2d(x, tensor(np.zeros((2, 2, 3, 4))))
    with pytest.raises(ShapeError):
        conv2d(x, tensor(np.zeros((2, 2, 2, 4))), stride=0)


def test_conv2d_rejects_a_negative_padding():
    with pytest.raises(ShapeError, match="padding >= 0"):
        conv2d(tensor(np.zeros((1, 4, 4, 2))), tensor(np.zeros((1, 1, 2, 3))), padding=-1)


@pytest.mark.parametrize("odd", ["x", "w", "bias"])
def test_conv2d_refuses_mixed_dtypes_before_it_allocates(odd):
    # the model runs in one dtype, so a mix is the caller's error: refused by
    # name, before the 1-MiB output or the padded input exists
    arrays = {"x": np.zeros((4, 64, 64, 8)), "w": np.zeros((3, 3, 8, 16)), "bias": np.zeros(16)}
    x, w, bias = (tensor(a, dtype=np.float64 if name == odd else np.float32)
                  for name, a in arrays.items())

    def refused():
        with pytest.raises(ShapeError) as info:
            conv2d(x, w, bias, padding=1)
        return str(info.value)

    message = refused()
    _, peak = traced_bytes(refused)
    assert message == "conv2d: x, w and bias mix float32 and float64"
    assert peak < 2 ** 16  # the output alone is 1 MiB


# Every op of two or more Tensor operands: the operands' shapes, named as the
# op's parameters, each set giving a float32 output of 256 KiB, and the op.
MULTI_OPERAND_OPS = {
    "add": ({"a": (256, 256), "b": (256,)}, add),
    "matmul": ({"a": (256, 64), "b": (64, 256), "bias": (256,)}, matmul),
    "attention": ({"qkv": (1, 256, 768), "bias": (2, 31, 31)}, partial(attention, heads=2)),
    "layer_norm": ({"x": (256, 256), "gamma": (256,), "beta": (256,)}, layer_norm),
    "residual_mlp": ({"x": (256, 256), "gamma": (256,), "beta": (256,), "w1": (256, 16),
                      "b1": (16,), "w2": (16, 256), "b2": (256,)}, residual_mlp),
    "batch_norm": ({"x": (1, 16, 16, 256), "gamma": (256,), "beta": (256,)},
                   partial(batch_norm, state=BatchNormState())),
    "conv2d": ({"x": (1, 16, 16, 256), "w": (1, 1, 256, 256), "bias": (256,)}, conv2d),
    "deform_sample": ({"x": (1, 8, 8, 256), "positions": (1, 16, 16, 1, 2)}, deform_sample),
}


@pytest.mark.parametrize("op,odd,odd_dtype", [
    (op, odd, odd_dtype) for op, (shapes, _) in MULTI_OPERAND_OPS.items()
    for odd in shapes for odd_dtype in (np.float64, np.float32)],
    ids=lambda v: v.__name__ if isinstance(v, type) else v)
def test_every_multi_operand_op_refuses_mixed_dtypes_before_it_allocates(op, odd, odd_dtype):
    # one operand in the other dtype is refused by name, before the op's
    # 256-KiB output or any scratch exists
    shapes, fn = MULTI_OPERAND_OPS[op]
    base = np.float32 if odd_dtype == np.float64 else np.float64
    operands = {name: Tensor(np.zeros(shape, odd_dtype if name == odd else base))
                for name, shape in shapes.items()}

    def refused():
        with pytest.raises(ShapeError) as info:
            fn(**operands)
        return str(info.value)

    message = refused()
    _, peak = traced_bytes(refused)
    *names, last = shapes
    assert message == f"{op}: {', '.join(names)} and {last} mix float32 and float64"
    assert peak < 2 ** 16


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_conv2d_weight_gradient_matches_the_loop_oracle_for_a_constant_input(stride, padding):
    rng = np.random.default_rng(54)
    x = rng.normal(size=(2, 6, 5, 3))
    w = Tensor(rng.normal(size=(3, 3, 3, 4)), requires_grad=True)
    constant = Tensor(x)
    with Tape() as tape:
        out = conv2d(constant, w, stride=stride, padding=padding)
        g = rng.normal(size=out.shape)
        loss = dot(Tensor(g), out)
    tape.backward(loss)
    assert constant.grad is None
    assert np.abs(w.grad - conv2d_weight_grad_loop(x, g, 3, stride, padding)).max() < 1e-12


def test_a_taped_conv2d_keeps_its_input_not_its_patch_rows():
    # a stride-2 2x2 kernel reads every pixel once, so its [N*Ho*Wo, 4*Cin]
    # patch rows are as large as the input; the backward rebuilds them
    rng = np.random.default_rng(55)
    x = Tensor(rng.normal(size=(8, 32, 32, 16)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 2, 16, 16)).astype(np.float32), requires_grad=True)

    def forward():
        with Tape() as tape:
            out = conv2d(x, w, stride=2)
        return tape, out

    kept, _ = traced_bytes(forward)
    out_bytes = x.data.nbytes // 4
    assert kept < out_bytes + x.data.nbytes // 2


def sample_at(img: np.ndarray, y: float, x: float) -> np.ndarray:
    """deform_sample of one HWC map at one (y, x): N = Ho = Wo = K = 1."""
    out = deform_sample(tensor(img[None]), tensor(np.array([y, x]).reshape(1, 1, 1, 1, 2)))
    return out.data.reshape(img.shape[-1])


def test_deform_sample_grid_point_and_center():
    rng = np.random.default_rng(10)
    img = rng.normal(size=(4, 4, 3))
    assert np.array_equal(sample_at(img, 2.0, 1.0), img[2, 1])
    want = 0.25 * (img[1, 2] + img[1, 3] + img[2, 2] + img[2, 3])
    assert np.abs(sample_at(img, 1.5, 2.5) - want).max() < 1e-12


def test_deform_sample_out_of_bounds_is_zero():
    assert np.array_equal(sample_at(np.ones((3, 3, 2)), -5.0, -5.0), [0.0, 0.0])


def test_deform_sample_rejects_non_finite_position():
    with pytest.raises(NumericError):
        sample_at(np.ones((3, 3, 1)), np.nan, 0.0)


@st.composite
def deform_cases(draw, dtypes=(np.float32, np.float64), max_extent=5, smooth=False):
    """An NHWC map and [N, Ho, Wo, K, 2] positions spanning [-1.5, H + 0.5] x
    [-1.5, W + 0.5], so that bilinear corners land on and off the map. Some
    cases snap positions to half-integers, which puts samples exactly on grid
    points and map edges; ``smooth`` keeps every fractional part in
    [0.05, 0.95] instead, away from the kinks of the bilinear weights."""
    n, c, k = draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    h, w = draw(st.integers(1, max_extent)), draw(st.integers(1, max_extent))
    ho, wo = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    dtype = draw(st.sampled_from(dtypes))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.normal(size=(n, h, w, c))
    pos = np.stack([rng.uniform(-1.5, h + 0.5, size=(n, ho, wo, k)),
                    rng.uniform(-1.5, w + 0.5, size=(n, ho, wo, k))], axis=-1)
    if smooth:
        pos = np.floor(pos) + np.clip(pos % 1.0, 0.05, 0.95)
    elif draw(st.booleans()):
        pos = np.round(pos * 2.0) / 2.0
    return x.astype(dtype), pos.astype(dtype)


def bilinear_loop(x: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """helpers.bilinear_scalar at every position, in float64."""
    x, pos = x.astype(np.float64), pos.astype(np.float64)
    out = np.empty(pos.shape[:-1] + x.shape[-1:])
    for b, i, j, t in np.ndindex(pos.shape[:-1]):
        out[b, i, j, t] = bilinear_scalar(x[b], *pos[b, i, j, t])
    return out


# float32 rounds each bilinear weight (1 - frac, then a product) and the
# four-term sum; the error stays within this many float32 ulps of
# sum |weight * value| over the four corners. The worst measured was 1.54.
DEFORM_ULPS = 4


@PROPERTIES
@given(deform_cases())
def test_deform_sample_property_matches_the_bilinear_oracle(case):
    x, pos = case
    got = deform_sample(Tensor(x), Tensor(pos)).data
    want = bilinear_loop(x, pos)
    assert got.dtype == x.dtype and got.shape == want.shape
    if x.dtype == np.float64:
        assert np.abs(got - want).max() < 1e-12
    else:
        size = bilinear_loop(np.abs(x), pos)  # the weights are non-negative
        assert (np.abs(got - want) <= DEFORM_ULPS * EPS32 * size).all()


@PROPERTIES
@given(deform_cases(dtypes=(np.float64,), max_extent=4, smooth=True))
def test_deform_sample_property_gradients_match_finite_differences(case):
    x, pos = (Tensor(a, requires_grad=True) for a in case)
    probe = Tensor(np.random.default_rng(0).normal(size=pos.shape[:-1] + x.shape[-1:]))
    check_gradients(lambda: dot(probe, deform_sample(x, pos)), [x, pos])


@PROPERTIES
@given(deform_cases(), st.sampled_from([np.nan, np.inf, -np.inf]), st.integers(0, 2 ** 32 - 1))
def test_deform_sample_property_rejects_non_finite_positions(case, bad, seed):
    x, pos = case
    pos[tuple(np.random.default_rng(seed).integers(0, e) for e in pos.shape)] = bad
    with pytest.raises(NumericError, match="non-finite sampling positions"):
        deform_sample(Tensor(x), Tensor(pos))


@PROPERTIES
@given(deform_cases(), st.sampled_from(["coords", "missing_axis", "extra_axis", "batch"]))
def test_deform_sample_property_rejects_a_malformed_positions_shape(case, kind):
    x, pos = case
    bad = {"coords": lambda: np.concatenate([pos, pos[..., :1]], axis=-1),
           "missing_axis": lambda: pos[0],
           "extra_axis": lambda: pos[None],
           "batch": lambda: np.concatenate([pos, pos[:1]], axis=0)}[kind]()
    with pytest.raises(ShapeError):
        deform_sample(Tensor(x), Tensor(bad))


def test_deform_sample_eval_memory_is_the_output_and_a_few_words_per_sample():
    """Untaped, the op allocates its output plus the sparse sampling matrix
    and its inputs: no [samples, C] copy of the corner values."""
    rng = np.random.default_rng(20)
    x = rng.normal(size=(2, 16, 16, 256)).astype(np.float32)
    pos = rng.uniform(-1.5, 16.5, size=(2, 8, 8, 4, 2)).astype(np.float32)
    samples = pos.size // 2
    deform_sample(Tensor(x), Tensor(pos))  # warm-up: first-call imports and caches
    _, peak = traced_bytes(lambda: deform_sample(Tensor(x), Tensor(pos)))
    assert peak <= samples * x.shape[-1] * x.itemsize + 512 * samples  # the output, a few words per sample


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_deform_sample_corner_indices_clip_as_ravel_multi_index_does(dtype):
    n, h, w = 2, 3, 5
    # on the map, and off each edge by a fraction, by a pixel or more, and far off
    ys = [-1e6, -3.5, -1.0, -0.5, 0.0, 1.25, h - 1, h - 0.5, h, h + 2.5, 1e6]
    xs = [-1e6, -2.0, -0.75, 0.0, 2.5, w - 1, w - 0.25, w, w + 1.5, 1e6]
    grid = np.array([(y, x) for y in ys for x in xs], dtype)
    pos = np.stack([grid, grid[::-1]])
    sample, fy, fx = tensor_module._bilinear_corners(pos, h, w)
    cy = np.floor(pos[..., 0]).astype(np.int64)[..., None] + (0, 0, 1, 1)
    cx = np.floor(pos[..., 1]).astype(np.int64)[..., None] + (0, 1, 0, 1)
    want = np.ravel_multi_index((np.arange(n)[:, None, None], cy, cx), (n, h, w), mode="clip")
    assert np.array_equal(sample.indices, want.reshape(-1))
    off = (cy < 0) | (cy >= h) | (cx < 0) | (cx >= w)
    assert off.any() and not fy[off].any() and not fx[off].any()
    assert fy.dtype == fx.dtype == sample.dtype == dtype
    assert np.array_equal(sample.data, (fy * fx).reshape(-1))


def test_deform_sample_float32_gradients_match_float64():
    # the backward rebuilds the corner weights and negates corner planes of
    # them in place for the position gradient; every corner's sign shows here
    rng = np.random.default_rng(24)
    x = rng.normal(size=(2, 6, 5, 3))
    pos = np.stack([rng.uniform(-1.5, 6.5, size=(2, 3, 3, 4)),
                    rng.uniform(-1.5, 5.5, size=(2, 3, 3, 4))], axis=-1)
    pos = np.floor(pos) + np.clip(pos % 1.0, 0.05, 0.95)
    probe = rng.normal(size=pos.shape[:-1] + x.shape[-1:])
    grads = {}
    for dtype in (np.float32, np.float64):
        xt, pt = (Tensor(a.astype(dtype), requires_grad=True) for a in (x, pos))
        with Tape() as tape:
            loss = dot(Tensor(probe.astype(dtype)), deform_sample(xt, pt))
        tape.backward(loss)
        grads[dtype] = (xt.grad, pt.grad)
    for got, want in zip(grads[np.float32], grads[np.float64]):
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


def test_a_taped_deform_sample_keeps_its_positions_not_its_sampling_matrix():
    # the toy model's first DTM merge: batch 32, a 16 x 16 map of 16
    # channels, 8 x 8 outputs of 2 x 2 taps
    rng = np.random.default_rng(23)
    x = Tensor(rng.normal(size=(32, 16, 16, 16)).astype(np.float32), requires_grad=True)
    pos = Tensor(rng.uniform(-1.5, 16.5, size=(32, 8, 8, 4, 2)).astype(np.float32), requires_grad=True)
    deform_sample(x, pos)  # warm-up: first-call imports and caches
    # the node holds views of x and the positions, allocated before the
    # call, and not the output; the corner weights, indices and sparse
    # matrix that the backward rebuilds took 0.7 MiB
    assert kept_by_node(lambda: deform_sample(x, pos)) <= 2 ** 16


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_deform_sample_gradients_keep_the_input_dtype(dtype):
    rng = np.random.default_rng(21)
    x = Tensor(rng.normal(size=(2, 5, 4, 3)).astype(dtype), requires_grad=True)
    pos = Tensor(rng.uniform(-1.5, 5.5, size=(2, 2, 3, 4, 2)).astype(dtype), requires_grad=True)
    with Tape() as tape:
        out = deform_sample(x, pos)
        loss = dot(Tensor(np.ones_like(out.data)), out)
    tape.backward(loss)
    assert x.grad.dtype == dtype and pos.grad.dtype == dtype


def test_cross_entropy_uniform_logits():
    logits = tensor(np.zeros((2, 4)))
    loss = softmax_cross_entropy(logits, np.array([0, 3]))
    assert loss.item() == pytest.approx(np.log(4.0), abs=1e-12)


def test_non_finite_op_output_raises():
    big = tensor([1e308])
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        add(big, big)


def test_an_empty_op_output_passes_the_finite_check():
    empty = tensor(np.zeros((0, 3)))
    assert add(empty, empty).shape == (0, 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_each_non_finite_value_in_an_op_output_raises(bad):
    x = tensor([1.0, bad, -2.0], dtype=np.float32)
    with pytest.raises(NumericError):
        add(x, tensor(np.zeros(3), dtype=np.float32))


def test_determinism_bit_identical():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, 4, 4, 2))
    w = rng.normal(size=(2, 2, 2, 5))
    a = conv2d(tensor(x), tensor(w), stride=2).data
    b = conv2d(tensor(x), tensor(w), stride=2).data
    assert a.tobytes() == b.tobytes()
