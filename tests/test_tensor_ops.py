"""Forward-path contracts of the tensor primitives against independent
oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import erf

from helpers import conv2d_loop, matmul_loop, softmax_bias_loop
from litnet.blocks import relative_index_map
from litnet.errors import NumericError, ShapeError, StateError
from litnet.tensor import (_BLOCK, BatchNormState, Tape, Tensor, add, batch_norm,
                           conv2d, deform_sample, gather_last, gelu, layer_norm, matmul, mul,
                           softmax, softmax_cross_entropy, sum_all, tensor)

EPS32 = float(np.finfo(np.float32).eps)

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


def test_matmul_matches_loop_oracle():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(3, 5))
    got = matmul(tensor(a), tensor(b)).data
    assert np.abs(got - matmul_loop(a, b)).max() < 1e-12


def test_matmul_shape_error_reports_both_shapes():
    with pytest.raises(ShapeError) as exc:
        matmul(tensor(np.zeros((2, 3))), tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)


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


def unfused_softmax(x: np.ndarray, table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The unfused attention softmax: gather the [heads, T, T'] bias, add it,
    then a full-size max-shifted softmax."""
    z = x + table[:, index]
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def biased_inputs(rng, shape, entries, dtype):
    """Logits of ``shape`` [..., heads, T, T'], a [heads, entries] table and a
    [T, T'] index into it."""
    x = (3.0 * rng.normal(size=shape)).astype(dtype)
    table = rng.normal(size=(shape[-3], entries)).astype(dtype)
    index = rng.integers(0, entries, size=shape[-2:])
    return x, table, index


def test_softmax_with_bias_matches_the_loop_oracle():
    x, table, index = biased_inputs(np.random.default_rng(20), (2, 3, 5, 7), 11, np.float64)
    got = softmax(Tensor(x), Tensor(table), index).data
    assert np.abs(got - softmax_bias_loop(x, table, index)).max() < 1e-12


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n,heads,grid", [(1, 3, 56), (1, 6, 28), (1, 12, 14), (2, 16, 7)],
                         ids=["stage1", "stage2", "stage3", "stage4"])
def test_softmax_with_relative_bias_is_bit_identical_to_the_unfused_softmax(dtype, n, heads,
                                                                            grid):
    rng = np.random.default_rng(21)
    x = (3.0 * rng.normal(size=(n, heads, grid * grid, grid * grid))).astype(dtype)
    table = rng.normal(size=(heads, (2 * grid - 1) ** 2)).astype(dtype)
    index = relative_index_map(grid, grid)
    got = softmax(Tensor(x), Tensor(table), index).data
    assert got.dtype == dtype
    assert got.tobytes() == unfused_softmax(x, table, index).tobytes()


@pytest.mark.parametrize("shape", [
    (2, 3, 1, 1),                 # T = 1
    (1, 2, 256, 256),             # a head fills one block exactly
    (1, 2, 300, 300),             # rows per block do not divide T
    (1, 1, 2, _BLOCK + 5),        # one row is longer than a block
    (3, 4, 16, 16),               # N > 1, one block spans all heads of all images
    (2, 3, 100, 300),             # blocks of two heads over three
    (5, 2, 64, 128),              # blocks of four images over five
], ids=["t1", "head_fills_block", "rows_not_dividing", "row_longer_than_block",
        "block_spans_heads", "heads_not_dividing", "images_not_dividing"])
def test_softmax_with_bias_block_edges_equal_the_unfused_softmax(shape):
    x, table, index = biased_inputs(np.random.default_rng(22), shape, 37, np.float32)
    got = softmax(Tensor(x), Tensor(table), index).data
    assert got.tobytes() == unfused_softmax(x, table, index).tobytes()


def test_softmax_with_bias_on_a_tape_equals_the_eval_result():
    x, table, index = biased_inputs(np.random.default_rng(23), (2, 3, 40, 40), 50, np.float32)
    with Tape():
        taped = softmax(Tensor(x, requires_grad=True), Tensor(table, requires_grad=True), index)
    assert taped.data.tobytes() == softmax(Tensor(x), Tensor(table), index).data.tobytes()


@pytest.mark.parametrize("where,bad", [
    ("x", np.nan), ("x", np.inf), ("x", -np.inf), ("bias", np.float32(3e38)),
], ids=["nan", "pos_inf", "neg_inf", "bias_overflows_a_logit"])
def test_softmax_with_bias_rejects_non_finite_logits(where, bad):
    x, table, index = biased_inputs(np.random.default_rng(24), (1, 2, 30, 30), 9, np.float32)
    if where == "x":
        x[0, 1, 29, 3] = bad
    else:
        x[0, 1, 29, 3] = 3e38
        table[1, index[29, 3]] = bad
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="input to softmax"):
        softmax(Tensor(x), Tensor(table), index)


@pytest.mark.parametrize("bad", [-1, 9])
def test_softmax_rejects_a_bias_index_out_of_range(bad):
    x, table, index = biased_inputs(np.random.default_rng(25), (1, 2, 4, 4), 9, np.float64)
    index[3, 2] = bad
    with pytest.raises(ShapeError):
        softmax(Tensor(x), Tensor(table), index)


def test_the_table_gradient_equals_gather_last_composition():
    x, table, index = biased_inputs(np.random.default_rng(26), (2, 3, 6, 5), 8, np.float64)
    g = Tensor(np.random.default_rng(27).normal(size=x.shape))
    grads = []
    for fused in (True, False):
        xt, tt = Tensor(x, requires_grad=True), Tensor(table, requires_grad=True)
        with Tape() as tape:
            y = softmax(xt, tt, index) if fused else softmax(add(xt, gather_last(tt, index)))
            loss = sum_all(mul(y, g))
        tape.backward(loss)
        grads.append((xt.grad, tt.grad))
    assert grads[0][0].tobytes() == grads[1][0].tobytes()
    assert np.abs(grads[0][1] - grads[1][1]).max() < 1e-12


@pytest.mark.parametrize("with_bias", [False, True], ids=["plain", "bias"])
def test_softmax_allocates_only_its_output(with_bias):
    x = np.random.default_rng(28).normal(size=(1, 3, 1024, 1024)).astype(np.float32)
    table = Tensor(np.zeros((3, 63 * 63), np.float32))
    index = relative_index_map(32, 32)
    args = (table, index) if with_bias else ()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = softmax(Tensor(x), *args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= out.data.nbytes + 2 ** 20


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


def test_gelu_float32_gradient_is_within_4_ulps_of_float64():
    x = np.linspace(-8.0, 8.0, 3 * _BLOCK + 5, dtype=np.float32)
    leaf = Tensor(x, requires_grad=True)
    with Tape() as tape:
        loss = sum_all(gelu(leaf))
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
        loss = sum_all(mul(gelu(leaf), Tensor(g)))
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
    out = layer_norm(x, tensor(np.ones(2)), tensor(np.zeros(2)), eps=1e-12)
    assert np.allclose(out.data, [[1.0, -1.0]], atol=1e-6)


def test_layer_norm_moments():
    rng = np.random.default_rng(4)
    x = tensor(rng.normal(2.0, 3.0, size=(2, 5, 16)))
    out = layer_norm(x, tensor(np.ones(16)), tensor(np.zeros(16)), eps=1e-5).data
    assert np.abs(out.mean(axis=-1)).max() < 1e-10
    assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-4  # eps folded in


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
    assert mul(empty, empty).shape == (0, 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_each_non_finite_value_in_an_op_output_raises(bad):
    x = tensor([1.0, bad, -2.0], dtype=np.float32)
    with pytest.raises(NumericError):
        mul(x, tensor(np.ones(3), dtype=np.float32))


def test_determinism_bit_identical():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, 4, 4, 2))
    w = rng.normal(size=(2, 2, 2, 5))
    a = conv2d(tensor(x), tensor(w), stride=2).data
    b = conv2d(tensor(x), tensor(w), stride=2).data
    assert a.tobytes() == b.tobytes()
