"""Backward-pass contracts: tape semantics and per-op gradient checks
against central finite differences (fp64, h = 1e-5, rel error < 1e-4)."""

import numpy as np
import pytest

from helpers import check_gradients
from litnet.errors import ShapeError, StateError
from litnet.tensor import (BatchNormState, Tape, Tensor, add, attention, batch_norm, conv2d,
                           deform_sample, gather_last, gelu, layer_norm, matmul, mul, reshape,
                           scale, slice_last, softmax, softmax_cross_entropy,
                           sum_all, sum_axis, tensor, transpose)


def rand(rng, *shape):
    return tensor(rng.uniform(-2.0, 2.0, size=shape), requires_grad=True)


def projected(rng, f):
    """Wrap ``f`` with one fixed random projection to a scalar.

    The projection is drawn once so repeated calls (tape pass plus every
    finite-difference evaluation) measure the same loss.
    """
    probe = Tensor(rng.normal(size=f().shape))
    return lambda: sum_all(mul(f(), probe))


def test_backward_sum_is_ones():
    x = tensor([1.0, -2.0, 3.0], requires_grad=True)
    with Tape() as t:
        loss = sum_all(x)
    t.backward(loss)
    assert np.array_equal(x.grad, np.ones(3))


def test_backward_quadratic():
    x = tensor([1.0, 2.0], requires_grad=True)
    with Tape() as t:
        loss = sum_all(mul(x, x))
    t.backward(loss)
    assert np.allclose(x.grad, [2.0, 4.0], atol=1e-15)


def test_backward_requires_scalar_loss():
    x = tensor([1.0, 2.0], requires_grad=True)
    with Tape() as t:
        y = mul(x, x)
    with pytest.raises(ShapeError):
        t.backward(y)


def test_backward_twice_is_a_dead_tape():
    x = tensor([1.0], requires_grad=True)
    with Tape() as t:
        loss = sum_all(x)
    t.backward(loss)
    with pytest.raises(StateError):
        t.backward(loss)


def test_backward_without_tape_errors():
    x = tensor([1.0], requires_grad=True)
    loss = sum_all(x)  # no live tape: nothing recorded
    with pytest.raises(StateError):
        Tape().backward(loss)


def test_tapes_do_not_leak_between_computations():
    x = tensor([2.0], requires_grad=True)
    with Tape() as t1:
        loss1 = sum_all(mul(x, x))
    with Tape() as t2:
        loss2 = sum_all(scale(x, 3.0))
    t2.backward(loss2)
    assert np.allclose(x.grad, [3.0])
    x.grad = None
    t1.backward(loss1)
    assert np.allclose(x.grad, [4.0])


def test_grad_accumulates_across_reuse_in_one_graph():
    x = tensor([3.0], requires_grad=True)
    with Tape() as t:
        loss = sum_all(add(mul(x, x), x))  # d/dx (x^2 + x) = 2x + 1
    t.backward(loss)
    assert np.allclose(x.grad, [7.0])


@pytest.mark.parametrize("seed", [0, 1])
def test_grad_elementwise_and_structural_ops(seed):
    rng = np.random.default_rng(seed)
    x = rand(rng, 3, 4)
    y = rand(rng, 3, 4)
    b = rand(rng, 4)
    check_gradients(projected(rng, lambda: add(mul(x, y), b)), [x, y, b])

    z = rand(rng, 2, 3, 4)
    check_gradients(projected(rng, lambda: transpose(reshape(z, (2, 12, 1)), (1, 0, 2))), [z])
    check_gradients(projected(rng, lambda: slice_last(z, 1, 3)), [z])
    check_gradients(projected(rng, lambda: sum_axis(z, 1)), [z])


def test_grad_matmul_both_modes():
    rng = np.random.default_rng(2)
    a = rand(rng, 5, 3)
    w = rand(rng, 3, 4)
    check_gradients(projected(rng, lambda: matmul(a, w)), [a, w])
    ab = rand(rng, 2, 3, 4, 5)
    bb = rand(rng, 2, 3, 5, 2)
    check_gradients(projected(rng, lambda: matmul(ab, bb)), [ab, bb])
    lead = rand(rng, 2, 6, 3)
    check_gradients(projected(rng, lambda: matmul(lead, w)), [lead, w])


def test_grad_softmax_gelu():
    rng = np.random.default_rng(3)
    x = rand(rng, 3, 7)
    check_gradients(projected(rng, lambda: softmax(x)), [x])
    check_gradients(projected(rng, lambda: gelu(x)), [x])


@pytest.mark.parametrize("with_bias", [False, True], ids=["plain", "bias"])
def test_grad_attention(with_bias):
    rng = np.random.default_rng(12)
    q, k, v = rand(rng, 2, 3, 4, 2), rand(rng, 2, 3, 5, 2), rand(rng, 2, 3, 5, 3)
    table = rand(rng, 3, 6)
    index = rng.integers(0, 6, size=(4, 5))
    bias = (table, index) if with_bias else (None, None)
    params = [q, k, v, table] if with_bias else [q, k, v]
    check_gradients(projected(rng, lambda: attention(q, k, v, *bias)[0]), params)


def test_grad_layer_norm():
    rng = np.random.default_rng(4)
    x = rand(rng, 2, 5, 6)
    g = rand(rng, 6)
    b = rand(rng, 6)
    check_gradients(projected(rng, lambda: layer_norm(x, g, b)), [x, g, b])


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_grad_batch_norm(mode):
    rng = np.random.default_rng(5)
    x = rand(rng, 2, 3, 3, 4)
    g = rand(rng, 4)
    b = rand(rng, 4)
    state = BatchNormState().seed_identity(4, np.float64)
    check_gradients(projected(rng, lambda: batch_norm(x, g, b, state, mode)), [x, g, b])


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_grad_conv2d(stride, padding):
    rng = np.random.default_rng(6)
    x = rand(rng, 2, 5, 5, 2)
    w = rand(rng, 3, 3, 2, 3)
    b = rand(rng, 3)
    check_gradients(projected(rng, lambda: conv2d(x, w, b, stride, padding)), [x, w, b])


@pytest.mark.parametrize("seed,x_shape,positions", [
    # fractional tap positions away from the bilinear lattice, some out of bounds
    (7, (1, 6, 6, 2), lambda rng: rng.uniform(-0.7, 6.3, size=(1, 2, 2, 4, 2))),
    # a single interior point (N = Ho = Wo = K = 1)
    (8, (1, 5, 5, 3), lambda rng: np.array([2.3, 1.7]).reshape(1, 1, 1, 1, 2)),
], ids=["taps", "one_point"])
def test_grad_deform_sample(seed, x_shape, positions):
    rng = np.random.default_rng(seed)
    x = rand(rng, *x_shape)
    pos_data = positions(rng)
    pos_data += 0.01 * (np.abs(pos_data % 1.0 - 0.0) < 1e-3)
    pos = tensor(pos_data, requires_grad=True)
    check_gradients(projected(rng, lambda: deform_sample(x, pos)), [x, pos])


def test_grad_gather_last():
    rng = np.random.default_rng(9)
    table = rand(rng, 3, 9)
    idx = rng.integers(0, 9, size=(4, 4))
    check_gradients(projected(rng, lambda: gather_last(table, idx)), [table])


def test_grad_cross_entropy():
    rng = np.random.default_rng(10)
    logits = rand(rng, 4, 5)
    labels = np.array([0, 2, 4, 1])
    check_gradients(lambda: softmax_cross_entropy(logits, labels), [logits])
