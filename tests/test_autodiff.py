"""Backward-pass contracts: tape semantics and per-op gradient checks
against central finite differences (fp64, h = 1e-5, rel error < 1e-4)."""

import numpy as np
import pytest

from helpers import GRAD_TOL, check_gradients, dot, fd_gradient, grad_rel_error, traced_bytes
from litnet.data import synthetic_dataset
from litnet.errors import ShapeError, StateError
from litnet.model import build, toy_config
from litnet.tensor import (BatchNormState, Tape, Tensor, add, attention, batch_norm, conv2d,
                           deform_sample, gather_last, gelu, layer_norm, matmul, mean_axis,
                           reshape, softmax, softmax_cross_entropy, tensor)


def rand(rng, *shape):
    return tensor(rng.uniform(-2.0, 2.0, size=shape), requires_grad=True)


def projected(rng, f):
    """Wrap ``f`` with one fixed random projection to a scalar.

    The projection is drawn once so repeated calls (tape pass plus every
    finite-difference evaluation) measure the same loss.
    """
    probe = Tensor(rng.normal(size=f().shape))
    return lambda: dot(probe, f())


def test_backward_sum_is_ones():
    x = tensor([1.0, -2.0, 3.0], requires_grad=True)
    with Tape() as t:
        loss = dot(tensor(np.ones(3)), x)
    t.backward(loss)
    assert np.array_equal(x.grad, np.ones(3))


def test_backward_quadratic():
    x = tensor([1.0, 2.0], requires_grad=True)
    with Tape() as t:
        loss = dot(x, x)
    t.backward(loss)
    assert np.allclose(x.grad, [2.0, 4.0], atol=1e-15)


def test_backward_requires_scalar_loss():
    x = tensor([1.0, 2.0], requires_grad=True)
    with Tape() as t:
        y = add(x, x)
        loss = dot(tensor([1.0, 3.0]), y)
    with pytest.raises(ShapeError, match=r"^backward requires a scalar loss, got shape \(2,\)$"):
        t.backward(y)
    t.backward(loss)  # the refusal left the tape unconsumed
    assert np.array_equal(x.grad, [2.0, 6.0])


def test_backward_twice_is_a_dead_tape():
    x = tensor([1.0], requires_grad=True)
    with Tape() as t:
        loss = reshape(x, ())
    t.backward(loss)
    with pytest.raises(StateError):
        t.backward(loss)


def test_backward_without_tape_errors():
    x = tensor([1.0], requires_grad=True)
    loss = reshape(x, ())  # no live tape: nothing recorded
    with pytest.raises(StateError):
        Tape().backward(loss)


def test_tapes_do_not_leak_between_computations():
    x = tensor([2.0], requires_grad=True)
    with Tape() as t1:
        loss1 = dot(x, x)
    with Tape() as t2:
        loss2 = dot(x, tensor([3.0]))
    t2.backward(loss2)
    assert np.allclose(x.grad, [3.0])
    x.grad = None
    t1.backward(loss1)
    assert np.allclose(x.grad, [4.0])


def test_grad_accumulates_across_reuse_in_one_graph():
    x = tensor([3.0], requires_grad=True)
    with Tape() as t:
        loss = add(dot(x, x), reshape(x, (1, 1)))  # d/dx (x^2 + x) = 2x + 1
    t.backward(loss)
    assert np.allclose(x.grad, [7.0])


@pytest.mark.parametrize("seed", [0, 1])
def test_grad_elementwise_and_structural_ops(seed):
    rng = np.random.default_rng(seed)
    x = rand(rng, 3, 4)
    y = rand(rng, 3, 4)
    b = rand(rng, 4)
    check_gradients(projected(rng, lambda: add(add(x, y), b)), [x, y, b])

    z = rand(rng, 2, 3, 4)
    check_gradients(projected(rng, lambda: reshape(z, (2, 12, 1))), [z])
    check_gradients(projected(rng, lambda: mean_axis(z, 1)), [z])


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


def test_grad_matmul_with_bias():
    rng = np.random.default_rng(7)
    w, b = rand(rng, 3, 4), rand(rng, 4)
    for a in (rand(rng, 5, 3), rand(rng, 2, 6, 3)):
        check_gradients(projected(rng, lambda: matmul(a, w, b)), [a, w, b])


def test_a_taped_matmul_forms_no_gradient_for_an_operand_that_needs_none():
    rng = np.random.default_rng(3)
    a = Tensor(rng.normal(size=(6, 3)))
    w = rand(rng, 3, 4)
    g = rng.normal(size=(6, 4))
    with Tape() as tape:
        matmul(a, w)
    (_, _, backward), = tape._nodes
    ga, gw = backward(g)
    assert ga is None
    assert np.array_equal(gw, a.data.T @ g)


def test_gradients_route_by_key_when_freed_tensors_give_up_their_ids():
    # The tape keeps no intermediate, so each matmul output is freed once the
    # next is made, and CPython may hand its id() to the bias leaf made next.
    # Routed by id(), that leaf's gradient would reach the freed product's
    # backward, and the leaf would count as produced and get none.
    rng = np.random.default_rng(4)
    x = rand(rng, 2, 3)
    w = tensor(np.eye(3) + 0.01 * rng.normal(size=(3, 3)), requires_grad=True)
    b = tensor(0.01 * rng.normal(size=3), requires_grad=True)
    steps, products, biases = 100, [], []

    def loss():
        y = x
        for _ in range(steps):
            product = matmul(y, w)
            biases.append(Tensor(b.data, requires_grad=True))  # reads b's perturbed data
            products.append(id(product))
            y = add(product, biases[-1])
        return dot(y, y)

    check_gradients(loss, [x, w])  # runs the taped forward first
    taped = biases[:steps]
    assert {id(t) for t in taped} & set(products[:steps])
    numeric = fd_gradient(lambda: loss().item(), b)
    assert grad_rel_error(sum(t.grad for t in taped), numeric) < GRAD_TOL


def test_a_tape_holds_no_tensor_but_its_leaves():
    model = build(toy_config(), seed=0)
    images, labels = synthetic_dataset(4, seed=0, size=toy_config().resolution)
    with Tape() as tape:
        loss = softmax_cross_entropy(model.forward(images, mode="train"), labels)
    params = {t.key for t in model.named_params().values()}
    outputs = [key for key, _, _ in tape._nodes]
    entries = [entry for _, node_entries, _ in tape._nodes for entry in node_entries
               if entry is not None]
    held = [leaf for _, leaf in entries if leaf is not None]
    assert all(type(key) is int for key in outputs + [key for key, _ in entries])
    assert loss.key in outputs and not params & set(outputs)
    assert {t.key for t in held} == params


def test_a_tape_keeps_no_output_that_no_backward_reads():
    # matmul's backward reads its inputs and add's reads nothing, so after
    # the forward only the sum, the tape and the closures are held
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(4096, 64)))
    w = Tensor(rng.normal(size=(64, 64)), requires_grad=True)
    b = Tensor(rng.normal(size=64), requires_grad=True)

    def forward():
        with Tape() as tape:
            y = add(matmul(x, w), b)
        return tape, y

    kept, _ = traced_bytes(forward)
    assert kept < x.data.nbytes + 2 ** 16  # the sum is x's size, as the product would be


def test_a_consumed_tape_frees_what_its_backward_functions_held():
    # gelu's backward keeps a cdf of x's size; once the tape's backward has
    # run, x's gradient is all that stays, though the tape is still held
    x = Tensor(np.random.default_rng(6).normal(size=(512, 512)), requires_grad=True)

    def forward_and_backward():
        with Tape() as tape:
            y = gelu(x)
            loss = dot(Tensor(np.ones(y.shape)), y)
        tape.backward(loss)
        return tape, loss

    kept, _ = traced_bytes(forward_and_backward)
    assert kept < x.data.nbytes + 2 ** 16


def test_a_backward_frees_each_node_before_the_earlier_ones_run():
    # the conv runs first and its backward last, and that backward gathers an
    # im2col copy 25x its input's size; the gelus' closures, which keep a cdf
    # and an input each, must be gone by then, so that the peak stays below
    # what the forward kept plus that copy
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(1, 64, 64, 8)))
    w = Tensor(0.1 * rng.normal(size=(5, 5, 8, 8)), requires_grad=True)

    def forward():
        with Tape() as tape:
            y = conv2d(x, w, padding=2)
            for _ in range(3):
                y = gelu(y)
            loss = dot(Tensor(np.ones(y.shape)), y)
        return tape, loss

    def forward_and_backward():
        tape, loss = forward()
        tape.backward(loss)

    kept, _ = traced_bytes(forward)
    _, peak = traced_bytes(forward_and_backward)
    assert peak < kept + 64 * 64 * 5 * 5 * 8 * x.data.itemsize


def test_a_leaf_takes_the_gradient_array_its_backward_built():
    # mean_axis's backward builds one array of w's size; a copy of it for
    # w.grad would double the peak
    w = Tensor(np.ones(2 ** 20, dtype=np.float32), requires_grad=True)
    with Tape() as tape:
        loss = mean_axis(w, 0)
    _, peak = traced_bytes(lambda: tape.backward(loss))
    assert peak < 1.5 * w.data.nbytes


def test_grad_softmax_gelu():
    rng = np.random.default_rng(3)
    x = rand(rng, 3, 7)
    check_gradients(projected(rng, lambda: softmax(x)), [x])
    check_gradients(projected(rng, lambda: gelu(x)), [x])


@pytest.mark.parametrize("with_bias", [False, True], ids=["plain", "bias"])
def test_grad_attention(with_bias):
    rng = np.random.default_rng(12)
    t = 6 if with_bias else 4  # a bias needs T = H * W, here 2 x 3
    qkv = rand(rng, 2, t, 3 * 3 * 2)  # 3 heads of d = 2
    table = rand(rng, 3, 3, 5) if with_bias else None
    params = [qkv, table] if with_bias else [qkv]
    check_gradients(projected(rng, lambda: attention(qkv, 3, table)[0]), params)


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
