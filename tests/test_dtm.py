"""Deformable convolution and token merging: zero-offset reduction,
literal-summation oracle, gradients, and offset traces."""

import numpy as np
import pytest

from helpers import check_gradients, deformable_conv_loop, micro_config
from litnet.dtm import (DeformableConvParams, DtmParams, deformable_conv,
                        dtm_forward, trace_offsets)
from litnet.errors import ConfigError, NumericError, StateError
from litnet.model import ForwardRecord, build, toy_config
from litnet.tensor import Tensor, conv2d, mul, sum_all, tensor


def make_dc(rng, cin=3, cout=4):
    return DeformableConvParams.create(rng, cin, cout, dtype=np.float64)


def test_zero_offsets_reduce_to_standard_conv():
    rng = np.random.default_rng(0)
    p = make_dc(rng)
    x = tensor(rng.normal(size=(2, 8, 8, 3)))
    out, offsets = deformable_conv(x, p)
    ref = conv2d(x, p.w, p.b, stride=2, padding=0)
    assert np.array_equal(out.data, ref.data)  # bit for bit at zero offsets
    assert np.all(offsets == 0.0)


def test_zero_offsets_on_integer_friendly_inputs():
    rng = np.random.default_rng(1)
    p = make_dc(rng, cin=2, cout=2)
    p.w.data = np.round(p.w.data * 100)
    x = tensor(rng.integers(-3, 4, size=(1, 6, 6, 2)).astype(np.float64))
    out, _ = deformable_conv(x, p)
    ref = conv2d(x, p.w, p.b, stride=2)
    assert np.array_equal(out.data, ref.data)


def test_constant_input_is_offset_invariant():
    rng = np.random.default_rng(2)
    p = make_dc(rng)
    # interior offsets only: keep every sample inside the constant image
    p.offset_b.data = rng.uniform(-0.4, 0.4, size=p.offset_b.shape)
    x = tensor(np.full((1, 10, 10, 3), 1.7))
    out, offsets = deformable_conv(x, p)
    assert np.any(offsets != 0.0)
    interior = out.data[:, 1:-1, 1:-1, :]
    ref = conv2d(x, p.w, p.b, stride=2).data[:, 1:-1, 1:-1, :]
    assert np.abs(interior - ref).max() < 1e-12


def test_matches_literal_summation_oracle():
    rng = np.random.default_rng(3)
    p = make_dc(rng, cin=2, cout=3)
    # inject offsets through the predictor bias so both routes see them
    p.offset_b.data = rng.uniform(-0.9, 0.9, size=p.offset_b.shape)
    x = rng.normal(size=(1, 6, 6, 2))
    out, offsets = deformable_conv(tensor(x), p)
    want = deformable_conv_loop(x, p.w.data, p.b.data, offsets, stride=2)
    assert np.abs(out.data - want).max() < 1e-10


def test_non_finite_offsets_raise():
    rng = np.random.default_rng(4)
    p = make_dc(rng)
    p.offset_b.data[0] = np.inf
    with pytest.raises(NumericError):
        deformable_conv(tensor(rng.normal(size=(1, 4, 4, 3))), p)


def test_offset_gradients_zero_for_constant_input():
    # probe the central output location so every bilinear neighborhood is
    # strictly interior (at the border, zero padding itself is structure)
    rng = np.random.default_rng(5)
    p = make_dc(rng)
    p.offset_b.data = rng.uniform(-0.3, 0.3, size=p.offset_b.shape)
    x = tensor(np.full((1, 6, 6, 3), 2.0))
    from litnet.tensor import Tape
    pick = np.zeros((1, 3, 3, 4))
    pick[0, 1, 1, :] = 1.0
    p.offset_b.grad = None
    with Tape() as t:
        out, _ = deformable_conv(x, p)
        loss = sum_all(mul(out, Tensor(pick)))
    t.backward(loss)
    assert np.abs(p.offset_b.grad).max() < 1e-10


def test_offset_gradients_nonzero_for_structured_input():
    rng = np.random.default_rng(6)
    p = make_dc(rng)
    p.offset_b.data = rng.uniform(-0.3, 0.3, size=p.offset_b.shape)
    x = tensor(rng.normal(size=(1, 6, 6, 3)))
    from litnet.tensor import Tape
    with Tape() as t:
        out, _ = deformable_conv(x, p)
        loss = sum_all(out)
    t.backward(loss)
    assert np.abs(p.offset_b.grad).max() > 1e-6


def test_deformable_conv_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    p = make_dc(rng, cin=2, cout=2)
    p.offset_w.data = rng.normal(0.0, 0.3, size=p.offset_w.shape)
    p.offset_b.data = rng.normal(0.0, 0.2, size=p.offset_b.shape)
    x = tensor(rng.uniform(-2, 2, size=(1, 6, 6, 2)), requires_grad=True)
    probe = Tensor(rng.normal(size=(1, 3, 3, 2)))
    check_gradients(
        lambda: sum_all(mul(deformable_conv(x, p)[0], probe)),
        [x, p.w, p.b, p.offset_w, p.offset_b])


def test_dtm_output_extents_and_seeded_bn():
    rng = np.random.default_rng(8)
    p = DtmParams.create(rng, 3, 5, dtype=np.float64)
    p.bn_state.seed_identity(5, np.float64)
    x = tensor(rng.normal(size=(2, 8, 8, 3)))
    out, _ = dtm_forward(x, p, mode="eval")
    assert out.shape == (2, 4, 4, 5)


def test_dtm_zero_offsets_is_gelu_bn_of_strided_conv():
    rng = np.random.default_rng(9)
    p = DtmParams.create(rng, 2, 3, dtype=np.float64)
    p.bn_state.seed_identity(3, np.float64)
    x = tensor(rng.normal(size=(1, 6, 6, 2)))
    out, _ = dtm_forward(x, p, mode="eval")
    from litnet.tensor import batch_norm, gelu, BatchNormState
    ref = gelu(batch_norm(conv2d(x, p.dc.w, p.dc.b, stride=2),
                          p.bn_g, p.bn_b, BatchNormState().seed_identity(3, np.float64),
                          "eval"))
    assert np.abs(out.data - ref.data).max() < 1e-12


def test_dtm_rejects_odd_extents():
    rng = np.random.default_rng(10)
    p = DtmParams.create(rng, 3, 4)
    with pytest.raises(ConfigError):
        dtm_forward(tensor(np.zeros((1, 7, 8, 3))), p)


def test_dtm_gradients_including_offset_predictor():
    rng = np.random.default_rng(11)
    p = DtmParams.create(rng, 2, 3, dtype=np.float64)
    p.dc.offset_w.data = rng.normal(0.0, 0.25, size=p.dc.offset_w.shape)
    p.dc.offset_b.data = rng.normal(0.0, 0.2, size=p.dc.offset_b.shape)
    x = tensor(rng.uniform(-2, 2, size=(1, 6, 6, 2)), requires_grad=True)
    probe = Tensor(rng.normal(size=(1, 3, 3, 3)))
    check_gradients(
        lambda: sum_all(mul(dtm_forward(x, p, "train")[0], probe)),
        [x, p.dc.offset_w, p.dc.offset_b, p.bn_g, p.bn_b])


# --------------------------------------------------------------------------
# Offset traces
# --------------------------------------------------------------------------


def recorded_offsets(model, images) -> dict[int, np.ndarray]:
    record = ForwardRecord()
    model.forward(images, mode="train", record=record)
    return record.offsets


def test_uniform_merge_model_equals_dtm_model_at_zero_offsets():
    rng = np.random.default_rng(13)
    images = rng.uniform(size=(2, 64, 64, 3)).astype(np.float32)
    dtm_model = build(toy_config(merge_kind="dtm"), seed=3)
    uniform_model = build(toy_config(merge_kind="uniform_conv"), seed=3)
    record = ForwardRecord()
    uniform_logits = uniform_model.forward(images, mode="train", record=record).data
    dtm_logits = dtm_model.forward(images, mode="train").data
    assert uniform_logits.tobytes() == dtm_logits.tobytes()
    assert record.offsets == {}


def test_trace_before_forward_is_a_state_error():
    with pytest.raises(StateError):
        trace_offsets(ForwardRecord().offsets, (0, 0))


def test_trace_rejects_a_token_outside_the_final_grid():
    model = build(micro_config(resolution=32), seed=0)
    fields = recorded_offsets(model, np.zeros((1, 32, 32, 3), dtype=np.float32))
    for token in ((1, 0), (0, -1)):         # the final grid is 1x1
        with pytest.raises(ConfigError):
            trace_offsets(fields, token)


def test_trace_zero_offsets_tiles_the_token_footprint():
    model = build(micro_config(resolution=64), seed=0)
    rng = np.random.default_rng(12)
    fields = recorded_offsets(model, rng.normal(size=(1, 64, 64, 3)).astype(np.float32))
    token = (1, 1)
    coords = trace_offsets(fields, token)
    assert coords.shape == (64, 2)
    ys = sorted(set(coords[:, 0]))
    xs = sorted(set(coords[:, 1]))
    assert ys == [32.0 * token[0] + 4 * i for i in range(8)]
    assert xs == [32.0 * token[1] + 4 * i for i in range(8)]


def test_trace_always_returns_64_coordinates():
    model = build(micro_config(resolution=32), seed=0)
    fields = recorded_offsets(model, np.zeros((2, 32, 32, 3), dtype=np.float32))
    coords = trace_offsets(fields, (0, 0), batch_index=1)
    assert coords.shape == (64, 2)


def test_trace_stage2_perturbation_moves_exactly_its_leaves_by_4_delta():
    model = build(micro_config(resolution=64), seed=0)
    fields = recorded_offsets(model, np.zeros((1, 64, 64, 3), dtype=np.float32))
    base = trace_offsets(fields, (0, 0))

    delta = 0.375
    fields = {s: f.copy() for s, f in fields.items()}
    # stage-2 merge output location (1, 1), tap 2, y component
    fields[2][0, 1, 1, 2, 0] += delta
    moved = trace_offsets(fields, (0, 0))

    diff = moved - base
    changed = np.nonzero(np.abs(diff).max(axis=1) > 0)[0]
    # leaves reaching stage-2 location (1,1) with tap 2: leaf = k4*16 + k3*4 + 2
    # where the stage-2 position 2*p3 + tap3 equals (1,1)
    expected = []
    taps = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for k4 in range(4):
        p3 = np.array(taps[k4], dtype=float)
        for k3 in range(4):
            p2 = 2 * p3 + np.array(taps[k3], dtype=float)
            if tuple(p2) == (1.0, 1.0):
                expected.append(k4 * 16 + k3 * 4 + 2)
    assert sorted(changed.tolist()) == sorted(expected)
    assert np.allclose(diff[changed, 0], 4.0 * delta)
    assert np.allclose(diff[changed, 1], 0.0)
