"""The FC / convolution / attention equivalence suite and the
receptive-field probes."""

import numpy as np
import pytest

from helpers import delta_attention_loop
from litnet.equivalence import (attention_as_conv, build_msa_as_conv, centered_taps,
                                interior_mask, msa_vs_conv_deviation, padded_conv,
                                receptive_field_probe, verify_fc_equals_1x1_conv)
from litnet.blocks import MlpBlockParams, mlp_block, msa
from litnet.errors import ConfigError
from litnet.tensor import Tensor, conv2d, matmul, reshape, tensor


def on_image(layer, image: np.ndarray) -> np.ndarray:
    """A probe layer applied to one [H, W, C] image."""
    return layer(Tensor(image[None])).data[0]


def test_fc_equals_1x1_conv_fp64():
    rng = np.random.default_rng(0)
    for _ in range(5):
        dev = verify_fc_equals_1x1_conv(rng.normal(size=(4, 6)), rng)
        assert dev < 1e-12


def test_fc_equals_1x1_conv_identity_weight():
    dev = verify_fc_equals_1x1_conv(np.eye(5))
    assert dev == 0.0


def test_fc_equals_1x1_conv_fp32_path():
    rng = np.random.default_rng(1)
    w = rng.uniform(-1, 1, size=(8, 8)).astype(np.float32)
    x = rng.uniform(-1, 1, size=(6, 6, 8)).astype(np.float32)
    tokens = tensor(x.reshape(1, 36, 8), dtype=np.float32)
    fc = matmul(tokens, tensor(w, dtype=np.float32)).data.reshape(6, 6, 8)
    conv = conv2d(tensor(x[None], dtype=np.float32), tensor(w[None, None], dtype=np.float32)).data[0]
    assert np.abs(fc - conv).max() < 1e-6


def test_k1_construction_is_an_fc_layer():
    rng = np.random.default_rng(2)
    w = rng.normal(size=(1, 1, 4, 7))
    image = rng.normal(size=(5, 5, 4))
    out = on_image(lambda x: attention_as_conv(x, w, centered_taps(1)), image)
    want = image @ w[0, 0]
    assert np.abs(out - want).max() < 1e-12


@pytest.mark.parametrize("kernel", [1, 2, 3])
@pytest.mark.parametrize("grid", [(4, 4), (6, 6), (8, 8), (5, 7)])
def test_msa_equals_conv_on_interior(kernel, grid):
    rng = np.random.default_rng(kernel * 100 + grid[0])
    conv_w = rng.normal(size=(kernel, kernel, 4, 5))
    image = rng.normal(size=(*grid, 4))
    dev = msa_vs_conv_deviation(image, conv_w)
    assert dev < 1e-10


def test_msa_equals_conv_ten_seeds():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        for kernel in (1, 3):
            conv_w = rng.normal(size=(kernel, kernel, 3, 4))
            image = rng.normal(size=(6, 6, 3))
            worst = max(worst, msa_vs_conv_deviation(image, conv_w))
    assert worst < 1e-10


def test_head_relabeling_symmetry():
    rng = np.random.default_rng(3)
    conv_w = rng.normal(size=(3, 3, 2, 2))
    image = rng.normal(size=(6, 6, 2))
    base = on_image(lambda x: attention_as_conv(x, conv_w, centered_taps(3)), image)
    perm = rng.permutation(9)
    shifts = [centered_taps(3)[i] for i in perm]
    permuted = on_image(lambda x: attention_as_conv(x, conv_w, shifts), image)
    # same terms summed in permuted order: equal up to float reassociation
    assert np.abs(base - permuted).max() < 1e-12


def test_construction_rejects_head_count_mismatch():
    rng = np.random.default_rng(4)
    conv_w = rng.normal(size=(2, 2, 3, 3))
    five_heads = ((0, 0), (0, 1), (1, 0), (1, 1), (2, 2))
    with pytest.raises(ConfigError, match="5 head shifts"):
        build_msa_as_conv(conv_w, (4, 4), five_heads)


def test_construction_rejects_shifts_off_the_kernel():
    rng = np.random.default_rng(5)
    conv_w = rng.normal(size=(2, 2, 3, 3))
    wrong = ((0, 0), (0, 1), (1, 0), (2, 2))
    with pytest.raises(ConfigError, match="not a bijection"):
        build_msa_as_conv(conv_w, (4, 4), wrong)


def test_shift_map_must_be_bijective():
    conv_w = np.zeros((2, 2, 3, 3))
    with pytest.raises(ConfigError, match="not a bijection"):
        build_msa_as_conv(conv_w, (4, 4), ((0, 0), (0, 0), (1, 0), (1, 1)))


@pytest.mark.parametrize("kernel", [1, 2, 3])
@pytest.mark.parametrize("grid", [(4, 4), (5, 7), (8, 8), (1, 5)],
                         ids=["4x4", "5x7", "8x8", "1x5"])
def test_construction_attends_one_hot_to_each_head_shift(kernel, grid):
    # boundary rows, whose shifted pixel is off the grid, attend to themselves;
    # on the 1 x 5 grid no vertical shift has a slot in the table
    rng = np.random.default_rng(kernel * 10 + grid[1])
    params = build_msa_as_conv(rng.normal(size=(kernel, kernel, 3, 2)), grid)
    tokens = Tensor(rng.normal(size=(2, grid[0] * grid[1], 3)))
    _, attn = msa(tokens, params, with_attn=True)
    want = delta_attention_loop(centered_taps(kernel), *grid)
    assert np.array_equal(attn, np.broadcast_to(want, (2,) + want.shape))


def test_deviation_refuses_a_kernel_with_no_interior_pixel():
    with pytest.raises(ConfigError, match="a 5x5 kernel has no interior pixel on the 4x4 grid"):
        msa_vs_conv_deviation(np.zeros((4, 4, 2)), np.zeros((5, 5, 2, 3)))


def test_interior_mask_extents():
    mask = interior_mask((6, 6), 3)
    assert mask.sum() == 16  # 4x4 interior
    assert interior_mask((6, 6), 1).all()
    mask2 = interior_mask((6, 6), 2)
    assert mask2.sum() == 25  # top-left 5x5 for the {0,1}^2 alphabet


def test_receptive_field_mlp_is_one_pixel():
    rng = np.random.default_rng(6)
    params = MlpBlockParams.create(rng, 3, 2, dtype=np.float64)
    def mlp(x):
        return reshape(mlp_block(reshape(x, (1, 64, 3)), params), (1, 8, 8, 3))

    report = receptive_field_probe([mlp], (8, 8), (3, 4), rng=rng)
    assert report.k_eff == 1
    assert report.masks[-1].sum() == 1
    assert report.masks[-1][3, 4]


def test_receptive_field_conv3_is_3x3():
    rng = np.random.default_rng(7)
    conv_w = rng.normal(size=(3, 3, 3, 3))
    report = receptive_field_probe([lambda x: padded_conv(x, conv_w)], (8, 8), (4, 4), rng=rng)
    assert report.k_eff == 3
    assert report.masks[-1].sum() == 9


def test_receptive_field_attention_matches_conv_probe():
    rng = np.random.default_rng(8)
    conv_w = rng.normal(size=(3, 3, 3, 3))
    conv_report = receptive_field_probe([lambda x: padded_conv(x, conv_w)],
                                        (9, 9), (4, 4), rng=rng)
    attn_report = receptive_field_probe([lambda x: attention_as_conv(x, conv_w)],
                                        (9, 9), (4, 4), rng=rng)
    assert np.array_equal(conv_report.masks[-1], attn_report.masks[-1])


@pytest.mark.parametrize("heads", [1, 4, 9])
def test_receptive_field_grows_with_sqrt_heads(heads):
    kernel = int(round(heads ** 0.5))
    rng = np.random.default_rng(9 + heads)
    conv_w = rng.normal(size=(kernel, kernel, 3, 3))
    report = receptive_field_probe([lambda x: attention_as_conv(x, conv_w)], (9, 9), (4, 4),
                                   rng=rng)
    assert report.k_eff == kernel


def test_receptive_field_stacked_convs_compose():
    rng = np.random.default_rng(10)
    w1, w2 = rng.normal(size=(3, 3, 3, 3)), rng.normal(size=(3, 3, 3, 3))
    stack = [lambda x: padded_conv(x, w1), lambda x: padded_conv(x, w2)]
    report = receptive_field_probe(stack, (11, 11), (5, 5), rng=rng)
    assert report.masks[0].sum() == 9
    assert report.masks[1].sum() == 25
    assert report.k_eff == 5


def test_conv_reference_against_conv2d_padding():
    rng = np.random.default_rng(11)
    image = rng.normal(size=(5, 5, 2))
    w = rng.normal(size=(3, 3, 2, 2))
    ref = on_image(lambda x: padded_conv(x, w), image)
    direct = conv2d(Tensor(image[None]), Tensor(w), padding=1).data[0]
    assert np.array_equal(ref, direct)
