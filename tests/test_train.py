"""Optimizer recursion, schedule endpoints, determinism, and resume."""

import gc

import numpy as np
import pytest

from helpers import micro_config, traced_bytes
from litnet import train as train_module
from litnet.checkpoint import save_tensors
from litnet.data import synthetic_dataset
from litnet.errors import ConfigError, NumericError
from litnet.model import build, toy_config
from litnet.tensor import _BLOCK, Tensor
from litnet.train import (AdamW, TrainSettings, cosine_lr, evaluate_accuracy,
                          is_offset_param, load_training_checkpoint, run_training,
                          save_training_checkpoint, train_step)


def test_cosine_endpoints():
    assert cosine_lr(100, 1000, warmup_steps=100) == pytest.approx(1.0)
    assert cosine_lr(1000, 1000, warmup_steps=100) == pytest.approx(0.0, abs=1e-18)
    assert cosine_lr(550, 1000, warmup_steps=100) == pytest.approx(0.5)
    assert cosine_lr(0, 1000, warmup_steps=100) == 0.0
    assert cosine_lr(50, 1000, warmup_steps=100) == pytest.approx(0.5)


def test_cosine_rejects_step_past_total():
    with pytest.raises(ConfigError):
        cosine_lr(1001, 1000)


def test_adamw_zero_gradients_decay_only():
    p = Tensor(np.array([2.0, -4.0], dtype=np.float64), requires_grad=True)
    opt = AdamW({"w": p}, TrainSettings(lr=0.1, weight_decay=0.5))
    p.grad = np.zeros(2)
    opt.step()
    assert np.allclose(p.data, [2.0 * (1 - 0.05), -4.0 * (1 - 0.05)], atol=1e-15)


def test_adamw_matches_hand_unrolled_recursion():
    grads = [0.3, -0.7, 0.2, 0.9, -0.1]
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = AdamW({"w": p}, TrainSettings(lr=1e-2, weight_decay=0.04))

    # textbook recursion, decoupled decay applied with the same step rate
    theta, m, v = 1.0, 0.0, 0.0
    b1, b2, eps, lr, wd = 0.9, 0.999, 1e-8, 1e-2, 0.04
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        theta = theta - lr * mhat / (np.sqrt(vhat) + eps) - lr * wd * theta

        p.grad = np.array([g])
        opt.step()
        assert p.data[0] == pytest.approx(theta, abs=1e-12)


def rebinding_adamw(opt, p, g, m, v, lr_scale, group):
    """One parameter's AdamW update, written as whole-array expressions that
    rebind the parameter; ``step`` must give the same bits in place."""
    t = opt.step_count
    bc1, bc2 = 1.0 - opt.BETA1 ** t, 1.0 - opt.BETA2 ** t
    lr_t = lr_scale * group.lr
    m *= opt.BETA1
    m += (1.0 - opt.BETA1) * g
    v *= opt.BETA2
    v += (1.0 - opt.BETA2) * g * g
    update = (m / bc1) / (np.sqrt(v / bc2) + opt.EPS)
    return p - lr_t * update - lr_t * group.weight_decay * p


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adamw_updates_in_place_with_the_bits_of_the_rebinding_update(dtype):
    rng = np.random.default_rng(7)
    sizes = {"w": (3, _BLOCK // 2 + 5), "stage2.merge.offset_conv.b": (19,)}
    params = {n: Tensor(rng.normal(size=s).astype(dtype), requires_grad=True) for n, s in sizes.items()}
    opt = AdamW(params, TrainSettings(lr=1e-2, offset_lr=1e-3, weight_decay=0.05))
    main, offset = opt.groups
    assert (main.names, offset.names, offset.weight_decay) == (["w"], ["stage2.merge.offset_conv.b"], 0.0)
    want = {n: p.data.copy() for n, p in params.items()}
    moments = {n: (np.zeros_like(p.data), np.zeros_like(p.data)) for n, p in params.items()}
    arrays = {n: p.data for n, p in params.items()}
    for step in range(5):
        lr_scale = 1.0 - 0.15 * step
        for p in params.values():
            p.grad = rng.normal(size=p.data.shape).astype(dtype)
        opt.step(lr_scale)
        for group in opt.groups:
            for n in group.names:
                want[n] = rebinding_adamw(opt, want[n], params[n].grad, *moments[n], lr_scale, group)
    for n, p in params.items():
        assert p.data is arrays[n], n
        assert p.data.dtype == dtype and p.data.tobytes() == want[n].tobytes(), n
        assert opt.m[n].tobytes() == moments[n][0].tobytes(), n
        assert opt.v[n].tobytes() == moments[n][1].tobytes(), n


def test_adamw_step_holds_only_one_blocks_scratch():
    # the update runs in _BLOCK-element slices through two scratch arrays of
    # one slice each, so a parameter of four blocks needs no array of its size
    size = 4 * _BLOCK + 17
    p = Tensor(np.linspace(-1.0, 1.0, size), requires_grad=True)
    opt = AdamW({"w": p})
    p.grad = np.cos(np.arange(size, dtype=np.float64))
    _, peak = traced_bytes(opt.step)
    assert peak < 2 * _BLOCK * p.data.itemsize + 2 ** 16


def test_a_toy_train_step_peaks_where_it_was_measured():
    # a regression alarm on the benchmark's train-toy shape: batch 32 at 64 px,
    # one step after a warm-up. Measured at 10.07 MiB (tracemalloc, numpy
    # 2.4); the bound leaves 2%. It was 11.40 MiB while taped attention kept
    # its probabilities and deform_sample its sampling matrix, and the MLP
    # backward allocated per tile; a backward that kept every node until its
    # end peaked at 12.93 MiB.
    config = toy_config()
    model = build(config, seed=0)
    images, labels = synthetic_dataset(64, seed=0, size=config.resolution)
    opt = AdamW(model.named_params())
    train_step(model, images[:32], labels[:32], opt)
    gc.collect()
    _, peak = traced_bytes(lambda: train_step(model, images[32:], labels[32:], opt))
    assert peak < 1.02 * 10.07 * 2 ** 20


def test_offset_parameters_form_their_own_group():
    model = build(micro_config(), seed=0)
    opt = AdamW(model.named_params(), TrainSettings(lr=1e-3, offset_lr=1e-5))
    main, offset = opt.groups
    assert offset.lr == 1e-5 and offset.weight_decay == 0.0
    assert all(is_offset_param(n) for n in offset.names)
    assert len(offset.names) == 6  # three merges, weight + bias each
    assert not any(is_offset_param(n) for n in main.names)


def test_adamw_takes_its_default_rates_from_train_settings():
    # the benchmark's toy train step builds its optimizer this way
    defaults = TrainSettings()
    main, offset = AdamW(build(micro_config(), seed=0).named_params()).groups
    assert (main.lr, main.weight_decay) == (defaults.lr, defaults.weight_decay)
    assert (offset.lr, offset.weight_decay) == (defaults.offset_lr, 0.0)


def test_train_step_runs_and_reports():
    model = build(micro_config(num_classes=3), seed=0)
    images, labels = synthetic_dataset(8, seed=0, size=32, num_classes=3)
    opt = AdamW(model.named_params(), TrainSettings(lr=1e-3))
    loss, correct = train_step(model, images, labels, opt, lr_scale=1.0)
    assert np.isfinite(loss)
    assert 0 <= correct <= 8


@pytest.mark.parametrize("field,value", [
    ("epochs", 0), ("batch_size", 0), ("seed", -1), ("checkpoint_every", -1),
    ("lr", float("nan")), ("offset_lr", -1e-5), ("weight_decay", float("inf")),
    ("warmup_frac", float("nan")),
])
def test_train_settings_reject_out_of_range_values(field, value):
    with pytest.raises(ConfigError, match=field):
        TrainSettings(**{field: value})


def test_training_is_bit_deterministic(tmp_path):
    settings = TrainSettings(epochs=2, batch_size=8, seed=5, checkpoint_every=0)
    images, labels = synthetic_dataset(16, seed=1, size=32, num_classes=3)

    def run():
        model = build(micro_config(num_classes=3), seed=5)
        run_training(model, images, labels, settings, out_dir=tmp_path)
        return {n: p.data.copy() for n, p in model.named_params().items()}

    a, b = run(), run()
    for name in a:
        assert a[name].tobytes() == b[name].tobytes(), name


def test_resume_continues_bit_identically(tmp_path):
    images, labels = synthetic_dataset(16, seed=2, size=32, num_classes=3)

    straight = build(micro_config(num_classes=3), seed=3)
    run_training(straight, images, labels,
                 TrainSettings(epochs=4, batch_size=8, seed=3, checkpoint_every=0),
                 out_dir=tmp_path / "straight")

    # same 4-epoch schedule, checkpointing at the epoch-2 boundary
    half = build(micro_config(num_classes=3), seed=3)
    run_training(half, images, labels,
                 TrainSettings(epochs=4, batch_size=8, seed=3, checkpoint_every=2),
                 out_dir=tmp_path)
    resumed = build(micro_config(num_classes=3), seed=3)
    run_training(resumed, images, labels,
                 TrainSettings(epochs=4, batch_size=8, seed=3, checkpoint_every=0),
                 out_dir=tmp_path / "resumed", resume=tmp_path / "ckpt_epoch0002.litckpt")

    for name, p in straight.named_params().items():
        assert p.data.tobytes() == resumed.named_params()[name].data.tobytes(), name


def test_a_resume_past_the_epoch_budget_loads_nothing(tmp_path):
    source = build(micro_config(num_classes=3), seed=1)
    save_training_checkpoint(tmp_path / "ahead.litckpt", source, AdamW(source.named_params()), 3)
    model = build(micro_config(num_classes=3), seed=0)
    before = {name: arr.copy() for name, arr in model.named_state().items()}
    images, labels = synthetic_dataset(4, seed=0, size=32, num_classes=3)
    with pytest.raises(ConfigError, match="saved at epoch 3, outside the 0-2 epochs of this run"):
        run_training(model, images, labels, TrainSettings(epochs=2, batch_size=4),
                     out_dir=tmp_path / "out", resume=tmp_path / "ahead.litckpt")
    after = model.named_state()
    assert all(np.array_equal(before[name], after[name]) for name in before)


@pytest.mark.parametrize("step,epoch,refused", [
    (2 ** 24 - 1, 2 ** 24 - 1, None),
    (2 ** 24, 1, "optimizer step 16777216"),
    (1, 2 ** 24, "epoch 16777216"),
])
def test_a_counter_float32_cannot_hold_is_not_checkpointed(tmp_path, step, epoch, refused):
    model = build(micro_config(num_classes=3), seed=0)
    optimizer = AdamW(model.named_params())
    optimizer.step_count = step
    path = tmp_path / "ckpt.litckpt"
    if refused:
        with pytest.raises(ConfigError, match=refused):
            save_training_checkpoint(path, model, optimizer, epoch)
        assert not path.exists()
        return
    save_training_checkpoint(path, model, optimizer, epoch)
    resumed = AdamW(model.named_params())
    assert load_training_checkpoint(path, model, resumed, epoch) == epoch
    assert resumed.step_count == step


def test_a_run_a_checkpoint_cannot_count_is_refused_before_it_trains(tmp_path, monkeypatch):
    # under a limit of 3, this run of 4 one-step epochs would end at epoch
    # and step 4, and its final checkpoint would be refused
    monkeypatch.setattr(train_module, "COUNTER_LIMIT", 3)
    model = build(micro_config(num_classes=3), seed=0)
    before = {name: arr.copy() for name, arr in model.named_state().items()}
    images, labels = synthetic_dataset(4, seed=0, size=32, num_classes=3)
    epochs = []
    with pytest.raises(ConfigError, match="cannot checkpoint epoch 4"):
        run_training(model, images, labels, TrainSettings(epochs=4, batch_size=4),
                     out_dir=tmp_path / "out", on_epoch=epochs.append)
    assert epochs == [] and not (tmp_path / "out").exists()
    after = model.named_state()
    assert all(np.array_equal(before[name], after[name]) for name in before)


def test_offset_lr_zero_freezes_offsets_exactly(tmp_path):
    model = build(micro_config(num_classes=3), seed=0)
    images, labels = synthetic_dataset(8, seed=0, size=32, num_classes=3)
    settings = TrainSettings(epochs=3, batch_size=8, seed=0, offset_lr=0.0,
                             checkpoint_every=0)
    run_training(model, images, labels, settings, out_dir=tmp_path)
    for name, p in model.named_params().items():
        if is_offset_param(name):
            assert np.all(p.data == 0.0), name


def test_loss_decreases_on_tiny_overfit(tmp_path):
    model = build(micro_config(num_classes=3), seed=0)
    images, labels = synthetic_dataset(12, seed=4, size=32, num_classes=3)
    result = run_training(model, images, labels,
                          TrainSettings(epochs=30, batch_size=12, seed=0,
                                        checkpoint_every=0), out_dir=tmp_path)
    first = np.mean([s.loss for s in result.history[:5]])
    last = np.mean([s.loss for s in result.history[-5:]])
    assert last < first


def test_evaluate_accuracy_range():
    model = build(micro_config(num_classes=3), seed=0)
    model.seed_norm_stats()
    images, labels = synthetic_dataset(9, seed=5, size=32, num_classes=3)
    acc = evaluate_accuracy(model, images, labels, batch_size=4)
    assert 0.0 <= acc <= 1.0


def test_adamw_refuses_a_non_finite_gradient_before_changing_anything():
    model = build(micro_config(), seed=0)
    opt = AdamW(model.named_params())
    images, labels = synthetic_dataset(4, seed=0, size=32, num_classes=3)
    train_step(model, images, labels, opt)  # non-zero moments
    rng = np.random.default_rng(0)
    for p in opt.params.values():
        p.grad = rng.normal(size=p.data.shape).astype(p.data.dtype)
    opt.params["head.w"].grad[1, 2] = np.nan  # near the end of the update order
    before = ({n: p.data.copy() for n, p in opt.params.items()},
              {n: m.copy() for n, m in opt.m.items()}, {n: v.copy() for n, v in opt.v.items()})
    with pytest.raises(NumericError, match="non-finite gradient for head.w"):
        opt.step()
    assert opt.step_count == 1
    after = ({n: p.data for n, p in opt.params.items()}, opt.m, opt.v)
    for was, now in zip(before, after):
        assert all(was[n].tobytes() == now[n].tobytes() for n in was)


def test_a_moment_shaped_unlike_its_parameter_is_refused_before_anything_loads(tmp_path):
    model = build(toy_config(), seed=0)
    opt = AdamW(model.named_params())
    before = model.named_state()
    state = {k: v + 1.0 for k, v in {**before, **opt.state_arrays()}.items()}
    state["opt.head.w.m"] = np.arange(640, dtype=np.float32).reshape(10, 64)
    state["meta.epoch"] = np.array([1.0], dtype=np.float32)
    save_tensors(tmp_path / "ckpt.litckpt", state)
    with pytest.raises(ConfigError, match=r"^opt\.head\.w\.m: checkpoint shape \(10, 64\) does "
                                          r"not match model shape \(64, 10\)$"):
        load_training_checkpoint(tmp_path / "ckpt.litckpt", model, opt, 2)
    assert opt.step_count == 0
    assert all(not m.any() and not v.any() for m, v in zip(opt.m.values(), opt.v.values()))
    after = model.named_state()
    assert list(after) == list(before)
    assert all(before[name].tobytes() == after[name].tobytes() for name in before)
