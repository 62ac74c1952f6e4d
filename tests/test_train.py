"""Optimizer recursion, schedule endpoints, determinism, and resume."""

import numpy as np
import pytest

from helpers import micro_config
from litnet.data import synthetic_dataset
from litnet.errors import ConfigError, NumericError
from litnet.model import build, toy_config
from litnet.tensor import Tensor
from litnet.train import (AdamW, TrainSettings, cosine_lr, evaluate_accuracy,
                          is_offset_param, load_training_checkpoint, run_training,
                          save_training_checkpoint, train_step)


def test_cosine_endpoints():
    assert cosine_lr(100, 1000, 2e-3, warmup_steps=100) == pytest.approx(2e-3)
    assert cosine_lr(1000, 1000, 2e-3, warmup_steps=100) == pytest.approx(0.0, abs=1e-18)
    assert cosine_lr(550, 1000, 2e-3, warmup_steps=100) == pytest.approx(1e-3)
    assert cosine_lr(0, 1000, 2e-3, warmup_steps=100) == 0.0
    assert cosine_lr(50, 1000, 2e-3, warmup_steps=100) == pytest.approx(1e-3)


def test_cosine_rejects_step_past_total():
    with pytest.raises(ConfigError):
        cosine_lr(1001, 1000, 1e-3)


def test_adamw_zero_gradients_decay_only():
    p = Tensor(np.array([2.0, -4.0], dtype=np.float64), requires_grad=True)
    opt = AdamW({"w": p}, lr=0.1, weight_decay=0.5)
    p.grad = np.zeros(2)
    opt.step()
    assert np.allclose(p.data, [2.0 * (1 - 0.05), -4.0 * (1 - 0.05)], atol=1e-15)


def test_adamw_matches_hand_unrolled_recursion():
    grads = [0.3, -0.7, 0.2, 0.9, -0.1]
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = AdamW({"w": p}, lr=1e-2, weight_decay=0.04)

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


def test_offset_parameters_form_their_own_group():
    model = build(micro_config(), seed=0)
    opt = AdamW(model.named_params(), lr=1e-3, offset_lr=1e-5)
    main, offset = opt.groups
    assert offset.lr == 1e-5 and offset.weight_decay == 0.0
    assert all(is_offset_param(n) for n in offset.names)
    assert len(offset.names) == 6  # three merges, weight + bias each
    assert not any(is_offset_param(n) for n in main.names)


def test_train_step_runs_and_reports():
    model = build(micro_config(num_classes=3), seed=0)
    images, labels = synthetic_dataset(8, seed=0, size=32, num_classes=3)
    opt = AdamW(model.named_params(), lr=1e-3)
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


def test_training_is_bit_deterministic():
    settings = TrainSettings(epochs=2, batch_size=8, seed=5, checkpoint_every=0)
    images, labels = synthetic_dataset(16, seed=1, size=32, num_classes=3)

    def run():
        model = build(micro_config(num_classes=3), seed=5)
        run_training(model, images, labels, settings)
        return {n: p.data.copy() for n, p in model.named_params().items()}

    a, b = run(), run()
    for name in a:
        assert a[name].tobytes() == b[name].tobytes(), name


def test_resume_continues_bit_identically(tmp_path):
    images, labels = synthetic_dataset(16, seed=2, size=32, num_classes=3)

    straight = build(micro_config(num_classes=3), seed=3)
    run_training(straight, images, labels,
                 TrainSettings(epochs=4, batch_size=8, seed=3, checkpoint_every=0))

    # same 4-epoch schedule, checkpointing at the epoch-2 boundary
    half = build(micro_config(num_classes=3), seed=3)
    run_training(half, images, labels,
                 TrainSettings(epochs=4, batch_size=8, seed=3, checkpoint_every=2),
                 out_dir=tmp_path)
    resumed = build(micro_config(num_classes=3), seed=3)
    run_training(resumed, images, labels,
                 TrainSettings(epochs=4, batch_size=8, seed=3, checkpoint_every=0),
                 resume=tmp_path / "ckpt_epoch0002.litckpt")

    for name, p in straight.named_params().items():
        assert p.data.tobytes() == resumed.named_params()[name].data.tobytes(), name


def test_a_resume_past_the_epoch_budget_loads_nothing(tmp_path):
    source = build(micro_config(num_classes=3), seed=1)
    save_training_checkpoint(tmp_path / "ahead.litckpt", source, AdamW(source.named_params()), 3)
    model = build(micro_config(num_classes=3), seed=0)
    before = model.named_state()
    images, labels = synthetic_dataset(4, seed=0, size=32, num_classes=3)
    with pytest.raises(ConfigError, match="saved at epoch 3, outside the 0-2 epochs of this run"):
        run_training(model, images, labels, TrainSettings(epochs=2, batch_size=4),
                     resume=tmp_path / "ahead.litckpt")
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


def test_offset_lr_zero_freezes_offsets_exactly():
    model = build(micro_config(num_classes=3), seed=0)
    images, labels = synthetic_dataset(8, seed=0, size=32, num_classes=3)
    settings = TrainSettings(epochs=3, batch_size=8, seed=0, offset_lr=0.0,
                             checkpoint_every=0)
    run_training(model, images, labels, settings)
    for name, p in model.named_params().items():
        if is_offset_param(name):
            assert np.all(p.data == 0.0), name


def test_loss_decreases_on_tiny_overfit():
    model = build(micro_config(num_classes=3), seed=0)
    images, labels = synthetic_dataset(12, seed=4, size=32, num_classes=3)
    result = run_training(model, images, labels,
                          TrainSettings(epochs=30, batch_size=12, seed=0,
                                        checkpoint_every=0))
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


def test_adamw_refuses_a_moment_shaped_unlike_its_parameter_before_loading_any():
    opt = AdamW(build(toy_config(), seed=0).named_params())
    state = {k: v + 1.0 for k, v in opt.state_arrays().items()}
    state["opt.head.w.m"] = np.arange(640, dtype=np.float32).reshape(10, 64)
    with pytest.raises(ConfigError, match=r"^opt\.head\.w\.m: checkpoint shape \(10, 64\) does "
                                          r"not match parameter shape \(64, 10\)$"):
        opt.load_state_arrays(state)
    assert opt.step_count == 0
    assert all(not m.any() and not v.any() for m, v in zip(opt.m.values(), opt.v.values()))
