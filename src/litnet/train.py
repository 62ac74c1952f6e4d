"""Deterministic training harness: decoupled-weight-decay adaptive
optimizer, warmup-plus-cosine schedule, and a plain epoch loop.

Offset-predictor parameters live in their own group with an independent
learning rate (``TrainSettings.offset_lr``) and no weight decay; the rest
trains at the base rate with decoupled decay. Data order is derived
statelessly from (seed, epoch), so resuming from an epoch-boundary
checkpoint reproduces the uninterrupted run bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .checkpoint import COUNTER_LIMIT, load_tensors, read_counter, save_tensors
from .errors import ConfigError, NumericError
from .model import LitModel
from .tensor import _BLOCK, Tape, Tensor, _all_finite, softmax_cross_entropy


def cosine_lr(step: int, total_steps: int, warmup_steps: int = 0) -> float:
    """Scale of the base rate: linear warmup to 1, then cosine decay to zero."""
    if step > total_steps:
        raise ConfigError(f"step {step} exceeds total_steps {total_steps}")
    if warmup_steps > 0 and step < warmup_steps:
        return step / warmup_steps
    span = max(total_steps - warmup_steps, 1)
    progress = (step - warmup_steps) / span
    return 0.5 * (1.0 + math.cos(math.pi * progress))


def is_offset_param(name: str) -> bool:
    return ".offset_conv." in name


@dataclass(frozen=True)
class TrainSettings:
    epochs: int = 200
    batch_size: int = 32
    lr: float = 1e-3
    offset_lr: float = 1e-5
    weight_decay: float = 5e-2
    warmup_frac: float = 0.05
    seed: int = 0
    checkpoint_every: int = 50   # epochs between checkpoints; 0 writes only the final one

    def __post_init__(self):
        for name, least in (("epochs", 1), ("batch_size", 1), ("seed", 0), ("checkpoint_every", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be at least {least}, got {getattr(self, name)}")
        for name in ("lr", "offset_lr", "weight_decay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ConfigError(f"{name} must be finite and at least 0, got {value}")
        if not 0.0 <= self.warmup_frac <= 1.0:
            raise ConfigError(f"warmup_frac must lie in [0, 1], got {self.warmup_frac}")


@dataclass
class ParamGroup:
    names: list[str]
    lr: float
    weight_decay: float


class AdamW:
    """Adaptive moments with decoupled weight decay.

    beta1 = 0.9, beta2 = 0.999, eps = 1e-8. ``step`` applies, per group,
    lr_t = lr_scale * group.lr; decay is p -= lr_t * wd * p, applied with
    the same step's rate. The rates come from ``settings``: the DTM offset
    predictors form their own group, with ``offset_lr`` and no weight decay.

    ``step`` writes each parameter and its moments in place, ``_BLOCK``
    elements at a time through two block-sized scratch arrays, in the order
    of ops, and so with the bits, of p - lr_t * update - (lr_t * wd) * p.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: Mapping[str, Tensor], settings: TrainSettings = TrainSettings()):
        self.params = dict(params)
        offset_names = [n for n in self.params if is_offset_param(n)]
        main_names = [n for n in self.params if not is_offset_param(n)]
        self.groups = [
            ParamGroup(main_names, settings.lr, settings.weight_decay),
            ParamGroup(offset_names, settings.offset_lr, 0.0),
        ]
        self.m = {n: np.zeros_like(p.data) for n, p in self.params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in self.params.items()}
        self.step_count = 0

    def step(self, lr_scale: float = 1.0) -> None:
        """One update of every parameter that has a gradient. A non-finite
        gradient raises NumericError naming its parameter before any
        parameter, moment or the step count changes."""
        for name, p in self.params.items():
            if p.grad is not None and not _all_finite(p.grad):
                raise NumericError(f"non-finite gradient for {name}")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.BETA1 ** t
        bc2 = 1.0 - self.BETA2 ** t
        for group in self.groups:
            lr_t = lr_scale * group.lr
            for name in group.names:
                p = self.params[name]
                if p.grad is not None:
                    self._update(p.data, p.grad, self.m[name], self.v[name], lr_t,
                                 lr_t * group.weight_decay, bc1, bc2)

    def _update(self, p, g, m, v, lr_t, decay, bc1, bc2) -> None:
        """The moments, then p - lr_t * (m / bc1) / (sqrt(v / bc2) + eps) - decay * p, in place."""
        flats = [a.reshape(-1) for a in (p, g, m, v)]
        scratch = np.empty((2, min(p.size, _BLOCK)), p.dtype)
        for lo in range(0, p.size, _BLOCK):
            pb, gb, mb, vb = (f[lo:lo + _BLOCK] for f in flats)
            a, b = scratch[:, :pb.size]
            mb *= self.BETA1
            np.multiply(gb, 1.0 - self.BETA1, out=a)
            mb += a
            vb *= self.BETA2
            np.multiply(gb, 1.0 - self.BETA2, out=a)
            a *= gb
            vb += a
            np.divide(mb, bc1, out=a)
            np.divide(vb, bc2, out=b)
            np.sqrt(b, out=b)
            b += self.EPS
            a /= b
            a *= lr_t
            np.subtract(pb, a, out=a)
            np.multiply(pb, decay, out=b)
            np.subtract(a, b, out=pb)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for name in self.params:
            out[f"opt.{name}.m"] = self.m[name]
            out[f"opt.{name}.v"] = self.v[name]
        out["opt.step"] = np.array([self.step_count], dtype=np.float32)
        return out


def train_step(model: LitModel, images: np.ndarray, labels: np.ndarray,
               optimizer: AdamW, lr_scale: float = 1.0) -> tuple[float, int]:
    """One optimizer step; returns (loss, correct predictions)."""
    with Tape() as tape:
        logits = model.forward(images, mode="train")
        loss = softmax_cross_entropy(logits, labels)
    tape.backward(loss)
    optimizer.step(lr_scale)
    optimizer.zero_grad()
    correct = int((logits.data.argmax(axis=1) == labels).sum())
    return loss.item(), correct


def evaluate_accuracy(model: LitModel, images: np.ndarray, labels: np.ndarray,
                      batch_size: int) -> float:
    correct = 0
    for start in range(0, len(images), batch_size):
        logits = model.forward(images[start:start + batch_size], mode="eval")
        correct += int((logits.data.argmax(axis=1) == labels[start:start + batch_size]).sum())
    return correct / len(images)


@dataclass
class EpochStats:
    epoch: int
    step: int
    lr: float
    loss: float
    train_acc: float


@dataclass
class TrainResult:
    history: list[EpochStats] = field(default_factory=list)
    final_accuracy: float = 0.0
    checkpoints: list[Path] = field(default_factory=list)


def _epoch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, epoch])))
    return rng.permutation(n)


def _refuse_counters(step: int, epoch: int) -> None:
    for name, value in (("epoch", epoch), ("optimizer step", step)):
        if value >= COUNTER_LIMIT:
            raise ConfigError(f"cannot checkpoint {name} {value}: checkpoints store it "
                              "as float32, which is exact only below 2**24")


def check_run_counters(n: int, settings: TrainSettings) -> None:
    """Raise ConfigError, before anything trains, when the last optimizer step
    or epoch of a run over ``n`` images is a counter that
    ``save_training_checkpoint`` would refuse."""
    _refuse_counters(math.ceil(n / settings.batch_size) * settings.epochs, settings.epochs)


def save_training_checkpoint(path: Path, model: LitModel, optimizer: AdamW,
                             epoch: int) -> None:
    """Write the model, optimizer and epoch. ``opt.step`` and ``meta.epoch``
    are stored as float32, which holds every integer only below 2**24, so a
    larger counter raises ConfigError instead of resuming from a rounded one."""
    _refuse_counters(optimizer.step_count, epoch)
    state = model.named_state()
    state.update(optimizer.state_arrays())
    state["meta.epoch"] = np.array([epoch], dtype=np.float32)
    save_tensors(path, state)


def load_training_checkpoint(path: Path, model: LitModel, optimizer: AdamW, epochs: int) -> int:
    """Load a ``save_training_checkpoint`` file into ``model`` and ``optimizer``
    and return its epoch. A file that is not one, or that was saved outside the
    0..epochs of a run of ``epochs`` epochs, raises ConfigError before anything
    loads; so does any record that ``LitModel.load_state``, the one checker of
    a checkpoint's names, shapes and counters, refuses."""
    state = load_tensors(path)
    missing = [k for k in (*optimizer.state_arrays(), "meta.epoch") if k not in state]
    if missing:
        shown = missing if len(missing) <= 3 else [*missing[:2], "...", missing[-1]]
        raise ConfigError(f"{path} is not a training checkpoint: {len(missing)} optimizer "
                          f"and meta records are missing ({', '.join(shown)})")
    epoch = read_counter(state, "meta.epoch")
    if not 0 <= epoch <= epochs:
        raise ConfigError(f"{path} was saved at epoch {epoch}, outside the "
                          f"0-{epochs} epochs of this run")
    model.load_state(state)  # checks the optimizer and meta records too
    for name, p in optimizer.params.items():
        optimizer.m[name] = np.array(state[f"opt.{name}.m"], dtype=p.data.dtype)
        optimizer.v[name] = np.array(state[f"opt.{name}.v"], dtype=p.data.dtype)
    optimizer.step_count = read_counter(state, "opt.step")
    return epoch


def run_training(model: LitModel, images: np.ndarray, labels: np.ndarray,
                 settings: TrainSettings, out_dir: Path, resume: Path | None = None,
                 on_epoch: Callable[[EpochStats], None] | None = None) -> TrainResult:
    """Train to the epoch budget; deterministic under (settings.seed, data).
    Checkpoints go into ``out_dir``. An empty training set, a run whose
    counters a checkpoint cannot store and a ``resume`` file that does not
    load are refused before ``out_dir`` is created or anything trains."""
    n = len(images)
    if n == 0:
        raise ConfigError("empty training set")
    check_run_counters(n, settings)
    steps_per_epoch = math.ceil(n / settings.batch_size)
    total_steps = settings.epochs * steps_per_epoch
    warmup_steps = int(round(settings.warmup_frac * total_steps))

    optimizer = AdamW(model.named_params(), settings)
    start_epoch = 0
    if resume is not None:
        start_epoch = load_training_checkpoint(resume, model, optimizer, settings.epochs)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = TrainResult()

    global_step = start_epoch * steps_per_epoch
    for epoch in range(start_epoch, settings.epochs):
        order = _epoch_order(settings.seed, epoch, n)
        epoch_loss = 0.0
        epoch_correct = 0
        last_lr = 0.0
        for start in range(0, n, settings.batch_size):
            batch_idx = order[start:start + settings.batch_size]
            lr_scale = cosine_lr(global_step, total_steps, warmup_steps)
            last_lr = lr_scale * settings.lr
            try:
                loss, correct = train_step(model, images[batch_idx], labels[batch_idx],
                                           optimizer, lr_scale)
            except NumericError as exc:
                raise NumericError(
                    f"epoch {epoch} step {global_step}: {exc}; "
                    "the most recent checkpoint is retained") from exc
            epoch_loss += loss * len(batch_idx)
            epoch_correct += correct
            global_step += 1
        stats = EpochStats(epoch=epoch, step=global_step, lr=last_lr,
                           loss=epoch_loss / n, train_acc=epoch_correct / n)
        result.history.append(stats)
        if on_epoch is not None:
            on_epoch(stats)
        if settings.checkpoint_every > 0 and (epoch + 1) % settings.checkpoint_every == 0:
            path = out_dir / f"ckpt_epoch{epoch + 1:04d}.litckpt"
            save_training_checkpoint(path, model, optimizer, epoch + 1)
            result.checkpoints.append(path)

    final = out_dir / "ckpt_final.litckpt"
    save_training_checkpoint(final, model, optimizer, settings.epochs)
    result.checkpoints.append(final)
    result.final_accuracy = evaluate_accuracy(model, images, labels, settings.batch_size)
    return result
