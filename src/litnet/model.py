"""Model assembly: stage specifications, stock variants, ablations, and
the four-stage forward pass."""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Mapping, get_type_hints

import numpy as np

from .blocks import (PATCH_DIM, MlpBlockParams, PatchEmbedParams, TransformerBlockParams,
                     mlp_block, patch_embed, transformer_block)
from .checkpoint import read_counter
from .dtm import DtmParams, dtm_forward
from .errors import ConfigError, NumericError
from .init import ones, weight, zeros
from .tensor import Tensor, add, layer_norm, matmul, mean_axis, reshape

BLOCK_MLP = "mlp"
BLOCK_TRANSFORMER = "transformer"
MERGE_LINEAR = "linear_embed"
MERGE_DTM = "dtm"
MERGE_UNIFORM = "uniform_conv"
POS_KINDS = ("absolute", "relative", "none")

# Stages whose input receives the learnable absolute position table.
ABSOLUTE_POS_STAGES = (3, 4)
# Weights drawn from which a model builds its units on a thread pool; a
# smaller one builds them in order on the calling thread. Widening the toy
# layout, the pool overtook the serial build between 155k weights (6.1-6.2
# against 4.6-5.2 ms) and 193k (5.7-6.6 against 6.4-6.9 ms); the toy draws
# 137k, lit-s 27.9M (0.33-0.36 s against 0.61-0.65 s). 2-vCPU x86-64,
# medians of 25 interleaved builds, two runs.
_PARALLEL_MIN_WEIGHTS = 200_000


def _fields_from_dict(cls, data, what: str) -> dict:
    """The value in ``data`` of each field of the dataclass ``cls``, checked
    so that a malformed config file fails before any arithmetic on it."""
    if not isinstance(data, Mapping):
        raise ConfigError(f"{what} must be an object, got {data!r}")
    names = [f.name for f in fields(cls)]
    for problem, keys in (("unknown", set(data) - set(names)), ("missing", set(names) - set(data))):
        if keys:
            raise ConfigError(f"{problem} {what} keys: {sorted(keys)}")
    for name, kind in get_type_hints(cls).items():
        if kind in (int, str) and type(data[name]) is not kind:
            raise ConfigError(f"{what} key {name!r} must be {kind.__name__}, got {data[name]!r}")
    return {name: data[name] for name in names}


@dataclass(frozen=True)
class StageSpec:
    """Per-stage hyperparameters."""

    patch_size: int
    channels: int
    depth: int
    heads: int
    expansion: int
    block_kind: str
    merge_kind: str

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "StageSpec":
        return cls(**_fields_from_dict(cls, data, "stage"))


@dataclass(frozen=True)
class ModelConfig:
    """Whole-model assembly: four stages plus global settings."""

    stages: tuple[StageSpec, ...]
    positional_encoding: str
    num_classes: int
    resolution: int

    def resolution_problem(self, resolution: int) -> str | None:
        """Why the stages cannot tile ``resolution`` exactly, or None."""
        total_patch = math.prod(spec.patch_size for spec in self.stages)
        if 0 < total_patch and resolution < total_patch:  # before 0 and -32 pass the next test
            return (f"resolution {resolution} must be at least "
                    f"the total downsampling factor {total_patch}")
        if total_patch < 1 or resolution % total_patch:
            return (f"resolution {resolution} is not divisible by "
                    f"the total downsampling factor {total_patch}")
        return None

    def images_problem(self, shape: tuple[int, ...]) -> str | None:
        """Why a batch of images of ``shape`` is not model input, or None."""
        if len(shape) != 4 or shape[3] != 3:
            return f"expected [N, H, W, 3] images, got shape {shape}"
        if shape[1:3] != (self.resolution, self.resolution):
            return (f"model was built for {self.resolution}x{self.resolution} input, "
                    f"got {shape[1]}x{shape[2]}")
        return None

    def validate(self) -> list[str]:
        """Collect every invariant violation (empty list when valid)."""
        problems: list[str] = []
        if len(self.stages) != 4:
            problems.append(f"expected 4 stages, got {len(self.stages)}")
            return problems
        if self.positional_encoding not in POS_KINDS:
            problems.append(f"positional_encoding must be one of {POS_KINDS}, "
                            f"got {self.positional_encoding!r}")
        if self.num_classes < 1:
            problems.append(f"num_classes must be positive, got {self.num_classes}")
        resolution_problem = self.resolution_problem(self.resolution)
        if resolution_problem:
            problems.append(resolution_problem)
        for idx, spec in enumerate(self.stages, start=1):
            tag = f"stage {idx}"
            if spec.depth < 1:
                problems.append(f"{tag}: depth must be >= 1, got {spec.depth}")
            if spec.expansion < 1:
                problems.append(f"{tag}: expansion must be >= 1, got {spec.expansion}")
            if spec.channels < 1:
                problems.append(f"{tag}: channels must be >= 1, got {spec.channels}")
            if spec.block_kind not in (BLOCK_MLP, BLOCK_TRANSFORMER):
                problems.append(f"{tag}: unknown block_kind {spec.block_kind!r}")
            elif spec.block_kind == BLOCK_MLP and spec.heads != 0:
                problems.append(f"{tag}: block_kind {spec.block_kind!r} is inconsistent "
                                f"with heads={spec.heads} (mlp blocks have 0 heads)")
            elif spec.block_kind == BLOCK_TRANSFORMER and spec.heads < 1:
                problems.append(f"{tag}: transformer blocks need heads >= 1, got {spec.heads}")
            elif spec.block_kind == BLOCK_TRANSFORMER and spec.channels % spec.heads:
                problems.append(f"{tag}: channels {spec.channels} not divisible "
                                f"by heads {spec.heads}")
            if idx == 1:
                if spec.patch_size != 4:
                    problems.append(f"{tag}: patch size must be 4, got {spec.patch_size}")
                if spec.merge_kind != MERGE_LINEAR:
                    problems.append(f"{tag}: merge_kind must be {MERGE_LINEAR!r}, "
                                    f"got {spec.merge_kind!r}")
            else:
                if spec.patch_size != 2:
                    problems.append(f"{tag}: patch size must be 2, got {spec.patch_size}")
                if spec.merge_kind not in (MERGE_DTM, MERGE_UNIFORM):
                    problems.append(f"{tag}: merge_kind must be {MERGE_DTM!r} or "
                                    f"{MERGE_UNIFORM!r}, got {spec.merge_kind!r}")
        return problems

    def check(self) -> None:
        """Raise ConfigError naming every violation ``validate`` finds."""
        problems = self.validate()
        if problems:
            raise ConfigError("invalid model config: " + "; ".join(problems))

    def grids(self, resolution: int | None = None) -> list[tuple[int, int]]:
        """Token grid (h, w) at the output of each stage."""
        res = self.resolution if resolution is None else resolution
        out = []
        h = w = res
        for spec in self.stages:
            h //= spec.patch_size
            w //= spec.patch_size
            out.append((h, w))
        return out

    def to_dict(self) -> dict:
        return dict(asdict(self), stages=[s.to_dict() for s in self.stages])

    @classmethod
    def from_dict(cls, data: Mapping) -> "ModelConfig":
        values = _fields_from_dict(cls, data, "config")
        if not isinstance(values["stages"], (list, tuple)):
            raise ConfigError("'stages' must be a list of stage objects")
        values["stages"] = tuple(StageSpec.from_dict(s) for s in values["stages"])
        config = cls(**values)
        config.check()
        return config

    def save_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load_json(cls, path: str | Path) -> "ModelConfig":
        try:
            data = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        return cls.from_dict(data)


def _stages(channels, depths, heads, expansions, kinds,
            merge_kind: str = MERGE_DTM) -> tuple[StageSpec, ...]:
    merges = [MERGE_LINEAR, merge_kind, merge_kind, merge_kind]
    patch = [4, 2, 2, 2]
    return tuple(
        StageSpec(patch_size=patch[i], channels=channels[i], depth=depths[i],
                  heads=heads[i], expansion=expansions[i], block_kind=kinds[i],
                  merge_kind=merges[i])
        for i in range(4)
    )


_MLP2 = (BLOCK_MLP, BLOCK_MLP, BLOCK_TRANSFORMER, BLOCK_TRANSFORMER)

_PRESETS = {
    "lit-ti": ModelConfig(
        stages=_stages([64, 128, 320, 512], [3, 4, 6, 3], [0, 0, 5, 8], [8, 8, 4, 4], _MLP2),
        positional_encoding="absolute", num_classes=1000, resolution=224),
    "lit-s": ModelConfig(
        stages=_stages([96, 192, 384, 768], [2, 2, 6, 2], [0, 0, 12, 24], [4, 4, 4, 4], _MLP2),
        positional_encoding="relative", num_classes=1000, resolution=224),
    "lit-m": ModelConfig(
        stages=_stages([96, 192, 384, 768], [2, 2, 18, 2], [0, 0, 12, 24], [4, 4, 4, 4], _MLP2),
        positional_encoding="relative", num_classes=1000, resolution=224),
    "lit-b": ModelConfig(
        stages=_stages([128, 256, 512, 1024], [2, 2, 18, 2], [0, 0, 16, 32], [4, 4, 4, 4], _MLP2),
        positional_encoding="relative", num_classes=1000, resolution=224),
}

PRESET_NAMES = tuple(_PRESETS)


def preset(name: str) -> ModelConfig:
    """The stock variants at 224x224 and 1000 classes."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}") from None


def toy_config(merge_kind: str = MERGE_DTM) -> ModelConfig:
    """Width-reduced stock layout for synthetic-data experiments: 10
    classes at 64x64."""
    stages = _stages([16, 32, 48, 64], [1, 1, 2, 1], [0, 0, 3, 4], [4, 4, 4, 4], _MLP2, merge_kind)
    return ModelConfig(stages=stages, positional_encoding="relative",
                       num_classes=10, resolution=64)


def ablate(config: ModelConfig, remove_msa_stages: Iterable[int]) -> ModelConfig:
    """Switch the listed stages to MLP blocks (attention removed, depth kept)."""
    remove = set(remove_msa_stages)
    invalid = remove - {1, 2, 3, 4}
    if invalid:
        raise ConfigError(f"stages to ablate must be a subset of {{1, 2, 3, 4}}, got {sorted(invalid)}")
    stages = tuple(
        replace(spec, block_kind=BLOCK_MLP, heads=0) if idx in remove else spec
        for idx, spec in enumerate(config.stages, start=1)
    )
    return replace(config, stages=stages)


@contextmanager
def _layer(path: str):
    """Re-raise a NumericError from the enclosed layer with ``path`` prefixed."""
    try:
        yield
    except NumericError as exc:
        raise NumericError(f"{path}: {exc}") from exc


def _build_units(units: list[tuple[str, int, Callable]], seed: int) -> dict:
    """``create(rng)`` of each (prefix, weights drawn, create) unit, by
    prefix, each from its own generator keyed by ``seed`` and the unit's
    checkpoint-name prefix alone. With more than one usable CPU and at least
    ``_PARALLEL_MIN_WEIGHTS`` weights in all, the units run largest first on
    one worker thread per CPU (numpy's draws release the GIL); else in order
    on this thread. Either way each unit draws the same values."""
    def build(prefix: str, make: Callable):
        return make(np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *prefix.encode()]))))

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cpus, len(units))
    if workers < 2 or sum(size for _, size, _ in units) < _PARALLEL_MIN_WEIGHTS:
        return {prefix: build(prefix, make) for prefix, _, make in units}
    with ThreadPoolExecutor(workers) as pool:
        futures = {prefix: pool.submit(build, prefix, make)
                   for prefix, _, make in sorted(units, key=lambda unit: -unit[1])}
    return {prefix: future.result() for prefix, future in futures.items()}


def _own(record, live: np.ndarray | None, dtype) -> np.ndarray:
    """``live`` itself when the checkpoint record is that array, as in a
    ``named_state()`` round trip; else a copy of the record in ``dtype``,
    so that the model never shares a caller's buffer."""
    return live if record is live else np.array(record, dtype=dtype)


@dataclass
class ForwardRecord:
    """Inspection data captured during one forward pass.

    ``offsets`` receives the offset field of every DTM merge. ``attention``
    is keyed by the (stage, block) pairs whose [N, heads, T, T]
    probabilities the caller wants, each set to None before the pass;
    ``LitModel.forward`` builds those maps in full (or keeps them from the
    tape) and no others, so a pass without such keys holds none.
    """

    attention: dict[tuple[int, int], np.ndarray | None] = field(default_factory=dict)
    offsets: dict[int, np.ndarray] = field(default_factory=dict)


class LitModel:
    """Four-stage hierarchical model built from a validated config.

    Parameters are named hierarchically and immutable during forward.
    An eval-mode forward changes no model state, so concurrent inference
    is safe; a train-mode forward updates the batch-norm running
    statistics. Inspection data (attention maps, DTM offset fields) goes
    to the caller's ``ForwardRecord``.

    Each unit of the model (the patch embedding, each position table,
    merge and block, and the head) draws its weights from its own
    generator, keyed by ``seed`` and the unit's checkpoint-name prefix,
    such as ``stage3.block1``. A unit's initial weights therefore depend on
    neither the units built before it, nor the order or the thread they are
    built on, nor the number of workers: two layouts that share a unit start
    it from the same values, and float32 and float64 builds round the same
    float64 draws. A model of at least ``_PARALLEL_MIN_WEIGHTS`` weights
    builds its units on a thread pool.
    """

    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32):
        config.check()
        self.config = config
        self.dtype = dt = np.dtype(dtype).type
        grids = config.grids()
        relative = config.positional_encoding == "relative"
        absolute = config.positional_encoding == "absolute"
        c1, c4 = config.stages[0].channels, config.stages[3].channels

        # (checkpoint prefix, weights drawn, create(rng)) of each unit, in order
        units = [("patch_embed", PATCH_DIM * c1, partial(PatchEmbedParams.create, channels=c1, dtype=dt))]
        for stage in ABSOLUTE_POS_STAGES if absolute else ():
            shape = (math.prod(grids[stage - 1]), config.stages[stage - 1].channels)
            units.append((f"pos.stage{stage}", math.prod(shape), partial(weight, shape=shape, dtype=dt)))
        for idx, spec in enumerate(config.stages, start=1):
            c, e = spec.channels, spec.expansion
            if idx > 1:
                cin = config.stages[idx - 2].channels
                units.append((f"stage{idx}.merge", 4 * cin * c, partial(
                    DtmParams.create, cin=cin, cout=c, dtype=dt, deformable=spec.merge_kind == MERGE_DTM)))
            if spec.block_kind == BLOCK_MLP:
                size, make = 2 * e * c * c, partial(MlpBlockParams.create, channels=c, expansion=e, dtype=dt)
            else:
                h, w = grid = grids[idx - 1]
                size = (2 * e + 4) * c * c + (spec.heads * (2 * h - 1) * (2 * w - 1) if relative else 0)
                make = partial(TransformerBlockParams.create, channels=c, heads=spec.heads, expansion=e,
                               grid=grid if relative else None, dtype=dt)
            units += [(f"stage{idx}.block{i}", size, make) for i in range(spec.depth)]
        shape = (c4, config.num_classes)
        units.append(("head", math.prod(shape), partial(weight, shape=shape, dtype=dt)))
        built = _build_units(units, seed)

        self.embed = built["patch_embed"]
        self.pos_tables: dict[int, Tensor] = {
            stage: built[f"pos.stage{stage}"] for stage in ABSOLUTE_POS_STAGES if absolute}
        self.merges: dict[int, DtmParams] = {idx: built[f"stage{idx}.merge"] for idx in range(2, 5)}
        self.stages: list[list] = [[built[f"stage{idx}.block{i}"] for i in range(spec.depth)]
                                   for idx, spec in enumerate(config.stages, start=1)]
        self.final_ln_g = ones(c4, dt)
        self.final_ln_b = zeros(c4, dt)
        self.head_w = built["head"]
        self.head_b = zeros(config.num_classes, dt)

    # -- parameter bookkeeping ------------------------------------------------

    def named_params(self) -> dict[str, Tensor]:
        out = self.embed.named("patch_embed")
        for stage, table in self.pos_tables.items():
            out[f"pos.stage{stage}"] = table
        for stage in range(1, 5):
            if stage in self.merges:
                out.update(self.merges[stage].named(f"stage{stage}.merge"))
            for i, block in enumerate(self.stages[stage - 1]):
                out.update(block.named(f"stage{stage}.block{i}"))
        out["final_norm.g"] = self.final_ln_g
        out["final_norm.b"] = self.final_ln_b
        out["head.w"] = self.head_w
        out["head.b"] = self.head_b
        return out

    def named_state(self) -> dict[str, np.ndarray]:
        """Parameters plus batch-norm running statistics, as the live arrays:
        the next optimizer step overwrites them, so copy them to snapshot."""
        out = {name: t.data for name, t in self.named_params().items()}
        for stage, merge in self.merges.items():
            out.update(merge.named_state(f"stage{stage}.merge"))
        return out

    def load_state(self, state: Mapping[str, np.ndarray]) -> None:
        """Load parameters (and running stats when present) by name.

        Besides this model's parameters and batch-norm running stats,
        ``state`` may hold only the records of a training checkpoint:
        ``opt.step``, ``meta.epoch`` and the moments ``opt.<param>.m`` and
        ``.v`` of the model's own parameters; any other name is refused. So is
        a running mean without its variance or the reverse, running
        statistics for some merges but not all, any array whose shape differs
        from the model's (for a moment ``opt.<param>.m`` or ``.v``, its
        parameter's), and a bad ``opt.step`` or ``meta.epoch``, all before
        anything is loaded; ``train.load_training_checkpoint`` checks no record again.
        A record that is the model's own array, as in a ``named_state()``
        round trip, is kept as it is; any other is copied.
        """
        params = self.named_params()
        missing = [n for n in params if n not in state]
        if missing:
            raise ConfigError(f"checkpoint is missing parameters: {missing[:5]}"
                              + ("..." if len(missing) > 5 else ""))
        stat_names = {stage: merge.state_names(f"stage{stage}.merge")
                      for stage, merge in self.merges.items()}
        owned = {*params, *(n for names in stat_names.values() for n in names),
                 "opt.step", "meta.epoch", *(f"opt.{n}.{m}" for n in params for m in "mv")}
        unexpected = [n for n in state if n not in owned]
        if unexpected:
            raise ConfigError(f"checkpoint holds names this model does not own: {unexpected[:5]}"
                              + ("..." if len(unexpected) > 5 else ""))
        shapes = {key: t.data.shape for name, t in params.items()
                  for key in (name, f"opt.{name}.m", f"opt.{name}.v") if key in state}
        for stage, (mean_key, var_key) in stat_names.items():
            for have, lack in ((mean_key, var_key), (var_key, mean_key)):
                if have in state and lack not in state:
                    raise ConfigError(f"checkpoint holds {have} without {lack}")
            if mean_key in state:
                shapes[mean_key] = shapes[var_key] = self.merges[stage].bn_g.shape
        with_stats = [stage for stage, (mean_key, _) in stat_names.items() if mean_key in state]
        if with_stats and len(with_stats) < len(stat_names):
            raise ConfigError(f"checkpoint holds running statistics for the stage-{with_stats[0]} merge "
                              f"but not the stage-{min(set(stat_names) - set(with_stats))} one")
        for name, shape in shapes.items():
            if np.shape(state[name]) != shape:
                raise ConfigError(f"{name}: checkpoint shape {np.shape(state[name])} "
                                  f"does not match model shape {shape}")
        for key in ("opt.step", "meta.epoch"):
            if key in state:
                read_counter(state, key)
        for name, t in params.items():
            t.data = _own(state[name], t.data, t.data.dtype)
        for stage, merge in self.merges.items():
            mean_key, var_key = stat_names[stage]
            if mean_key in state:
                merge.bn_state.mean = _own(state[mean_key], merge.bn_state.mean, self.dtype)
                merge.bn_state.var = _own(state[var_key], merge.bn_state.var, self.dtype)

    def seed_norm_stats(self) -> None:
        """Seed every batch-norm state with identity statistics."""
        for merge in self.merges.values():
            merge.bn_state.seed_identity(merge.bn_g.shape[0], self.dtype)

    # -- forward ---------------------------------------------------------------

    def forward(self, images, mode: str = "train",
                record: ForwardRecord | None = None) -> Tensor:
        """Full four-stage pass from [N, R, R, 3] images to logits.

        A NumericError raised inside a layer is re-raised with the layer's
        parameter prefix in front, as in ``stage3.block1: non-finite
        attention logits``.
        """
        if not isinstance(images, Tensor):
            images = Tensor(np.asarray(images, dtype=self.dtype))
        problem = self.config.images_problem(images.shape)
        if problem:
            raise ConfigError(problem)
        n = images.shape[0]
        grids = self.config.grids()

        with _layer("patch_embed"):
            tokens = patch_embed(images, self.embed)
        for stage in range(1, 5):
            spec = self.config.stages[stage - 1]
            h, w = grids[stage - 1]
            if stage > 1:
                ph, pw = grids[stage - 2]
                cprev = self.config.stages[stage - 2].channels
                with _layer(f"stage{stage}.merge"):
                    spatial, offsets = dtm_forward(reshape(tokens, (n, ph, pw, cprev)),
                                                   self.merges[stage], mode)
                if record is not None and offsets is not None:
                    record.offsets[stage] = offsets
                tokens = reshape(spatial, (n, h * w, spec.channels))
                del spatial  # else the merge output outlives the stage's first block
            if stage in self.pos_tables:
                with _layer(f"pos.stage{stage}"):
                    tokens = add(tokens, self.pos_tables[stage])
            for i, block in enumerate(self.stages[stage - 1]):
                with _layer(f"stage{stage}.block{i}"):
                    if spec.block_kind == BLOCK_MLP:
                        tokens = mlp_block(tokens, block)
                    else:
                        wanted = record is not None and (stage, i) in record.attention
                        tokens, attn = transformer_block(tokens, block, with_attn=wanted)
                        if wanted:
                            record.attention[(stage, i)] = attn

        with _layer("head"):
            tokens = layer_norm(tokens, self.final_ln_g, self.final_ln_b)
            pooled = mean_axis(tokens, 1)
            return matmul(pooled, self.head_w, self.head_b)


def build(config: ModelConfig, seed: int = 0, dtype=np.float32) -> LitModel:
    """Build a model whose units draw their initial weights from streams
    keyed by ``seed`` and each unit's checkpoint-name prefix; the values do
    not depend on whether the units are built in order or on a thread pool,
    nor on its worker count (see ``LitModel``)."""
    return LitModel(config, seed=seed, dtype=dtype)
