"""Model factory: presets, config validation, forward shapes, ablations,
and determinism."""

import tracemalloc

import numpy as np
import pytest

from helpers import micro_config
from litnet import blocks
from litnet.errors import ConfigError, NumericError, StateError
from litnet.model import (BLOCK_TRANSFORMER, MERGE_DTM, MERGE_LINEAR, ForwardRecord,
                          ModelConfig, StageSpec, ablate, build, preset, toy_config)
from litnet.tensor import Tape, attention, sum_all


def test_preset_table():
    ti = preset("lit-ti")
    assert [s.channels for s in ti.stages] == [64, 128, 320, 512]
    assert [s.depth for s in ti.stages] == [3, 4, 6, 3]
    assert ti.stages[2].heads == 5 and ti.stages[3].heads == 8
    assert [s.expansion for s in ti.stages] == [8, 8, 4, 4]
    assert ti.positional_encoding == "absolute"

    s = preset("lit-s")
    assert [x.channels for x in s.stages] == [96, 192, 384, 768]
    assert [x.depth for x in s.stages] == [2, 2, 6, 2]
    assert s.stages[2].heads == 12 and s.stages[3].heads == 24
    assert s.positional_encoding == "relative"

    m = preset("lit-m")
    assert [x.depth for x in m.stages] == [2, 2, 18, 2]
    assert [x.channels for x in m.stages] == [96, 192, 384, 768]

    b = preset("lit-b")
    assert b.stages[3].channels == 1024
    assert b.stages[2].heads == 16 and b.stages[3].heads == 32
    assert [x.depth for x in b.stages] == [2, 2, 18, 2]


def test_presets_first_two_stages_are_mlp():
    for name in ("lit-ti", "lit-s", "lit-m", "lit-b"):
        cfg = preset(name)
        for spec in cfg.stages[:2]:
            assert spec.block_kind == "mlp"
            assert spec.heads == 0
        for spec in cfg.stages[2:]:
            assert spec.block_kind == "transformer"


def test_unknown_preset():
    with pytest.raises(ConfigError):
        preset("lit-xl")


def test_stage_grids_at_224_and_64():
    for name in ("lit-ti", "lit-s", "lit-m", "lit-b"):
        cfg = preset(name)
        assert cfg.grids() == [(56, 56), (28, 28), (14, 14), (7, 7)]
        assert cfg.grids(64) == [(16, 16), (8, 8), (4, 4), (2, 2)]


def test_config_validation_collects_every_violation():
    cfg = micro_config()
    from dataclasses import replace
    bad_stage = replace(cfg.stages[2], heads=3, patch_size=5)  # 8 % 3 != 0, patch != 2
    bad = replace(cfg, stages=(cfg.stages[0], cfg.stages[1], bad_stage, cfg.stages[3]),
                  resolution=50)
    problems = bad.validate()
    assert len(problems) >= 3
    with pytest.raises(ConfigError) as exc:
        build(bad)
    for fragment in ("resolution", "heads", "patch size"):
        assert fragment in str(exc.value)


def test_config_json_round_trip(tmp_path):
    cfg = toy_config()
    path = tmp_path / "config.json"
    cfg.save_json(path)
    assert ModelConfig.load_json(path) == cfg


def test_config_json_rejects_unknown_keys(tmp_path):
    cfg = toy_config()
    data = cfg.to_dict()
    data["dropout"] = 0.1
    path = tmp_path / "bad.json"
    import json
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError) as exc:
        ModelConfig.load_json(path)
    assert "dropout" in str(exc.value)


def test_build_is_deterministic():
    cfg = micro_config()
    a = build(cfg, seed=7)
    b = build(cfg, seed=7)
    for name, p in a.named_params().items():
        assert p.data.tobytes() == b.named_params()[name].data.tobytes(), name
    c = build(cfg, seed=8)
    assert any(p.data.tobytes() != c.named_params()[n].data.tobytes()
               for n, p in a.named_params().items())


def test_parameter_names_unique_and_hierarchical():
    model = build(micro_config(), seed=0)
    names = list(model.named_params())
    assert len(names) == len(set(names))
    assert "patch_embed.w" in names
    assert "stage2.merge.offset_conv.w" in names
    assert "stage3.block0.attn.qkv.w" in names
    assert "head.b" in names


def test_forward_shapes_and_stage_grids():
    cfg = micro_config(num_classes=5, resolution=64)
    model = build(cfg, seed=0)
    record = ForwardRecord()
    rng = np.random.default_rng(0)
    logits = model.forward(rng.normal(size=(2, 64, 64, 3)), mode="train", record=record)
    assert logits.shape == (2, 5)
    assert set(record.offsets) == {2, 3, 4}


def test_forward_batch_of_zeros_is_finite_and_uniform():
    model = build(micro_config(), seed=0)
    logits = model.forward(np.zeros((3, 32, 32, 3)), mode="train").data
    assert np.all(np.isfinite(logits))
    assert np.abs(logits - logits[0]).max() < 1e-6


def test_forward_batch_permutation_equivariance():
    model = build(micro_config(), seed=1)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 32, 32, 3)).astype(np.float32)
    perm = rng.permutation(4)
    base = model.forward(x, mode="train").data
    permuted = model.forward(x[perm], mode="train").data
    assert np.abs(permuted - base[perm]).max() < 1e-5


def test_forward_rejects_wrong_resolution():
    model = build(micro_config(resolution=32), seed=0)
    with pytest.raises(ConfigError):
        model.forward(np.zeros((1, 64, 64, 3)))


def test_eval_before_training_requires_seeded_stats():
    model = build(micro_config(), seed=0)
    with pytest.raises(StateError):
        model.forward(np.zeros((1, 32, 32, 3)), mode="eval")
    model.seed_norm_stats()
    model.forward(np.zeros((1, 32, 32, 3)), mode="eval")


def test_absolute_encoding_tables_exist_only_where_attention_lives():
    cfg = micro_config(relative=False)
    model = build(cfg, seed=0)
    names = model.named_params()
    assert "pos.stage3" in names and "pos.stage4" in names
    assert "pos.stage1" not in names and "pos.stage2" not in names
    h3, w3 = cfg.grids()[2]
    assert names["pos.stage3"].shape == (h3 * w3, cfg.stages[2].channels)

    # zeroing the tables changes the logits (they are really injected)
    x = np.ones((1, 32, 32, 3), dtype=np.float32)
    with_tables = model.forward(x, mode="train").data.copy()
    for stage in (3, 4):
        model.pos_tables[stage].data[:] = 0.0
    without = model.forward(x, mode="train").data
    assert np.abs(with_tables - without).max() > 0


def test_ablate_empty_set_is_identity():
    cfg = preset("lit-ti")
    assert ablate(cfg, set()) == cfg


def test_ablate_recovers_stock_layout_from_all_transformer():
    from dataclasses import replace
    cfg = preset("lit-ti")
    all_msa = replace(cfg, stages=(
        replace(cfg.stages[0], block_kind="transformer", heads=1),
        replace(cfg.stages[1], block_kind="transformer", heads=2),
        cfg.stages[2], cfg.stages[3]))
    assert ablate(all_msa, {1, 2}) == cfg


def test_ablate_all_stages_builds_and_runs():
    cfg = ablate(micro_config(), {1, 2, 3, 4})
    assert all(s.block_kind == "mlp" and s.heads == 0 for s in cfg.stages)
    model = build(cfg, seed=0)
    logits = model.forward(np.zeros((1, 32, 32, 3)), mode="train")
    assert logits.shape == (1, 3)


def test_ablate_rejects_bad_stage_set():
    with pytest.raises(ConfigError):
        ablate(micro_config(), {0, 5})


def test_forward_is_deterministic_bitwise():
    cfg = micro_config()
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 32, 32, 3)).astype(np.float32)
    a = build(cfg, seed=0).forward(x, mode="train").data
    b = build(cfg, seed=0).forward(x, mode="train").data
    assert a.tobytes() == b.tobytes()


def test_an_eval_forward_never_holds_a_whole_stage1_attention_map():
    # all four stages attend; stage 1 has 2 heads over 32 x 32 = 1024 tokens
    stages = tuple(StageSpec(patch_size=p, channels=c, depth=1, heads=h, expansion=2,
                             block_kind=BLOCK_TRANSFORMER, merge_kind=m)
                   for p, c, h, m in zip([4, 2, 2, 2], [16, 16, 32, 32], [2, 2, 4, 4],
                                         [MERGE_LINEAR, MERGE_DTM, MERGE_DTM, MERGE_DTM]))
    config = ModelConfig(stages=stages, positional_encoding="relative", num_classes=3,
                         resolution=128)
    model = build(config, seed=0)
    model.seed_norm_stats()
    images = np.random.default_rng(0).normal(size=(1, 128, 128, 3)).astype(np.float32)
    model.forward(images, mode="eval")  # warm-up
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model.forward(images, mode="eval")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    tokens = config.grids()[0][0] * config.grids()[0][1]
    assert peak < 1 * stages[0].heads * tokens * tokens * np.dtype(np.float32).itemsize


def test_recorded_attention_maps_are_the_taped_probabilities(monkeypatch):
    taped = []

    def keep_probs(*args, with_probs=False):
        out, probs = attention(*args, with_probs=True)
        taped.append(probs)
        return out, probs if with_probs else None

    monkeypatch.setattr(blocks, "attention", keep_probs)
    model = build(micro_config(), seed=0)
    images = np.random.default_rng(1).normal(size=(2, 32, 32, 3))
    record = ForwardRecord()
    with Tape() as tape:
        loss = sum_all(model.forward(images, mode="train", record=record))
    tape.backward(loss)
    assert list(record.attention) == [(3, 0), (4, 0)]
    for got, want in zip(record.attention.values(), taped, strict=True):
        assert got.tobytes() == want.tobytes()
        assert np.abs(got.sum(axis=-1) - 1.0).max() < 1e-6
    plain = ForwardRecord()
    model.forward(images, mode="train", record=plain)
    for key, got in plain.attention.items():
        assert got.tobytes() == record.attention[key].tobytes()


@pytest.mark.parametrize("param,path", [
    ("patch_embed.w", "patch_embed"), ("stage2.merge.conv.w", "stage2.merge"),
    ("stage3.block1.attn.qkv.w", "stage3.block1"), ("head.w", "head"),
])
def test_a_numeric_error_names_the_layer_it_came_from(param, path):
    model = build(toy_config(), seed=0)
    model.named_params()[param].data[0, ...] = np.nan
    with pytest.raises(NumericError) as exc:
        model.forward(np.random.default_rng(2).normal(size=(2, 64, 64, 3)), mode="train")
    assert str(exc.value).startswith(f"{path}: non-finite ")


@pytest.mark.parametrize("mode", ["eval", "train"])
def test_a_non_finite_mlp_weight_is_named_by_the_op_it_broke(mode):
    # the MLP block runs as one fused op; its failure names the unfused op
    model = build(toy_config(), seed=0)
    model.seed_norm_stats()
    model.named_params()["stage1.block0.fc1.w"].data[0, 0] = np.nan
    with pytest.raises(NumericError) as exc:
        model.forward(np.random.default_rng(2).normal(size=(2, 64, 64, 3)), mode=mode)
    assert str(exc.value) == "stage1.block0: non-finite values produced by matmul"
