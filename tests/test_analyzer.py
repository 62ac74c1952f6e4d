"""Static cost accounting: exact parameter coverage, the FLOP convention,
and the reference-budget audit."""

from dataclasses import replace

import numpy as np
import pytest

from helpers import micro_config
from litnet.analyzer import (FLOP_TOLERANCE, PARAM_TOLERANCE, REFERENCE_COSTS,
                             audit, cost_report, msa_flops,
                             offset_predictor_params)
from litnet import blocks
from litnet.blocks import MsaParams, msa
from litnet.errors import ConfigError
from litnet.model import ablate, build, preset, toy_config
from litnet.tensor import attention, matmul, tensor


def test_single_fc_param_count():
    # one FC 64 -> 128 with bias inside a report
    report = cost_report(toy_config())
    row = next(r for r in report.rows if r.name == "stage1.block0.fc1")
    assert row.params == 16 * 64 + 64  # C=16, E=4


def test_fc_example_64_to_128():
    assert 64 * 128 + 128 == 8320  # the counting convention itself


@pytest.mark.parametrize("name", list(REFERENCE_COSTS))
def test_analyzer_totals_match_built_models(name):
    config = preset(name)
    report = cost_report(config)
    model = build(config, seed=0)
    actual = sum(p.data.size for p in model.named_params().values())
    assert report.total_params == actual


def test_analyzer_totals_match_micro_model():
    config = micro_config()
    model = build(config, seed=0)
    actual = sum(p.data.size for p in model.named_params().values())
    assert cost_report(config).total_params == actual


def test_counting_is_static_and_deterministic():
    a = cost_report(preset("lit-s"))
    b = cost_report(preset("lit-s"))
    assert a == b


def test_totals_equal_row_sums():
    report = cost_report(preset("lit-ti"))
    assert report.total_params == sum(r.params for r in report.rows)
    assert report.total_flops == sum(r.flops for r in report.rows)
    assert all(r.params >= 0 and r.flops >= 0 for r in report.rows)


def test_dtm_minus_uniform_merge_is_the_offset_predictor():
    base = toy_config(merge_kind="dtm")
    uniform = toy_config(merge_kind="uniform_conv")
    dtm_params = cost_report(base).total_params
    uni_params = cost_report(uniform).total_params
    expected = sum(offset_predictor_params(c) for c in (16, 32, 48))
    assert dtm_params - uni_params == expected
    assert offset_predictor_params(64) == 2 * 2 * 2 * (2 * 2 * 64 + 1) == 2056


def test_dtm_flop_overhead_is_under_one_percent():
    for name in REFERENCE_COSTS:
        config = preset(name)
        uniform = replace(config, stages=tuple(
            s if s.merge_kind != "dtm" else replace(s, merge_kind="uniform_conv")
            for s in config.stages))
        f_dtm = cost_report(config).total_flops
        f_uni = cost_report(uniform).total_flops
        assert f_dtm > f_uni
        assert (f_dtm - f_uni) / f_dtm < 0.01


def test_msa_flops_at_reference_point():
    flops = msa_flops(56 * 56, 96)
    assert abs(flops - 2.0e9) / 2.0e9 < 0.05


def test_resolution_scaling_laws():
    config = preset("lit-ti")
    base = cost_report(config, 224)
    double = cost_report(config, 448)
    conv = "stage2.merge.conv"
    qk = "stage3.block0.attn.scores"
    row = {r.name: r for r in base.rows}
    row2 = {r.name: r for r in double.rows}
    assert row2[conv].flops == 4 * row[conv].flops
    assert row2[qk].flops == 16 * row[qk].flops
    assert double.total_params == base.total_params  # params are resolution-free


def test_rejects_indivisible_resolution():
    with pytest.raises(ConfigError):
        cost_report(preset("lit-ti"), 100)


def test_msa_formula_matches_instrumented_forward(monkeypatch):
    # exact MAC agreement with an op-counting execution on small grids;
    # MACs are counted as the benchmark counts them, by wrapping matmul
    # where msa looks it up, and attention's two products likewise
    macs = []

    def counted(a, b, bias=None):
        out = matmul(a, b, bias)
        macs.append(out.size * a.shape[-1])
        return out

    def counted_attention(qkv, *args, **kwargs):
        n, t, channels = qkv.shape  # q k^T and P v over heads * d = channels / 3
        macs.append(2 * n * t * t * (channels // 3))
        return attention(qkv, *args, **kwargs)

    monkeypatch.setattr(blocks, "matmul", counted)
    monkeypatch.setattr(blocks, "attention", counted_attention)
    rng = np.random.default_rng(0)
    for h, w, c, heads in [(4, 4, 8, 2), (8, 8, 16, 4), (6, 8, 12, 3)]:
        params = MsaParams.create(rng, c, heads, dtype=np.float64)
        x = tensor(rng.normal(size=(1, h * w, c)))
        macs.clear()
        msa(x, params)
        assert sum(macs) == msa_flops(h * w, c)


def test_audit_all_presets_pass():
    report = audit()
    assert report.msa_ok
    assert abs(report.msa_deviation) < FLOP_TOLERANCE
    for row in report.rows:
        assert abs(row.param_deviation) <= PARAM_TOLERANCE, row
        assert abs(row.flop_deviation) <= FLOP_TOLERANCE, row
    assert report.ok


def test_audit_unknown_name():
    with pytest.raises(ConfigError):
        audit({"mystery": preset("lit-ti")})


def test_msa_removal_strictly_reduces_flops():
    cfg = preset("lit-ti")
    all_msa = replace(cfg, stages=(
        replace(cfg.stages[0], block_kind="transformer", heads=1),
        replace(cfg.stages[1], block_kind="transformer", heads=2),
        cfg.stages[2], cfg.stages[3]))
    removals = [set(), {1}, {1, 2}, {1, 2, 3}, {1, 2, 3, 4}]
    flops = [cost_report(ablate(all_msa, r)).total_flops for r in removals]
    assert all(a > b for a, b in zip(flops, flops[1:]))
