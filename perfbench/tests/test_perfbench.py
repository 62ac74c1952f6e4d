"""Tests of the benchmark itself: tracing arithmetic, wrapper restore,
stage attribution, the correctness gate and a short run of each workload."""

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import bench  # noqa: E402
import layers  # noqa: E402
import litnet  # noqa: E402
from litnet import blocks, model, train  # noqa: E402
from litnet.errors import NumericError  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_the_union_of_children():
    spans = [Span("root", 0, -1, 0, 100),
             Span("a", 0, 0, 10, 40),
             Span("a1", 0, 1, 15, 25),
             Span("b", 0, 0, 35, 60),       # overlaps a by 5
             Span("c", 0, 0, 90, 100)]
    # root is covered by [10, 60) and [90, 100): 60 of its 100.
    assert self_times(spans) == [40, 20, 10, 25, 10]


def test_self_times_of_a_nested_tree_sum_to_the_root():
    spans = [Span("root", 0, -1, 0, 1000), Span("x", 0, 0, 100, 400),
             Span("y", 0, 1, 150, 300), Span("z", 0, 0, 500, 900)]
    assert sum(self_times(spans)) == 1000


def test_stage_attribution_by_input_grid():
    grids = model.preset("lit-s").grids()          # 56, 28, 14, 7
    block = lambda shape: Span("blocks.mlp_block", 0, 0, shape=shape)  # noqa: E731
    merge = lambda shape: Span(layers.MERGE_SPAN, 0, 0, shape=shape)  # noqa: E731
    assert layers.stage_of(block((1, 3136, 96)), grids) == 1
    assert layers.stage_of(block((1, 784, 192)), grids) == 2
    assert layers.stage_of(Span("blocks.transformer_block", 0, 0, shape=(2, 49, 768)), grids) == 4
    assert layers.stage_of(merge((1, 56, 56, 96)), grids) == 2
    assert layers.stage_of(merge((1, 14, 14, 384)), grids) == 4


def test_patch_restores_every_wrapped_name():
    tensor = sys.modules["litnet.tensor"]
    originals = {"forward": model.LitModel.forward, "step": train.AdamW.step,
                 "gelu": tensor.gelu}
    tracer = Tracer()
    patch = layers.make_patch(tracer)
    with pytest.raises(RuntimeError):
        with patch:
            assert blocks.gelu is tensor.gelu is not originals["gelu"]
            assert model.LitModel.__dict__["forward"] is not originals["forward"]
            m = model.build(small(model.toy_config()), 0)
            m.forward(np.zeros((1, 32, 32, 3), np.float32), mode="train")
            raise RuntimeError("leave the block early")
    assert blocks.gelu is tensor.gelu is originals["gelu"]
    assert litnet.gelu is tensor.gelu
    assert model.matmul is tensor.matmul
    assert train.softmax_cross_entropy is tensor.softmax_cross_entropy
    assert model.LitModel.__dict__["forward"] is originals["forward"]
    assert train.AdamW.__dict__["step"] is originals["step"]
    names = {s.name for s in tracer.spans}
    assert {"model.forward", "blocks.mlp_block", "dtm.dtm_forward", "tensor.gelu"} <= names


def small(config):
    """A quarter of the widths at 32 px and 10 classes."""
    stages = tuple(replace(s, channels=s.channels // 4) for s in config.stages)
    return replace(config, stages=stages, resolution=32, num_classes=10)


def reduced(name):
    w = bench.WORKLOADS[name]
    if w.train:
        return replace(w, config=small(w.config), batch=4, images=8)
    return replace(w, config=small(w.config))


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_short_run_emits_every_named_metric(name):
    w = reduced(name)
    result = bench.measure(w, seed=0, seconds=0.2)
    assert result.correct and result.failed == 0 and result.attempted >= 3
    assert list(result.metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v > 0 for v, _ in result.metrics.values())

    traced, tracer = bench.measure_layers(w, seed=0, seconds=0.2)
    assert traced.correct
    assert sorted(traced.metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    assert traced.metrics["tensor.matmul.calls"][0] > 0
    assert traced.notes["self_sum_within_overhead"]
    assert (traced.metrics["train.backward_ms"][0] > 0) == w.train
    assert traced.metrics["dtm.oob_sample_frac"][0] > 0


def test_a_wrong_output_fails_the_gate():
    run = bench.Run(reduced("infer-lit-s"), seed=0)
    run.op()
    assert run.check()[0] == 0
    run.outputs[1] = (run.outputs[1][0], run.outputs[1][1] + 1e-3)
    assert run.check()[0] == 1


def test_nearest_pixel_sampling_fails_every_op(monkeypatch):
    sample = bench.tensor.deform_sample

    def nearest(x, positions):
        return sample(x, bench.tensor.Tensor(np.round(positions.data)))

    monkeypatch.setattr(bench.dtm, "deform_sample", nearest)
    run = bench.Run(reduced("infer-lit-s"), seed=0)
    run.op()
    assert run.check()[0] == len(run.outputs) == 2


def test_a_lost_optimizer_step_fails_the_gate():
    run = bench.Run(reduced("train-toy"), seed=0)
    run.model.load_state(run.initial_state)     # undo the warm-up step's update
    run.op()
    assert run.check()[0] == 1


def test_an_op_that_raises_counts_as_failed():
    class Flaky:
        w = bench.WORKLOADS["train-toy"]

        def __init__(self):
            self.outputs = []

        def op(self):
            if len(self.outputs) == 1:
                raise NumericError("injected")
            time.sleep(0.005)
            self.outputs.append((0, 0.0))

    run = Flaky()
    plain, _, failures = bench._timed_ops(run, seconds=0.03)
    assert failures == 1
    assert run.outputs[1] == (None, None)
    assert len(run.outputs) == len(plain) + 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train-toy",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "correct" not in proc.stdout
