"""Workloads, timed loops and correctness gates of the litnet benchmark.

Each workload is one process with one closed-loop client: the next op
starts when the previous one returns. An op is one forward pass or one
train step. The workload seed picks the weights and the images; litnet
receives only those.
"""

from __future__ import annotations

import ctypes
import gc
import glob
import json
import math
import os
import platform
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

import litnet
from litnet import blocks, data, dtm, model, train
from litnet.errors import LitError

import layers
from spans import Patch, Tracer

tensor = sys.modules["litnet.tensor"]

# Logits, loss and gradient norm of the float32 program must match a float64
# build within this share of the reference's magnitude: 256 float32 ulps.
# On these workloads the float32 program is off by about 4e-7 (3-4 ulps).
TOLERANCE = 256 * float(np.finfo(np.float32).eps)
SETUPS = 3
# Train steps replayed on the float64 reference: the first step's loss and
# gradient norm, and the loss of the second step, which AdamW's first
# update feeds.
REFERENCE_STEPS = 2
# The self times of a traced op must add up to the untraced op time within
# the measured trace overhead plus this share of the untraced time.
SELF_SUM_SLACK = 0.02

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


@dataclass(frozen=True)
class Workload:
    name: str
    config: model.ModelConfig
    batch: int
    images: int          # inference pool size, or training-set size
    train: bool


def all_attention(config: model.ModelConfig) -> model.ModelConfig:
    """Stages 1-2 switched to attention blocks at head dim 32, as in stages 3-4."""
    stages = list(config.stages)
    for i in (0, 1):
        stages[i] = replace(stages[i], block_kind=model.BLOCK_TRANSFORMER,
                            heads=stages[i].channels // 32)
    return replace(config, stages=tuple(stages))


# Why each workload exists is recorded in BENCHMARK.json. In short: lit-s is
# the paper's layout (gelu and matmul dominate); the all-attention foil
# loads softmax and the relative-bias gather instead; the toy train step is
# the only one that runs backward, the scatter-adds and AdamW.
WORKLOADS = {w.name: w for w in (
    Workload("infer-lit-s", model.preset("lit-s"), batch=1, images=2, train=False),
    Workload("infer-all-attn", all_attention(model.preset("lit-s")), batch=1, images=2,
             train=False),
    Workload("train-toy", model.toy_config(), batch=32, images=128, train=True),
)}


def _grad_norm(params) -> float:
    return math.sqrt(sum(float(np.square(p.grad, dtype=np.float64).sum())
                         for p in params.values() if p.grad is not None))


def _record_grad_norms(opt: train.AdamW, norms: list) -> None:
    """Make ``opt.step`` append the gradient norm it steps with to ``norms``."""
    def step(lr_scale: float = 1.0) -> None:
        norms.append(_grad_norm(opt.params))
        train.AdamW.step(opt, lr_scale)

    opt.step = step


def seed_offsets(m: model.LitModel, seed: int) -> None:
    """Give every DTM offset conv small non-zero weights and biases.

    ``model.build`` zero-initialises them, so every tap would sample a
    whole pixel and only one bilinear corner would count. Biases in
    (-1, 1) and weights of a tenth of the fan-in scale put the taps at
    input-dependent fractional positions, some of them off the map.
    """
    rng = np.random.default_rng([seed, 1])
    state = m.named_state()
    for name in sorted(state):
        if ".offset_conv." in name:
            value = state[name]
            scale = 1.0 if name.endswith(".b") else 0.1 / math.sqrt(value[..., 0].size)
            state[name] = rng.uniform(-scale, scale, value.shape)
    m.load_state(state)


class Run:
    """One set-up workload: the model, its inputs and the op under test."""

    def __init__(self, w: Workload, seed: int):
        self.w = w
        self.seed = seed
        blocks.relative_index_map.cache_clear()
        start = time.perf_counter()
        self.images, self.labels = data.synthetic_dataset(w.images, seed, size=w.config.resolution)
        self.data_s = time.perf_counter() - start
        self.model = model.build(w.config, seed)
        seed_offsets(self.model, seed)
        self.outputs: list = []       # (input index, logits or loss) of every op run
        self.first_grad_norm = math.nan
        if w.train:
            self.initial_state = {k: v.copy() for k, v in self.model.named_state().items()}
            self.optimizer = train.AdamW(self.model.named_params())
            norms: list[float] = []
            _record_grad_norms(self.optimizer, norms)
            try:
                self.op()                 # warm-up step, gradient norm recorded
            finally:
                del self.optimizer.step
            self.first_grad_norm = norms[0]
        else:
            self.model.seed_norm_stats()
            self.op()

    def op(self) -> None:
        k = len(self.outputs)
        if self.w.train:
            i = k % (self.w.images // self.w.batch) * self.w.batch
            loss, _ = train.train_step(self.model, self.images[i:i + self.w.batch],
                                       self.labels[i:i + self.w.batch], self.optimizer)
            self.outputs.append((i, loss))
        else:
            i = k % self.w.images
            logits = self.model.forward(self.images[i:i + 1], mode="eval")
            self.outputs.append((i, logits.data))

    def check(self) -> tuple[int, float]:
        """(ops that fail the check, largest relative error).

        Outputs are compared with a float64 build of the same model. That
        reference is the program too, so each of its deformable convs is
        also checked against the bilinear sampling done here. Every op runs
        the DTM merges, so when that check fails, or the merges no longer
        reach ``deformable_conv``, every op fails.
        """
        oracle = Patch(Tracer(), layers.namespaces(),
                       [("dtm.deformable_conv", dtm.deformable_conv, deformable_conv_error)])
        with oracle:
            bad, worst = self._compare()
        errors = [span.work["error"] for span in oracle.tracer.spans]
        worst = max([worst, *errors])
        uses_dtm = any(s.merge_kind == model.MERGE_DTM for s in self.w.config.stages)
        if (uses_dtm and not errors) or not all(e <= TOLERANCE for e in errors):
            return len(self.outputs), worst
        return bad, worst

    def _compare(self) -> tuple[int, float]:
        ref = model.build(self.w.config, self.seed, np.float64)
        if self.w.train:
            ref.load_state(self.initial_state)
            opt = train.AdamW(ref.named_params())
            norms: list[float] = []
            _record_grad_norms(opt, norms)
            b, bad, worst = self.w.batch, 0, 0.0
            for i, got in self.outputs[:REFERENCE_STEPS]:
                if got is None:           # already counted as failed
                    break
                want, _ = train.train_step(ref, self.images[i:i + b].astype(np.float64),
                                           self.labels[i:i + b], opt)
                err = abs(got - want) / max(1.0, abs(want))
                worst = max(worst, err)
                bad += not err <= TOLERANCE
            err = abs(self.first_grad_norm - norms[0]) / max(1.0, norms[0])
            worst = max(worst, err)
            bad += not err <= TOLERANCE
            bad += sum(not math.isfinite(loss) for _, loss in self.outputs if loss is not None)
            return bad, worst
        ref.load_state(self.model.named_state())
        bad, worst = 0, 0.0
        for i in range(self.w.images):
            want = ref.forward(self.images[i:i + 1].astype(np.float64), mode="eval").data
            scale = max(1.0, float(np.abs(want).max()))
            for j, got in self.outputs:
                if j == i:
                    err = float(np.abs(got - want).max()) / scale
                    worst = max(worst, err)
                    bad += not err <= TOLERANCE
        return bad, worst


def deformable_conv_error(args, result) -> dict:
    """Error of a deformable conv's output against bilinear samples taken
    here at the positions its offsets give, relative to the output's
    magnitude. Corners off the map count as zero."""
    x, p = args
    out, offsets = result
    x = x.data
    n, h, w, c = x.shape
    pos = layers.tap_positions(p, offsets)
    batch = np.arange(n).reshape(n, 1, 1, 1)
    samples = np.zeros(pos.shape[:-1] + (c,))
    for cy, cx, weight, on in layers.bilinear_corners(pos, h, w):
        iy = np.where(on, cy, 0).astype(np.int64)
        ix = np.where(on, cx, 0).astype(np.int64)
        samples += (weight * on)[..., None] * x[batch, iy, ix]
    taps = samples.shape[-2] * c
    want = samples.reshape(*samples.shape[:3], taps) @ p.w.data.reshape(taps, -1) + p.b.data
    return {"error": float(np.abs(out.data - want).max()) / max(1.0, float(np.abs(want).max()))}


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict            # name -> (value, unit)
    notes: dict              # reported, ungated figures


def _timed_ops(run: Run, seconds: float, patch: Patch | None = None):
    """Closed loop for ``seconds`` of op time; with a patch every second op
    runs traced. Returns (untraced op times, traced op times, failed ops)."""
    plain: list[float] = []
    under: list[float] = []
    failures, spent, k = 0, 0.0, 0
    while spent < seconds or (patch is not None and k < 2):
        traced = patch is not None and k % 2 == 1
        if traced:
            patch.tracer.op = k
            patch.apply()
        start = time.perf_counter()
        try:
            run.op()
        except LitError:
            failures += 1
            run.outputs.append((None, None))
        else:
            (under if traced else plain).append(time.perf_counter() - start)
        finally:
            if traced:
                patch.restore()
        spent += time.perf_counter() - start
        k += 1
    if not plain or (patch is not None and not under):
        raise RuntimeError(f"{run.w.name}: no op completed")
    return plain, under, failures


def _peak_traced_mib(run: Run) -> float:
    gc.collect()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        run.op()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _gate(run: Run, failures: int) -> tuple[int, int, dict]:
    bad, worst = run.check()
    attempted = len(run.outputs)
    return attempted, failures + bad, {"max_rel_error": worst, "tolerance": TOLERANCE}


def measure(w: Workload, seed: int, seconds: float) -> Result:
    """End-to-end metrics, with tracing off."""
    setup_s = []
    for _ in range(SETUPS):
        run = None          # free the previous set-up before timing the next
        gc.collect()
        start = time.perf_counter()
        run = Run(w, seed)
        setup_s.append(time.perf_counter() - start)
    times, _, failures = _timed_ops(run, seconds)
    peak = _peak_traced_mib(run)
    attempted, failed, notes = _gate(run, failures)
    p90 = statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0]
    values = {
        "images_per_s": w.batch * len(times) / sum(times),
        "latency_p50_ms": statistics.median(times) * 1e3,
        "setup_s": statistics.median(setup_s),
        "peak_traced_mb": peak,
    }
    metrics = {name: (value, UNITS[name]) for name, value in values.items()}
    # p90 is reported, not gated: on a 2-vCPU VM it moved by up to a fifth
    # between runs, twice the tenth it would need to hold.
    notes.update({"latency_p90_ms": p90 * 1e3, "latency_samples": len(times),
                  "setup_s_samples": setup_s})
    return Result(failed == 0, attempted, failed, metrics, notes)


def measure_layers(w: Workload, seed: int, seconds: float) -> tuple[Result, Tracer]:
    """Per-layer metrics: traced and untraced ops alternate in one loop."""
    run = Run(w, seed)
    patch = layers.make_patch(Tracer())
    plain, under, failures = _timed_ops(run, seconds, patch)
    attempted, failed, notes = _gate(run, failures)
    values, self_sum_ms = layers.layer_metrics(patch.tracer.spans, w.config, w.batch)
    values["data.synthetic_dataset.s"] = run.data_s
    untraced_ms = statistics.median(plain) * 1e3
    overhead = statistics.median(under) * 1e3 / untraced_ms - 1.0
    values["trace_overhead_frac"] = overhead
    metrics = {name: (value, UNITS[name]) for name, value in values.items()}
    # The spans under each op's root must account for the untraced op time:
    # their self times may differ from it by the trace overhead, no more.
    gap = abs(self_sum_ms / untraced_ms - 1.0)
    notes.update(self_sum_ms=self_sum_ms, untraced_p50_ms=untraced_ms,
                 self_sum_within_overhead=gap <= abs(overhead) + SELF_SUM_SLACK,
                 traced_ops=len(under))
    return Result(failed == 0, attempted, failed, metrics, notes), patch.tracer


def _blas_threads() -> int | str:
    """Threads of the OpenBLAS bundled with numpy, else the requested count."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "litnet": litnet.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }
