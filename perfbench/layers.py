"""litnet's layers as the traced run sees them, and the per-layer metrics.

The layers are litnet's modules. Their public functions are wrapped
where callers look them up (see ``spans.Patch``); methods are wrapped on
their class. Every metric is per op (one forward pass or one train step),
as the median over the traced ops of a run.
"""

from __future__ import annotations

import statistics
import sys
from collections import defaultdict

import numpy as np

from litnet import analyzer, blocks, dtm, model, train

from spans import Patch, Span, Tracer, self_times

tensor = sys.modules["litnet.tensor"]  # ``litnet.tensor`` is the tensor() factory

TENSOR_OPS = ("matmul", "gelu", "softmax", "add", "layer_norm", "gather_last",
              "deform_sample", "conv2d", "batch_norm", "softmax_cross_entropy")
BLOCKS = ("patch_embed", "mlp_block", "msa", "transformer_block")
ELEM_OPS = ("gelu", "softmax", "gather_last")
STAGES = (1, 2, 3, 4)
MERGE_SPAN = "dtm.dtm_forward"
STAGE_SPANS = ("blocks.mlp_block", "blocks.transformer_block", MERGE_SPAN)


def _elems(args, out) -> dict:
    return {"elems": out.size}


def _matmul_macs(args, out) -> dict:
    return {"macs": out.size * args[0].shape[-1]}


def tap_positions(p, offsets: np.ndarray) -> np.ndarray:
    """(y, x) sample positions [N, Ho, Wo, K*K, 2] of a deformable conv:
    its regular tap grid shifted by the offsets it returned."""
    k, s = p.kernel, p.stride
    ky, kx = np.divmod(np.arange(k * k), k)
    pos = offsets.astype(np.float64)
    pos[..., 0] += (np.arange(pos.shape[1]) * s - p.padding)[:, None, None] + ky
    pos[..., 1] += (np.arange(pos.shape[2]) * s - p.padding)[None, :, None] + kx
    return pos


def bilinear_corners(pos: np.ndarray, h: int, w: int):
    """The four bilinear corners of positions ``pos`` [..., 2] on an h x w
    map: for each, its (y, x) pixel, its weight and whether it is on the map."""
    y, x = pos[..., 0], pos[..., 1]
    y0, x0 = np.floor(y), np.floor(x)
    for cy, wy in ((y0, y0 + 1 - y), (y0 + 1, y - y0)):
        for cx, wx in ((x0, x0 + 1 - x), (x0 + 1, x - x0)):
            yield cy, cx, wy * wx, (cy >= 0) & (cy < h) & (cx >= 0) & (cx < w)


def _oob_corners(args, out) -> dict:
    """Bilinear corners of the deformable conv's samples outside the map."""
    x, p = args
    _, h, w, _ = x.shape
    pos = tap_positions(p, out[1])
    inside = sum(int(on.sum()) for *_, on in bilinear_corners(pos, h, w))
    total = 4 * pos[..., 0].size
    return {"oob": total - inside, "corners": total}


def targets() -> list[tuple]:
    """(span name, function, work counter) for every traced entry point."""
    work = {"matmul": _matmul_macs, **{op: _elems for op in ELEM_OPS}}
    out = [(f"tensor.{op}", getattr(tensor, op), work.get(op)) for op in TENSOR_OPS]
    out += [(f"blocks.{name}", getattr(blocks, name), None) for name in BLOCKS]
    out += [(MERGE_SPAN, dtm.dtm_forward, None),
            ("dtm.deformable_conv", dtm.deformable_conv, _oob_corners),
            ("model.forward", model.LitModel.forward, None),
            ("train.train_step", train.train_step, None),
            ("train.backward", tensor.Tape.backward, None),
            ("train.optimizer", train.AdamW.step, None),
            ("train.optimizer", train.AdamW.zero_grad, None)]
    return out


def namespaces() -> list:
    """Every litnet module plus the classes whose methods are traced."""
    mods = [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "litnet" or name.startswith("litnet."))]
    return mods + [model.LitModel, tensor.Tape, train.AdamW]


def make_patch(tracer: Tracer) -> Patch:
    return Patch(tracer, namespaces(), targets())


def stage_of(span: Span, grids: list[tuple[int, int]]) -> int:
    """Stage (1-4) of a block or merge span, from its input token grid.

    A block of stage k reads [N, h_k * w_k, C] tokens; the merge into
    stage k reads the [N, h, w, C] map of stage k - 1.
    """
    if span.name == MERGE_SPAN:
        return grids.index(tuple(span.shape[1:3])) + 2
    return [h * w for h, w in grids].index(span.shape[1]) + 1


def per_op_totals(spans: list[Span], grids: list[tuple[int, int]]) -> dict[int, dict]:
    """For each op: inclusive ms, self ms, calls and work sums by span name,
    and the ms of each stage's block and merge spans."""
    selfs = self_times(spans)
    ops: dict[int, dict] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, selfs):
        tot = ops[span.op]
        tot[f"{span.name}.ms"] += (span.end - span.start) / 1e6
        tot[f"{span.name}.self_ms"] += own / 1e6
        tot[f"{span.name}.calls"] += 1
        tot["self_sum_ms"] += own / 1e6
        if span.work:
            for key, value in span.work.items():
                tot[f"{span.name}.{key}"] += value
        parent = spans[span.parent].name if span.parent >= 0 else None
        if span.name in STAGE_SPANS and parent == "model.forward":
            tot[f"stage{stage_of(span, grids)}.ms"] += (span.end - span.start) / 1e6
    return ops


def stage_gmac(config, batch: int) -> dict[int, float]:
    """Modeled GMAC of each stage's rows of ``analyzer.cost_report``, per op."""
    rows = analyzer.cost_report(config).rows
    return {k: batch * sum(r.flops for r in rows if r.name.startswith(f"stage{k}.")) / 1e9
            for k in STAGES}


def layer_metrics(spans: list[Span], config, batch: int) -> tuple[dict, float]:
    """(metric name -> value, median per-op sum of self times in ms) over
    the traced ops."""
    ops = per_op_totals(spans, config.grids())

    def med(key: str) -> float:
        return statistics.median(t.get(key, 0.0) for t in ops.values())

    out: dict[str, float] = {}
    for op in TENSOR_OPS:
        out[f"tensor.{op}.ms"] = med(f"tensor.{op}.self_ms")
        out[f"tensor.{op}.calls"] = med(f"tensor.{op}.calls")
    out["tensor.matmul.macs"] = med("tensor.matmul.macs")
    mm_s = out["tensor.matmul.ms"] / 1e3
    out["tensor.matmul.gmac_per_s"] = out["tensor.matmul.macs"] / mm_s / 1e9 if mm_s else 0.0
    for op in ELEM_OPS:
        out[f"tensor.{op}.elems"] = med(f"tensor.{op}.elems")
    for name in BLOCKS:
        out[f"blocks.{name}.ms"] = med(f"blocks.{name}.ms")
    out["blocks.msa.self_ms"] = med("blocks.msa.self_ms")
    out["dtm.dtm_forward.ms"] = med("dtm.dtm_forward.ms")
    out["dtm.deformable_conv.ms"] = med("dtm.deformable_conv.ms")
    corners = sum(t.get("dtm.deformable_conv.corners", 0) for t in ops.values())
    oob = sum(t.get("dtm.deformable_conv.oob", 0) for t in ops.values())
    out["dtm.oob_sample_frac"] = oob / corners if corners else 0.0
    out["model.forward.ms"] = med("model.forward.ms")
    modeled = stage_gmac(config, batch)
    for k in STAGES:
        ms = med(f"stage{k}.ms")
        out[f"model.stage{k}.ms"] = ms
        out[f"model.stage{k}.gmac_per_s"] = modeled[k] / (ms / 1e3) if ms else 0.0
    out["train.forward_ms"] = med("model.forward.ms") if med("train.train_step.calls") else 0.0
    out["train.backward_ms"] = med("train.backward.ms")
    out["train.optimizer_ms"] = med("train.optimizer.ms")
    for k in STAGES:
        out[f"analyzer.stage{k}.gmac"] = modeled[k] / batch
    return out, med("self_sum_ms")
