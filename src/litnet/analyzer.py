"""Static parameter and FLOP accounting.

Counting is purely structural: reports are derived from a model config,
never from tensor data. The FLOP convention is 1 multiply-accumulate =
1 FLOP with FC/conv = output_elements * fan_in and attention =
qkv + QK^T + attn*V + output projection; norms, activations, softmax,
sampling, and pooling are itemized in a separate auxiliary column and
excluded from headline totals.

Reference-budget comparisons use backbone totals (classifier head
excluded); the head is still counted and itemized in every report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import ConfigError
from .model import ABSOLUTE_POS_STAGES, BLOCK_TRANSFORMER, MERGE_DTM, ModelConfig, preset

PARAM_TOLERANCE = 0.03
FLOP_TOLERANCE = 0.05

# Reference cost budgets for the stock family, which hold only at
# REFERENCE_RESOLUTION (backbone parameters in units, headline FLOPs per image).
REFERENCE_RESOLUTION = 224
REFERENCE_COSTS: dict[str, tuple[float, float]] = {
    "lit-ti": (19e6, 3.6e9),
    "lit-s": (27e6, 4.1e9),
    "lit-m": (48e6, 8.6e9),
    "lit-b": (86e6, 15.0e9),
}

# The single-attention-layer reference point: 56x56 tokens at 96 channels
# is budgeted at 2.0 GFLOPs.
MSA_REFERENCE = (56 * 56, 96, 2.0e9)


@dataclass(frozen=True)
class CostRow:
    name: str
    params: int
    flops: int
    aux_flops: int


@dataclass
class CostReport:
    """Per-layer tallies plus totals; rows sum exactly to the totals."""

    rows: list[CostRow]
    resolution: int

    @property
    def total_params(self) -> int:
        return sum(r.params for r in self.rows)

    @property
    def total_flops(self) -> int:
        return sum(r.flops for r in self.rows)

    @property
    def total_aux_flops(self) -> int:
        return sum(r.aux_flops for r in self.rows)

    def _non_head(self) -> Iterable[CostRow]:
        return (r for r in self.rows if not r.name.startswith("head"))

    @property
    def backbone_params(self) -> int:
        return sum(r.params for r in self._non_head())

    @property
    def backbone_flops(self) -> int:
        return sum(r.flops for r in self._non_head())

    def group_totals(self) -> dict[str, tuple[int, int]]:
        """(params, flops) grouped by the leading name component."""
        out: dict[str, tuple[int, int]] = {}
        for r in self.rows:
            key = r.name.split(".", 1)[0]
            p, f = out.get(key, (0, 0))
            out[key] = (p + r.params, f + r.flops)
        return out


def msa_flops(tokens: int, channels: int) -> int:
    """Headline MACs of one attention layer over ``tokens`` tokens."""
    return 4 * tokens * channels * channels + 2 * tokens * tokens * channels


def offset_predictor_params(cin: int) -> int:
    """Closed-form parameter count of the offset-predicting conv: its 2x2
    kernel predicts a (dy, dx) pair for each of the merge kernel's 2x2 taps."""
    k2 = 2 * 2
    return 2 * k2 * (k2 * cin + 1)


def cost_report(config: ModelConfig, resolution: int | None = None) -> CostReport:
    """Itemized cost report for one model.

    FLOPs are evaluated per image at ``resolution`` (default: the
    config's own). Parameter counts always follow the config's
    resolution, so changing the report resolution never changes them.
    """
    res = config.resolution if resolution is None else resolution
    problem = config.resolution_problem(res)
    if problem:
        raise ConfigError(problem)

    rows: list[CostRow] = []

    def row(name: str, params: int = 0, flops: int = 0, aux: int = 0) -> None:
        rows.append(CostRow(name, int(params), int(flops), int(aux)))

    param_grids = config.grids()          # pins table sizes
    flop_grids = config.grids(res)        # drives activation-dependent costs

    c1 = config.stages[0].channels
    t1 = flop_grids[0][0] * flop_grids[0][1]
    row("patch_embed", params=48 * c1 + c1, flops=t1 * 48 * c1, aux=t1 * c1)

    if config.positional_encoding == "absolute":
        for stage in ABSOLUTE_POS_STAGES:
            h, w = param_grids[stage - 1]
            c = config.stages[stage - 1].channels
            ft = flop_grids[stage - 1][0] * flop_grids[stage - 1][1]
            row(f"pos.stage{stage}", params=h * w * c, aux=ft * c)

    for idx, spec in enumerate(config.stages, start=1):
        c = spec.channels
        t = flop_grids[idx - 1][0] * flop_grids[idx - 1][1]
        if idx > 1:
            cin = config.stages[idx - 2].channels
            k2 = 4  # 2x2 merge kernel
            pfx = f"stage{idx}.merge"
            if spec.merge_kind == MERGE_DTM:
                row(f"{pfx}.offset_conv", params=offset_predictor_params(cin),
                    flops=t * k2 * cin * 2 * k2, aux=t * 2 * k2)
                row(f"{pfx}.sampling", aux=8 * t * k2 * cin)
            row(f"{pfx}.conv", params=k2 * cin * c + c, flops=t * k2 * cin * c, aux=t * c)
            row(f"{pfx}.bn", params=2 * c, aux=4 * t * c)
            row(f"{pfx}.gelu", aux=3 * t * c)

        hidden = spec.expansion * c
        for i in range(spec.depth):
            bpfx = f"stage{idx}.block{i}"
            if spec.block_kind == BLOCK_TRANSFORMER:
                heads = spec.heads
                row(f"{bpfx}.ln1", params=2 * c, aux=4 * t * c)
                row(f"{bpfx}.attn.qkv", params=c * 3 * c + 3 * c, flops=t * c * 3 * c, aux=3 * t * c)
                bias_aux = heads * t * t if config.positional_encoding == "relative" else 0
                row(f"{bpfx}.attn.scores", flops=t * t * c, aux=bias_aux)
                row(f"{bpfx}.attn.softmax", aux=3 * heads * t * t)
                row(f"{bpfx}.attn.context", flops=t * t * c)
                row(f"{bpfx}.attn.out", params=c * c + c, flops=t * c * c, aux=t * c)
                if config.positional_encoding == "relative":
                    ph, pw = param_grids[idx - 1]
                    row(f"{bpfx}.attn.rel_bias", params=heads * (2 * ph - 1) * (2 * pw - 1))
                row(f"{bpfx}.residual1", aux=t * c)
                mpfx = f"{bpfx}.mlp"
            else:
                mpfx = bpfx
            row(f"{mpfx}.ln", params=2 * c, aux=4 * t * c)
            row(f"{mpfx}.fc1", params=c * hidden + hidden, flops=t * c * hidden, aux=t * hidden)
            row(f"{mpfx}.gelu", aux=3 * t * hidden)
            row(f"{mpfx}.fc2", params=hidden * c + c, flops=t * hidden * c, aux=t * c)
            row(f"{mpfx}.residual", aux=t * c)

    c4 = config.stages[3].channels
    t4 = flop_grids[3][0] * flop_grids[3][1]
    row("final_norm", params=2 * c4, aux=4 * t4 * c4)
    row("pool", aux=t4 * c4)
    row("head", params=c4 * config.num_classes + config.num_classes,
        flops=c4 * config.num_classes, aux=config.num_classes)
    return CostReport(rows=rows, resolution=res)


@dataclass(frozen=True)
class AuditRow:
    name: str
    params: int
    param_target: float
    param_deviation: float
    param_ok: bool
    flops: int
    flop_target: float
    flop_deviation: float
    flop_ok: bool

    @property
    def ok(self) -> bool:
        return self.param_ok and self.flop_ok


@dataclass
class AuditReport:
    rows: list[AuditRow]
    msa_flops: int
    msa_deviation: float
    msa_ok: bool

    @property
    def ok(self) -> bool:
        return self.msa_ok and all(r.ok for r in self.rows)


def audit(configs: Mapping[str, ModelConfig] | None = None) -> AuditReport:
    """Compare stock variants, by default every preset with a reference
    budget, against their reference budgets.

    Backbone totals (head excluded) are compared at ``REFERENCE_RESOLUTION``
    against the reference figures with the stated tolerances; the
    single-attention reference point is always checked.
    """
    if configs is None:
        configs = {n: preset(n) for n in REFERENCE_COSTS}

    tokens, channels, budget = MSA_REFERENCE
    ref = msa_flops(tokens, channels)
    msa_dev = (ref - budget) / budget

    rows = []
    for name, config in configs.items():
        if name not in REFERENCE_COSTS:
            raise ConfigError(f"no reference budget for {name!r}")
        p_target, f_target = REFERENCE_COSTS[name]
        report = cost_report(config, REFERENCE_RESOLUTION)
        p, f = report.backbone_params, report.backbone_flops
        p_dev = (p - p_target) / p_target
        f_dev = (f - f_target) / f_target
        rows.append(AuditRow(
            name=name,
            params=p, param_target=p_target, param_deviation=p_dev,
            param_ok=abs(p_dev) <= PARAM_TOLERANCE,
            flops=f, flop_target=f_target, flop_deviation=f_dev,
            flop_ok=abs(f_dev) <= FLOP_TOLERANCE,
        ))
    return AuditReport(rows=rows, msa_flops=ref, msa_deviation=msa_dev,
                       msa_ok=abs(msa_dev) <= FLOP_TOLERANCE)
