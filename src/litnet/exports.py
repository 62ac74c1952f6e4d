"""File writers for inspection and report artifacts: CSV tables, P2 PGM
images, cost reports, and run manifests."""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .analyzer import REFERENCE_RESOLUTION, AuditReport, CostReport


def write_pgm(path: str | Path, values: np.ndarray) -> None:
    """8-bit ASCII PGM (P2, max 255), scaled so the peak maps to 255."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"PGM export expects a 2-d map, got shape {values.shape}")
    peak = values.max()
    scaled = np.zeros_like(values) if peak <= 0 else values / peak * 255.0
    pixels = np.clip(np.rint(scaled), 0, 255).astype(int)
    lines = [f"P2", f"{values.shape[1]} {values.shape[0]}", "255"]
    lines += [" ".join(str(v) for v in row) for row in pixels]
    Path(path).write_text("\n".join(lines) + "\n")


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_offset_trace(path: str | Path, token: tuple[int, int],
                       coords: np.ndarray) -> None:
    """One row per leaf coordinate of a traced final-stage token."""
    rows = [(token[0], token[1], i, float(c[0]), float(c[1]))
            for i, c in enumerate(coords)]
    write_csv(path, ["token_y", "token_x", "leaf_index", "image_y", "image_x"], rows)


def write_attention_exports(out_dir: Path, maps: np.ndarray, grid: tuple[int, int],
                            queries: Sequence[tuple[int, int]]) -> list[Path]:
    """Per-head PGM maps for each query pixel plus one CSV of raw values, of
    the attention maps [N, heads, T, T] averaged over the N images."""
    attn = maps.mean(axis=0)
    h, w = grid
    heads = attn.shape[0]
    written = []
    csv_rows = []
    for qy, qx in queries:
        row = qy * w + qx
        for head in range(heads):
            probs = attn[head, row].reshape(h, w)
            path = out_dir / f"attn_head{head}_query{qy}_{qx}.pgm"
            write_pgm(path, probs)
            written.append(path)
            for ky in range(h):
                for kx in range(w):
                    csv_rows.append((head, qy, qx, ky, kx, float(probs[ky, kx])))
    csv_path = out_dir / "attention.csv"
    write_csv(csv_path, ["head", "query_y", "query_x", "key_y", "key_x", "prob"], csv_rows)
    written.append(csv_path)
    return written


def write_cost_csv(path: str | Path, report: CostReport) -> None:
    rows = [(r.name, r.params, r.flops, r.aux_flops) for r in report.rows]
    rows.append(("total", report.total_params, report.total_flops, report.total_aux_flops))
    rows.append(("backbone", report.backbone_params, report.backbone_flops, ""))
    write_csv(path, ["layer", "params", "flops", "aux_flops"], rows)


def format_cost_text(report: CostReport) -> str:
    width = max(len(r.name) for r in report.rows) + 2
    lines = [f"{'layer':<{width}}{'params':>14}{'flops':>16}{'aux_flops':>14}"]
    for r in report.rows:
        lines.append(f"{r.name:<{width}}{r.params:>14,}{r.flops:>16,}{r.aux_flops:>14,}")
    lines.append("-" * (width + 44))
    lines.append(f"{'total':<{width}}{report.total_params:>14,}{report.total_flops:>16,}"
                 f"{report.total_aux_flops:>14,}")
    lines.append(f"{'backbone':<{width}}{report.backbone_params:>14,}"
                 f"{report.backbone_flops:>16,}{'':>14}")
    lines.append("")
    lines.append("group totals (params / flops):")
    for key, (p, f) in report.group_totals().items():
        lines.append(f"  {key:<14}{p:>14,}{f:>16,}")
    return "\n".join(lines) + "\n"


def format_audit_text(report: AuditReport) -> str:
    lines = [
        f"cost audit at {REFERENCE_RESOLUTION}x{REFERENCE_RESOLUTION} "
        "(backbone basis, head excluded)",
        f"reference MSA (56x56 tokens, C=96): {report.msa_flops / 1e9:.4f} G "
        f"(dev {report.msa_deviation:+.2%}) -> {'PASS' if report.msa_ok else 'FAIL'}",
    ]
    for r in report.rows:
        lines.append(
            f"{r.name:<8} params {r.params / 1e6:8.3f} M vs {r.param_target / 1e6:5.1f} M "
            f"({r.param_deviation:+.2%}) {'PASS' if r.param_ok else 'FAIL'}  |  "
            f"flops {r.flops / 1e9:8.4f} G vs {r.flop_target / 1e9:5.1f} G "
            f"({r.flop_deviation:+.2%}) {'PASS' if r.flop_ok else 'FAIL'}")
    lines.append(f"overall: {'PASS' if report.ok else 'FAIL'}")
    return "\n".join(lines) + "\n"


def write_manifest(out_dir: Path, payload: Mapping) -> None:
    (out_dir / "manifest.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n")


def write_train_log(path: str | Path, history) -> None:
    write_csv(path, ["epoch", "step", "lr", "loss", "train_acc"],
              [(s.epoch, s.step, f"{s.lr:.8g}", f"{s.loss:.8g}", f"{s.train_acc:.6f}")
               for s in history])
