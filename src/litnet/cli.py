"""Command-line entry point: audit, verify, train, inspect.

Every run writes a manifest (resolved settings, seed, the version of the
litnet code that ran) into its output directory. Exit codes: 0 success,
2 configuration errors (among them a training counter too large for a
checkpoint's float32 records and a run too large for memory), 3 numeric
errors, 4 tolerance failures.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__, analyzer, dtm, equivalence
from .checkpoint import load_tensors
from .data import NUM_CLASSES, load_dataset_dir, synthetic_dataset
from .errors import ConfigError, LitError, NumericError
from .exports import (format_audit_text, format_cost_text, write_attention_exports,
                      write_cost_csv, write_manifest, write_offset_trace,
                      write_train_log)
from .model import (BLOCK_TRANSFORMER, MERGE_DTM, ForwardRecord, ModelConfig, PRESET_NAMES,
                    build, preset, toy_config)
from .train import (AdamW, TrainSettings, check_run_counters, load_training_checkpoint,
                    run_training)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_TOLERANCE = 4


def _resolve_config(args) -> tuple[str, ModelConfig]:
    if getattr(args, "preset", None) and getattr(args, "config", None):
        raise ConfigError("give either --preset or --config, not both")
    if getattr(args, "preset", None):
        return args.preset, preset(args.preset)
    if getattr(args, "config", None):
        return Path(args.config).stem, ModelConfig.load_json(args.config)
    return "toy", toy_config()


def _dataset(args, config: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    if args.data == "synthetic":
        if args.num_images < 1:
            raise ConfigError(f"--num-images must be at least 1, got {args.num_images}")
        # the synthetic classes' labels are valid for a head of any larger width
        return synthetic_dataset(args.num_images, seed=args.seed, size=config.resolution,
                                 num_classes=min(config.num_classes, NUM_CLASSES))
    return load_dataset_dir(args.data)


def _manifest(args, out_dir: Path, extra: dict | None = None) -> None:
    payload = {
        "command": args.command,
        "args": {k: v for k, v in vars(args).items() if k not in ("command", "func")},
        "version": __version__,
    }
    if extra:
        payload.update(extra)
    write_manifest(out_dir, payload)


def _grid_points(text: str | None, what: str, grid: tuple[int, int],
                 grid_name: str) -> list[tuple[int, int]]:
    """The points of an h x w grid that ``--query`` or ``--token`` names:
    every point for "all", one "y,x" point, or the centre when not given.
    ``what`` is the flag's name and ``grid_name`` the grid's in messages."""
    h, w = grid
    if text == "all":
        return [(y, x) for y in range(h) for x in range(w)]
    if not text:
        return [(h // 2, w // 2)]
    try:
        y, x = (int(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"--{what} must be 'y,x', got {text!r}") from None
    if not (0 <= y < h and 0 <= x < w):
        raise ConfigError(f"{what} {(y, x)} outside the {h}x{w} {grid_name} grid")
    return [(y, x)]


# --------------------------------------------------------------------------
# audit
# --------------------------------------------------------------------------


def cmd_audit(args, out_dir: Path) -> int:
    if args.preset == "all" and not args.config:
        configs = {name: preset(name) for name in PRESET_NAMES}
    else:  # _resolve_config refuses --preset all beside --config
        name, config = _resolve_config(args)
        configs = {name: config}

    all_ok = True
    reports = {name: analyzer.cost_report(config, args.resolution)
               for name, config in configs.items()}
    for name, report in reports.items():
        write_cost_csv(out_dir / f"cost_{name}.csv", report)
        (out_dir / f"cost_{name}.txt").write_text(format_cost_text(report))

    audited = {n: c for n, c in configs.items() if n in analyzer.REFERENCE_COSTS}
    summary = {}
    if args.resolution == analyzer.REFERENCE_RESOLUTION and audited:
        audit_report = analyzer.audit(audited)
        text = format_audit_text(audit_report)
        sys.stdout.write(text)
        (out_dir / "audit.txt").write_text(text)
        all_ok = audit_report.ok
        summary = {
            "audit_ok": audit_report.ok,
            "msa_reference_gflops": audit_report.msa_flops / 1e9,
        }
    else:
        for name, report in reports.items():
            print(f"{name}: params {report.total_params:,} "
                  f"(backbone {report.backbone_params:,}), "
                  f"flops {report.backbone_flops / 1e9:.4f} G at {args.resolution}px")
    _manifest(args, out_dir, {"summary": summary})
    return EXIT_OK if all_ok else EXIT_TOLERANCE


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------


def cmd_verify(args, out_dir: Path) -> int:
    kernels = args.kernel or [1, 3]
    grids = [(4, 4), (6, 6), (8, 8)]
    side = min(min(grid) for grid in grids)
    for kernel in kernels:
        if not 1 <= kernel <= side:
            raise ConfigError(f"--kernel must lie in 1-{side} (a larger kernel has no "
                              f"interior pixel on the {side}x{side} grid), got {kernel}")
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be at least 1, got {args.seeds}")
    results: dict = {"fc_vs_1x1": None, "msa_vs_conv": [], "receptive_field": []}
    ok = True

    rng = np.random.default_rng(args.seed)
    fc_dev = equivalence.verify_fc_equals_1x1_conv(rng.normal(size=(4, 5)), rng)
    results["fc_vs_1x1"] = fc_dev
    fc_ok = fc_dev < 1e-12
    ok &= fc_ok
    print(f"per-pixel FC vs 1x1 conv: max deviation {fc_dev:.3e} -> {'PASS' if fc_ok else 'FAIL'}")

    for kernel in kernels:
        worst = 0.0
        for seed in range(args.seeds):
            seed_rng = np.random.default_rng(args.seed + seed)
            for grid in grids:
                cin, cout = 4, 5
                conv_w = seed_rng.normal(size=(kernel, kernel, cin, cout))
                image = seed_rng.normal(size=(grid[0], grid[1], cin))
                dev = equivalence.msa_vs_conv_deviation(image, conv_w)
                worst = max(worst, dev)
        kernel_ok = worst < 1e-10
        ok &= kernel_ok
        results["msa_vs_conv"].append({"kernel": kernel, "seeds": args.seeds,
                                       "max_deviation": worst, "ok": kernel_ok})
        print(f"delta-attention MSA vs conv (K={kernel}, {args.seeds} seeds): "
              f"max deviation {worst:.3e} -> {'PASS' if kernel_ok else 'FAIL'}")

    for heads in (1, 4, 9):
        kernel = int(round(heads ** 0.5))
        probe_rng = np.random.default_rng(args.seed)
        conv_w = probe_rng.normal(size=(kernel, kernel, 3, 3))
        report = equivalence.receptive_field_probe(
            [lambda x: equivalence.attention_as_conv(x, conv_w)], (9, 9), (4, 4),
            rng=probe_rng)
        expected = kernel
        rf_ok = report.k_eff == expected
        ok &= rf_ok
        results["receptive_field"].append({"heads": heads, "k_eff": report.k_eff,
                                           "expected": expected, "ok": rf_ok})
        print(f"receptive field of {heads}-head construction: K_eff={report.k_eff} "
              f"(expected {expected}) -> {'PASS' if rf_ok else 'FAIL'}")

    (out_dir / "verify.json").write_text(json.dumps(results, indent=2) + "\n")
    _manifest(args, out_dir, {"summary": {"ok": ok}})
    return EXIT_OK if ok else EXIT_TOLERANCE


# --------------------------------------------------------------------------
# train
# --------------------------------------------------------------------------


def cmd_train(args, out_dir: Path) -> int:
    if args.log_every < 1:
        raise ConfigError(f"--log-every must be at least 1, got {args.log_every}")
    settings = TrainSettings(**{f.name: getattr(args, f.name) for f in fields(TrainSettings)})
    name, config = _resolve_config(args)
    images, labels = _dataset(args, config)
    # refuse bad data, a run too long to checkpoint and a bad checkpoint before
    # anything is written into --out
    problem = config.images_problem(images.shape)
    if problem:
        raise ConfigError(problem)
    if labels.min() < 0 or labels.max() >= config.num_classes:
        raise ConfigError(f"labels must lie in [0, {config.num_classes}), "
                          f"got {labels.min()} to {labels.max()}")
    check_run_counters(len(images), settings)
    model = build(config, seed=args.seed)
    if args.resume:
        load_training_checkpoint(args.resume, model, AdamW(model.named_params()), settings.epochs)
    config.save_json(out_dir / "config.json")
    _manifest(args, out_dir, {"config": config.to_dict(), "model": name})

    def report(stats):
        if stats.epoch % args.log_every == 0 or stats.epoch == settings.epochs - 1:
            print(f"epoch {stats.epoch:4d}  lr {stats.lr:.6f}  loss {stats.loss:.4f}  "
                  f"acc {stats.train_acc:.3f}")

    result = run_training(model, images, labels, settings, out_dir=out_dir,
                          resume=Path(args.resume) if args.resume else None, on_epoch=report)
    write_train_log(out_dir / "train_log.csv", result.history)
    print(f"final train accuracy: {result.final_accuracy:.4f}")
    print(f"checkpoints: {', '.join(str(p) for p in result.checkpoints)}")
    return EXIT_OK


# --------------------------------------------------------------------------
# inspect
# --------------------------------------------------------------------------


def cmd_inspect(args, out_dir: Path) -> int:
    name, config = _resolve_config(args)
    # every flag is checked before the model is built or any file is read
    grids = config.grids()
    if args.mode == "attn":
        stage, block = args.stage, args.block
        if not 1 <= stage <= 4:
            raise ConfigError(f"--stage must be 1-4, got {stage}")
        spec = config.stages[stage - 1]
        if spec.block_kind != BLOCK_TRANSFORMER:
            raise ConfigError(f"stage {stage} has MLP blocks, which have no self-attention layers")
        if not 0 <= block < spec.depth:
            raise ConfigError(f"stage {stage} has blocks 0-{spec.depth - 1}, got block {block}")
        queries = _grid_points(args.query, "query", grids[stage - 1], f"stage-{stage}")
        wanted = [(stage, block)]
    else:
        plain = sorted({s.merge_kind for s in config.stages[1:]} - {MERGE_DTM})
        if plain:
            raise ConfigError(f"{', '.join(plain)} merges have no offset predictor; "
                              f"offset traces need {MERGE_DTM!r} merges in stages 2-4")
        tokens = _grid_points(args.token, "token", grids[3], "final-stage")
        wanted = []
    model = build(config, seed=args.seed)
    if args.checkpoint:
        model.load_state(load_tensors(args.checkpoint))
    images, _ = _dataset(args, config)
    # an eval-mode pass changes no running statistics, so each image's export
    # is independent of the batch; a model without them gets identity ones
    if any(merge.bn_state.mean is None for merge in model.merges.values()):
        model.seed_norm_stats()
    record = ForwardRecord(attention=dict.fromkeys(wanted))
    model.forward(images, mode="eval", record=record)
    if args.mode == "attn":
        files = write_attention_exports(out_dir, record.attention[(stage, block)],
                                        grids[stage - 1], queries)
        print(f"wrote {len(files)} attention export files to {out_dir}")
    else:
        for token in tokens:
            coords = dtm.trace_offsets(record.offsets, token)
            path = out_dir / f"offsets_token{token[0]}_{token[1]}.csv"
            write_offset_trace(path, token, coords)
        print(f"wrote {len(tokens)} offset trace files to {out_dir}")
    _manifest(args, out_dir, {"config": config.to_dict(), "model": name})
    return EXIT_OK


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads every negative float, such as
    ``--lr -2E-3`` or ``-inf``, as a value. argparse alone recognises only
    forms like ``-0.002`` and takes the others for option names, so the
    range checks would never see them. Sub-command parsers use this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="litnet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_audit = sub.add_parser("audit", help="cost report and reference-budget audit")
    p_audit.add_argument("--preset", choices=PRESET_NAMES + ("all",))
    p_audit.add_argument("--config", help="model config JSON")
    p_audit.add_argument("--resolution", type=int, default=224)
    p_audit.add_argument("--out", default="audit_out")
    p_audit.set_defaults(func=cmd_audit)

    p_verify = sub.add_parser("verify", help="run the equivalence suite")
    p_verify.add_argument("--kernel", type=int, nargs="*", default=None)
    p_verify.add_argument("--seeds", type=int, default=10)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", default="verify_out")
    p_verify.set_defaults(func=cmd_verify)

    p_train = sub.add_parser("train", help="deterministic toy-scale training")
    p_train.add_argument("--config", help="model config JSON (default: toy layout)")
    p_train.add_argument("--preset", choices=PRESET_NAMES)
    p_train.add_argument("--data", default="synthetic",
                         help="'synthetic' or a directory with images.npy/labels.npy")
    p_train.add_argument("--num-images", type=int, default=200)
    for setting in fields(TrainSettings):  # --epochs, --batch-size, ... with their defaults
        p_train.add_argument(f"--{setting.name.replace('_', '-')}", type=type(setting.default),
                             default=setting.default)
    p_train.add_argument("--log-every", type=int, default=10)
    p_train.add_argument("--resume", help="checkpoint to resume from")
    p_train.add_argument("--out", default="train_out")
    p_train.set_defaults(func=cmd_train)

    p_inspect = sub.add_parser("inspect", help="export attention maps or offset traces")
    p_inspect.add_argument("--mode", choices=("attn", "offsets"), required=True)
    p_inspect.add_argument("--config", help="model config JSON (default: toy layout)")
    p_inspect.add_argument("--preset", choices=PRESET_NAMES)
    p_inspect.add_argument("--checkpoint")
    p_inspect.add_argument("--stage", type=int, default=3)
    p_inspect.add_argument("--block", type=int, default=0)
    p_inspect.add_argument("--query", help="'y,x' or 'all' (attn mode)")
    p_inspect.add_argument("--token", help="'y,x' or 'all' (offsets mode)")
    p_inspect.add_argument("--data", default="synthetic")
    p_inspect.add_argument("--num-images", type=int, default=8)
    p_inspect.add_argument("--seed", type=int, default=0)
    p_inspect.add_argument("--out", default="inspect_out")
    p_inspect.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ConfigError(f"--seed must be at least 0, got {args.seed}")
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return args.func(args, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (LitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
