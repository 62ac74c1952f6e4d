"""The litnet benchmark.

    python3 perfbench/run.py --workload infer-lit-s --seed 1 --seconds 20 --trace 0

runs one workload from the root of a checkout against the litnet sources
under ``src/``. ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` alternates traced and untraced ops and
reports the per-layer metrics. ``--workload all`` runs every workload in
turn and adds the paper-claim summary: the wall-clock ratio of the
all-attention layout to lit-s beside the analyzer's MAC ratio.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. Each
result, and the spans of a traced run, are also written to
``.perfbench_out/``. The exit code is 0 when every op passed its
correctness check, 1 when one did not, and 2 when the benchmark cannot
run (bad arguments, or no litnet sources in the checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = Path(".perfbench_out")


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def cap_blas_threads() -> None:
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 0 < int(value) <= nproc:
            os.environ[var] = str(nproc)


def import_program():
    """Import litnet from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "litnet" / "__init__.py").is_file():
        fail(f"no litnet sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import litnet
    if Path(litnet.__file__).resolve().parent != SRC / "litnet":
        fail(f"litnet was imported from {litnet.__file__}, not from {SRC}")


def print_result(name: str, result) -> None:
    print(f"== {name}")
    for metric, (value, unit) in result.metrics.items():
        print(f"  {metric:32s} {value:14.6g} {unit}")
    for key, value in result.notes.items():
        print(f"  ({key}: {value})")
    print(f"  correct={result.correct} attempted={result.attempted} failed={result.failed}")


def save(name: str, seed: int, trace: int, payload: dict) -> None:
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(payload, indent=1))


def run_one(bench, name: str, seed: int, seconds: float, trace: int):
    w = bench.WORKLOADS[name]
    if trace:
        result, tracer = bench.measure_layers(w, seed, seconds)
        tracer.dump(OUT / f"{name}-seed{seed}.spans.json")
    else:
        result = bench.measure(w, seed, seconds)
    print_result(name, result)
    save(name, seed, trace, {"workload": name, "environment": bench.environment(seed),
                             "correct": result.correct, "attempted": result.attempted,
                             "failed": result.failed, "metrics": result.metrics,
                             "notes": result.notes})
    return result


def claim_summary(bench, results: dict, trace: int) -> dict:
    """Wall-clock ratio of the all-attention layout to lit-s beside the MAC ratio."""
    from litnet import analyzer
    lit, attn = "infer-lit-s", "infer-all-attn"
    macs = {n: analyzer.cost_report(bench.WORKLOADS[n].config).total_flops / 1e9
            for n in (lit, attn)}
    key = "model.forward.ms" if trace else "latency_p50_ms"
    wall = {n: results[n].metrics[key][0] for n in (lit, attn)}
    print(f"== paper claim: {attn} vs {lit}")
    if trace:
        for k in (1, 2, 3, 4):
            ms = {n: results[n].metrics[f"model.stage{k}.ms"][0] for n in (lit, attn)}
            gmac = {n: results[n].metrics[f"analyzer.stage{k}.gmac"][0] for n in (lit, attn)}
            print(f"  stage{k}: {ms[lit]:9.2f} ms {gmac[lit]:6.3f} GMAC | "
                  f"{ms[attn]:9.2f} ms {gmac[attn]:6.3f} GMAC")
    wall_ratio = wall[attn] / wall[lit]
    mac_ratio = macs[attn] / macs[lit]
    print(f"  wall-clock ({key}): {wall[attn]:.2f} / {wall[lit]:.2f} = {wall_ratio:.3f}x")
    print(f"  modeled MACs (cost_report): {macs[attn]:.3f} / {macs[lit]:.3f} GMAC "
          f"= {mac_ratio:.3f}x")
    return {"claim.wallclock_ratio": (wall_ratio, "x"), "claim.mac_ratio": (mac_ratio, "x")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["infer-lit-s", "infer-all-attn", "train-toy", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    cap_blas_threads()
    import_program()
    import bench

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment " + json.dumps(bench.environment(args.seed)))
    names = list(bench.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_one(bench, n, args.seed, args.seconds, args.trace) for n in names}
    if args.workload == "all":
        metrics = {f"{n}.{m}": v for n, r in results.items() for m, v in r.metrics.items()}
        metrics.update(claim_summary(bench, results, args.trace))
    else:
        metrics = results[args.workload].metrics
    correct = all(r.correct for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in results.values()),
        "failed": sum(r.failed for r in results.values()),
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
