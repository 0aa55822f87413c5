"""The repository benchmark: one command, four workloads, a layered trace.

Usage, from the repository root::

    python3 perfbench/run.py --workload engine-quiet --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload serve-fanin --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload serve-trickle --seed 1 --seconds 2 --smoke
    python3 perfbench/selftest.py

Workloads (see ``perfbench/workloads.py`` for sizes, the reasons
behind them, and how timings are made steady on a noisy host):
``engine-quiet``, ``engine-chatty``, ``serve-trickle`` (runnable, not
declared in ``BENCHMARK.json``), ``serve-fanin``.  Inputs are generated from ``--seed`` before the clock
starts.  ``--trace 0`` reports the end-to-end metrics declared in
``BENCHMARK.json``; ``--trace 1`` reports the per-layer metrics.  A
metric a workload does not exercise (the service layers on an
in-process engine workload, ``engine.run_us_per_step`` on a served one)
reads 0.  Other end-to-end figures the workload has (``feed_p99_ms``,
``query_p*_ms``, ``sustained_rows_per_s``, ``send_lag_p99_ms``,
``batched_share``, ``error_rate``) are printed above the result line.

Human-readable lines go first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Any
correctness failure exits with status 1; a checkout without the
``src/repro`` package exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """``(end_to_end, per_layer)`` metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up (self-test); figures are meaningless")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT}; nothing to measure",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, smoke  # noqa: E402 - needs the path above

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    end_to_end, per_layer = declared_metrics()
    spec = WORKLOADS[args.workload]
    if args.smoke:
        spec = smoke(spec)
    trace = bool(args.trace)

    if spec.kind == "engine":
        from engine_bench import run_engine

        report = run_engine(spec, args.seed, args.seconds, trace)
    else:
        from serve_bench import run_serve

        (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
        scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_tmp"))
        try:
            report = run_serve(spec, args.seed, args.seconds, trace, ROOT, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
            try:
                (ROOT / ".perfbench_tmp").rmdir()
            except OSError:
                pass  # another run's scratch is still there

    declared = per_layer if trace else end_to_end
    produced = _layer_values(report, per_layer) if trace else report["metrics"]
    problems = report["problems"]
    if set(produced) != set(declared):
        problems.add(f"metric names {sorted(produced)} differ from BENCHMARK.json's {sorted(declared)}")
    for name, value in produced.items():
        if not math.isfinite(value):
            problems.add(f"{name} is not finite ({value})")

    _print_report(args, report, produced, declared)
    correct = not problems and report["failed"] == 0
    result = {
        "correct": correct,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {
            name: {"value": float(produced[name]), "unit": unit}
            for name, unit in declared.items() if name in produced
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


def _layer_values(report: dict, per_layer: dict[str, str]) -> dict[str, float]:
    """Every per-layer metric; 0 for a layer this workload does not exercise."""
    layers = report["layers"] or {}
    unknown = set(layers) - set(per_layer)
    if unknown:
        report["problems"].add(f"undeclared per-layer metrics {sorted(unknown)}")
    return {name: float(layers.get(name, 0.0)) for name in per_layer}


def _print_report(args, report: dict, produced: dict, declared: dict) -> None:
    mode = "per-layer (traced)" if args.trace else "end-to-end"
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} {mode}")
    for name, unit in declared.items():
        if name in produced:
            print(f"{name:36s} {produced[name]:14.6g} {unit}")
    for name, value in report["detail"].items():
        print(f"{name:36s} {value:14.6g}" if isinstance(value, float) else f"{name:36s} {value}")
    print(f"{'attempted / failed':36s} {report['attempted']} / {report['failed']}")
    problems = report["problems"]
    for message in problems.messages:
        print(f"CORRECTNESS: {message}")
    if problems.count > len(problems.messages):
        print(f"CORRECTNESS: ... {problems.count - len(problems.messages)} more")


if __name__ == "__main__":
    sys.exit(main())
