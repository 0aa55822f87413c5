"""In-process engine throughput: steps/s per ε-monitor on quiet and chatty streams.

Times ``MonitoringEngine.run()`` for each of the library's four
ε-monitors (``exact-ipdps15`` at ε = 0) on two quiet stream types, where
almost every step is replayed in bulk by the time-axis scan (``drift``,
``walk``), and two chatty ones, where most steps escalate into the
channel's protocols (``cluster``, ``iid``).  Each cell is the best of
three timed intervals of at least 100 ms, each re-running the engine
over the same trace as often as that takes.  Results go to
``BENCH_engine.json`` at the repository root; CI runs the ``--ci``
variant and gates it against the committed full-size baseline with
``check_regression.py``.  Regenerate the committed file with the
default sizes.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py            # full sizes
    PYTHONPATH=src python benchmarks/bench_engine.py --ci       # small, fast
    PYTHONPATH=src python benchmarks/bench_engine.py --out /tmp/b.json
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.model import MonitoringEngine
from repro.service import algorithms
from repro.streams import registry

#: The library's four ε-monitors (the exact one runs at ε = 0).
ALGORITHMS = ("approx-monitor", "topk-protocol", "halfeps-monitor", "exact-ipdps15")
N, K, EPS = 32, 4, 0.1

#: Steps per stream type: the horizon each engine run covers.
FULL_STEPS = {"drift": 200_000, "walk": 50_000, "cluster": 4_000, "iid": 1_000}
#: CI shrinks the horizon T but keeps n: the regression gate matches
#: cells by their (path, n), so a cell at another n would not be gated.
#: Only the chatty streams shrink.  A quiet stream's rate depends on
#: where its rank crossings fall (a 12.5k-step prefix of the 50k-step
#: ``walk`` read 0.4-0.6x the full rate), while ``cluster`` and ``iid``
#: escalate at a steady rate along the stream.
CI_STEPS = {"drift": 200_000, "walk": 50_000, "cluster": 2_000, "iid": 500}

#: Best-of repetitions per cell.
REPS = 3
#: Each timed repetition re-runs the engine until this much time has
#: passed.  A quiet cell covers its horizon in 10-90 ms, which a single
#: run would time mostly as warm-up; repeating the run keeps every
#: timed interval at 100 ms or more without a longer trace.
MIN_TIMED_S = 0.1


def measure(slug: str, steps: int, algorithm: str) -> dict:
    """Best-of-``REPS`` rate of one (stream, algorithm) cell."""
    trace = registry.make(slug, steps, N, rng=0)
    eps = EPS if algorithms.get(algorithm).uses_eps else 0.0
    best = 0.0
    for _ in range(REPS):
        runs, start = 0, time.perf_counter()
        while True:
            engine = MonitoringEngine(
                trace, algorithms.make_algorithm(algorithm, K, eps), k=K, eps=eps, seed=1, n=N
            )
            result = engine.run()
            runs += 1
            elapsed = time.perf_counter() - start
            if elapsed >= MIN_TIMED_S:
                break
        best = max(best, runs * steps / elapsed)
    return {
        "T": steps,
        "n": N,
        "runs": runs,
        "seconds": round(steps / best, 4),
        "steps_per_s": round(best),
        "messages_per_step": round(result.messages / steps, 3),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ci", action="store_true", help="small horizons for CI")
    parser.add_argument(
        "--out", type=Path,
        default=Path(__file__).resolve().parents[1] / "BENCH_engine.json",
    )
    args = parser.parse_args(argv)

    sizes = CI_STEPS if args.ci else FULL_STEPS
    t0 = time.perf_counter()
    report = {
        "schema": 1,
        "mode": "ci" if args.ci else "full",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "engine": {
            slug: {alg: measure(slug, steps, alg) for alg in ALGORITHMS}
            for slug, steps in sizes.items()
        },
    }
    report["total_seconds"] = round(time.perf_counter() - t0, 2)

    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out} ({report['total_seconds']}s)")
    for slug, cells in report["engine"].items():
        for alg, cell in cells.items():
            print(f"  {slug:>7} {alg:>15}: {cell['steps_per_s']:>10,} steps/s  "
                  f"({cell['messages_per_step']} msgs/step, T={cell['T']}, n={cell['n']})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
