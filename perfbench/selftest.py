"""Self-tests of the benchmark itself.

Run from the repository root::

    python3 perfbench/selftest.py

Checks that the correctness referee can fail — the ε-validity checker
rejects a deliberately wrong F(t), the twin comparison rejects a
mismatch — and that a tiny smoke run of every workload, untraced and
traced, prints exactly the metrics ``BENCHMARK.json`` declares, with
their units.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from common import finalize_mismatch, invalid_outputs  # noqa: E402
from repro.model import MonitoringEngine  # noqa: E402
from repro.service import algorithms  # noqa: E402
from repro.service.session import Session, SessionConfig  # noqa: E402
from repro.streams import registry  # noqa: E402
from run import declared_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class SelfTestFailure(Exception):
    """A check of the benchmark itself failed."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)


def check_validity_referee() -> None:
    k, eps = 4, 0.1
    trace = registry.make("iid", 200, 16, rng=3)
    engine = MonitoringEngine(trace, algorithms.make_algorithm("approx-monitor", k, eps), k=k, eps=eps)
    rows = engine.run().outputs_array
    require(not invalid_outputs(trace.data, rows, k, eps), "a correct run was rejected")
    wrong = rows.copy()
    t = 57
    wrong[t] = np.argsort(trace.data[t])[:k]  # the k smallest values: never ε-top-k here
    bad = invalid_outputs(trace.data, wrong, k, eps)
    require(len(bad) == 1 and bad[0].startswith(f"t={t}:"), f"wrong F(t) not caught: {bad}")
    require(bool(invalid_outputs(trace.data, rows[:-1], k, eps)), "a missing step was not caught")


def check_twin_referee() -> None:
    config = {"algorithm": "approx-monitor", "n": 8, "k": 2, "eps": 0.1, "seed": 5}
    blocks = registry.make("zipf", 256, 8, rng=5).data.reshape(4, 64, 8)
    served, twin = Session(SessionConfig(**config)), Session(SessionConfig(**config))
    for block in blocks:
        served.feed(block)
        twin.feed(block)
    result = served.finalize()
    summary = {"num_steps": result.num_steps, "messages": result.messages,
               "output_changes": result.output_changes}
    expected = twin.finalize()
    require(finalize_mismatch(summary, expected) is None, "identical twins were rejected")
    for name in summary:
        altered = {**summary, name: summary[name] + 1}
        require(finalize_mismatch(altered, expected) is not None, f"a {name} mismatch was not caught")


def check_smoke_runs() -> None:
    end_to_end, per_layer = declared_metrics()
    for workload in WORKLOADS:
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", "7", "--seconds", "1", "--trace", str(trace),
                       "--smoke"]
            done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=170)
            lines = done.stdout.strip().splitlines()
            name = f"{workload} trace={trace}"
            require(done.returncode == 0 and bool(lines),
                    f"{name} exited {done.returncode}:\n{done.stdout}\n{done.stderr}")
            result = json.loads(lines[-1])
            require(set(result) == {"correct", "attempted", "failed", "metrics"},
                    f"{name}: result keys {sorted(result)}")
            require(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
                    f"{name}: {lines[-1]}")
            units = {metric: m["unit"] for metric, m in result["metrics"].items()}
            require(units == declared, f"{name}: {units} != {declared}")
            print(f"ok  smoke {name}: {len(units)} metrics")


def main() -> int:
    try:
        _run_checks()
    except SelfTestFailure as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


def _run_checks() -> None:
    check_validity_referee()
    print("ok  validity checker rejects a wrong F(t)")
    check_twin_referee()
    print("ok  twin comparison rejects a mismatch")
    check_smoke_runs()


if __name__ == "__main__":
    sys.exit(main())
