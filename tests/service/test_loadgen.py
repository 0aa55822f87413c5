"""Load generator: report integrity against an in-process server."""

import asyncio

import pytest

from repro.service import MonitoringServer
from repro.service.loadgen import run_loadgen
from repro.streams import registry


def loadgen_report(**kwargs):
    async def scenario():
        server = MonitoringServer()
        host, port = await server.start()
        try:
            return await run_loadgen(host, port, **kwargs)
        finally:
            await server.aclose()

    return asyncio.run(scenario())


class TestLoadgen:
    def test_report_shape_and_totals(self):
        sessions, steps = 3, 200
        report = loadgen_report(
            workload="iid", sessions=sessions, concurrency=2,
            num_steps=steps, n=8, k=2, eps=0.2, block_size=64, seed=7,
        )
        assert report["total_steps"] == sessions * steps
        assert len(report["per_session"]) == sessions
        assert report["steps_per_s"] > 0
        assert report["messages_per_step"] > 0
        assert report["server_stats"]["steps_ingested"] == sessions * steps
        for row in report["per_session"]:
            assert row["steps"] == steps
            assert row["messages"] > 0

    def test_p99_spread_with_multiple_sessions(self):
        report = loadgen_report(
            workload="iid", sessions=3, concurrency=3,
            num_steps=150, n=8, k=2, eps=0.2, block_size=50, seed=5,
        )
        spread = report["latency_ms"]["p99_spread_x"]
        assert spread >= 1.0  # max/min of per-session p99s

    def test_p99_spread_absent_for_single_session(self):
        report = loadgen_report(
            workload="iid", sessions=1, concurrency=1,
            num_steps=100, n=8, k=2, eps=0.2, block_size=50, seed=5,
        )
        assert "p99_spread_x" not in report["latency_ms"]

    def test_sessions_monitor_distinct_streams(self):
        report = loadgen_report(
            workload="iid", sessions=3, concurrency=3,
            num_steps=150, n=8, k=2, eps=0.2, block_size=50, seed=1,
        )
        messages = [row["messages"] for row in report["per_session"]]
        # Distinct stream + channel seeds: identical totals across all
        # three sessions would mean the seeds collapsed.
        assert len(set(messages)) > 1

    def test_deterministic_given_seed(self):
        kwargs = dict(
            workload="zipf", sessions=2, concurrency=1,
            num_steps=120, n=8, k=2, eps=0.2, block_size=40, seed=3,
        )
        a = loadgen_report(**kwargs)
        b = loadgen_report(**kwargs)
        assert [r["messages"] for r in a["per_session"]] == \
               [r["messages"] for r in b["per_session"]]

    def test_bad_workload_fails_before_connecting(self):
        with pytest.raises(registry.WorkloadParamError):
            loadgen_report(workload="zipf", workload_params={"alpha": -2.0},
                           sessions=1, num_steps=50, n=8, k=2)

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError, match="sessions"):
            loadgen_report(sessions=0, num_steps=10, n=8, k=2)
        with pytest.raises(ValueError, match="concurrency"):
            loadgen_report(sessions=1, concurrency=0, num_steps=10, n=8, k=2)
