"""Load generator: replay registry workloads against a live server.

Drives N monitoring sessions concurrently over TCP, each fed from a
block-streaming workload generator (one connection per worker — the
protocol serializes requests per connection), and reports aggregate and
per-session throughput:

- ``steps_per_s`` — ingested time steps per wall-clock second, the
  service's headline number;
- ``values_per_s`` — ``steps_per_s × n`` observations;
- ``messages_per_step`` — the *algorithmic* cost of the monitored
  stream (what the paper bounds), per session and aggregated;
- ``server_stats`` — the server's ``ping`` counters after the run
  (``steps_ingested``, ``batched_ticks``, ``batched_steps``, ...): how
  many fed steps coalesced into cohort ticks.  On a sharded server
  these are the supervisor's own counters;
- ``latency_ms`` — p50/p95/p99 *client-observed completion* latency
  (send → the client reading the response) pooled across every request
  of every worker.  Under pipelining an ack can sit in the socket
  buffer until the window fills or a barrier drains it, so these
  numbers include queueing behind the client's own in-flight feeds —
  the latency a pipelined producer actually experiences, NOT the
  server's per-request service time (compare pipelined cells only
  with pipelined cells).

Feeding is **pipelined** when ``pipeline > 0``: each worker streams up
to that many feed frames before awaiting the oldest ack
(:meth:`~repro.service.client.AsyncServiceClient.feed_nowait`), with a
:meth:`~repro.service.client.AsyncServiceClient.flush` barrier before
``finalize``.  ``pipeline=0`` feeds in request-response lockstep — the
v1-era behavior, kept for apples-to-apples benchmarking.  The wire
framing (``v1``/``v2``/``auto``) is negotiated per connection.

Each session gets its own channel seed and stream seed (derived from
``seed`` and the session index), so concurrent sessions monitor
distinct streams — the realistic serving shape, and the one that makes
the scaling benchmark honest.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any

import numpy as np

from repro.service.client import AsyncServiceClient
from repro.streams import registry

__all__ = ["run_loadgen", "loadgen"]


async def _drive_one(
    index: int,
    host: str,
    port: int,
    *,
    workload: str,
    workload_params: dict[str, Any],
    algorithm: str,
    algorithm_params: dict[str, Any],
    num_steps: int,
    n: int,
    k: int,
    eps: float,
    block_size: int,
    seed: int,
    encoding: str,
    wire_protocol: str | None,
    pipeline: int,
) -> dict[str, Any]:
    """One worker: create a session, stream every block into it, finalize."""
    client = await AsyncServiceClient.connect(
        host, port, wire_protocol=wire_protocol, window=max(pipeline, 1)
    )
    client.record_latency = True
    try:
        sid = await client.create_session(
            algorithm=algorithm,
            algorithm_params=algorithm_params,
            n=n,
            k=k,
            eps=eps,
            seed=seed + index,
        )
        source = registry.stream(
            workload, num_steps, n,
            block_size=block_size, rng=seed + 7919 * (index + 1), **workload_params,
        )
        start = time.perf_counter()
        if pipeline > 0:
            for block in source.iter_blocks():
                await client.feed_nowait(sid, block, encoding=encoding)
            await client.flush()
        else:
            for block in source.iter_blocks():
                await client.feed(sid, block, encoding=encoding)
        result = await client.finalize(sid)
        elapsed = time.perf_counter() - start
        return {
            "session": sid,
            "wire": client.wire_version,
            "steps": result["num_steps"],
            "messages": result["messages"],
            "messages_per_step": round(result["messages"] / result["num_steps"], 3),
            "seconds": round(elapsed, 4),
            "steps_per_s": round(result["num_steps"] / elapsed) if elapsed else None,
            "latencies": list(client.latencies),
        }
    finally:
        await client.aclose()


def _latency_summary(
    latencies: list[float], per_session: list[list[float]] | None = None
) -> dict[str, Any] | None:
    """p50/p95/p99 client-observed completion latency in milliseconds
    (pooled requests; queue-inclusive under pipelining — see module
    docstring).  ``p99_spread_x`` is the max/min ratio of the
    *per-session* p99s — a fairness number: 1.0 means every session saw
    the same tail, large values mean some sessions starved (e.g. one
    cohort head-of-line-blocking another under batched serving)."""
    if not latencies:
        return None
    ms = np.asarray(latencies) * 1e3
    p50, p95, p99 = np.percentile(ms, [50, 95, 99])
    summary = {
        "count": int(ms.size),
        "p50": round(float(p50), 3),
        "p95": round(float(p95), 3),
        "p99": round(float(p99), 3),
        "max": round(float(ms.max()), 3),
    }
    session_p99s = [
        float(np.percentile(np.asarray(rows) * 1e3, 99))
        for rows in (per_session or [])
        if rows
    ]
    if len(session_p99s) >= 2 and min(session_p99s) > 0:
        summary["p99_spread_x"] = round(max(session_p99s) / min(session_p99s), 3)
    return summary


async def run_loadgen(
    host: str,
    port: int,
    *,
    workload: str = "iid",
    workload_params: dict[str, Any] | None = None,
    algorithm: str = "approx-monitor",
    algorithm_params: dict[str, Any] | None = None,
    sessions: int = 4,
    concurrency: int = 4,
    num_steps: int = 2_000,
    n: int = 32,
    k: int = 4,
    eps: float = 0.1,
    block_size: int = 256,
    seed: int = 0,
    encoding: str = "b64",
    wire_protocol: str | None = None,
    pipeline: int = 0,
) -> dict[str, Any]:
    """Replay ``workload`` into ``sessions`` served sessions; return the report."""
    if sessions < 1:
        raise ValueError(f"sessions must be >= 1, got {sessions}")
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    if pipeline < 0:
        raise ValueError(f"pipeline window must be >= 0, got {pipeline}")
    workload_params = dict(workload_params or {})
    algorithm_params = dict(algorithm_params or {})
    # Surface bad workload input before opening any connection.
    registry.validate_params(workload, n, workload_params)
    semaphore = asyncio.Semaphore(concurrency)

    async def bounded(index: int) -> dict[str, Any]:
        async with semaphore:
            return await _drive_one(
                index, host, port,
                workload=workload, workload_params=workload_params,
                algorithm=algorithm, algorithm_params=algorithm_params,
                num_steps=num_steps, n=n, k=k, eps=eps,
                block_size=block_size, seed=seed, encoding=encoding,
                wire_protocol=wire_protocol, pipeline=pipeline,
            )

    wall_start = time.perf_counter()
    per_session = await asyncio.gather(*(bounded(i) for i in range(sessions)))
    wall = time.perf_counter() - wall_start
    client = await AsyncServiceClient.connect(host, port, wire_protocol=wire_protocol)
    try:
        server_stats = (await client.ping())["stats"]
    finally:
        await client.aclose()

    total_steps = sum(row["steps"] for row in per_session)
    total_messages = sum(row["messages"] for row in per_session)
    session_latencies = [row.pop("latencies") for row in per_session]
    all_latencies = [t for rows in session_latencies for t in rows]
    return {
        "workload": workload,
        "workload_params": workload_params,
        "algorithm": algorithm,
        "sessions": sessions,
        "concurrency": concurrency,
        "num_steps": num_steps,
        "n": n,
        "k": k,
        "eps": eps,
        "block_size": block_size,
        "encoding": encoding,
        "wire": max(row["wire"] for row in per_session),
        "pipeline": pipeline,
        "total_steps": total_steps,
        "total_messages": total_messages,
        "wall_seconds": round(wall, 4),
        "steps_per_s": round(total_steps / wall) if wall else None,
        "values_per_s": round(total_steps * n / wall) if wall else None,
        "messages_per_step": round(total_messages / total_steps, 3) if total_steps else None,
        "latency_ms": _latency_summary(all_latencies, session_latencies),
        "server_stats": server_stats,
        "per_session": list(per_session),
    }


def loadgen(host: str, port: int, **kwargs: Any) -> dict[str, Any]:
    """Synchronous convenience wrapper around :func:`run_loadgen`."""
    return asyncio.run(run_loadgen(host, port, **kwargs))
