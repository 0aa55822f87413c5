"""serve-trickle and serve-fanin: one spawned durable server, load from here.

The server runs as ``python -m repro.experiments serve --wal-dir <tmp>``
in a subprocess; this process opens the connections and generates every
request.  Each connection has its own thread and event loop, so an
open-loop connection can wait for a row's due time with a precise
blocking sleep without delaying the other connection, and no thread
polls the CPU the server needs.

Session state is checked off the clock: queried F(t) sets against the
fed values, and each session's ``finalize`` against an in-process
:class:`~repro.service.session.Session` twin fed the same blocks.

With ``--trace 1`` the run is split in two halves, telemetry off then
on (the ``metrics`` op), and the requests are replayed in-process
through the public layer functions (:func:`replay`) to time each layer.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from common import (
    HOST_REFERENCE_S,
    HostProbe,
    Problems,
    derive_seed,
    finalize_mismatch,
    invalid_outputs,
    peak_rss_mb,
    percentile,
    windowed_percentile,
)
from engine_bench import escalated_steps
from repro.service import wal as wallib
from repro.service import wire
from repro.service.client import AsyncServiceClient, ServiceError
from repro.service.metrics import histogram_percentiles
from repro.service.session import Session, SessionBatch, SessionConfig
from repro.streams import registry
from workloads import FaninSpec, TrickleSpec

__all__ = ["run_serve"]

#: A rung whose generator falls this far behind is abandoned (it has
#: already missed the limit).
_ABANDON_S = 1.0

#: Longest a single call into a connection may take before the run fails.
_CALL_TIMEOUT_S = 150.0


class Server:
    """A ``serve --wal-dir`` subprocess on an OS-assigned port."""

    def __init__(self, root: Path, scratch: Path) -> None:
        self.wal_dir = Path(tempfile.mkdtemp(prefix="wal-", dir=scratch))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments", "serve", "--port", "0",
             "--wal-dir", str(self.wal_dir)],
            stdout=subprocess.PIPE, text=True, cwd=root, env=env,
        )
        line = self.process.stdout.readline().strip()
        if not line.startswith("serving on "):
            self.kill()
            raise RuntimeError(f"server did not announce itself (got {line!r})")
        self.port = int(line.rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.process.stdout.close()
        shutil.rmtree(self.wal_dir, ignore_errors=True)


class Connection:
    """One client connection, served by its own thread and event loop."""

    def __init__(self, port: int, window: int) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        try:
            self.client = self.run(AsyncServiceClient.connect(
                "127.0.0.1", port, wire_protocol="v2", window=window,
            ))
        except BaseException:
            self._stop_loop()
            raise

    def submit(self, coro):
        """Start ``coro`` on this connection's loop; returns a future."""
        return asyncio.run_coroutine_threadsafe(coro, self.loop)

    def run(self, coro):
        """Run ``coro`` on this connection's loop and return its result."""
        return self.submit(coro).result(_CALL_TIMEOUT_S)

    def close(self) -> None:
        try:
            self.run(self.client.aclose())
        finally:
            self._stop_loop()

    def _stop_loop(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(_CALL_TIMEOUT_S)
        self.loop.close()


@dataclass
class Rig:
    """A server, its connections and the sessions under load."""

    server: Server
    connections: list[Connection]
    sids: list[str]
    configs: list[dict]
    #: Per session: the ``(B, n)`` blocks it is fed, in order (cyclic).
    blocks: list[list[np.ndarray]]
    #: Per session: blocks fed so far.  Each session belongs to one
    #: connection, so only that connection's thread writes its entry.
    fed: list[int]
    generate_s: float = 0.0
    #: Per session: the in-process twin's result (filled by ``_finish``).
    twins: list = field(default_factory=list)
    #: Per connection: feeds and queries sent so far (serve-fanin).
    feeds_sent: list[int] = field(default_factory=list)
    queries_sent: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.feeds_sent = [0] * len(self.connections)
        self.queries_sent = [0] * len(self.connections)

    def connection_of(self, session: int) -> Connection:
        return self.connections[session % len(self.connections)]

    def sessions_of(self, connection: int) -> list[int]:
        return list(range(connection, len(self.sids), len(self.connections)))

    def next_block(self, session: int) -> np.ndarray:
        blocks = self.blocks[session]
        block = blocks[self.fed[session] % len(blocks)]
        self.fed[session] += 1
        return block

    def fed_blocks(self, session: int):
        blocks = self.blocks[session]
        return (blocks[j % len(blocks)] for j in range(self.fed[session]))

    def each(self, make_coro) -> list:
        """Run ``make_coro(index, connection)`` on every connection at once."""
        futures = [c.submit(make_coro(i, c)) for i, c in enumerate(self.connections)]
        return [f.result(_CALL_TIMEOUT_S) for f in futures]

    def close(self) -> None:
        """Shut the server down cleanly, then release every resource."""
        try:
            self.connections[0].run(self.connections[0].client.shutdown())
            self.server.process.wait(30)
        finally:
            try:
                for connection in self.connections:
                    connection.close()
            finally:
                self.server.kill()


def _session_configs(spec, seed: int) -> list[dict]:
    configs = []
    for i in range(spec.sessions):
        k = spec.k_first + i if isinstance(spec, TrickleSpec) else spec.k
        configs.append({
            "algorithm": "approx-monitor", "n": spec.n, "k": k, "eps": spec.eps,
            "seed": derive_seed(seed, "session", i),
        })
    return configs


def _generate(spec, seed: int, rows: int, block_rows: int) -> list[list[np.ndarray]]:
    """Each session's stream of ``rows`` rows, cut into ``block_rows`` blocks."""
    out = []
    for i in range(spec.sessions):
        data = registry.make(spec.stream, rows, spec.n, rng=derive_seed(seed, spec.stream, i)).data
        out.append([data[lo : lo + block_rows] for lo in range(0, rows, block_rows)])
    return out


def _setup(spec, seed: int, rows: int, block_rows: int, root: Path, scratch: Path) -> Rig:
    start = time.perf_counter()
    blocks = _generate(spec, seed, rows, block_rows)
    generate_s = time.perf_counter() - start
    server = Server(root, scratch)
    connections: list[Connection] = []
    try:
        for _ in range(spec.connections):
            connections.append(Connection(server.port, getattr(spec, "window", 1)))
        first = connections[0]
        first.run(first.client.metrics(enabled=False))
        configs = _session_configs(spec, seed)
        sids = []
        for i, cfg in enumerate(configs):
            connection = connections[i % len(connections)]
            sids.append(connection.run(connection.client.create_session(**cfg)))
        rig = Rig(server, connections, sids, configs, blocks, [0] * spec.sessions, generate_s)
        rig.each(lambda i, c: _warm(rig, i, c.client))
    except BaseException:
        for connection in connections:
            connection.close()
        server.kill()
        raise
    return rig


async def _warm(rig: Rig, index: int, client: AsyncServiceClient) -> None:
    """Exercise the server's and the client's first-call paths.

    A throwaway session of the connection's first config gets 1-row
    feeds, pipelined blocks, a query and a finalize.
    """
    sid = await client.create_session(**rig.configs[index])
    data = np.concatenate(rig.blocks[index][:64])[:64]
    for row in data[:32]:
        await client.feed(sid, row[None, :])
    for lo in range(0, data.shape[0], 8):
        await client.feed_nowait(sid, data[lo : lo + 8])
    await client.query(sid)
    await client.finalize(sid)


def _counters(rig: Rig) -> dict:
    """The server's always-on counters (the scrape toggles nothing)."""
    connection = rig.connections[0]
    dump = connection.run(connection.client.metrics())["metrics"]
    stats = connection.run(connection.client.ping())["stats"]
    counters = dump["counters"]
    return {
        "steps": stats["steps_ingested"],
        "batched_steps": stats["batched_steps"],
        "wal_bytes": counters.get("repro_wal_bytes_total", 0),
        "wal_checkpoints": counters.get("repro_wal_checkpoints_total", 0),
    }


def _delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before[key] for key in after}


def _share(after: dict, before: dict) -> float:
    steps = after["steps"] - before["steps"]
    return (after["batched_steps"] - before["batched_steps"]) / steps if steps else 0.0


def _telemetry(rig: Rig, enabled: bool) -> None:
    connection = rig.connections[0]
    connection.run(connection.client.metrics(enabled=enabled))


# --------------------------------------------------------------------- #
# serve-trickle
# --------------------------------------------------------------------- #
@dataclass
class Rung:
    rate: int
    latencies: list[float] = field(default_factory=list)  # due -> ack, by due time
    lags: list[float] = field(default_factory=list)  # due -> send, rows not blocked
    rtts: list[float] = field(default_factory=list)  # send -> ack
    blocked: int = 0  # rows that fell due while the previous reply was outstanding
    failed: int = 0
    abandoned: int = 0
    span_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.failed

    def latency_ms(self, q: float) -> float:
        """Percentile ``q`` of the due-to-ack latency, in ms."""
        return windowed_percentile([1e3 * x for x in self.latencies], q)

    def meets(self, limit_ms: float) -> bool:
        """p99 within the limit, no failures, and no growing backlog."""
        if self.failed or self.abandoned or not self.latencies:
            return False
        ms = [1e3 * x for x in self.latencies]
        quarter = max(1, len(ms) // 4)
        growing = statistics.fmean(ms[-quarter:]) - statistics.fmean(ms[:quarter]) > limit_ms
        return percentile(ms, 99) <= limit_ms and not growing


@dataclass
class _Sent:
    """One connection's share of a rung."""

    records: list[tuple[float, float, float, bool]] = field(default_factory=list)
    blocked: int = 0
    failed: int = 0
    abandoned: int = 0


async def _trickle_sender(rig: Rig, client: AsyncServiceClient, rows: list[int],
                          t0: float, rate: int) -> _Sent:
    """Send each of ``rows`` (row ``j`` goes to session ``j % S``) when due.

    The connection is lockstep, so while it waits for a due time nothing
    else is pending on its loop and a blocking ``time.sleep`` (about
    0.1 ms late, against up to 1 ms for an asyncio timer) delays nobody.
    """
    out = _Sent()
    sessions = len(rig.sids)
    last_ack = t0
    for position, j in enumerate(rows):
        due = t0 + j / rate
        gap = due - time.perf_counter()
        if gap > 0:
            time.sleep(gap)
        blocked = last_ack > due
        out.blocked += blocked
        if time.perf_counter() - due > _ABANDON_S:
            out.abandoned += len(rows) - position
            break
        session = j % sessions
        block = rig.next_block(session)
        sent = time.perf_counter()
        try:
            await client.feed(rig.sids[session], block)
        except ServiceError:
            out.failed += 1
            continue
        last_ack = time.perf_counter()
        out.records.append((due, sent, last_ack, blocked))
    return out


def _trickle_rung(rig: Rig, rate: int, seconds: float) -> Rung:
    """Open loop: row ``j`` is due at ``t0 + j / rate``, for session ``j % S``."""
    total = max(len(rig.connections), int(rate * seconds))
    sessions = len(rig.sids)
    t0 = time.perf_counter() + 0.005
    schedule = [
        [j for j in range(total) if (j % sessions) % len(rig.connections) == i]
        for i in range(len(rig.connections))
    ]
    parts = rig.each(lambda i, c: _trickle_sender(rig, c.client, schedule[i], t0, rate))
    rung = Rung(rate)
    for part in parts:
        rung.blocked += part.blocked
        rung.failed += part.failed
        rung.abandoned += part.abandoned
    records = sorted(r for part in parts for r in part.records)
    by_due = sorted(pair for part in parts for pair in _due_latencies(part.records))
    rung.latencies = [latency for _, latency in by_due]
    # The generator's own lateness: rows not held back by a reply.
    rung.lags = [sent - due for due, sent, _, blocked in records if not blocked]
    rung.rtts = [ack - sent for _, sent, ack, _ in records]
    if records:
        rung.span_s = max(ack for _, _, ack, _ in records) - t0
    return rung


def _due_latencies(records) -> list[tuple[float, float]]:
    """``(due, latency)`` per row of one lockstep connection.

    Latency runs from the row's due time, so a slow reply delays every
    row queued behind it.  The generator's own lateness (a timer waking
    late, this process being descheduled) is kept out: each row is
    replayed as if sent at ``max(due, previous virtual ack)`` and taking
    its measured round trip.
    """
    out = []
    ack = float("-inf")
    for due, sent, acked, _ in records:
        ack = max(due, ack) + (acked - sent)
        out.append((due, ack - due))
    return out


def _trickle_ladder(spec: TrickleSpec, rig: Rig, seconds: float):
    rest = [r for r in spec.rates if r != spec.reference_rate]
    other_s = seconds * (1 - spec.reference_share) / max(1, len(rest))
    rungs: list[Rung] = []
    reference = None
    for rate in spec.rates:
        is_reference = rate == spec.reference_rate
        rung = _trickle_rung(rig, rate, seconds * spec.reference_share if is_reference else other_s)
        rungs.append(rung)
        if is_reference:
            reference = rung
        if not rung.meets(spec.limit_ms) and reference is not None:
            break
    if reference is None:
        raise ValueError(f"reference rate {spec.reference_rate} is not on the ladder")
    return rungs, reference


def _trickle_rows(spec: TrickleSpec, seconds: float, trace: bool) -> int:
    """Rows per session the longest possible run can consume."""
    if trace:
        total = spec.reference_rate * seconds
    else:
        rest = [r for r in spec.rates if r != spec.reference_rate]
        other_s = seconds * (1 - spec.reference_share) / max(1, len(rest))
        total = spec.reference_rate * seconds * spec.reference_share
        total += sum(rate * other_s for rate in rest)
    total += spec.reference_rate * spec.warm_seconds
    return int(total / spec.sessions) + 64


def _trickle(spec: TrickleSpec, rig: Rig, seconds: float, trace: bool, problems: Problems) -> dict:
    # The server's tail latency settles only after a few seconds of
    # traffic (the first seconds' p99 reads 2-3x the steady one).
    _trickle_rung(rig, spec.reference_rate, spec.warm_seconds)
    before = _counters(rig)
    if not trace:
        rungs, reference = _trickle_ladder(spec, rig, seconds)
    else:
        reference = _trickle_rung(rig, spec.reference_rate, seconds / 2)
        _telemetry(rig, True)
        traced = _trickle_rung(rig, spec.reference_rate, seconds / 2)
        rungs = [reference, traced]
    after = _counters(rig)
    server_layers = _server_layers(rig) if trace else {}
    report = _finish(spec, rig, problems)
    metrics = {
        "steps_per_s": len(reference.latencies) / reference.span_s,
        "messages_per_step": report.pop("messages_per_step"),
        "feed_p50_ms": reference.latency_ms(50),
        "feed_p90_ms": reference.latency_ms(90),
    }
    detail = {
        "feed_p99_ms": reference.latency_ms(99),
        "reference_rate": spec.reference_rate,
        "reference_samples": len(reference.latencies),
        "send_lag_p99_ms": percentile([1e3 * x for x in reference.lags], 99),
        "batched_share": _share(after, before),
    }
    if not trace:
        detail["sustained_rows_per_s"] = max(
            (r.rate for r in rungs if r.meets(spec.limit_ms)), default=0)
        detail["ladder"] = {
            r.rate: f"p99 {r.latency_ms(99):.3f} ms, "
                    f"{len(r.latencies)} rows, {'meets' if r.meets(spec.limit_ms) else 'misses'}"
            for r in rungs
        }
    layers = None
    if trace:
        counters = _delta(after, before)
        chain = replay(rig, _replay_order(rig, None), problems, batch=False)
        chain_us = chain.pop("_chain_us_per_req")
        layers = {
            **chain,
            **server_layers,
            "client.window_wait_share": traced.blocked / max(1, traced.attempted),
            "server.unaccounted_us_per_req": 1e6 * statistics.median(traced.rtts) - chain_us,
            "session.batched_share": _share(after, before),
            "wal.bytes_per_step": counters["wal_bytes"] / max(1, counters["steps"]),
            "wal.checkpoints": counters["wal_checkpoints"],
            "trace.overhead_x": traced.latency_ms(50) / reference.latency_ms(50),
        }
    return {
        "metrics": metrics, "detail": detail, "layers": layers,
        "attempted": sum(r.attempted for r in rungs) + report.pop("attempted"),
        "failed": sum(r.failed for r in rungs) + report.pop("failed"),
        **report,
    }


# --------------------------------------------------------------------- #
# serve-fanin
# --------------------------------------------------------------------- #
@dataclass
class FaninLoad:
    """A phase's load, merged over its chunks and connections.

    Times are at the reference host speed (see :func:`_fanin_phase`):
    each chunk's wall time and latencies are multiplied by its scale.
    """

    steps: int = 0
    #: Measured wall seconds of the chunks.
    wall_s: float = 0.0
    #: The same seconds at the reference host speed.
    reference_s: float = 0.0
    #: Per chunk, ``HOST_REFERENCE_S / probe`` around it.
    scales: list[float] = field(default_factory=list)
    #: Per connection, its feed latencies in ack order.
    feed_parts: list[list[float]] = field(default_factory=list)
    query_latencies: list[float] = field(default_factory=list)
    feed_wait_s: float = 0.0
    failed: int = 0
    attempted: int = 0
    #: ``(session, acked step, F(t))`` of every query.
    queried: list[tuple[int, int, list[int]]] = field(default_factory=list)
    #: Per connection, the sessions in the order their feeds were sent.
    order: list[list[int]] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    #: The server's peak RSS once ``FaninSpec.rss_steps`` were acked.
    peak_rss_mb: float | None = None

    def steps_per_s(self) -> float:
        return self.steps / self.reference_s

    def feed_ms(self, q: float) -> float:
        """Percentile ``q`` of feed latency in ms.

        Windows run along each connection's ack sequence (time order);
        the figure is the median over every connection's windows.
        """
        return statistics.median(
            windowed_percentile([1e3 * x for x in part], q) for part in self.feed_parts
        )

    def add_chunk(self, parts: list[FaninLoad], scale: float) -> None:
        """Fold one chunk's per-connection loads in, scaled by ``scale``."""
        wall_s = max(part.wall_s for part in parts)
        self.wall_s += wall_s
        self.reference_s += wall_s * scale
        self.scales.append(scale)
        if not self.feed_parts:
            self.feed_parts = [[] for _ in parts]
            self.order = [[] for _ in parts]
        for index, part in enumerate(parts):
            self.steps += part.steps
            self.feed_parts[index] += [x * scale for part_latencies in part.feed_parts
                                       for x in part_latencies]
            self.query_latencies += [x * scale for x in part.query_latencies]
            self.feed_wait_s += part.feed_wait_s
            self.failed += part.failed
            self.attempted += part.attempted
            self.queried += part.queried
            self.order[index] += part.order[0]
            self.problems += part.problems


async def _fanin_connection(spec: FaninSpec, rig: Rig, index: int, client: AsyncServiceClient,
                            deadline: float) -> FaninLoad:
    """Pipeline feeds round-robin over this connection's sessions.

    After every ``query_every`` feeds, query one session's F(t): the
    read beside the writes, and a barrier that drains the window.  The
    connection carries on from where its previous chunk stopped.
    """
    load = FaninLoad(order=[[]])
    mine = rig.sessions_of(index)
    client.latencies = []
    client.record_latency = True
    start = time.perf_counter()
    try:
        while time.perf_counter() < deadline:
            for _ in range(spec.query_every):
                session = mine[rig.feeds_sent[index] % len(mine)]
                rig.feeds_sent[index] += 1
                block = rig.next_block(session)
                t0 = time.perf_counter()
                load.attempted += 1
                await client.feed_nowait(rig.sids[session], block)
                load.feed_wait_s += time.perf_counter() - t0
                load.order[0].append(session)
                load.steps += block.shape[0]
            session = mine[rig.queries_sent[index] % len(mine)]
            rig.queries_sent[index] += 1
            t0 = time.perf_counter()
            load.attempted += 1
            response = await client.query(rig.sids[session])
            load.query_latencies.append(time.perf_counter() - t0)
            client.latencies.pop()  # the query's own entry; the rest are feed acks
            expected = rig.fed[session] * spec.block_rows
            if response["step"] != expected:
                load.problems.append(f"query of {rig.sids[session]} saw step {response['step']}, "
                                     f"{expected} rows were acked before it")
            load.queried.append((session, response["step"], response["output"]))
        await client.flush()
    except ServiceError as exc:
        load.failed += 1
        load.problems.append(f"connection {index}: {exc}")
    finally:
        client.record_latency = False
        load.feed_parts = [client.latencies]
        load.wall_s = time.perf_counter() - start
    return load


def _fanin_phase(spec: FaninSpec, rig: Rig, seconds: float, probe: HostProbe,
                 problems: Problems) -> FaninLoad:
    """Load for ``seconds``, in ``spec.chunk_s`` chunks between host probes.

    The probe runs on the server's CPU while the load is paused; a
    chunk's scale is ``HOST_REFERENCE_S`` over the mean of the
    probes before and after it, so the phase's figures are those of the
    reference host speed.
    """
    load = FaninLoad()
    end = time.perf_counter() + seconds
    before = probe()
    while True:
        deadline = min(end, time.perf_counter() + spec.chunk_s)
        parts = rig.each(lambda i, c: _fanin_connection(spec, rig, i, c.client, deadline))
        after = probe()
        load.add_chunk(parts, HOST_REFERENCE_S / ((before + after) / 2))
        before = after
        if load.peak_rss_mb is None and load.steps >= spec.rss_steps:
            load.peak_rss_mb = rig.server.peak_rss_mb()
        if time.perf_counter() >= end or load.failed:
            break
    for message in load.problems:
        problems.add(message)
    return load


def _fanin(spec: FaninSpec, rig: Rig, seconds: float, trace: bool, probe: HostProbe,
           problems: Problems) -> dict:
    before = _counters(rig)
    load = _fanin_phase(spec, rig, seconds / 2 if trace else seconds, probe, problems)
    middle = _counters(rig)
    traced = None
    if trace:
        _telemetry(rig, True)
        traced = _fanin_phase(spec, rig, seconds / 2, probe, problems)
    after = _counters(rig)
    server_layers = _server_layers(rig) if trace else {}
    _check_queries(spec, rig, [load, traced] if traced else [load], problems)
    report = _finish(spec, rig, problems)
    run_peak_rss_mb = report["peak_rss_mb"]
    if load.peak_rss_mb is not None:
        report["peak_rss_mb"] = load.peak_rss_mb
    query_ms = [1e3 * x for x in load.query_latencies]
    metrics = {
        "steps_per_s": load.steps_per_s(),
        "messages_per_step": report.pop("messages_per_step"),
        "feed_p50_ms": load.feed_ms(50),
        "feed_p90_ms": load.feed_ms(90),
    }
    detail = {
        "measured_steps_per_s": load.steps / load.wall_s,
        "host_scale": float(np.median(load.scales)),
        "run_peak_rss_mb": run_peak_rss_mb,
        "feed_p99_ms": load.feed_ms(99),
        "query_p50_ms": percentile(query_ms, 50),
        "query_p99_ms": percentile(query_ms, 99),
        "feed_samples": sum(map(len, load.feed_parts)),
        "query_samples": len(query_ms),
        "batched_share": _share(middle, before),
        "wal_checkpoints": _delta(middle, before)["wal_checkpoints"],
    }
    layers = None
    if trace:
        counters = _delta(after, before)
        # The run's first feeds, in send order: fresh replay sessions
        # start at step 0 exactly as the served ones did.
        order = _replay_order(rig, load.order, spec.replay_feeds)
        chain = replay(rig, order, problems, batch=True, window=spec.window)
        chain_us = chain.pop("_chain_us_per_req")
        requests = sum(map(len, traced.order))
        layers = {
            **chain,
            **server_layers,
            "client.window_wait_share": traced.feed_wait_s / (traced.wall_s * len(rig.connections)),
            # Pipelined: the server's wall time per request, less the layers.
            "server.unaccounted_us_per_req": 1e6 * traced.wall_s / max(1, requests) - chain_us,
            "session.batched_share": _share(after, middle),
            "wal.bytes_per_step": counters["wal_bytes"] / max(1, counters["steps"]),
            "wal.checkpoints": counters["wal_checkpoints"],
            "trace.overhead_x": load.steps_per_s() / traced.steps_per_s(),
        }
    attempted = load.attempted + (traced.attempted if traced else 0) + report.pop("attempted")
    failed = load.failed + (traced.failed if traced else 0) + report.pop("failed")
    return {"metrics": metrics, "detail": detail, "layers": layers,
            "attempted": attempted, "failed": failed, **report}


def _check_queries(spec: FaninSpec, rig: Rig, loads, problems: Problems) -> None:
    """Every queried F(t) must be a valid ε-top-k set of that step's values."""
    for load in loads:
        for session, step, output in load.queried:
            blocks = rig.blocks[session]
            block = blocks[((step - 1) // spec.block_rows) % len(blocks)]
            values = block[(step - 1) % spec.block_rows][None, :]
            for bad in invalid_outputs(values, [output], rig.configs[session]["k"], spec.eps):
                problems.add(f"{rig.sids[session]} at step {step}: invalid queried F(t): {bad}")


# --------------------------------------------------------------------- #
# Shared end of run: last F(t), finalize vs twin
# --------------------------------------------------------------------- #
def _finish(spec, rig: Rig, problems: Problems) -> dict:
    """Query and finalize every session; compare each with its twin."""
    attempted = failed = 0
    per_session_cost = []
    rig.twins = []
    for session, sid in enumerate(rig.sids):
        connection = rig.connection_of(session)
        attempted += 2
        try:
            status = connection.run(connection.client.query(sid))
            served = connection.run(connection.client.finalize(sid))
        except ServiceError as exc:
            failed += 1
            problems.add(f"{sid}: {exc}")
            continue
        twin = Session(SessionConfig(**rig.configs[session]))
        last = None
        for block in rig.fed_blocks(session):
            twin.feed(block)
            last = block
        result = twin.finalize()
        rig.twins.append(result)
        mismatch = finalize_mismatch(served, result)
        if mismatch:
            problems.add(f"{sid}: {mismatch}")
        if last is not None:
            for bad in invalid_outputs(last[-1:], [status["output"]], rig.configs[session]["k"], spec.eps):
                problems.add(f"{sid}: invalid final F(t): {bad}")
        per_session_cost.append(_cost_per_step(spec, rig, session, result))
    return {
        "attempted": attempted,
        "failed": failed,
        "messages_per_step": float(np.median(per_session_cost)),
        "peak_rss_mb": rig.server.peak_rss_mb(),
    }


def _cost_per_step(spec, rig: Rig, session: int, twin) -> float:
    """Messages per step over the first ``spec.cost_rows`` rows of the stream.

    A fixed prefix makes the paper's cost a function of the seed alone,
    not of how many rows the run's timing let through (the step-0 start
    cost would otherwise weigh more in a slower run).  The twin already
    holds the figure when it was fed that far.
    """
    rows = spec.cost_rows
    if twin.num_steps >= rows:
        return float(twin.cumulative_messages[rows - 1]) / rows
    stream = np.concatenate(rig.blocks[session])
    reps = -(-rows // stream.shape[0])
    cost_twin = Session(SessionConfig(**rig.configs[session]))
    cost_twin.feed(np.concatenate([stream] * reps)[:rows])
    return cost_twin.messages / rows


# --------------------------------------------------------------------- #
# The traced run's in-process replay
# --------------------------------------------------------------------- #
def _replay_order(rig: Rig, orders, limit: int | None = None) -> list[tuple[int, int]]:
    """``(session, block index)`` of the first ``limit`` feeds, in send order.

    ``orders`` holds one send-ordered session list per connection
    (``None``: every fed block, session by session).
    """
    if orders is None:
        return [(s, j) for s in range(len(rig.sids)) for j in range(rig.fed[s])]
    out = []
    per_connection = (limit or sum(map(len, orders))) // len(orders)
    for order in orders:
        count: dict[int, int] = {}
        for session in order[:per_connection]:
            out.append((session, count.get(session, 0)))
            count[session] = count.get(session, 0) + 1
    return out


def replay(rig: Rig, order, problems: Problems, *, batch: bool, window: int = 1) -> dict:
    """Time each layer of a served feed on the same requests, in-process.

    The chain per request is client ``encode_frame`` → ``parse_header``
    + ``decode_frame`` → ``Session.feed`` → ``WriteAheadLog.append``
    (into a temporary directory) → response ``encode_frame``.  With
    ``batch`` the same requests also go through
    ``SessionBatch.feed_batch`` in ticks of up to ``window`` feeds, and
    must leave every session where the serial chain left it.
    """
    configs = rig.configs
    sessions = {s: Session(SessionConfig(**configs[s])) for s, _ in order}
    engines = {s: Session(SessionConfig(**configs[s])).engine for s in sessions}
    times = {"encode": 0.0, "decode": 0.0, "feed": 0.0, "wal": 0.0, "respond": 0.0, "engine": 0.0}
    chain_us: list[float] = []
    frame_bytes = steps = 0
    scratch = Path(tempfile.mkdtemp(prefix="replay-", dir=rig.server.wal_dir.parent))
    try:
        wal = wallib.WriteAheadLog(scratch, checkpoint_bytes=2**62)
        for request_id, (s, j) in enumerate(order, start=1):
            block = rig.blocks[s][j % len(rig.blocks[s])]
            sid = rig.sids[s]
            t0 = time.perf_counter()
            frame = wire.encode_frame({"id": request_id, "op": "feed", "session": sid, "values": block})
            t1 = time.perf_counter()
            header = wire.parse_header(frame[: wire.HEADER_SIZE])
            meta_end = wire.HEADER_SIZE + header.meta_len
            message = wire.decode_frame(header, frame[wire.HEADER_SIZE : meta_end], frame[meta_end:])
            t2 = time.perf_counter()
            session = sessions[s]
            step = session.feed(message["values"], prevalidated=True)
            t3 = time.perf_counter()
            wal.append({"op": "feed", "session": sid, "values": message["values"], "step": step})
            t4 = time.perf_counter()
            wire.encode_frame({"id": request_id, "ok": True, "session": sid, "step": step,
                               "messages": session.messages}, response=True)
            t5 = time.perf_counter()
            engines[s].advance(block, prevalidated=True)
            t6 = time.perf_counter()
            for key, dt in zip(times, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, t6 - t5)):
                times[key] += dt
            chain_us.append(1e6 * (t5 - t0))
            frame_bytes += len(frame)
            steps += block.shape[0]
        snap_s, snap_bytes = [], []
        for session in sessions.values():
            t0 = time.perf_counter()
            blob = session.snapshot()
            snap_s.append(time.perf_counter() - t0)
            snap_bytes.append(len(blob))
        t0 = time.perf_counter()
        segment = wal.begin_checkpoint()
        entries = {rig.sids[s]: (session.step, session.snapshot()) for s, session in sessions.items()}
        wal.commit_checkpoint(segment, entries, len(rig.sids))
        checkpoint_s = time.perf_counter() - t0
        wal.close()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    batch_us = _replay_batch(rig, order, sessions, window, problems) if batch else 0.0
    escalated = sum(
        escalated_steps(
            Session(SessionConfig(**configs[s])).engine,
            np.concatenate([rig.blocks[s][j % len(rig.blocks[s])] for s2, j in order if s2 == s]),
        )
        for s in sessions
    )
    requests = len(order)
    snaps = [t.ledger.snapshot() for t in rig.twins]
    twin_steps = sum(t.num_steps for t in rig.twins) or 1
    return {
        "engine.advance_us_per_step": 1e6 * times["engine"] / steps,
        "engine.escalated_share": escalated / steps,
        "ledger.node_to_server_per_step": sum(s.node_to_server for s in snaps) / twin_steps,
        "ledger.server_to_node_per_step": sum(s.server_to_node for s in snaps) / twin_steps,
        "ledger.broadcasts_per_step": sum(s.broadcasts for s in snaps) / twin_steps,
        "ledger.rounds_per_step": sum(s.rounds for s in snaps) / twin_steps,
        "client.encode_us_per_req": 1e6 * times["encode"] / requests,
        "wire.decode_us_per_req": 1e6 * times["decode"] / requests,
        "wire.response_encode_us_per_req": 1e6 * times["respond"] / requests,
        "wire.bytes_per_step": frame_bytes / steps,
        "session.feed_us_per_step": 1e6 * times["feed"] / steps,
        "session.batch_us_per_step": batch_us,
        "session.snapshot_ms": 1e3 * statistics.median(snap_s),
        "session.snapshot_bytes": float(statistics.median(snap_bytes)),
        "wal.append_us_per_record": 1e6 * times["wal"] / requests,
        "wal.checkpoint_ms": 1e3 * checkpoint_s,
        "_chain_us_per_req": statistics.median(chain_us),
    }


def _replay_batch(rig: Rig, order, serial: dict, window: int, problems: Problems) -> float:
    """µs per step of ``SessionBatch.feed_batch`` over ticks of ``window`` feeds."""
    sessions = {s: Session(SessionConfig(**rig.configs[s])) for s in serial}
    batches: dict[tuple, SessionBatch] = {}
    elapsed = 0.0
    steps = 0
    ticks, tick = [], []
    for request in order:  # consecutive feeds of distinct sessions share a tick
        if len(tick) == window or any(s == request[0] for s, _ in tick):
            ticks.append(tick)
            tick = []
        tick.append(request)
    ticks.append(tick)
    for tick in ticks:
        entries = [(sessions[s], rig.blocks[s][j % len(rig.blocks[s])]) for s, j in tick]
        key = entries[0][0].cohort_key
        batch = batches.setdefault(key, SessionBatch(key))
        for session, _ in entries:
            batch.join(session)
        t0 = time.perf_counter()
        results = batch.feed_batch(entries)
        elapsed += time.perf_counter() - t0
        steps += sum(block.shape[0] for _, block in entries)
        for result in results:
            if isinstance(result, Exception):
                problems.add(f"SessionBatch replay failed: {result!r}")
    for s, session in sessions.items():
        if (session.step, session.messages) != (serial[s].step, serial[s].messages):
            problems.add(f"{rig.sids[s]}: batched replay left (step, messages) = "
                         f"{(session.step, session.messages)}, serial replay "
                         f"{(serial[s].step, serial[s].messages)}")
    return 1e6 * elapsed / max(1, steps)


def _server_layers(rig: Rig) -> dict:
    """Dispatch-time percentiles from the server's op-latency histograms."""
    connection = rig.connections[0]
    histograms = connection.run(connection.client.metrics())["metrics"]["histograms"]

    def quantiles(op: str) -> dict:
        hist = histograms.get(f'repro_op_latency_seconds{{op="{op}"}}')
        return histogram_percentiles(hist, (0.5, 0.99)) if hist else {"p50": 0.0, "p99": 0.0}

    feed, query = quantiles("feed"), quantiles("query")
    return {
        "server.feed_dispatch_p50_us": 1e6 * feed["p50"],
        "server.feed_dispatch_p99_us": 1e6 * feed["p99"],
        "server.query_dispatch_p99_us": 1e6 * query["p99"],
    }


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #
def run_serve(spec, seed: int, seconds: float, trace: bool, root: Path, scratch: Path) -> dict:
    """One run of a served workload; returns the report dict.

    This thread, the server it spawns and every connection thread run on
    one CPU: each vCPU of the reference host drifts in speed
    independently of the other (serve-fanin's ten-seed spread of steps/s
    was 0.24 with the server and the load on separate CPUs or left
    unpinned).  Each set-up runs between two host probes, and its time
    is scaled to the reference host speed like every engine timing.
    """
    if isinstance(spec, TrickleSpec):
        rows = max(spec.cost_rows, _trickle_rows(spec, seconds, trace))
        block_rows = 1
    else:
        rows = spec.blocks_per_session * spec.block_rows
        block_rows = spec.block_rows
    setups, generate_s = [], []
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    probe = HostProbe()
    problems = Problems()
    try:
        for repeat in range(spec.setup_repeats):
            host_before = probe()
            start = time.perf_counter()
            rig = _setup(spec, seed, rows, block_rows, root, scratch)
            elapsed = time.perf_counter() - start
            scale = HOST_REFERENCE_S / ((host_before + probe()) / 2)
            setups.append(elapsed * scale)
            generate_s.append(rig.generate_s * scale)
            if repeat < spec.setup_repeats - 1:
                rig.close()
        try:
            if isinstance(spec, TrickleSpec):
                report = _trickle(spec, rig, seconds, trace, problems)
            else:
                report = _fanin(spec, rig, seconds, trace, probe, problems)
        finally:
            rig.close()
    finally:
        probe.close()
        os.sched_setaffinity(0, cpus)
    report["metrics"]["setup_s"] = float(np.median(setups))
    report["metrics"]["peak_rss_mb"] = report.pop("peak_rss_mb")
    report["problems"] = problems
    report["detail"]["error_rate"] = report["failed"] / max(1, report["attempted"])
    if report["layers"] is not None:
        generated = spec.sessions * rows
        report["layers"]["streams.generate_us_per_step"] = 1e6 * float(np.median(generate_s)) / generated
    return report
