"""The cohort law at the service layer: batched sessions ≡ serial twins.

Three tiers of the same law:

1. :class:`~repro.service.session.SessionBatch` — membership rules and
   ``feed_batch`` ticks at S = 1, 16 and 257 (one opt-out straggler in
   the tick), with unequal block lengths, and with workload-mode,
   finalized and ``check=True`` members, compared against serially-fed
   twin sessions on ``F(t)``, the cost snapshot and the checkpoint
   **bytes** (or, for members a serial feed rejects, the same error).
2. The server's cross-connection coalescing — concurrent feeds from
   many connections land in cohort ticks (``batched_ticks`` > 0)
   yet answer exactly what the in-process oracle answers.
3. The ``batch`` wire op — runtime toggle, observables unmoved.

The sharded topology is covered by the stateful fuzz tier and the
supervisor fan-out test in tests/service/test_shard.py idiom; here the
1-shard case rides the same scenario via a parametrized topology.
"""

import asyncio

import numpy as np
import pytest

from repro.service.client import AsyncServiceClient
from repro.service.server import MonitoringServer
from repro.service.session import Session, SessionBatch, session_from_wire
from repro.service.shard import ShardedMonitoringServer

N, K, EPS = 6, 2, 0.25

SPECS = [
    pytest.param({"algorithm": "approx-monitor", "n": N, "k": K, "eps": EPS}, id="approx"),
    pytest.param({"algorithm": "exact-cor3.3", "n": N, "k": K}, id="exact"),
    pytest.param({"algorithm": "topk-protocol", "n": N, "k": K, "eps": EPS}, id="topk"),
]


def make_session(spec, seed):
    return session_from_wire({**spec, "seed": seed})


def walk_blocks(T, S, n=N, seed=0, jump_every=9):
    rng = np.random.default_rng(seed)
    base = np.cumsum(rng.normal(0, 0.5, size=(T, S, n)), axis=0) + 50.0
    jumps = rng.uniform(20, 60, size=(T, S, n)) * (rng.random((T, S, n)) < 1 / jump_every)
    data = np.abs(base + jumps)
    return [np.ascontiguousarray(data[:, i, :]) for i in range(S)]


def assert_serial_error(result, twin: Session, block: np.ndarray):
    """``result`` is the exception a serial feed of ``block`` raises."""
    with pytest.raises(type(result)) as raised:
        twin.feed(block.copy(), prevalidated=True)
    assert str(result) == str(raised.value)


def assert_twin(batched: Session, serial: Session):
    assert batched.step == serial.step
    assert batched.messages == serial.messages
    assert batched.output() == serial.output()
    assert batched.cost() == serial.cost()
    assert batched.bill() == serial.bill()
    assert batched.snapshot() == serial.snapshot()  # raw checkpoint bytes


class TestMembership:
    def test_join_requires_matching_cohort(self):
        a = make_session({"algorithm": "approx-monitor", "n": 4, "k": 1, "eps": 0.2}, 1)
        b = make_session({"algorithm": "approx-monitor", "n": 6, "k": 1, "eps": 0.2}, 1)
        batch = SessionBatch(a.cohort_key)
        batch.join(a)
        batch.join(a)  # idempotent
        assert len(batch) == 1
        with pytest.raises(ValueError, match="cohort"):
            batch.join(b)
        batch.leave(a)
        batch.leave(a)  # idempotent, and safe for never-joined sessions
        batch.leave(b)
        assert len(batch) == 0

    def test_finalized_sessions_are_not_batchable(self):
        """A tick advances a finalized member nothing; the server drops it."""
        spec = {"algorithm": "approx-monitor", "n": 4, "k": 1, "eps": 0.2}
        s = make_session(spec, 1)
        batch = SessionBatch(s.cohort_key)
        batch.join(s)
        s.finalize()
        [result] = batch.feed_batch([(s, walk_blocks(5, 1, n=4, seed=3)[0])])
        assert isinstance(result, RuntimeError) and "finalized" in str(result)
        assert s.step == 0
        assert (batch.ticks, batch.batched_steps) == (0, 0)
        assert (batch.quiet_steps, batch.escalated_steps) == (0, 0)

        async def scenario():
            server = MonitoringServer()
            await server.start()
            client = await AsyncServiceClient.connect(server.host, server.port)
            try:
                sid = (await client.request("create", spec={**spec, "seed": 1}))["session"]
                await client.feed(sid, walk_blocks(5, 1, n=4, seed=3)[0])
                roster = server._cohorts[s.cohort_key].batch
                assert len(roster) == 1
                await client.request("finalize", session=sid)
                assert len(roster) == 0
            finally:
                await client.aclose()
                await server.aclose()

        asyncio.run(scenario())


class TestCohortLaw:
    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("S", [1, 16])
    def test_bit_identical_to_serial_twins(self, spec, S):
        T = 48
        blocks = walk_blocks(T, S, seed=5)
        batched = [make_session(spec, seed=i) for i in range(S)]
        serial = [make_session(spec, seed=i) for i in range(S)]
        batch = SessionBatch(batched[0].cohort_key)
        for s in batched:
            batch.join(s)
        # Two ticks so the second starts from already-advanced state.
        for lo, hi in ((0, T // 2), (T // 2, T)):
            results = batch.feed_batch([(s, b[lo:hi]) for s, b in zip(batched, blocks)])
            for s, twin, block, result in zip(batched, serial, blocks, results):
                step = twin.feed(block[lo:hi].copy())
                assert result == (step, twin.messages)
        for got, want in zip(batched, serial):
            assert_twin(got, want)
        # The batch classifies each member-step exactly as the serial
        # twins' own time-axis scans do.
        assert batch.quiet_steps + batch.escalated_steps == S * T
        assert (batch.quiet_steps, batch.escalated_steps) == (
            sum(twin.engine.quiet_steps for twin in serial),
            sum(twin.engine.escalated_steps for twin in serial),
        )
        for got, want in zip(batched, serial):
            a, b = got.finalize(), want.finalize()
            assert a.messages == b.messages
            assert a.output_changes == b.output_changes
        assert batch.ticks >= (2 if S > 1 else 0)
        assert batch.batched_steps == (S * T if S > 1 else 0)

    def test_s257_with_straggler_fallback(self):
        """256 scanning members + one opt-out straggler in the same tick.

        The straggler's engine falls back to stepping every row, as it
        would when fed alone.
        """
        S, T = 256, 8
        spec = {"algorithm": "approx-monitor", "n": 4, "k": 1, "eps": 0.2}
        straggler_spec = {"algorithm": "send-always", "n": 4, "k": 1}
        blocks = walk_blocks(T, S + 1, n=4, seed=9)
        batched = [make_session(spec, seed=i) for i in range(S)]
        batched.append(make_session(straggler_spec, seed=0))
        serial = [make_session(spec, seed=i) for i in range(S)]
        serial.append(make_session(straggler_spec, seed=0))
        assert batched[-1].engine.quiet_step_rounds() is None  # steps every row
        batch = SessionBatch(batched[0].cohort_key)
        results = batch.feed_batch(list(zip(batched, blocks)))
        for twin, block, result in zip(serial, blocks, results):
            step = twin.feed(block.copy())
            assert result == (step, twin.messages)
        for got, want in zip(batched, serial):
            assert_twin(got, want)
        assert (batch.ticks, batch.batched_steps) == (1, (S + 1) * T)
        assert batched[-1].engine.escalated_steps == T

    def test_unequal_block_lengths_segment(self):
        spec = {"algorithm": "approx-monitor", "n": 4, "k": 1, "eps": 0.2}
        lengths = (37, 13, 1, 0)
        blocks = [b[:t] for b, t in zip(walk_blocks(40, 4, n=4, seed=2), lengths)]
        batched = [make_session(spec, seed=i) for i in range(4)]
        serial = [make_session(spec, seed=i) for i in range(4)]
        batch = SessionBatch(batched[0].cohort_key)
        results = batch.feed_batch(list(zip(batched, blocks)))
        for twin, block, result in zip(serial, blocks, results):
            step = twin.feed(block.copy())
            assert result == (step, twin.messages)
        for got, want in zip(batched, serial):
            assert_twin(got, want)
        assert (batch.ticks, batch.batched_steps) == (1, sum(lengths))

    def test_finalized_member_surfaces_serial_error(self):
        spec = {"algorithm": "approx-monitor", "n": 4, "k": 1, "eps": 0.2}
        blocks = walk_blocks(6, 2, n=4, seed=4)
        alive, dead = make_session(spec, seed=0), make_session(spec, seed=1)
        twin, dead_twin = make_session(spec, seed=0), make_session(spec, seed=1)
        dead.finalize()
        dead_twin.finalize()
        batch = SessionBatch(alive.cohort_key)
        results = batch.feed_batch([(alive, blocks[0]), (dead, blocks[1])])
        step = twin.feed(blocks[0].copy())
        assert results[0] == (step, twin.messages)
        assert_serial_error(results[1], dead_twin, blocks[1])
        assert_twin(alive, twin)
        assert batch.batched_steps == 6  # the finalized member advanced nothing

    def test_workload_member_surfaces_serial_error(self):
        push = {"algorithm": "approx-monitor", "n": 4, "k": 1, "eps": 0.2}
        workload = {**push, "workload": "zipf", "num_steps": 16, "block_size": 8}
        blocks = walk_blocks(6, 2, n=4, seed=6)
        members = [make_session(push, seed=0), make_session(workload, seed=1)]
        twins = [make_session(push, seed=0), make_session(workload, seed=1)]
        batch = SessionBatch(members[0].cohort_key)
        results = batch.feed_batch(list(zip(members, blocks)))
        step = twins[0].feed(blocks[0].copy())
        assert results[0] == (step, twins[0].messages)
        assert_serial_error(results[1], twins[1], blocks[1])
        for got, want in zip(members, twins):
            assert_twin(got, want)

    def test_check_member_matches_serial_twin(self):
        """A ``check=True`` member steps every row in the tick, as alone."""
        spec = {"algorithm": "approx-monitor", "n": 4, "k": 1, "eps": 0.2}
        specs = [spec, {**spec, "check": True}]
        blocks = walk_blocks(30, len(specs), n=4, seed=8)
        members = [make_session(s, seed=i) for i, s in enumerate(specs)]
        twins = [make_session(s, seed=i) for i, s in enumerate(specs)]
        batch = SessionBatch(members[0].cohort_key)
        results = batch.feed_batch(list(zip(members, blocks)))
        for twin, block, result in zip(twins, blocks, results):
            step = twin.feed(block.copy())
            assert result == (step, twin.messages)
        for got, want in zip(members, twins):
            assert_twin(got, want)
        assert members[1].engine.escalated_steps == 30


def _drive_topology(shards: int):
    """Concurrent per-connection feeds vs serially-fed oracle sessions."""
    spec = {"algorithm": "approx-monitor", "n": N, "k": K, "eps": EPS, "seed": 17}
    S, T, CHUNK = 8, 40, 20
    blocks = walk_blocks(T, S, seed=21)

    async def scenario():
        if shards:
            server: MonitoringServer = ShardedMonitoringServer(shards=shards)
        else:
            server = MonitoringServer()
        await server.start()
        try:

            async def drive(i):
                client = await AsyncServiceClient.connect(server.host, server.port)
                try:
                    sid = (await client.request("create", spec=dict(spec)))["session"]
                    last = None
                    for lo in range(0, T, CHUNK):
                        last = await client.feed(sid, blocks[i][lo : lo + CHUNK])
                    blob = await client.snapshot(sid)
                    final = await client.finalize(sid)
                    return last, blob, final
                finally:
                    await client.aclose()

            results = await asyncio.gather(*(drive(i) for i in range(S)))
            stats = dict(getattr(server, "stats", {}))
            return results, stats
        finally:
            await server.aclose()

    results, stats = asyncio.run(scenario())
    for i, (last, blob, final) in enumerate(results):
        oracle = session_from_wire(dict(spec))
        oracle.feed(blocks[i].copy())
        assert (last["step"], last["messages"]) == (oracle.step, oracle.messages)
        assert blob == oracle.snapshot()  # checkpoint bytes, the strong form
        expected = oracle.finalize()
        assert final["messages"] == expected.messages
        assert final["output_changes"] == expected.output_changes
    return stats


class TestServerCoalescing:
    def test_inproc_coalesces_and_stays_bit_identical(self):
        stats = _drive_topology(shards=0)
        assert stats["batched_ticks"] > 0
        assert stats["batched_steps"] > 0

    def test_one_shard_topology_stays_bit_identical(self):
        # The supervisor passes feeds through; its workers batch
        # internally, so the front-end stats stay at zero here.
        _drive_topology(shards=1)

    def test_toggle_disables_coalescing(self):
        spec = {"algorithm": "approx-monitor", "n": N, "k": K, "eps": EPS, "seed": 23}
        blocks = walk_blocks(12, 4, seed=29)

        async def scenario(server, client):
            response = await client.set_batching(False)
            assert response["batching"] is False

            async def drive(i):
                conn = await AsyncServiceClient.connect(server.host, server.port)
                try:
                    sid = (await conn.request("create", spec=dict(spec)))["session"]
                    return await conn.feed(sid, blocks[i])
                finally:
                    await conn.aclose()

            results = await asyncio.gather(*(drive(i) for i in range(4)))
            assert server.stats["batched_ticks"] == 0
            response = await client.set_batching(True)
            assert response["batching"] is True
            return results

        async def scaffold():
            server = MonitoringServer()
            await server.start()
            client = await AsyncServiceClient.connect(server.host, server.port)
            try:
                return await scenario(server, client)
            finally:
                await client.aclose()
                await server.aclose()

        results = asyncio.run(scaffold())
        for i, result in enumerate(results):
            oracle = session_from_wire(dict(spec))
            oracle.feed(blocks[i].copy())
            assert (result["step"], result["messages"]) == (oracle.step, oracle.messages)

    def test_batch_op_rejects_non_bool(self):
        async def scenario():
            server = MonitoringServer()
            await server.start()
            client = await AsyncServiceClient.connect(server.host, server.port)
            try:
                from repro.service.client import ServiceError

                with pytest.raises(ServiceError, match="enabled"):
                    await client.request("batch", enabled="yes")
            finally:
                await client.aclose()
                await server.aclose()

        asyncio.run(scenario())
