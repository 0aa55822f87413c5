"""The time-axis scan law: scanning a block ≡ stepping it row by row.

:meth:`MonitoringEngine._scan` is the one stepping core behind
``advance()`` and (for sources with ``iter_blocks``) ``run()``.  It
tests a window of upcoming rows against the standing filters, replays
the quiet rows before the first violating one in bulk and runs the full
``_step`` only on that row.  The law: for every registered algorithm,
on every registry workload, under both ``record_outputs`` modes and any
split of the stream into blocks, the engine ends in exactly the state
that the per-row loop leaves behind — down to the pickle bytes.

The per-row reference is ``run()`` over a source with no
``iter_blocks``.  That source also salts the stream with rows copied
from the engine's current filter bounds, so the traces hold values
exactly equal to ``filter_lo`` / ``filter_hi`` — inside the filter
under the strict comparisons of ``NodeArray._refresh_violations``.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import ApproxTopKMonitor, ExactTopKMonitor, SendAlwaysMonitor
from repro.core.naive import SendOnChangeMonitor
from repro.model.engine import _INITIAL_ROWS, MonitoringEngine
from repro.model.protocol import MonitoringAlgorithm
from repro.service import algorithms
from repro.streams import registry
from repro.streams.adversarial import PivotChaser
from repro.streams.base import Trace

N, K, EPS = 8, 2, 0.25

#: Registry workloads that run with no extra params.
WORKLOADS = [
    slug for slug in registry.available()
    if not any(p.required for p in registry.get(slug).params)
]


def make_engine(slug, source, *, record_outputs, check=False, seed=7):
    spec = algorithms.get(slug)
    eps = EPS if spec.uses_eps else 0.0
    return MonitoringEngine(
        source, algorithms.make_algorithm(slug, K, eps), k=K, eps=eps,
        seed=seed, n=N, record_outputs=record_outputs, check=check,
    )


class SaltedRows:
    """Per-row source: the base rows, some replaced by filter-bound copies.

    On a salted step every node takes its current ``filter_hi`` (or
    ``filter_lo`` when the upper bound is infinite, or its base value
    when both are).  It has no ``iter_blocks``, so ``run()`` steps it
    one row at a time; ``rows`` records what was delivered.
    """

    prevalidated = True

    def __init__(self, base: np.ndarray, salted: np.ndarray, use_lo: np.ndarray):
        self.base, self.salted, self.use_lo = base, salted, use_lo
        self.rows = base.copy()

    @property
    def n(self) -> int:
        return self.base.shape[1]

    @property
    def num_steps(self) -> int:
        return self.base.shape[0]

    def values(self, t, nodes):
        if t and self.salted[t]:
            lo, hi = nodes.filter_lo, nodes.filter_hi
            bound = np.where(self.use_lo[t] | np.isinf(hi), lo, hi)
            self.rows[t] = np.where(np.isfinite(bound), bound, self.base[t])
        return self.rows[t]


def pickled(engine) -> bytes:
    engine.source = None  # the reference holds a different source object
    return pickle.dumps(engine)


def assert_same_run(got, ref, got_engine, ref_engine):
    assert got.num_steps == ref.num_steps
    assert got.ledger.snapshot() == ref.ledger.snapshot()
    assert list(got.ledger.per_step) == list(ref.ledger.per_step)
    assert got.output_changes == ref.output_changes
    assert got.outputs == ref.outputs
    assert pickled(got_engine) == pickled(ref_engine)


@pytest.mark.parametrize("record_outputs", [True, False], ids=["record", "norecord"])
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("algorithm", algorithms.available())
@given(data=st.data())
def test_scan_matches_per_row_to_the_pickle_byte(algorithm, workload, record_outputs, data):
    T = data.draw(st.integers(8, 64), label="T")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    rng = np.random.default_rng(seed)
    base = registry.make(workload, T, N, rng=seed).data
    salted = rng.random(T) < data.draw(st.sampled_from([0.0, 0.3, 0.8]), label="salt")
    use_lo = rng.random((T, N)) < 0.5

    source = SaltedRows(base, salted, use_lo)
    ref_engine = make_engine(algorithm, source, record_outputs=record_outputs)
    ref = ref_engine.run()
    trace = Trace(source.rows)

    whole_engine = make_engine(algorithm, trace, record_outputs=record_outputs)
    assert_same_run(whole_engine.run(), ref, whole_engine, ref_engine)

    cuts = data.draw(st.lists(st.integers(1, T - 1), max_size=6, unique=True), label="cuts")
    pushed = make_engine(algorithm, None, record_outputs=record_outputs)
    pushed.start()
    for block in np.split(trace.data, sorted(cuts)):
        pushed.advance(block, prevalidated=True)
    assert_same_run(pushed.finalize(), ref, pushed, ref_engine)
    assert pushed.quiet_steps + pushed.escalated_steps == T


class WideOutput(MonitoringAlgorithm):
    """Never filters anything, always reports k+1 nodes."""

    name = "wide"
    filter_based = False

    def on_start(self):
        pass

    def on_step(self):
        pass

    def output(self):
        return frozenset(range(K + 1))

    def quiet_step_rounds(self):
        return 0


def quiet_trace(T=200):
    return registry.make("drift", T, N, rng=3)


class TestPerRowPaths:
    """Paths that must keep calling ``_step`` on every row."""

    def test_check_mode_steps_every_row(self):
        engine = make_engine("approx-monitor", quiet_trace(), record_outputs=True, check=True)
        engine.run()
        assert (engine.quiet_steps, engine.escalated_steps) == (0, 200)

    def test_adaptive_adversary_steps_every_row(self):
        source = PivotChaser(60, N, K, high=1e6)
        engine = MonitoringEngine(
            source, algorithms.make_algorithm("topk-protocol", K, EPS), k=K, eps=EPS, seed=1
        )
        engine.run()
        assert (engine.quiet_steps, engine.escalated_steps) == (0, 60)

    def test_opt_out_algorithm_steps_every_row(self):
        engine = make_engine("send-always", quiet_trace(), record_outputs=True)
        assert engine.quiet_step_rounds() is None
        engine.run()
        assert (engine.quiet_steps, engine.escalated_steps) == (0, 200)

    def test_rows_on_the_filter_bounds_are_replayed(self):
        """A value equal to a bound is inside the filter (strict tests)."""
        engine = make_engine("approx-monitor", None, record_outputs=True)
        engine.start()
        engine.advance(quiet_trace(50).data)
        nodes = engine.nodes
        on_hi = np.where(np.isfinite(nodes.filter_hi), nodes.filter_hi, nodes.values)
        on_lo = np.where(np.isfinite(nodes.filter_lo), nodes.filter_lo, nodes.values)
        assert np.isfinite(nodes.filter_hi).any() and np.isfinite(nodes.filter_lo).any()
        quiet, escalated = engine.quiet_steps, engine.escalated_steps
        engine.advance(np.stack([on_hi, on_lo, on_hi]))
        assert (engine.quiet_steps - quiet, engine.escalated_steps - escalated) == (3, 0)

    def test_quiet_stream_is_mostly_replayed(self):
        engine = make_engine("approx-monitor", quiet_trace(), record_outputs=True)
        engine.run()
        assert engine.quiet_steps > engine.escalated_steps >= 1

    def test_irregular_output_leaves_the_scan(self):
        trace = quiet_trace(50)
        scanned = MonitoringEngine(trace, WideOutput(), k=K, n=N)
        scanned.run()
        assert (scanned.quiet_steps, scanned.escalated_steps) == (0, 50)
        plain_rows = SaltedRows(trace.data, np.zeros(50, bool), None)
        ref = MonitoringEngine(plain_rows, WideOutput(), k=K)
        ref.run()
        assert pickled(scanned) == pickled(ref)


class TestQuietStepRounds:
    """The quiet-step contract's cost table: what one replayed step charges."""

    @staticmethod
    def started(algorithm):
        engine = MonitoringEngine(None, algorithm, k=K, eps=EPS, n=N)
        engine.start()
        return engine

    def test_existence_detector_costs_gamma_plus_one(self):
        engine = self.started(ApproxTopKMonitor(K, EPS))
        assert engine.quiet_step_rounds() == engine.channel.existence_rounds
        assert engine.channel.existence_rounds == engine.channel._gamma + 1

    def test_direct_detector_costs_one_round(self):
        engine = self.started(ExactTopKMonitor(K, use_existence=False))
        assert engine.quiet_step_rounds() == 1

    def test_default_is_opt_out(self):
        class Plain(MonitoringAlgorithm):
            name = "plain"

            def on_start(self):
                pass

            def on_step(self):
                pass

            def output(self):
                return frozenset(range(K))

        assert Plain().quiet_step_rounds() is None
        assert SendAlwaysMonitor(K).quiet_step_rounds() is None

    def test_send_on_change_uses_existence(self):
        engine = self.started(SendOnChangeMonitor(K))
        assert engine.quiet_step_rounds() == engine.channel.existence_rounds


class TestQuietReplay:
    def test_bulk_quiet_replay_outgrows_row_buffer(self):
        """A quiet run longer than the row buffer must grow it correctly.

        Two buffers: the open-ended one (``_INITIAL_ROWS`` rows), which
        one scanned block outgrows, and one sized by ``expect_steps`` so
        that it is exactly full when the scan's 1024-row window replays
        — one doubling is then too small.  Either way the scanned engine
        must pickle like a twin fed one row per ``advance``.
        """
        row = 50.0 + np.random.default_rng(7).permutation(N)
        for expect_steps, T in ((None, _INITIAL_ROWS + 40), (_INITIAL_ROWS - 3, 2 * _INITIAL_ROWS)):
            block = np.tile(row, (T, 1))  # after the start escalation, every row is quiet
            scanned = make_engine("approx-monitor", None, record_outputs=True)
            scanned.start(expect_steps=expect_steps)
            scanned.advance(block, prevalidated=True)
            assert (scanned.quiet_steps, scanned.escalated_steps) == (T - 1, 1)
            twin = make_engine("approx-monitor", None, record_outputs=True)
            twin.start(expect_steps=expect_steps)
            for values in block:
                twin.advance(values, prevalidated=True)
            assert scanned.steps_done == twin.steps_done == T
            assert pickle.dumps(scanned) == pickle.dumps(twin)


class TestAdvanceShapes:
    def test_prevalidated_1d_row_is_one_step(self):
        engine = make_engine("approx-monitor", None, record_outputs=True)
        engine.start()
        assert engine.advance(np.arange(float(N)), prevalidated=True) == 1
        assert engine.advance(np.arange(float(N)) + 1.0) == 2

    def test_prevalidated_wrong_width_is_rejected(self):
        engine = make_engine("approx-monitor", None, record_outputs=True)
        engine.start()
        with pytest.raises(ValueError, match="shape"):
            engine.advance(np.ones((3, N + 1)), prevalidated=True)
        assert engine.steps_done == 0

    def test_empty_block_is_a_no_op(self):
        engine = make_engine("approx-monitor", None, record_outputs=True)
        engine.start()
        assert engine.advance(np.empty((0, N)), prevalidated=True) == 0


class TestTallies:
    def test_tallies_are_not_pickled(self):
        engine = make_engine("approx-monitor", None, record_outputs=True)
        engine.start()
        engine.advance(quiet_trace().data)
        twin = make_engine("approx-monitor", None, record_outputs=True)
        twin.start()
        twin.advance(quiet_trace().data)
        twin.quiet_steps = twin.escalated_steps = 0
        assert pickle.dumps(engine) == pickle.dumps(twin)
        restored = pickle.loads(pickle.dumps(engine))
        assert (restored.quiet_steps, restored.escalated_steps) == (0, 0)
