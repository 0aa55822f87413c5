"""Unit tests for :mod:`repro.core.primitives` (Lemma 2.6 / Cor. 3.2)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.primitives import (
    detect_violation_bisection,
    detect_violation_direct,
    detect_violation_existence,
    max_protocol,
    min_protocol,
    top_m_probe,
)
from repro.model.channel import Channel
from repro.model.ledger import CostLedger, CostSnapshot
from repro.model.node import NodeArray
from repro.util.intervals import Interval


def make_channel(values, seed=0):
    nodes = NodeArray(len(values))
    nodes.deliver(np.asarray(values, dtype=float))
    led = CostLedger()
    return Channel(nodes, led, seed), nodes, led


class TestMaxProtocol:
    def test_finds_max(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            values = rng.permutation(64).astype(float)
            ch, _, _ = make_channel(values, seed=trial)
            node, value = max_protocol(ch)
            assert value == values.max()
            assert values[node] == value

    def test_none_when_empty(self):
        ch, _, _ = make_channel([1.0, 2.0])
        assert max_protocol(ch, above=10.0) is None

    def test_threshold_respected(self):
        ch, _, _ = make_channel([1.0, 5.0, 9.0])
        node, value = max_protocol(ch, above=4.0)
        assert value == 9.0

    def test_exclusion(self):
        ch, _, _ = make_channel([1.0, 5.0, 9.0])
        node, value = max_protocol(ch, exclude=np.array([2]))
        assert (node, value) == (1, 5.0)

    def test_expected_messages_logarithmic(self):
        """Lemma 2.6: O(log n) messages on expectation."""
        rng = np.random.default_rng(7)
        for n in (32, 256, 1024):
            total = 0
            trials = 40
            for _ in range(trials):
                values = rng.permutation(n).astype(float)
                ch, _, led = make_channel(values, seed=rng)
                max_protocol(ch)
                total += led.messages
            mean = total / trials
            # Each of ~log2(n) expected iterations costs 1 broadcast plus
            # O(1) expected replies; allow a generous constant.
            assert mean <= 10 * math.log2(n) + 10, f"n={n}: mean={mean}"

    def test_ties_resolved_to_max_value(self):
        ch, _, _ = make_channel([5.0, 9.0, 9.0, 1.0])
        node, value = max_protocol(ch)
        assert value == 9.0 and node in (1, 2)


class TestTopMProbe:
    def test_exact_top_values(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            values = rng.permutation(40).astype(float)
            ch, _, _ = make_channel(values, seed=trial)
            probe = top_m_probe(ch, 5)
            got = [v for _, v in probe]
            assert got == sorted(values, reverse=True)[:5]
            assert all(values[i] == v for i, v in probe)

    def test_handles_ties(self):
        ch, _, _ = make_channel([7.0, 7.0, 3.0, 1.0])
        probe = top_m_probe(ch, 3)
        assert [v for _, v in probe] == [7.0, 7.0, 3.0]
        assert {i for i, _ in probe[:2]} == {0, 1}

    def test_m_validation(self):
        ch, _, _ = make_channel([1.0, 2.0])
        with pytest.raises(ValueError):
            top_m_probe(ch, 0)
        with pytest.raises(ValueError):
            top_m_probe(ch, 3)

    def test_cost_scales_with_m(self):
        values = np.arange(128, dtype=float)
        costs = []
        for m in (1, 4, 8):
            ch, _, led = make_channel(values, seed=2)
            top_m_probe(ch, m)
            costs.append(led.messages)
        assert costs[0] < costs[1] < costs[2]

    def test_scope_attribution(self):
        ch, _, led = make_channel([3.0, 1.0, 2.0])
        top_m_probe(ch, 2)
        by = led.by_scope()
        assert by.get("max_protocol", 0) > 0
        assert by.get("top_m_probe", 0) > 0  # the stand-down notifies


class TestMinProtocol:
    def test_finds_min(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            values = rng.permutation(48).astype(float) + 3.0
            ch, _, _ = make_channel(values, seed=trial)
            node, value = min_protocol(ch)
            assert value == values.min() and values[node] == value

    def test_exclusion_and_threshold(self):
        ch, _, _ = make_channel([9.0, 5.0, 1.0])
        assert min_protocol(ch, exclude=np.array([2])) == (1, 5.0)
        assert min_protocol(ch, below=1.0) is None

    def test_logarithmic_cost(self):
        rng = np.random.default_rng(8)
        total = 0.0
        trials = 40
        for _ in range(trials):
            values = rng.permutation(512).astype(float)
            ch, _, led = make_channel(values, seed=rng)
            min_protocol(ch)
            total += led.messages
        assert total / trials <= 10 * math.log2(512) + 10


class TestDirectDetection:
    def test_silent_zero_cost(self):
        ch, _, led = make_channel([1.0] * 8)
        assert detect_violation_direct(ch) is None
        assert led.messages == 0

    def test_every_violator_charged(self):
        ch, nodes, led = make_channel([10.0] * 8)
        nodes.set_filters_bulk(np.arange(4), 0.0, 5.0)  # 4 violators
        rep = detect_violation_direct(ch)
        assert rep is not None and rep.node == 0  # lowest id acted upon
        assert led.node_to_server == 4  # all four reports were sent


class TestExistenceDetection:
    def test_silent_zero_cost(self):
        ch, _, led = make_channel([1.0, 2.0])
        assert detect_violation_existence(ch) is None
        assert led.messages == 0

    def test_detects(self):
        ch, nodes, _ = make_channel([10.0, 20.0])
        nodes.set_filter(1, Interval(0.0, 15.0))
        rep = detect_violation_existence(ch)
        assert rep is not None and rep.node == 1 and rep.from_below


class TestBisectionDetection:
    def test_silent_cost_is_one_query(self):
        ch, _, led = make_channel([1.0] * 16)
        assert detect_violation_bisection(ch) is None
        assert led.messages == 1  # the root range query (no reply)

    def test_finds_lowest_id_violator(self):
        ch, nodes, _ = make_channel([10.0] * 16)
        nodes.set_filter(5, Interval(0.0, 5.0))
        nodes.set_filter(11, Interval(0.0, 5.0))
        rep = detect_violation_bisection(ch)
        assert rep is not None and rep.node == 5

    def test_cost_is_theta_log_n(self):
        n = 256
        ch, nodes, led = make_channel([10.0] * n)
        nodes.set_filter(200, Interval(0.0, 5.0))
        rep = detect_violation_bisection(ch)
        assert rep is not None and rep.node == 200
        # 1 root + log2(n) bisection queries (1-2 msgs each) + final fetch.
        assert led.messages >= math.log2(n)
        assert led.messages <= 3 * math.log2(n) + 4

    def test_more_expensive_than_existence(self):
        """The whole point of Lemma 3.1."""
        n = 512
        cost_exist, cost_bisect = 0, 0
        for seed in range(20):
            ch, nodes, led = make_channel([10.0] * n, seed=seed)
            nodes.set_filter(99, Interval(0.0, 5.0))
            detect_violation_existence(ch)
            cost_exist += led.messages
            ch2, nodes2, led2 = make_channel([10.0] * n, seed=seed)
            nodes2.set_filter(99, Interval(0.0, 5.0))
            detect_violation_bisection(ch2)
            cost_bisect += led2.messages
        assert cost_bisect > 3 * cost_exist


# ---------------------------------------------------------------------- #
# The narrowing-pass law: the one-pass protocols equal the per-round loops
# ---------------------------------------------------------------------- #
# Reference copies of the per-round loops the narrowing pass replaced:
# every iteration re-announces, re-masks all n nodes and charges each
# round as it happens.  They are the oracle for the law test below.


def _ref_existence(channel, mask):
    n = channel.n
    active_ids = np.flatnonzero(mask)
    if active_ids.size == 0:
        channel.ledger.charge_rounds(channel._gamma + 1)
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    for r in range(channel._gamma + 1):
        channel.ledger.charge_rounds(1)
        p = min(1.0, (channel.existence_base**r) / n)
        sends = channel.rng.random(active_ids.size) < p
        senders = active_ids[sends]
        if senders.size > 0:
            channel.ledger.charge_up(int(senders.size))
            return senders, channel._nodes.values[senders].copy()
    raise AssertionError("existence protocol must fire by round gamma (p=1)")


def _ref_beyond(channel, threshold, exclude, largest):
    values = channel._nodes.values
    mask = values > threshold if largest else values < threshold
    if exclude is not None and len(exclude) > 0:
        mask = mask.copy()
        mask[np.asarray(exclude, dtype=np.int64)] = False
    return _ref_existence(channel, mask)


def _ref_extreme(channel, bound, exclude, largest):
    best = None
    threshold = bound
    with channel.ledger.scope("max_protocol" if largest else "min_protocol"):
        while True:
            channel.announce()
            ids, values = _ref_beyond(channel, threshold, exclude, largest)
            if ids.size == 0:
                return best
            j = int(np.argmax(values) if largest else np.argmin(values))
            best = (int(ids[j]), float(values[j]))
            threshold = best[1]


def _ref_top_m(channel, m):
    found = []
    exclude = np.empty(0, dtype=np.int64)
    with channel.ledger.scope("top_m_probe"):
        for _ in range(m):
            result = _ref_extreme(channel, -math.inf, exclude, True)
            found.append(result)
            channel.notify(result[0])
            exclude = np.append(exclude, result[0])
    return found


class DrawLog:
    """Generator stand-in that logs each ``random(size)`` draw.

    With a ``budget`` it fails on the first draw past it, so code that
    flips more coins than the reference (or never stops) fails fast.
    """

    def __init__(self, rng, budget=None):
        self.rng = rng
        self.sizes = []
        self.budget = budget

    def random(self, size):
        self.sizes.append(size)
        if self.budget is not None and len(self.sizes) > self.budget:
            raise AssertionError("more coin flips than the per-round reference")
        return self.rng.random(size)


def _run_ops(values_seed, n, pool, base, ops, *, reference, budget=None):
    """Drive ``ops`` on one channel; everything the law compares."""
    rng = np.random.default_rng(values_seed)
    nodes = NodeArray(n)
    ledger = CostLedger()
    channel = Channel(nodes, ledger, rng, existence_base=base)
    draws = DrawLog(rng, budget)
    channel.rng = draws
    results = []
    for op, bound, exclude, m in ops:
        # The values come from the channel's own generator, as in exp_max.
        nodes.deliver((rng.permutation(n) % pool).astype(float))
        ledger.begin_step()
        if op == "top":
            results.append((_ref_top_m if reference else top_m_probe)(channel, m))
        elif op == "any":
            mask = np.zeros(n, dtype=bool)
            mask[exclude] = True
            if reference:
                results.append(_ref_existence(channel, mask)[0].size > 0)
            else:
                results.append(channel.existence_any(mask))
        elif reference:
            results.append(_ref_extreme(channel, bound, exclude, op == "max"))
        elif op == "max":
            results.append(max_protocol(channel, above=bound, exclude=exclude))
        else:
            results.append(min_protocol(channel, below=bound, exclude=exclude))
        ledger.end_step()
    return (
        results,
        ledger.snapshot(),
        list(ledger.by_scope().items()),
        ledger.max_rounds_per_step,
        ledger.per_step.tolist(),
        draws.sizes,
        rng.bit_generator.state,
    )


@st.composite
def protocol_calls(draw):
    n = draw(st.integers(2, 300))
    pool = draw(st.integers(1, n))  # pool < n gives tied values
    base = draw(st.sampled_from([2.0, 1.5, 3.0]))
    ops = []
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["max", "min", "top", "any"]))
        exclude = np.array(
            draw(st.lists(st.integers(0, n - 1), max_size=min(n, 12))), dtype=np.int64
        )
        if op != "any" and draw(st.booleans()):  # "any" reads the ids as its active set
            exclude = None
        default = -math.inf if op == "max" else math.inf
        bound = draw(st.one_of(st.just(default), st.integers(-1, pool).map(float)))
        ops.append((op, bound, exclude, draw(st.integers(1, min(n, 6)))))
    return n, pool, base, ops


class TestNarrowingPassLaw:
    @settings(max_examples=150, deadline=None)
    @given(calls=protocol_calls(), seed=st.integers(0, 2**32 - 1))
    def test_matches_per_round_loops(self, calls, seed):
        n, pool, base, ops = calls
        expected = _run_ops(seed, n, pool, base, ops, reference=True)
        got = _run_ops(seed, n, pool, base, ops, reference=False, budget=len(expected[5]))
        names = ("results", "snapshot", "by_scope", "max_rounds", "per_step", "draws", "rng")
        for name, want, have in zip(names, expected, got):
            assert have == want, name

    @pytest.mark.parametrize("base", [2.0, 1.5, 3.0])
    def test_empty_active_set_touches_no_rng(self, base):
        rng = np.random.default_rng(4)
        nodes = NodeArray(64)
        nodes.deliver(rng.permutation(64).astype(float))
        ledger = CostLedger()
        channel = Channel(nodes, ledger, rng, existence_base=base)
        before = rng.bit_generator.state
        assert channel.narrowing_pass(63.0) is None
        assert channel.narrowing_pass(0.0, largest=False) is None
        assert channel.narrowing_pass(-math.inf, among=np.zeros(64, dtype=bool)) is None
        assert rng.bit_generator.state == before
        assert ledger.snapshot() == CostSnapshot(0, 0, 3, 3 * channel.existence_rounds)
