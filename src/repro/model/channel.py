"""The communication gateway between server algorithms and nodes.

Server-side algorithms hold a :class:`Channel` and nothing else; every way
of learning anything about node values goes through a method here and is
charged to the :class:`~repro.model.ledger.CostLedger`.  The primitives
mirror what the paper's model allows:

- ``announce`` / ``broadcast_filters`` — server broadcast, cost 1
  (Cormode et al.'s broadcast-channel enhancement, Sect. 1/2 of the paper).
- ``unicast_filter`` / ``request_value`` — server→node messages, cost 1
  each (plus the node's reply for a request).
- ``existence_*`` — the randomized EXISTENCE protocol of Lemma 3.1, run
  over a node-local predicate.  Nodes whose predicate is *false* stay
  silent; active nodes send independently with probability ``2^r / n`` in
  round ``r`` until the first round in which at least one message arrives
  (Las Vegas, O(1) messages in expectation, ``≤ log n + 1`` rounds).
  The no-active case costs zero messages — the crucial property that lets
  filter-based algorithms be silent while nothing happens (Cor. 3.2).
- ``narrowing_pass`` — the max/min protocol of Lemma 2.6 as one pass over
  the EXISTENCE protocol: broadcast a threshold, let the nodes beyond it
  run one existence check, jump the threshold to the most extreme value
  heard, repeat until silence.  Values are fixed within a step and the
  threshold only moves outward, so the pass gathers the active ids and
  values once and narrows them by each new threshold instead of
  re-masking all ``n`` nodes per iteration.  Its coin flips are exactly
  the per-iteration protocol's — one ``rng.random(size)`` per round over
  the ascending active ids, in the same order — and it charges the
  ledger once per call (same totals, rounds, per-scope amounts and scope
  insertion order), so every result and checkpoint stays bit-identical.
  The send probabilities ``min(1, base^r / n)`` come from a module-level
  table (channels are pickled into checkpoints, so they carry no cache).
  On the engine-chatty benchmark workload the pass lifts steps/s about
  1.46x on a 2-vCPU VM (docs/ARCHITECTURE.md §2).
- ``collect_*`` — deterministic "everyone matching the predicate reports"
  probes: 1 broadcast for the query plus one upstream message per match.
  DENSEPROTOCOL uses these to seed its node partition and to evaluate its
  counting conditions (steps 3.b.1 / 3.b'.1).

Node-local predicate evaluation is free: a node comparing its own value to
a broadcast threshold performs local computation only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.model.ledger import CostLedger
from repro.model.node import (
    NodeArray,
    VIOLATION_ABOVE,
    VIOLATION_BELOW,
)
from repro.util.intervals import Interval
from repro.util.mathx import ceil_log2
from repro.util.rngtools import make_rng

__all__ = ["Channel", "Violation"]


@functools.lru_cache(maxsize=64)
def _send_probabilities(base: float, n: int, gamma: int) -> tuple[float, ...]:
    """Round ``r``'s send probability ``min(1, base^r / n)``, r = 0..γ.

    A module-level table rather than channel state: channels are pickled
    into session checkpoints, whose bytes must not change.
    """
    return tuple(min(1.0, (base**r) / n) for r in range(gamma + 1))


@dataclass(frozen=True, slots=True)
class Violation:
    """A filter-violation report: ``(node, value, kind)``.

    ``kind`` is :data:`~repro.model.node.VIOLATION_BELOW` when the node's
    value exceeded its filter's upper bound (paper: "violates from below")
    and :data:`~repro.model.node.VIOLATION_ABOVE` when it dropped under the
    lower bound ("violates from above").
    """

    node: int
    value: float
    kind: int

    @property
    def from_below(self) -> bool:
        """True for an upward crossing (value > filter upper bound)."""
        return self.kind == VIOLATION_BELOW

    @property
    def from_above(self) -> bool:
        """True for a downward crossing (value < filter lower bound)."""
        return self.kind == VIOLATION_ABOVE


class Channel:
    """Cost-metered communication between the server and ``n`` nodes.

    Parameters
    ----------
    nodes:
        The node state (values + filters).  Algorithms must not touch this
        object; they receive the :class:`Channel` only.
    ledger:
        Message/round account shared with the engine.
    rng:
        Source of the per-node coin flips of the existence protocol.
    """

    def __init__(
        self,
        nodes: NodeArray,
        ledger: CostLedger | None = None,
        rng: np.random.Generator | int | None = None,
        *,
        existence_base: float = 2.0,
    ) -> None:
        if existence_base <= 1.0:
            raise ValueError(f"existence_base must be > 1, got {existence_base}")
        self._nodes = nodes
        self.ledger = ledger if ledger is not None else CostLedger()
        self.rng = make_rng(rng)
        self.existence_base = float(existence_base)
        if existence_base == 2.0:
            self._gamma = ceil_log2(nodes.n)
        else:
            self._gamma = max(0, int(math.ceil(math.log(nodes.n, existence_base))))

    # ------------------------------------------------------------------ #
    # Topology facts the server legitimately knows
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Number of nodes (public knowledge in the model)."""
        return self._nodes.n

    @property
    def existence_rounds(self) -> int:
        """Round cost of one existence check when *no* node is active.

        Every probability round of Cor. 3.2 runs (γ+1 of them) and nobody
        speaks, so the check costs exactly ``γ+1`` rounds, zero messages,
        and — crucially for the engine's time-axis scan, which replays
        quiet steps in bulk — consumes no randomness: :meth:`_existence_collect`
        and :meth:`narrowing_pass` return before touching the RNG when the
        active set is empty.
        """
        return self._gamma + 1

    # ------------------------------------------------------------------ #
    # Downstream: broadcasts and unicasts
    # ------------------------------------------------------------------ #
    def announce(self) -> None:
        """Broadcast a constant-size control message (threshold, query, id).

        Cost: 1.  The message content itself is tracked by the caller; the
        model only restricts size to O(log(n·Δ)) bits, which every control
        message we send satisfies (a few values and at most one node id).
        """
        self.ledger.charge_broadcast()

    def broadcast_filters(self, groups: Sequence[tuple[np.ndarray, Interval]]) -> None:
        """Install filters for several node groups with a single broadcast.

        The broadcast carries the round's constants (e.g. ``ℓ_r``, ``u_r``,
        ``z``); every node derives its own interval locally from its class
        label, exactly as in DENSEPROTOCOL step 2.  Cost: 1.

        Parameters
        ----------
        groups:
            ``(ids, interval)`` pairs; ids may be an ndarray, list, or
            boolean mask.  Later groups override earlier ones on overlap.
        """
        self.ledger.charge_broadcast()
        for ids, interval in groups:
            ids = self._as_index(ids)
            self._nodes.set_filters_bulk(ids, interval.lo, interval.hi)

    def unicast_filter(self, node: int, interval: Interval) -> None:
        """Assign one node's filter with a direct message.  Cost: 1."""
        self.ledger.charge_down()
        self._nodes.set_filter(int(node), interval)

    def broadcast_freeze(self) -> None:
        """Broadcast the rule "filter := your current value".  Cost: 1.

        Each node derives the point filter ``[v_i, v_i]`` locally from its
        own observation — a filter rule, not a data transfer, so a single
        broadcast suffices.  Used by the send-on-change baseline.
        """
        self.ledger.charge_broadcast()
        self._nodes.freeze_all()

    def self_freeze(self, node: int) -> None:
        """Node-local re-freeze after a report.  Cost: 0.

        Once the freeze rule has been broadcast, a node that just reported
        its new value re-arms its own point filter without any message —
        pure local computation, hence free in the model.
        """
        self._nodes.freeze_one(int(node))

    def request_value(self, node: int) -> float:
        """Ask one node for its current value.  Cost: 2 (query + reply)."""
        self.ledger.charge_down()
        self.ledger.charge_up()
        return float(self._nodes.values[int(node)])

    # ------------------------------------------------------------------ #
    # Existence protocol (Lemma 3.1) over node-local predicates
    # ------------------------------------------------------------------ #
    def _first_senders(self, count: int) -> tuple[np.ndarray, int]:
        """The coin flips of one EXISTENCE run over ``count`` active nodes.

        One ``rng.random(count)`` per round, each active node sending with
        probability ``min(1, base^r / n)`` in round ``r``, until some node
        sends.  Returns the positions (into the caller's ascending active
        ids) of that round's senders and the number of rounds used.
        Charges nothing; the caller settles the ledger.
        """
        draw = self.rng.random
        for r, p in enumerate(_send_probabilities(self.existence_base, self._nodes.n, self._gamma)):
            sent = (draw(count) < p).nonzero()[0]
            if sent.size:
                return sent, r + 1
        raise AssertionError("existence protocol must fire by round gamma (p=1)")

    def _existence_collect(
        self, active: np.ndarray | None = None, *, active_ids: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run the EXISTENCE protocol over the active-node set.

        Pass either the boolean ``active`` mask or, for callers that
        already hold the ids (the node array's cached violation batch),
        ``active_ids`` — the coin-flip sequence is identical either way.
        Returns the ``(ids, values)`` of the nodes that sent in the first
        successful round (all their messages are charged).  Empty arrays
        when no node is active; that case costs zero messages and
        ``γ + 1`` rounds of silence.
        """
        if active_ids is None:
            if active is None:
                raise TypeError("pass exactly one of active= or active_ids=")
            active_ids = np.flatnonzero(active)
        elif active is not None:
            raise TypeError("pass exactly one of active= or active_ids=")
        if active_ids.size == 0:
            self.ledger.charge_rounds(self._gamma + 1)
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        sent, rounds = self._first_senders(active_ids.size)
        senders = active_ids[sent]
        self.ledger.charge_rounds(rounds)
        self.ledger.charge_up(int(senders.size))
        return senders, self._nodes.values[senders].copy()

    def existence_any(self, active: np.ndarray) -> bool:
        """Decide the OR of the predicate (Lemma 3.1).  O(1) expected msgs."""
        ids, _ = self._existence_collect(active)
        return ids.size > 0

    def existence_violations(self) -> list[Violation]:
        """Detect filter-violations via the existence protocol (Cor. 3.2).

        Every violating node participates with a 1; responders of the first
        successful round report ``(id, value)`` and whether they crossed
        from below or above.  No violations → no messages.
        """
        violating = self._nodes.violation_ids()  # cached batch containment test
        ids, values = self._existence_collect(active_ids=violating)
        if ids.size == 0:
            return []
        kind = self._nodes.violation_kind()
        return [Violation(int(i), float(v), int(kind[i])) for i, v in zip(ids, values)]

    def narrowing_pass(
        self,
        bound: float,
        *,
        largest: bool = True,
        among: np.ndarray | None = None,
    ) -> tuple[int, float] | None:
        """The Lemma 2.6 max (or min) protocol as one narrowing pass.

        Each iteration broadcasts the current threshold (starting at
        ``bound``); the nodes strictly beyond it run one EXISTENCE
        protocol, and the threshold jumps to the most extreme value heard.
        The pass ends at the first iteration in which nobody is beyond the
        threshold, and returns the last ``(id, value)`` heard, or ``None``
        when no node was beyond ``bound``.  ``among`` is a boolean mask of
        the nodes that take part (the rest were told to stand down, which
        the caller charges); ``None`` means every node.

        Values cannot change within a step and the threshold only moves
        outward, so the next active set is the current one filtered by the
        new threshold: ids and values are gathered once.  The coin flips
        are those of the per-iteration protocol — one ``rng.random(size)``
        per round over the ascending active ids — and the ledger is
        charged in bulk at the end: one broadcast per iteration, one
        upstream message per sender, and every round (``γ + 1`` for the
        final, silent iteration, which touches no randomness).
        """
        values = self._nodes.values
        mask = values > bound if largest else values < bound
        if among is not None:
            mask &= among
        ids = mask.nonzero()[0]
        vals = values[ids]
        best: tuple[int, float] | None = None
        broadcasts = up = rounds = 0
        while True:
            broadcasts += 1
            if ids.size == 0:
                rounds += self._gamma + 1
                break
            sent, used = self._first_senders(ids.size)
            rounds += used
            heard = vals[sent]
            up += heard.size
            j = int(heard.argmax() if largest else heard.argmin())
            best = (int(ids[sent[j]]), float(heard[j]))
            # Positions, then two takes: boolean-mask indexing over the
            # scattered survivors runs about 4x slower at n = 16384.
            keep = (vals > best[1] if largest else vals < best[1]).nonzero()[0]
            ids, vals = ids[keep], vals[keep]
        self.ledger.charge_broadcast(broadcasts)
        if up:
            self.ledger.charge_up(up)
        self.ledger.charge_rounds(rounds)
        return best

    def report_violations_all(self) -> list[Violation]:
        """Every violating node reports directly (no existence batching).

        The pre-Lemma-3.1 reporting discipline: nodes cannot coordinate,
        so each simultaneous violator costs one upstream message.  Silent
        systems cost nothing.  Used by the `[6]`-style baseline monitor.
        """
        self.ledger.charge_rounds(1)
        ids = self._nodes.violation_ids()
        kind = self._nodes.violation_kind()
        self.ledger.charge_up(int(ids.size))
        return [
            Violation(int(i), float(self._nodes.values[i]), int(kind[i])) for i in ids
        ]

    def notify(self, node: int) -> None:
        """Send one control unicast (e.g. "stand down").  Cost: 1."""
        self.ledger.charge_down()
        _ = int(node)

    # ------------------------------------------------------------------ #
    # Deterministic collect probes (1 broadcast + one reply per match)
    # ------------------------------------------------------------------ #
    def collect_above(self, threshold: float, *, strict: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """All nodes with value above ``threshold`` report ``(id, value)``."""
        return self._collect(self._nodes.mask_above(threshold, strict=strict))

    def collect_below(self, threshold: float, *, strict: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """All nodes with value below ``threshold`` report ``(id, value)``."""
        return self._collect(self._nodes.mask_below(threshold, strict=strict))

    def collect_between(self, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
        """All nodes with ``lo <= value <= hi`` report ``(id, value)``.

        DENSEPROTOCOL seeds its V1/V2/V3 partition by probing the
        ε-neighborhood of ``z`` this way (cost σ + O(1), cf. Lemma 5.3).
        """
        mask = self._nodes.mask_above(lo, strict=False) & self._nodes.mask_below(hi, strict=False)
        return self._collect(mask)

    def count_above(self, threshold: float, *, strict: bool = True) -> int:
        """Number of nodes above ``threshold`` (1 broadcast + 1 msg each)."""
        ids, _ = self.collect_above(threshold, strict=strict)
        return int(ids.size)

    def count_below(self, threshold: float, *, strict: bool = True) -> int:
        """Number of nodes below ``threshold`` (1 broadcast + 1 msg each)."""
        ids, _ = self.collect_below(threshold, strict=strict)
        return int(ids.size)

    def _collect(self, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        self.ledger.charge_broadcast()  # the query
        self.ledger.charge_rounds(1)
        ids = np.flatnonzero(mask)
        self.ledger.charge_up(int(ids.size))
        return ids, self._nodes.values[ids].copy()

    # ------------------------------------------------------------------ #
    # Deterministic violation search (the pre-Lemma-3.1 baseline)
    # ------------------------------------------------------------------ #
    def range_has_violator(self, lo_id: int, hi_id: int) -> bool:
        """Deterministic query "any violator with id in [lo_id, hi_id]?".

        Models the group-testing detection that the existence protocol
        replaces: 1 broadcast for the query and 1 upstream message iff the
        answer is yes (charitably assuming perfect collision resolution —
        this *under*-counts the baseline's cost, so measured gaps are
        conservative).  Used only by the `[6]`-style baseline monitor.
        """
        self.ledger.charge_broadcast()
        self.ledger.charge_rounds(1)
        mask = self._nodes.violating_mask()
        mask[: int(lo_id)] = False
        mask[int(hi_id) + 1 :] = False
        hit = bool(mask.any())
        if hit:
            self.ledger.charge_up()
        return hit

    def violation_report(self, node: int) -> Violation | None:
        """Ask one specific node for a violation report.  Cost: 2.

        Returns ``None`` when the node is inside its filter.
        """
        self.ledger.charge_down()
        self.ledger.charge_up()
        kind = int(self._nodes.violation_kind()[int(node)])
        if kind == 0:
            return None
        return Violation(int(node), float(self._nodes.values[int(node)]), kind)

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _as_index(ids: object) -> np.ndarray:
        arr = np.asarray(ids)
        if arr.dtype == bool:
            return np.flatnonzero(arr)
        return arr.astype(np.int64, copy=False)

    def current_filters(self) -> tuple[np.ndarray, np.ndarray]:
        """The filters the server assigned (server-side knowledge, free)."""
        return self._nodes.filter_lo.copy(), self._nodes.filter_hi.copy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Channel(n={self.n}, {self.ledger!r})"
