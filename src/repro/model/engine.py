"""The time-step loop driving an algorithm over a value source.

The engine realizes the continuous monitoring model's clock: at each step
it delivers fresh observations to the nodes, lets the algorithm's protocol
settle, then (optionally) verifies the model's laws with the omniscient
checks of :mod:`repro.model.invariants`:

1. the output ``F(t)`` is a valid ε-top-k set,
2. the assigned filters form a valid set of filters (Observation 2.2), and
3. every node's value lies inside its filter (Definition 2.1) — i.e. the
   protocol really settled.

The loop is *incremental*: :meth:`MonitoringEngine.start` opens a run,
:meth:`MonitoringEngine.advance` consumes observations in arbitrary
chunks, and :meth:`MonitoringEngine.finalize` closes the accounting and
returns the :class:`RunResult`.  :meth:`MonitoringEngine.run` is the
classic one-shot wrapper: it drives the same three calls over a
:class:`ValueSource` from step 0 to ``T-1``.  Incremental runs need no
source at all — construct with ``source=None, n=...`` and push blocks;
this is how the service layer (:mod:`repro.service`) hosts long-lived
monitoring sessions over unbounded streams.

Value sources are either pre-generated traces or *adaptive adversaries*;
the latter receive the :class:`~repro.model.node.NodeArray` (they are
omniscient by definition — "the adversary knows the algorithm's code, the
current state of each node and the server", Sect. 2.1).

One stepping core serves both entry points: :meth:`MonitoringEngine._scan`
walks a ``(B, n)`` block along the time axis.  By the filter law
(Observation 2.2) an algorithm does not act on a step where every value
stays inside its filter, and the quiet-step contract
(:meth:`~repro.model.protocol.MonitoringAlgorithm.quiet_step_rounds`)
pins what such a step costs.  So one containment test of a window of
upcoming rows finds the next escalating row; the quiet rows before it
are replayed in bulk (:meth:`MonitoringEngine._record_quiet_steps`) and
only the escalating row runs the full per-step ``_step``.  :meth:`run`
reaches the core through the source's ``iter_blocks()`` (traces and
streaming sources); adaptive adversaries, which pick each step's values
from the node state, ``check=True`` runs, irregular outputs and
algorithms that opt out of the contract call ``_step`` on every row.
Every path ends in the same state, down to the pickle bytes
(``tests/model/test_engine_scan.py``).  The service layer adds no
second core: a cohort tick (:class:`~repro.service.session.SessionBatch`)
is one executor hop over each member session's own ``advance``.

Around the core (the sweep runner drives thousands of runs, see
docs/ARCHITECTURE.md):

- blocks are shape-checked once per :meth:`MonitoringEngine.advance`
  call and finiteness-checked once unless the caller vouches for them
  (``prevalidated=True``) — :class:`~repro.streams.base.Trace`
  validates the whole matrix at construction and
  :class:`~repro.streams.streaming.StreamingSource` each lazily
  generated block on arrival; per-row adversary values are checked on
  delivery unless the source declares ``prevalidated = True``;
- filter-containment tests are served from the node array's cached batch
  (recomputed once per state version, not per query);
- outputs are recorded as rows of a preallocated ``(T, k)`` int array
  (grown by amortized doubling when the horizon is open-ended) instead
  of a list of frozensets, and output-change counting runs as one
  vectorized pass over that array at finalize.

Finalize additionally audits the ledger's accounting law: every charged
message must appear in the per-step series (``sum(per_step) ==
messages``); charges made after ``end_step()`` — e.g. from an
``output()`` side effect — are folded into the step they reacted to by
:class:`~repro.model.ledger.CostLedger`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.model.channel import Channel
from repro.model.invariants import (
    InvariantViolation,
    filters_form_valid_set,
    output_valid,
    values_within_filters,
)
from repro.model.ledger import CostLedger
from repro.model.node import NodeArray
from repro.model.protocol import MonitoringAlgorithm
from repro.util.rngtools import make_rng

__all__ = ["ValueSource", "MonitoringEngine", "RunResult"]

#: Initial ``(T, k)`` output-buffer rows for open-ended runs (no
#: ``expect_steps``); grown by doubling.
_INITIAL_ROWS = 1024

#: First and largest window (rows) of the time-axis scan; see
#: ``MonitoringEngine._scan``.  The cap bounds the scan's temporaries on
#: long traces; at 1024 rows the per-window numpy overhead is already
#: amortized to nothing.
_SCAN_WINDOW = 4
_SCAN_MAX_WINDOW = 1024


@runtime_checkable
class ValueSource(Protocol):
    """Anything that can feed values to the engine, step by step.

    The engine reads steps strictly in order ``0..T-1``, so sources may
    generate lazily (see :class:`repro.streams.streaming.StreamingSource`,
    which keeps one block resident).  Two optional attributes refine the
    contract:

    - ``prevalidated`` (bool): the source guarantees finite values of
      shape ``(n,)`` at every step — whole-matrix validation for
      :class:`~repro.streams.base.Trace`, per-block validation for
      streaming sources — and the engine skips per-step delivery checks.
    - ``reset()``: called once at the start of every run, letting
      single-pass sources rewind so one source object supports repeated
      runs.
    - ``iter_blocks()``: a fresh pass over all ``T`` rows as ``(B_i, n)``
      blocks.  Sources that have it ignore the node state, and
      :meth:`MonitoringEngine.run` scans their blocks instead of asking
      for one row per step.
    """

    @property
    def n(self) -> int:
        """Number of nodes."""

    @property
    def num_steps(self) -> int:
        """Number of time steps the source provides."""

    def values(self, t: int, nodes: NodeArray) -> np.ndarray:
        """Observations for step ``t`` (may inspect ``nodes`` — adversaries)."""


@dataclass
class RunResult:
    """Everything measured during one simulation run."""

    ledger: CostLedger
    num_steps: int
    n: int
    k: int
    output_changes: int = 0
    algorithm_name: str = ""
    #: Recorded outputs as a ``(T, k)`` int array of sorted node ids —
    #: the engine's compact fast-path representation.  ``None`` when
    #: outputs were not recorded or were irregular (size ≠ k).
    #: Excluded from dataclass comparison (ndarray ``==`` is elementwise).
    outputs_array: np.ndarray | None = field(default=None, compare=False)
    _outputs_list: list[frozenset[int]] | None = field(default=None, repr=False, compare=False)
    _cumulative: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def outputs(self) -> list[frozenset[int]]:
        """``F(t)`` per step as frozensets (empty when not recorded)."""
        if self._outputs_list is None:
            if self.outputs_array is None:
                return []
            self._outputs_list = [frozenset(row) for row in self.outputs_array.tolist()]
        return self._outputs_list

    @property
    def messages(self) -> int:
        """Total unit-cost messages of the run."""
        return self.ledger.messages

    @property
    def cumulative_messages(self) -> np.ndarray:
        """Cumulative message count after each time step (length T).

        Cached after the first access; invalidated when the series has
        changed since — either grown (a live session's ledger) or had a
        late charge folded into its last entry (same length, larger
        total) — so repeated reads of a settled result don't re-run
        ``cumsum``.
        """
        series = self.ledger.per_step
        cached = self._cumulative
        if (
            cached is None
            or cached.shape[0] != len(series)
            or (cached.shape[0] and int(cached[-1]) != series.total)
        ):
            self._cumulative = np.cumsum(np.asarray(series, dtype=np.int64))
        return self._cumulative

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RunResult({self.algorithm_name}, T={self.num_steps}, n={self.n}, "
            f"k={self.k}, messages={self.messages})"
        )


class MonitoringEngine:
    """Drive ``algorithm`` over observations and account every message.

    Parameters
    ----------
    source:
        A :class:`ValueSource` (trace or adaptive adversary), or ``None``
        for a push-driven run fed through :meth:`advance` (then ``n``
        must be given).  Sources with a true ``prevalidated`` attribute
        promise finite values of the right shape at every step and get
        validation-free delivery.
    algorithm:
        A fresh :class:`MonitoringAlgorithm` instance (one per run).
    k:
        The top-``k`` parameter, used for verification and result metadata.
    eps:
        The output error the algorithm is allowed; used only by the
        verification mode (pass the algorithm's own ε; ``0`` for exact).
    seed:
        Seed/generator for the channel's protocol randomness.
    check:
        When ``True``, verify the three model laws after every step and
        raise :class:`InvariantViolation` on the first breach.  Meant for
        tests and debugging (it reads values omnisciently); benchmarks run
        with ``check=False``.
    record_outputs:
        When ``True`` (default) keep ``F(t)`` per step in the result.
    broadcast_cost:
        Unit price of a broadcast (model ablation T13; default 1 — the
        paper's broadcast-channel model).
    existence_base:
        Growth base of the existence protocol's send probabilities
        (model ablation T14; default 2 — the Lemma 3.1 protocol).
    n:
        Number of nodes for push-driven runs (``source=None``); must
        match ``source.n`` when both are given.
    """

    def __init__(
        self,
        source: ValueSource | None,
        algorithm: MonitoringAlgorithm,
        *,
        k: int,
        eps: float = 0.0,
        seed: int | np.random.Generator | None = 0,
        check: bool = False,
        record_outputs: bool = True,
        broadcast_cost: int = 1,
        existence_base: float = 2.0,
        n: int | None = None,
    ) -> None:
        if source is None:
            if n is None:
                raise TypeError("a push-driven engine (source=None) needs n=...")
            num_nodes = int(n)
        else:
            if not isinstance(source, ValueSource):
                raise TypeError(f"source must implement ValueSource, got {type(source).__name__}")
            num_nodes = source.n
            if n is not None and int(n) != num_nodes:
                raise ValueError(f"n={n} contradicts source.n={num_nodes}")
        self.source = source
        self.algorithm = algorithm
        self.k = int(k)
        self.eps = float(eps)
        self.check = bool(check)
        self.record_outputs = bool(record_outputs)
        self.nodes = NodeArray(num_nodes)
        self.ledger = CostLedger(broadcast_cost=broadcast_cost)
        self.channel = Channel(
            self.nodes, self.ledger, make_rng(seed), existence_base=existence_base
        )
        # Incremental run state (created by start()).
        self._started = False
        self._finalized = False
        self._t = 0
        self._rows: np.ndarray | None = None
        self._prev_row: np.ndarray | None = None
        self._changes = 0
        # Object fallback, entered only if an output ever has size != k
        # (a protocol-contract breach the engine tolerates for baselines).
        self._irregular = False
        self._outputs_list: list[frozenset[int]] = []
        self._previous: frozenset[int] | None = None
        self._reset_tallies()

    def _reset_tallies(self) -> None:
        #: Steps replayed as quiet bookkeeping / run through the full
        #: ``_step``, whoever drove them.  Observability only: excluded
        #: from pickles, so checkpoint bytes do not depend on them.
        self.quiet_steps = 0
        self.escalated_steps = 0

    # ------------------------------------------------------------------ #
    # One-shot wrapper
    # ------------------------------------------------------------------ #
    def run(self) -> RunResult:
        """Execute the full run over ``source`` and return the measurements."""
        source = self.source
        if source is None:
            raise RuntimeError(
                "run() needs a value source; push-driven engines are driven "
                "with start()/advance()/finalize()"
            )
        reset = getattr(source, "reset", None)
        if callable(reset):
            reset()  # streaming sources rewind to step 0 for this run
        T = source.num_steps
        self.start(expect_steps=T)
        prevalidated = bool(getattr(source, "prevalidated", False))
        iter_blocks = getattr(source, "iter_blocks", None)
        if iter_blocks is not None:
            for block in iter_blocks():
                self.advance(block, prevalidated=prevalidated)
        else:
            # Adaptive adversaries pick step t's values from the node
            # state after step t-1, so there is no block to scan ahead.
            nodes, step = self.nodes, self._step
            for t in range(T):
                step(source.values(t, nodes), not prevalidated)
        return self.finalize()

    # ------------------------------------------------------------------ #
    # Incremental drive: start / advance / finalize
    # ------------------------------------------------------------------ #
    def start(self, *, expect_steps: int | None = None) -> None:
        """Open the run: bind the algorithm, allocate recording buffers.

        ``expect_steps`` sizes the ``(T, k)`` output buffer exactly when
        the horizon is known (as :meth:`run` does); without it the buffer
        grows by amortized doubling, so open-ended sessions work too.
        """
        if self._started:
            raise RuntimeError("engine already started; one run per engine")
        self.algorithm.bind(self.channel)
        self._started = True
        if self.record_outputs:
            capacity = expect_steps if expect_steps else _INITIAL_ROWS
            self._rows = np.empty((int(capacity), self.k), dtype=np.int64)

    def advance(self, block: np.ndarray, *, prevalidated: bool = False) -> int:
        """Consume a ``(B, n)`` block of observations, one time step per row.

        A 1-D block is a single step.  The shape is checked on every
        call; the finiteness pass is skipped for ``prevalidated=True``
        blocks (e.g. rows already validated by a
        :class:`~repro.streams.streaming.StreamingSource`).  The rows
        then go through the time-axis scan (:meth:`_scan`): quiet runs
        are replayed in bulk and only escalating rows run the full
        step.  Returns the total number of steps consumed so far.
        """
        if not self._started:
            raise RuntimeError("call start() before advance()")
        if self._finalized:
            raise RuntimeError("engine already finalized")
        block = np.asarray(block, dtype=np.float64)
        if block.ndim == 1:  # a single step is a 1-row block
            block = block[None, :]
        if block.ndim != 2 or block.shape[1] != self.nodes.n:
            raise ValueError(f"block must have shape (B, {self.nodes.n}), got {block.shape}")
        if not prevalidated and not np.all(np.isfinite(block)):
            raise ValueError("stream values must be finite")
        self._scan(block)
        return self._t

    def finalize(self) -> RunResult:
        """Close the run: audit the accounting, package the result."""
        if not self._started:
            raise RuntimeError("call start() before finalize()")
        if self._finalized:
            raise RuntimeError("engine already finalized")
        self._finalized = True
        ledger = self.ledger
        ledger.flush_late_charges()
        T = self._t
        result = RunResult(
            ledger=ledger,
            num_steps=T,
            n=self.nodes.n,
            k=self.k,
            algorithm_name=getattr(self.algorithm, "name", type(self.algorithm).__name__),
        )
        changes = self._changes
        if self.record_outputs:
            if self._irregular:
                result._outputs_list = self._outputs_list
            else:
                assert self._rows is not None
                rows = self._rows if T == self._rows.shape[0] else self._rows[:T]
                changes = _count_changes(rows)
                result.outputs_array = rows
        result.output_changes = changes
        if T and ledger.unaccounted:
            raise RuntimeError(
                f"ledger accounting drift: {ledger.messages} messages charged "
                f"but per_step records {ledger.per_step.total} — some charge "
                "bypassed the begin_step/end_step bookkeeping"
            )
        return result

    # ------------------------------------------------------------------ #
    # Introspection (live sessions query these mid-run)
    # ------------------------------------------------------------------ #
    @property
    def steps_done(self) -> int:
        """Number of time steps consumed so far."""
        return self._t

    def quiet_step_rounds(self) -> int | None:
        """The algorithm's fixed violation-free step cost (see protocol)."""
        return self.algorithm.quiet_step_rounds()

    def current_output(self) -> frozenset[int] | None:
        """The algorithm's current ``F(t)`` (``None`` before step 0)."""
        if not self._started or self._t == 0:
            return None
        return self.algorithm.output()

    def output_changes_so_far(self) -> int:
        """Output changes over the steps consumed so far."""
        if self.record_outputs and not self._irregular and self._rows is not None:
            return _count_changes(self._rows[: self._t])
        return self._changes

    # ------------------------------------------------------------------ #
    # The stepping core (shared by run() and advance())
    # ------------------------------------------------------------------ #
    def _scan(self, block: np.ndarray) -> None:
        """Advance through the rows of a validated ``(B, n)`` block.

        Filters cannot change on a quiet step (the quiet-step contract of
        :meth:`~repro.model.protocol.MonitoringAlgorithm.quiet_step_rounds`),
        so one containment test of a ``(w, n)`` window of upcoming rows
        against the standing filters finds the next escalating row.  The
        quiet rows before it are replayed in bulk
        (:meth:`_record_quiet_steps`, after writing the last of them into
        the node values) and the escalating row runs the full
        :meth:`_step`.  The window starts at ``_SCAN_WINDOW`` rows,
        doubles after each all-quiet window (up to ``_SCAN_MAX_WINDOW``)
        and resets on escalation, so quiet streams are read in long
        strides and chatty ones waste at most a few rows of tests per
        step.  Step 0 (``on_start``),
        irregular outputs, ``check=True`` and algorithms that opt out of
        the contract take :meth:`_step` on every row.
        """
        rounds = None if self.check else self.algorithm.quiet_step_rounds()
        step = self._step
        start = 0
        if rounds is not None:
            if self._t == 0 and block.shape[0]:
                step(block[0], False)
                start = 1
            nodes = self.nodes
            total = block.shape[0]
            window = _SCAN_WINDOW
            while start < total and not self._irregular:
                rows = block[start : start + window]
                # The strict comparisons of NodeArray._refresh_violations:
                # a value equal to a filter bound is inside the filter.
                hit = ((rows > nodes.filter_hi) | (rows < nodes.filter_lo)).any(axis=1)
                quiet = int(hit.argmax())  # the first violating row, if any
                if not hit[quiet]:
                    quiet = rows.shape[0]
                if quiet:
                    nodes.values[:] = rows[quiet - 1]
                    self._record_quiet_steps(quiet, rounds)
                    start += quiet
                if quiet < rows.shape[0]:
                    step(block[start], False)
                    start += 1
                    window = _SCAN_WINDOW
                elif window < _SCAN_MAX_WINDOW:
                    window *= 2
        for row in block[start:]:
            step(row, False)

    def _step(self, values: np.ndarray, validate: bool) -> None:
        ledger = self.ledger
        algorithm = self.algorithm
        t = self._t
        ledger.begin_step()
        self.nodes.deliver(values, validate=validate)
        if t == 0:
            algorithm.on_start()
        else:
            algorithm.on_step()
        ledger.end_step()
        out = algorithm.output()
        k = self.k
        record = self.record_outputs
        if not self._irregular and len(out) == k:
            if record:
                rows = self._rows
                if t == rows.shape[0]:  # open-ended horizon: amortized growth
                    rows = self._grow_rows()
                row = rows[t]
                row[:] = np.fromiter(out, dtype=np.int64, count=k)
                row.sort()  # change counting happens in one batch at finalize
            else:
                cur = np.fromiter(out, dtype=np.int64, count=k)
                cur.sort()
                prev_row = self._prev_row
                if prev_row is not None and not np.array_equal(cur, prev_row):
                    self._changes += 1
                self._prev_row = cur
        else:
            if not self._irregular:  # first irregular output: leave the fast path
                self._irregular = True
                if record:
                    done = self._rows[:t]
                    self._changes = _count_changes(done)
                    self._outputs_list = [frozenset(r) for r in done.tolist()]
                    self._previous = self._outputs_list[-1] if t else None
                    # The list takes over; dropping the buffer keeps its
                    # unwritten rows out of checkpoint bytes.
                    self._rows = None
                elif self._prev_row is not None:
                    self._previous = frozenset(self._prev_row.tolist())
            if record:
                self._outputs_list.append(out)
            if self._previous is not None and out != self._previous:
                self._changes += 1
            self._previous = out
        self._t = t + 1
        self.escalated_steps += 1
        if self.check:
            self._verify(t, out)

    def _grow_rows(self, min_rows: int | None = None) -> np.ndarray:
        assert self._rows is not None
        capacity = max(self._rows.shape[0] * 2, _INITIAL_ROWS)
        if min_rows is not None:
            while capacity < min_rows:  # bulk quiet replay can outgrow one doubling
                capacity *= 2
        grown = np.empty((capacity, self.k), dtype=np.int64)
        grown[: self._t] = self._rows[: self._t]
        self._rows = grown
        return grown

    def _record_quiet_steps(self, count: int, rounds_per_step: int) -> None:
        """Replay the bookkeeping of ``count`` violation-free steps at once.

        The caller, the time-axis scan :meth:`_scan`, already wrote the
        last of the values into this engine's node state and proved, row
        by row, that none of them violated the standing filters — so the
        algorithm was never entitled to act, the output is unchanged, and
        what remains of the per-row ``_step`` sequence is pure accounting:
        the ledger's begin/rounds/end pattern, ``count`` repeats of the
        previous output row, and the node-state version clock.  Must
        mirror ``_step`` exactly; checkpoints taken afterwards are
        asserted bit-identical to twins fed one row at a time.
        """
        if count <= 0:
            return
        # Step 0 always escalates (on_start) and irregular runs are never
        # quiet again, so replay starts from a recorded prior step.
        assert self._t > 0 and not self._irregular
        t = self._t
        self.ledger.record_quiet_steps(count, rounds_per_step)
        if self.record_outputs:
            rows = self._rows
            needed = t + count
            if needed > rows.shape[0]:
                rows = self._grow_rows(min_rows=needed)
            rows[t:needed] = rows[t - 1]
        # Non-record mode: ``_prev_row`` keeps its (equal-content) array
        # and ``_changes`` is untouched — exactly what an unchanged output
        # leaves behind.  Values were delivered in place; only the version
        # clock still has to advance one tick per step.
        self.nodes.advance_version(count)
        self._t = t + count
        self.quiet_steps += count

    # ------------------------------------------------------------------ #
    # Pickling (session checkpoints)
    # ------------------------------------------------------------------ #
    def __getstate__(self):
        # Compact the output buffer to its recorded prefix so checkpoint
        # bytes are a pure function of the steps consumed — not of buffer
        # capacity history or the ``np.empty`` garbage past ``_t``.  The
        # cross-topology differential harness asserts blobs bit-identical
        # across restore/migrate histories, which needs this canonical form.
        state = self.__dict__.copy()
        del state["quiet_steps"], state["escalated_steps"]
        rows = state["_rows"]
        if rows is not None:
            state["_rows"] = rows[: self._t].copy()
        return state

    def __setstate__(self, state: dict) -> None:
        # A compacted buffer may be full (or empty); _grow_rows re-seeds
        # capacity on the next recorded step.  Keys are interned like
        # pickle's default load_build does — otherwise a restored engine
        # re-pickles with different string memoization and the blob bytes
        # drift from an uninterrupted run's.
        self.__dict__.update({sys.intern(key): value for key, value in state.items()})
        self._reset_tallies()

    # ------------------------------------------------------------------ #
    def _verify(self, t: int, out: frozenset[int]) -> None:
        ok, why = output_valid(self.nodes.values, self.k, self.eps, out)
        if not ok:
            raise InvariantViolation(f"[t={t}] invalid output of {self.algorithm.name}: {why}")
        if not self.algorithm.filter_based:
            return
        ok, why = filters_form_valid_set(self.nodes.filter_lo, self.nodes.filter_hi, out, self.eps)
        if not ok:
            raise InvariantViolation(f"[t={t}] invalid filter set of {self.algorithm.name}: {why}")
        ok, why = values_within_filters(self.nodes.values, self.nodes.filter_lo, self.nodes.filter_hi)
        if not ok:
            raise InvariantViolation(f"[t={t}] {self.algorithm.name} did not settle: {why}")


def _count_changes(rows: np.ndarray) -> int:
    """Vectorized output-change count over sorted ``(T, k)`` output rows."""
    if rows.shape[0] < 2:
        return 0
    return int(np.count_nonzero((rows[1:] != rows[:-1]).any(axis=1)))
