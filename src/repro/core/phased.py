"""Shared phase machinery for the Section 4/5 monitors.

Every competitive algorithm in the paper has the same outer shape
(Thm 4.5, Thm 5.8, Cor. 5.9):

1. probe the nodes holding the k+1 largest values (O(k log n) expected),
2. hand control to a *phase core* — a sub-protocol that fixes an output,
   assigns filters, and witnesses correctness against filter-violations,
3. when the core declares the phase over (its guess interval emptied, or a
   safety guard tripped), go back to 1 — the analyses show OPT must have
   communicated at least once per phase.

:class:`PhasedMonitor` implements the loop; concrete monitors supply
:meth:`PhasedMonitor._dispatch`, choosing the core from the probe result
(e.g. Thm 5.8: separated values → TOP-K-PROTOCOL, dense values →
DENSEPROTOCOL).

Violations are processed one at a time through a pluggable detector
(existence-based per Cor. 3.2, or the deterministic bisection baseline),
re-detecting after every filter update so stale reports vanish — the
paper's "the server simply ignores" semantics.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from typing import Callable

import numpy as np

from repro.model.channel import Channel, Violation
from repro.model.protocol import MAX_SETTLE_ITERATIONS, MonitoringAlgorithm, ProtocolError
from repro.core.primitives import detect_violation_direct, detect_violation_existence, top_m_probe
from repro.util.checks import check_epsilon, check_k, check_positive_int

__all__ = ["PhaseOutcome", "PhaseCore", "PhasedMonitor", "two_filter_groups"]


class PhaseOutcome(enum.Enum):
    """What a phase core reports back after handling a violation."""

    #: The phase is over (guess interval empty / guard tripped / output no
    #: longer witnessable): the monitor must re-probe and re-dispatch.
    RESTART = enum.auto()


class PhaseCore(ABC):
    """One phase of a competitive algorithm (fixed output, shrinking guess)."""

    def __init__(self, channel: Channel, k: int, eps: float) -> None:
        self.channel = channel
        self.k = k
        self.eps = eps

    @abstractmethod
    def start(self) -> None:
        """Assign the phase's initial filters (must contain current values
        *or* be resolved by :meth:`handle` within the same time step)."""

    @abstractmethod
    def handle(self, violation: Violation) -> PhaseOutcome | None:
        """Process one violation; ``RESTART`` ends the phase."""

    @abstractmethod
    def output(self) -> frozenset[int]:
        """The output set ``F(t)`` this core currently certifies."""


class PhasedMonitor(MonitoringAlgorithm):
    """Base class: probe → dispatch core → drain violations → repeat.

    Parameters
    ----------
    k:
        Number of top positions to monitor.
    eps:
        Allowed output error (``0 < eps < 1``; pass ``0.0`` only from the
        exact monitor subclass).
    detector:
        Violation-detection primitive; defaults to the Cor. 3.2
        existence-based detector.
    """

    def __init__(
        self,
        k: int,
        eps: float,
        *,
        detector: Callable[[Channel], Violation | None] | None = None,
    ) -> None:
        super().__init__()
        self.k = check_positive_int(k, "k")
        self.eps = check_epsilon(eps, allow_zero=True)
        self._detector = detector or detect_violation_existence
        self._core: PhaseCore | None = None
        self._phases = 0
        #: total filter-violations processed (for per-violation costs)
        self.violations_handled = 0

    # ------------------------------------------------------------------ #
    # Subclass interface
    # ------------------------------------------------------------------ #
    @abstractmethod
    def _dispatch(self, probe: list[tuple[int, float]]) -> PhaseCore:
        """Choose the phase core from a fresh top-(k+1) probe."""

    # ------------------------------------------------------------------ #
    # MonitoringAlgorithm interface
    # ------------------------------------------------------------------ #
    def on_start(self) -> None:
        check_k(self.k, self.channel.n)
        self._new_phase()
        self._drain()

    def on_step(self) -> None:
        self._drain()

    def output(self) -> frozenset[int]:
        if self._core is None:
            raise RuntimeError("monitor not started")
        return self._core.output()

    @property
    def phases(self) -> int:
        """Phases started so far (each implies ≥ 1 OPT message, per paper)."""
        return self._phases

    def quiet_step_rounds(self) -> int | None:
        # A violation-free on_step is one detector call that returns None:
        # the existence detector runs its γ+1 probability rounds with an
        # empty active set (no messages, no RNG draws); the direct detector
        # is one report round whose empty reply charges up(0) into an
        # already-present scope key.  Bisection broadcasts even when quiet,
        # so it opts out — as does any custom detector we cannot vouch for.
        if self._detector is detect_violation_existence:
            return self.channel.existence_rounds
        if self._detector is detect_violation_direct:
            return 1
        return None

    # ------------------------------------------------------------------ #
    # The loop
    # ------------------------------------------------------------------ #
    def _new_phase(self) -> None:
        self._phases += 1
        probe = top_m_probe(self.channel, self.k + 1)
        self._core = self._dispatch(probe)
        self._core.start()

    def _drain(self) -> None:
        """Settle the current time step: handle violations until silence."""
        assert self._core is not None
        for _ in range(MAX_SETTLE_ITERATIONS):
            violation = self._detector(self.channel)
            if violation is None:
                return
            self.violations_handled += 1
            if self._core.handle(violation) is PhaseOutcome.RESTART:
                self._new_phase()
        raise ProtocolError(
            f"{self.name}: no settlement after {MAX_SETTLE_ITERATIONS} iterations"
        )


def two_filter_groups(
    n: int, top_ids: np.ndarray, lower: float, upper: float
) -> list[tuple[np.ndarray, object]]:
    """The generic framework's filter layout (Sect. 3).

    ``F1 = [lower, ∞]`` for ``top_ids`` and ``F2 = [-∞, upper]`` for the
    rest; the paper writes ``[0, m]`` for F2 since its values are naturals
    — an unbounded lower end is equivalent there and also correct for the
    float-valued streams some transforms produce.
    """
    from repro.util.intervals import Interval

    top_ids = np.asarray(top_ids, dtype=np.int64)
    outside = np.ones(n, dtype=bool)
    outside[top_ids] = False
    rest = np.flatnonzero(outside)
    return [
        (rest, Interval.at_most(upper)),
        (top_ids, Interval.at_least(lower)),
    ]
