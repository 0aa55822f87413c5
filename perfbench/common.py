"""Shared helpers: seeds, statistics, memory, and the correctness checks.

The checks here are the benchmark's own referee.  They never trust the
program under test for the answer:

- :func:`invalid_outputs` re-derives, for every recorded step, whether
  ``F(t)`` is a valid ε-top-k set of that step's values, using the
  Section-2 definitions of :mod:`repro.model.invariants`;
- :func:`finalize_mismatch` compares a served session's ``finalize``
  summary with an in-process :class:`~repro.service.session.Session`
  twin fed the same blocks.
"""

from __future__ import annotations

import math
import resource
import socket
import statistics
import time
from typing import Iterable, Sequence

import numpy as np

from repro.model.invariants import output_valid

__all__ = [
    "HostProbe",
    "Problems",
    "derive_seed",
    "finalize_mismatch",
    "geomean",
    "invalid_outputs",
    "peak_rss_mb",
    "percentile",
    "windowed_percentile",
]


def derive_seed(seed: int, *tags: object) -> int:
    """A 32-bit seed that depends only on ``seed`` and the tags' text."""
    words = [int(seed)] + [int.from_bytes(str(tag).encode(), "little") % 2**32 for tag in tags]
    return int(np.random.SeedSequence(words).generate_state(1)[0])


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of ``values``."""
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def windowed_percentile(values: Sequence[float], q: float, window: int = 1000) -> float:
    """Median over consecutive ``window``-sample windows of each window's percentile.

    ``values`` are in time order.  The host this was tuned on stalls a
    vCPU for ~10 ms a few times a minute; one such episode moves a whole
    run's p99 by 2-5x but only one window's.  Windows of 1000 samples
    keep ten samples beyond a p99.  Fewer samples than one window give
    the plain percentile.
    """
    count = len(values) // window
    if count < 2:
        return percentile(values, q)
    return statistics.median(
        percentile(values[i * window : (i + 1) * window], q) for i in range(count)
    )


#: :class:`HostProbe` on the reference machine in its fast phase.
HOST_REFERENCE_S = 0.0006


class HostProbe:
    """Time of a fixed number of TCP loopback round trips, now.

    On a shared host each vCPU runs at up to 2.5x below its fast speed
    for seconds to minutes at a time;
    ``HOST_REFERENCE_S / probe()`` scales a timing taken beside the
    probe to the reference speed.  The probe is no code of the program
    under test: 100 round trips of 512 bytes over a connected loopback
    pair of its own, in the calling thread, best of three.  Its work
    (interpreter, syscalls, the kernel's socket path) resembles both
    the served workloads' and, less closely, the engine's; on the
    reference host it tracked both better than a pure interpreter and
    small-array kernel did.  Per-instance timings of repeated engine
    passes scaled by it varied 0.08-0.12 (coefficient of variation;
    unscaled 0.14-0.22, scaled by that kernel 0.09-0.16), and ten
    consecutive 20 s stretches of serve-fanin, scaled chunk by chunk,
    spread 0.03 in steps/s and 0.06 in median feed latency (unscaled
    0.13 and 0.18, scaled by that kernel 0.06 and 0.13).
    """

    def __init__(self, round_trips: int = 100, size: int = 512) -> None:
        self._message = b"x" * size
        self._round_trips = round_trips
        with socket.create_server(("127.0.0.1", 0)) as listener:
            self._a = socket.create_connection(listener.getsockname())
            self._b, _ = listener.accept()
        for end in (self._a, self._b):
            end.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def __call__(self) -> float:
        a, b, message = self._a, self._b, self._message
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(self._round_trips):
                a.sendall(message)
                _recv_exactly(b, len(message))
                b.sendall(message)
                _recv_exactly(a, len(message))
            best = min(best, time.perf_counter() - start)
        return best

    def close(self) -> None:
        self._a.close()
        self._b.close()


def _recv_exactly(end: socket.socket, size: int) -> None:
    while size:
        data = end.recv(size)
        if not data:
            raise ConnectionError("loopback probe peer closed")
        size -= len(data)


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive values."""
    logs = [math.log(v) for v in values]
    return math.exp(statistics.fmean(logs)) if logs else 0.0


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size in MB of ``pid`` (default: this process)."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


class Problems:
    """Collects correctness failures; keeps the first few messages."""

    def __init__(self, keep: int = 8) -> None:
        self.count = 0
        self.messages: list[str] = []
        self._keep = keep

    def add(self, message: str) -> None:
        self.count += 1
        if len(self.messages) < self._keep:
            self.messages.append(message)

    def __bool__(self) -> bool:
        return self.count > 0


def invalid_outputs(
    values: np.ndarray, outputs: np.ndarray | Sequence[Iterable[int]], k: int, eps: float
) -> list[str]:
    """Steps whose recorded ``F(t)`` is not a valid ε-top-k set.

    ``values`` is the ``(T, n)`` matrix the run consumed and ``outputs``
    one node-id collection per step.  Returns one message per invalid
    step (empty when every step is valid).
    """
    if len(outputs) != values.shape[0]:
        return [f"{len(outputs)} recorded outputs for {values.shape[0]} steps"]
    bad = []
    for t, row in enumerate(outputs):
        ok, why = output_valid(values[t], k, eps, frozenset(int(i) for i in row))
        if not ok:
            bad.append(f"t={t}: {why}")
    return bad


#: ``finalize`` fields a served session must share with its twin.
TWIN_FIELDS = ("num_steps", "messages", "output_changes")


def finalize_mismatch(served: dict, twin) -> str | None:
    """``None`` when a served ``finalize`` summary equals the twin's result."""
    for name in TWIN_FIELDS:
        mine, theirs = served.get(name), getattr(twin, name)
        if mine != theirs:
            return f"{name}: served {mine!r} != in-process twin {theirs!r}"
    return None

