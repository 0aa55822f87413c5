"""The monitoring service layer: long-lived sessions over the model core.

The paper's algorithms are *continuous* monitors — the server must be
able to answer the top-k query at every step of an unbounded stream.
This package hosts them that way:

- :mod:`repro.service.algorithms` — algorithm slugs → monitor factories
  (the algorithm-side twin of :mod:`repro.streams.registry`).
- :mod:`repro.service.session` — :class:`Session`: one incremental run,
  fed in batches, queryable at any time, checkpoint/resumable; and
  :class:`SessionBatch`: the feeds of many same-cohort sessions served
  as one tick (one executor hop over each session's own serial feed).
- :mod:`repro.service.wire` — the wire protocols: v1 JSON lines and
  the v2 binary framing (raw float64/blob payloads, ``hello``
  negotiation), shared by every peer.
- :mod:`repro.service.server` — the asyncio TCP server hosting many
  concurrent sessions.
- :mod:`repro.service.shard` — sharded serving: a supervisor process
  consistent-hashing sessions onto N shared-nothing worker processes
  (same wire protocols; v2 session frames are spliced through the
  supervisor undecoded; scales with cores).
- :mod:`repro.service.client` — async + sync client libraries, with
  windowed feed pipelining over either framing.
- :mod:`repro.service.loadgen` — workload replay against a live server,
  with throughput reporting.
- :mod:`repro.service.cli` — the ``serve`` / ``loadgen`` subcommands of
  ``python -m repro.experiments``.

Quickstart (in-process; see examples/service_quickstart.py for the
served version)::

    from repro.service import Session, SessionConfig

    session = Session(SessionConfig(
        algorithm="approx-monitor", n=32, k=4, eps=0.1, seed=7,
    ))
    session.feed(block)            # any (B, 32) chunk of observations
    session.output()               # current F(t)
    session.cost().messages        # total communication so far
    blob = session.snapshot()      # checkpoint ...
    resumed = Session.restore(blob)  # ... and continue bit-identically
"""

from repro.service.algorithms import AlgorithmParamError, make_algorithm
from repro.service.client import AsyncServiceClient, ServiceClient, ServiceError
from repro.service.server import MonitoringServer
from repro.service.session import Session, SessionBatch, SessionConfig, SnapshotError
from repro.service.shard import ShardedMonitoringServer, ShardError, ShardRing

__all__ = [
    "AlgorithmParamError",
    "AsyncServiceClient",
    "MonitoringServer",
    "ServiceClient",
    "ServiceError",
    "Session",
    "SessionBatch",
    "SessionConfig",
    "ShardError",
    "ShardRing",
    "ShardedMonitoringServer",
    "SnapshotError",
    "make_algorithm",
]
