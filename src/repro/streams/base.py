"""The :class:`Trace` container and ground-truth helpers.

A trace is the materialized input of one run: a ``(T, n)`` float matrix,
row ``t`` holding the values every node observes at step ``t``.  Traces
are the engine's plainest :class:`~repro.model.engine.ValueSource` (they
ignore the node state) and also what the offline optimum is computed on —
OPT knows the whole matrix in advance, exactly as the paper's adversary
does.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.model.invariants import kth_largest
from repro.model.node import NodeArray

__all__ = ["Trace"]


class Trace:
    """An immutable ``(T, n)`` matrix of observations.

    Parameters
    ----------
    data:
        Array of shape ``(T, n)``; copied and made read-only.  Values must
        be finite; the paper's streams are naturals but floats are allowed
        (several transforms produce them).
    """

    def __init__(self, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError(f"trace must be 2-D (T, n), got shape {data.shape}")
        if data.shape[0] < 1 or data.shape[1] < 2:
            raise ValueError(f"trace needs T >= 1 and n >= 2, got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise ValueError("trace values must be finite")
        self._data = data.copy()
        self._data.setflags(write=False)

    # ------------------------------------------------------------------ #
    # ValueSource protocol
    # ------------------------------------------------------------------ #
    #: The whole matrix is shape- and finiteness-checked above, so the
    #: engine may skip its per-step delivery validation (fast path).
    prevalidated = True

    @property
    def n(self) -> int:
        """Number of nodes (columns)."""
        return self._data.shape[1]

    @property
    def num_steps(self) -> int:
        """Number of time steps (rows)."""
        return self._data.shape[0]

    def values(self, t: int, nodes: NodeArray) -> np.ndarray:  # noqa: ARG002 - trace ignores node state
        """Row ``t`` (the engine's per-step delivery)."""
        return self._data[t]

    def iter_blocks(self) -> Iterator[np.ndarray]:
        """The whole matrix as one block (as ``StreamingSource.iter_blocks``)."""
        yield self._data

    # ------------------------------------------------------------------ #
    # Raw access & ground truth (omniscient: for OPT, tests, analysis)
    # ------------------------------------------------------------------ #
    @property
    def data(self) -> np.ndarray:
        """The read-only ``(T, n)`` matrix."""
        return self._data

    @property
    def delta(self) -> float:
        """Δ — the largest value observed by any node (Sect. 2)."""
        return float(self._data.max())

    @property
    def min_value(self) -> float:
        """The smallest observed value."""
        return float(self._data.min())

    def kth_largest_series(self, k: int) -> np.ndarray:
        """``v_{π(k,t)}`` for every ``t`` (length ``T``)."""
        T, n = self._data.shape
        if not 1 <= k <= n:
            raise ValueError(f"k={k} out of range for n={n}")
        # k-th largest of each row via partition (vectorized over rows).
        part = np.partition(self._data, n - k, axis=1)
        return part[:, n - k].copy()

    def sigma_series(self, k: int, eps: float) -> np.ndarray:
        """``σ(t) = |K(t)|`` for every ``t`` (length ``T``).

        One vectorized pass over the matrix; equivalent to applying
        :func:`repro.model.invariants.sigma` row by row.
        """
        if not 0.0 <= eps < 1.0:
            raise ValueError(f"eps must be in [0,1), got {eps}")
        vk = self.kth_largest_series(k)
        lo = (1.0 - eps) * vk
        hi = vk / (1.0 - eps)
        near = (self._data >= lo[:, None]) & (self._data <= hi[:, None])
        return near.sum(axis=1).astype(np.int64)

    def sigma_max(self, k: int, eps: float) -> int:
        """``σ = max_t σ(t)`` — the paper's density parameter."""
        return int(self.sigma_series(k, eps).max())

    def kth_largest_at(self, t: int, k: int) -> float:
        """``v_{π(k,t)}`` at one step."""
        return kth_largest(self._data[t], k)

    def slice_steps(self, start: int, stop: int) -> "Trace":
        """A sub-trace of rows ``start..stop-1``."""
        return Trace(self._data[start:stop])

    def is_integral(self) -> bool:
        """True when every value is a (float-represented) integer."""
        return bool(np.all(self._data == np.round(self._data)))

    def has_distinct_columns(self) -> bool:
        """True when, at every step, all n node values are distinct.

        The exact Top-k problem assumes this (Sect. 2); use
        :func:`repro.streams.transforms.make_distinct` to enforce it.

        One sort per chunk of rows plus an adjacent-difference check —
        a duplicate in a row is exactly an equal adjacent pair after
        sorting that row.  Chunking bounds the scratch memory on very
        long traces.
        """
        T = self.num_steps
        chunk = max(1, min(T, (1 << 22) // self.n))
        for start in range(0, T, chunk):
            srt = np.sort(self._data[start : start + chunk], axis=1)
            if np.any(srt[:, 1:] == srt[:, :-1]):
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Trace(T={self.num_steps}, n={self.n}, Δ={self.delta:g})"
