"""engine-quiet and engine-chatty: the in-process library as a batch job.

Each (stream instance, algorithm) cell is driven through both public
entry points — ``MonitoringEngine.run()`` over the ``Trace`` and
``start`` / ``advance`` (fixed-size row blocks) / ``finalize`` — once
per pass; passes repeat until the run's seconds are spent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from common import (
    HOST_REFERENCE_S,
    HostProbe,
    Problems,
    derive_seed,
    geomean,
    invalid_outputs,
    peak_rss_mb,
    percentile,
)
from repro.model import MonitoringEngine
from repro.service import algorithms
from repro.streams import Trace, registry
from workloads import EngineSpec

__all__ = ["run_engine"]


@dataclass
class Cell:
    slug: str
    instance: int
    trace: Trace
    algorithm: str
    eps: float
    seed: int


@dataclass
class Pass:
    """Timings of one pass over every cell."""

    #: Per cell: seconds of the run() and of the advance() entry point.
    times: list[tuple[float, float]] = field(default_factory=list)
    #: Per cell: ``HOST_REFERENCE_S / probe()`` around its
    #: instance's cells; multiply the cell's times by it to get them at
    #: the reference host speed.
    scales: list[float] = field(default_factory=list)
    #: Per cell: seconds of each ``advance()`` call, in block order.
    latencies: list[list[float]] = field(default_factory=list)
    #: run() and advance() calls made
    calls: int = 0
    results: list[tuple] = field(default_factory=list)  # (run, advance) RunResults per cell


def generate(spec: EngineSpec, seed: int) -> tuple[list[tuple[str, int, Trace]], float]:
    """Every stream instance of ``spec``, and the generation time."""
    start = time.perf_counter()
    streams = []
    for slug, steps in spec.streams:
        for i in range(spec.instances):
            trace = registry.make(slug, steps, spec.n, rng=derive_seed(seed, slug, i))
            streams.append((slug, i, trace))
    return streams, time.perf_counter() - start


def make_cells(spec: EngineSpec, streams, seed: int) -> list[Cell]:
    cells = []
    for slug, i, trace in streams:
        for algorithm in spec.algorithms:
            eps = spec.eps if algorithms.get(algorithm).uses_eps else 0.0
            cells.append(Cell(slug, i, trace, algorithm, eps,
                              derive_seed(seed, "channel", slug, i, algorithm)))
    return cells


def _engine(cell: Cell, k: int, source) -> MonitoringEngine:
    return MonitoringEngine(
        source, algorithms.make_algorithm(cell.algorithm, k, cell.eps),
        k=k, eps=cell.eps, seed=cell.seed, n=cell.trace.n,
    )


def drive_run(cell: Cell, k: int):
    """The one-shot entry point; returns ``(result, seconds)``."""
    start = time.perf_counter()
    result = _engine(cell, k, cell.trace).run()
    return result, time.perf_counter() - start


def drive_advance(cell: Cell, k: int, block_rows: int, latencies: list[float]):
    """start / advance(blocks) / finalize; returns ``(result, seconds)``."""
    data = cell.trace.data
    start = time.perf_counter()
    engine = _engine(cell, k, None)
    engine.start(expect_steps=data.shape[0])
    for lo in range(0, data.shape[0], block_rows):
        block = data[lo : lo + block_rows]
        t0 = time.perf_counter()
        engine.advance(block)
        latencies.append(time.perf_counter() - t0)
    result = engine.finalize()
    return result, time.perf_counter() - start


def one_pass(cells: list[Cell], spec: EngineSpec, keep_results: bool, probe: HostProbe) -> Pass:
    """Both entry points of every cell, each instance's cells between two host probes."""
    out = Pass()
    host_before = probe()
    for index, cell in enumerate(cells):
        run_result, run_s = drive_run(cell, spec.k)
        latencies: list[float] = []
        advance_result, advance_s = drive_advance(cell, spec.k, spec.block_rows, latencies)
        out.times.append((run_s, advance_s))
        out.latencies.append(latencies)
        out.calls += 1 + len(latencies)
        if keep_results:
            out.results.append((run_result, advance_result))
        else:
            out.results.append((run_result.messages, advance_result.output_changes))
        following = cells[index + 1] if index + 1 < len(cells) else None
        if following is None or (following.slug, following.instance) != (cell.slug, cell.instance):
            host_after = probe()
            scale = HOST_REFERENCE_S / ((host_before + host_after) / 2)
            out.scales += [scale] * (len(out.times) - len(out.scales))
            host_before = host_after
    return out


def escalated_steps(engine: MonitoringEngine, rows: np.ndarray) -> int:
    """Untimed twin: rows on which some node leaves its filter (or step 0).

    ``engine`` is a started push-driven engine, advanced one row at a
    time.  The comparisons are the node array's own strict ones: a value
    equal to a filter bound is inside the filter.
    """
    nodes = engine.nodes
    escalated = 0
    for row in rows:
        if (
            engine.steps_done == 0
            or np.any(row < nodes.filter_lo)
            or np.any(row > nodes.filter_hi)
        ):
            escalated += 1
        engine.advance(row[None, :], prevalidated=True)
    return escalated


def check_cells(cells: list[Cell], first: Pass, passes: list[Pass], k: int, problems: Problems) -> None:
    """Twin, determinism and ε-validity checks (off the clock)."""
    for index, cell in enumerate(cells):
        name = f"{cell.slug}#{cell.instance}/{cell.algorithm}"
        run_result, advance_result = first.results[index]
        for field_name in ("num_steps", "messages", "output_changes"):
            a, b = getattr(run_result, field_name), getattr(advance_result, field_name)
            if a != b:
                problems.add(f"{name}: run() {field_name}={a} but advance() {field_name}={b}")
        if run_result.ledger.snapshot() != advance_result.ledger.snapshot():
            problems.add(f"{name}: run() and advance() ledgers differ")
        rows = run_result.outputs_array
        if rows is None or advance_result.outputs_array is None:
            problems.add(f"{name}: outputs were not recorded as a (T, k) array")
            continue
        if not np.array_equal(rows, advance_result.outputs_array):
            problems.add(f"{name}: run() and advance() recorded different F(t)")
        for bad in invalid_outputs(cell.trace.data, rows, k, cell.eps)[:2]:
            problems.add(f"{name}: invalid F(t) at {bad}")
        for later in passes:
            if later.results[index] != (run_result.messages, advance_result.output_changes):
                problems.add(f"{name}: a repeated pass gave different results")
                break


def run_engine(spec: EngineSpec, seed: int, seconds: float, trace: bool) -> dict:
    """One run of an engine workload; returns the report dict."""
    probe = HostProbe()
    try:
        return _run_engine(spec, seed, seconds, trace, probe)
    finally:
        probe.close()


def _run_engine(spec: EngineSpec, seed: int, seconds: float, trace: bool, probe: HostProbe) -> dict:
    setups, generate_s = [], []
    streams = None
    for _ in range(spec.setup_repeats):
        host_before = probe()
        start = time.perf_counter()
        streams, gen_s = generate(spec, seed)
        cells = make_cells(spec, streams, seed)
        _warm(cells, spec)
        elapsed = time.perf_counter() - start
        # At the reference host speed, like every engine timing.
        scale = HOST_REFERENCE_S / ((host_before + probe()) / 2)
        setups.append(elapsed * scale)
        generate_s.append(gen_s * scale)
    generated_steps = sum(trace_.num_steps for _, _, trace_ in streams)

    problems = Problems()
    passes = _passes(cells, spec, seconds / 2 if trace else seconds, probe, keep_first=True)
    first = passes[0]
    traced = _passes(cells, spec, seconds / 2, probe, keep_first=False) if trace else []
    check_cells(cells, first, passes[1:] + traced, spec.k, problems)

    attempted = sum(p.calls for p in passes + traced)
    messages: dict = {}
    for cell, (result, _) in zip(cells, first.results):
        counts = messages.setdefault((cell.slug, cell.instance), [0, 0])
        counts[0] += result.messages
        counts[1] += result.num_steps
    calls = _call_seconds(cells, passes)
    report = {
        "attempted": attempted,
        "failed": 0,
        "problems": problems,
        "metrics": {
            "steps_per_s": _steps_per_s(cells, passes),
            "messages_per_step": typical({key: m / t for key, (m, t) in messages.items()}),
            "feed_p50_ms": typical({key: 1e3 * percentile(v, 50) for key, v in calls.items()}),
            "feed_p90_ms": typical({key: 1e3 * percentile(v, 90) for key, v in calls.items()}),
            "setup_s": float(np.median(setups)),
            "peak_rss_mb": peak_rss_mb(),
        },
        "detail": {
            "feed_p99_ms": typical({key: 1e3 * percentile(v, 99) for key, v in calls.items()}),
            "passes": len(passes),
            "cells": len(cells),
            "advance_calls": sum(len(c) for p in passes for c in p.latencies),
            "host_scale": float(np.median([x for p in passes for x in p.scales])),
            "error_rate": 0.0,
        },
    }
    if trace:
        report["layers"] = _layers(spec, cells, first, passes, traced, generate_s, generated_steps)
    return report


def _passes(cells: list[Cell], spec: EngineSpec, seconds: float, probe: HostProbe,
            keep_first: bool) -> list[Pass]:
    """Passes over every cell until ``seconds`` are spent (at least one)."""
    deadline = time.perf_counter() + seconds
    passes = [one_pass(cells, spec, keep_first, probe)]
    while time.perf_counter() + sum(map(sum, passes[-1].times)) / 2 < deadline:
        passes.append(one_pass(cells, spec, False, probe))
    return passes


def typical(per_instance: dict) -> float:
    """Geometric mean over stream types of the median over their instances.

    A rare event in one instance (a ``walk`` crossing storm costs 15–25x
    the messages) moves the median little, so the figure describes the
    typical stream of each type rather than how many storms a seed drew.
    """
    by_type: dict[str, list[float]] = {}
    for (slug, _), value in per_instance.items():
        by_type.setdefault(slug, []).append(value)
    return geomean(float(np.median(values)) for values in by_type.values())


def _cell_seconds(passes: list[Pass], index: int, entry: int) -> float:
    """A cell entry's time at the reference host speed: median over passes."""
    return float(np.median([p.times[index][entry] * p.scales[index] for p in passes]))


def _steps_per_s(cells: list[Cell], passes: list[Pass]) -> float:
    """Steps/s of each instance's cells at the reference speed, then :func:`typical`."""
    work: dict = {}
    for index, cell in enumerate(cells):
        seconds = _cell_seconds(passes, index, 0) + _cell_seconds(passes, index, 1)
        steps_seconds = work.setdefault((cell.slug, cell.instance), [0, 0.0])
        steps_seconds[0] += 2 * cell.trace.num_steps
        steps_seconds[1] += seconds
    return typical({key: steps / seconds for key, (steps, seconds) in work.items()})


def _call_seconds(cells: list[Cell], passes: list[Pass]) -> dict:
    """Per instance: each ``advance()`` call's time at the reference speed."""
    out: dict = {}
    for index, cell in enumerate(cells):
        calls = out.setdefault((cell.slug, cell.instance), [])
        per_pass = [[t * p.scales[index] for t in p.latencies[index]] for p in passes]
        calls += [float(np.median(times)) for times in zip(*per_pass)]
    return out


def _warm(cells: list[Cell], spec: EngineSpec) -> None:
    """Exercise every algorithm's first-call paths on a short prefix."""
    seen = set()
    for cell in cells:
        if cell.algorithm in seen:
            continue
        seen.add(cell.algorithm)
        head = Cell(cell.slug, cell.instance, Trace(cell.trace.data[:64]), cell.algorithm, cell.eps, cell.seed)
        drive_run(head, spec.k)
        drive_advance(head, spec.k, 16, [])


def _layers(spec, cells, first, passes, traced, generate_s, generated_steps) -> dict:
    escalated = 0
    for cell in cells:
        engine = _engine(cell, spec.k, None)
        engine.start(expect_steps=cell.trace.num_steps)
        escalated += escalated_steps(engine, cell.trace.data)
    steps = sum(cell.trace.num_steps for cell in cells)
    snaps = [r.ledger.snapshot() for r, _ in first.results]
    run_s = sum(_cell_seconds(traced, i, 0) for i in range(len(cells)))
    advance_s = sum(_cell_seconds(traced, i, 1) for i in range(len(cells)))
    return {
        "streams.generate_us_per_step": 1e6 * float(np.median(generate_s)) / generated_steps,
        "engine.advance_us_per_step": 1e6 * advance_s / steps,
        "engine.run_us_per_step": 1e6 * run_s / steps,
        "engine.escalated_share": escalated / steps,
        "ledger.node_to_server_per_step": sum(s.node_to_server for s in snaps) / steps,
        "ledger.server_to_node_per_step": sum(s.server_to_node for s in snaps) / steps,
        "ledger.broadcasts_per_step": sum(s.broadcasts for s in snaps) / steps,
        "ledger.rounds_per_step": sum(s.rounds for s in snaps) / steps,
        "trace.overhead_x": _steps_per_s(cells, passes) / _steps_per_s(cells, traced),
    }
