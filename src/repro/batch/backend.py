"""Batch backend: plan, stack, replay and measure many cells at once.

Per cell the scalar path pays two full replays (main + unconstrained
peak), two FTL preloads, two command-stream translations, a metrics
call per replay and a tuple round-trip per command.  The batch backend
pays one vectorized plan per cell, three narrow stacked input columns
per row (:func:`~repro.batch.plan.stack_plans`), and one lockstep
replay of every cell's main and peak lane (:mod:`repro.batch.scheduler`)
that derives each step's resource ids and link times; the peak lane
yields its aggregate bandwidth without a log.  Each main lane has a
``done`` hook, so it alone records its rows' four interval ends, and
is measured the moment its commands run out, inside the lockstep: its
rows are pre-passed, its log assembled from the ends by
:func:`~repro.ssd.scheduler.assemble_log` (the one builder of every
transaction log, the scalar path's included), measured by the metrics
pass and dropped with the ends, so the matrix holds one log at a time
and only the unfinished cells' ends.  The
metrics pass replays the media pattern peak only when the caller
keeps :class:`~repro.ssd.metrics.RunMetrics` (``keep_metrics=True``):
no :class:`ConfigResult` field reads it.

Caching matches :func:`repro.experiments.runner.run_cell`: the peak
replay is served from / recorded into ``ResultCache`` per cell, and the
returned :class:`ConfigResult` objects carry ``backend="batch"`` so the
cell cache records provenance.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..experiments.runner import Cell, ConfigResult, Workload, emit_replay_spans
from ..obs import trace as obs
from ..ssd.metrics import RunMetrics
# the benchmark's ``batch.metrics`` wrap site (perfbench/layers.py SITES)
# patches this name
from ..ssd.metrics import compute_metrics as compute_metrics_batch
from ..ssd.scheduler import assemble_log
from .plan import BatchUnsupported, CellPlan, plan_cell, stack_plans
from .scheduler import MainReplay, replay_plans

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..experiments.cache import ResultCache

__all__ = ["BatchReport", "run_cells_batch"]

Pair = tuple[str, str]  # (config label, kind name)


@dataclass
class BatchReport:
    """What the batch backend did with one set of cells."""

    planned: list[Pair] = field(default_factory=list)
    #: cell -> BatchUnsupported reason; these must run on the scalar path
    fallback: dict[Pair, str] = field(default_factory=dict)
    #: per-cell wall seconds: the cell's own plan time, its share of the
    #: stacked pre-pass (by planned rows) and of the lockstep replay (by
    #: rows stepped, the lockstep's wall time less the assembly and
    #: metrics run inside it), its own log assembly (counted as replay)
    #: and its own metrics call; they sum to the four phase totals below
    seconds: dict[Pair, float] = field(default_factory=dict)
    stacked_rows: int = 0
    plan_seconds: float = 0.0
    stack_seconds: float = 0.0
    replay_seconds: float = 0.0
    metrics_seconds: float = 0.0


def _shares(total: float, weights: list[int]) -> list[float]:
    """``total`` split in proportion to ``weights`` (evenly if all 0)."""
    w = sum(weights)
    if w == 0:
        return [total / len(weights)] * len(weights)
    return [total * x / w for x in weights]


def run_cells_batch(
    cells: list[Pair],
    workload: Workload,
    seed: int,
    with_remaining: bool = True,
    cache: Optional["ResultCache"] = None,
    keep_metrics: bool = False,
) -> tuple[dict[Pair, ConfigResult], BatchReport]:
    """Run ``cells`` (label, kind_name pairs) on the columnar kernel.

    Returns the results for every cell the plan could express, plus a
    report naming the cells that must fall back to the scalar engine
    (and why).  Each cell's log is assembled and measured as its main
    lane finishes, mid-lockstep, and only its
    :class:`~repro.ssd.metrics.RunMetrics` outlive the hook; the
    :class:`ConfigResult` objects are built once the peak lanes are
    done.  Results are bit-identical to ``run_config`` — golden tests
    enforce :class:`~repro.ssd.metrics.RunMetrics` equality.
    """
    results: dict[Pair, ConfigResult] = {}
    report = BatchReport()
    plans: list[CellPlan] = []
    secs: dict[Pair, float] = {}
    tr = obs.tracer()

    plan_t0 = time.perf_counter()
    for label, kind_name in cells:
        cell = (label, kind_name)
        t0 = time.perf_counter()
        try:
            plan = plan_cell(label, kind_name, workload, seed)
        except BatchUnsupported as exc:
            report.fallback[cell] = str(exc)
            continue
        secs[cell] = time.perf_counter() - t0
        plans.append(plan)
        report.planned.append(cell)
    report.plan_seconds = sum(secs.values())
    if tr is not None and cells:
        tr.wall_event(
            "ftl", "plan_cells", time.perf_counter() - plan_t0,
            planned=len(plans), fallback=len(report.fallback),
        )
    if not plans:
        return results, report

    t0 = time.perf_counter()
    report.stacked_rows = stack_plans(plans)
    report.stack_seconds = time.perf_counter() - t0
    if tr is not None:
        tr.wall_event(
            "ftl", "stack_plans", report.stack_seconds,
            rows=report.stacked_rows,
        )
    stack_shares = _shares(report.stack_seconds, [p.n for p in plans])
    for i, cell in enumerate(report.planned):
        secs[cell] += stack_shares[i]

    peaks: dict[Pair, float] = {}
    replayed: list[CellPlan] = []
    ident: dict[Pair, Cell] = {}
    for plan in plans:
        cell = (plan.label, plan.kind_name)
        ident[cell] = Cell(*cell, workload, seed, with_remaining)
        # re-consult the cache per cell, exactly as run_cell does: a
        # concurrent run sharing this cache may have finished the cell
        # since the caller's up-front scan
        if cache is not None and not keep_metrics:
            hit = cache.get_cell(ident[cell])
            if hit is not None:
                results[cell] = hit
                report.seconds[cell] = secs[cell]
                continue
        if with_remaining and cache is not None:
            peak = cache.get_peak(ident[cell])
            if peak is not None:
                peaks[cell] = peak
        replayed.append(plan)
    if not replayed:
        return results, report

    with_peak = [
        with_remaining and (p.label, p.kind_name) not in peaks for p in replayed
    ]
    # each main lane is measured as it finishes: its log exists only
    # while it is measured, and its recorded ends are freed before the
    # next cell's lane finishes; (assembly, metrics) seconds per cell
    hook_seconds: dict[Pair, tuple[float, float]] = {}

    def measure(main: MainReplay) -> RunMetrics:
        plan = main.plan
        t0 = time.perf_counter()
        log = assemble_log(plan.lane("main"), main.meta, main.ends)
        t1 = time.perf_counter()
        # the pattern peak only feeds RunMetrics, so it is replayed
        # only when the caller keeps them
        m = compute_metrics_batch(
            log, plan.path.device.geom, plan.path.device.kind,
            pattern_peak=keep_metrics,
        )
        hook_seconds[(plan.label, plan.kind_name)] = (
            t1 - t0, time.perf_counter() - t1,
        )
        return m

    t0 = time.perf_counter()
    measured, replay_peaks = replay_plans(replayed, with_peak, measure)
    # the in-hook assembly and metrics are each cell's own, not the
    # lockstep's
    lockstep_seconds = (
        time.perf_counter() - t0 - math.fsum(map(sum, hook_seconds.values()))
    )
    for plan, peak in zip(replayed, replay_peaks):
        if peak is not None:
            peaks[(plan.label, plan.kind_name)] = peak
            if cache is not None:
                cache.put_peak(ident[(plan.label, plan.kind_name)], peak)
    # the lockstep is shared: split it by rows stepped on the main and
    # peak lanes
    lockstep_shares = _shares(
        lockstep_seconds, [p.n * (1 + peak) for p, peak in zip(replayed, with_peak)]
    )

    for i, plan in enumerate(replayed):
        cell = (plan.label, plan.kind_name)
        m = measured[i]
        assemble_seconds, measure_seconds = hook_seconds[cell]
        replay_share = lockstep_shares[i] + assemble_seconds
        report.replay_seconds += replay_share
        report.metrics_seconds += measure_seconds

        per_client_mb = {c: bw / 1e6 for c, bw in m.client_bandwidth.items()}
        bandwidth_mb = (
            float(np.mean(list(per_client_mb.values()))) if per_client_mb else 0.0
        )
        aggregate_mb = m.bandwidth_mb
        remaining = (
            max(0.0, peaks[cell] - aggregate_mb) if with_remaining else 0.0
        )
        results[cell] = ConfigResult(
            label=plan.label,
            kind=plan.kind_name,
            bandwidth_mb=bandwidth_mb,
            aggregate_mb=aggregate_mb,
            remaining_mb=remaining,
            channel_utilization=m.channel_utilization,
            package_utilization=m.package_utilization,
            breakdown=dict(m.breakdown),
            parallelism=dict(m.parallelism),
            metrics=m if keep_metrics else None,
            faults=None,
            backend="batch",
        )
        report.seconds[cell] = secs[cell] + replay_share + measure_seconds
        if tr is not None:
            name = f"{plan.label}|{plan.kind_name}"
            tr.wall_event("scheduler", name, replay_share)
            tr.wall_event("metrics", name, measure_seconds)
            emit_replay_spans(tr, ident[cell], m)
    return results, report
