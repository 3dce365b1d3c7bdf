"""Batch backend: plan, stack, replay and measure many cells at once.

Per cell the scalar path pays two full replays (main + unconstrained
peak), two FTL preloads, two command-stream translations, two complete
metrics passes (each containing its own pattern-peak re-schedule) and a
tuple round-trip per command.  The batch backend pays one vectorized
plan, one stacked pre-pass shared by the whole matrix, two slim replays
(flow control + recurrence only), and one stacked metrics pass; the
peak replay produces its aggregate bandwidth straight from the log.

Caching matches :func:`repro.experiments.runner.run_config`: the peak
replay is served from / recorded into ``ResultCache`` per cell, and the
returned :class:`ConfigResult` objects carry ``backend="batch"`` so the
cell cache records provenance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..experiments.runner import ConfigResult, Workload, emit_replay_spans
from ..obs import trace as obs
from ..ssd.scheduler import TxnLog
from .metrics import compute_metrics_batch
from .plan import BatchUnsupported, CellPlan, plan_cell, stack_plans
from .scheduler import replay_lane

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..experiments.cache import ResultCache

__all__ = ["BatchReport", "run_cells_batch"]

Cell = tuple[str, str]


@dataclass
class BatchReport:
    """What the batch backend did with one set of cells."""

    planned: list[Cell] = field(default_factory=list)
    #: cell -> BatchUnsupported reason; these must run on the scalar path
    fallback: dict[Cell, str] = field(default_factory=dict)
    #: per-cell wall seconds (plan + replays + amortized stacked passes)
    seconds: dict[Cell, float] = field(default_factory=dict)
    stacked_rows: int = 0
    stack_seconds: float = 0.0
    metrics_seconds: float = 0.0


def _aggregate_mb(log: TxnLog) -> float:
    """Aggregate bandwidth of a finished log, as compute_metrics reports."""
    if len(log) == 0:
        return 0.0
    payload = int(log["nbytes"][log["kind_code"] == 0].sum())
    makespan = int(log["done"].max() - log["arrival"].min())
    bw = payload * 1e9 / makespan if makespan > 0 else 0.0
    return bw / 1e6


def run_cells_batch(
    cells: list[Cell],
    workload: Workload,
    seed: int,
    with_remaining: bool = True,
    cache: Optional["ResultCache"] = None,
    keep_metrics: bool = False,
) -> tuple[dict[Cell, ConfigResult], BatchReport]:
    """Run ``cells`` (label, kind_name pairs) on the columnar kernel.

    Returns the results for every cell the plan could express, plus a
    report naming the cells that must fall back to the scalar engine
    (and why).  Results are bit-identical to ``run_config`` — golden
    tests enforce :class:`~repro.ssd.metrics.RunMetrics` equality.
    """
    results: dict[Cell, ConfigResult] = {}
    report = BatchReport()
    plans: list[CellPlan] = []
    secs: dict[Cell, float] = {}
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

    peaks: dict[Cell, float] = {}
    lane_items = []
    replayed: list[CellPlan] = []
    for plan in plans:
        cell = (plan.label, plan.kind_name)
        # re-consult the cache per cell, exactly as run_config does: a
        # concurrent run sharing this cache may have finished the cell
        # since the caller's up-front scan
        if cache is not None and not keep_metrics:
            hit = cache.get_cell(
                plan.label, plan.kind_name, workload, seed, with_remaining,
                faults=None,
            )
            if hit is not None:
                results[cell] = hit
                report.seconds[cell] = secs[cell]
                continue
        t0 = time.perf_counter()
        device = plan.path.device
        main_log = replay_lane(plan, "main")
        if with_remaining:
            peak = None
            if cache is not None:
                peak = cache.get_peak(plan.label, plan.kind_name, workload, seed)
            if peak is None:
                peak = _aggregate_mb(replay_lane(plan, "peak"))
                if cache is not None:
                    cache.put_peak(plan.label, plan.kind_name, workload, seed, peak)
            peaks[cell] = peak
        lane_items.append((main_log, device.geom, device.kind))
        replayed.append(plan)
        cell_seconds = time.perf_counter() - t0
        secs[cell] += cell_seconds
        if tr is not None:
            tr.wall_event("scheduler", f"{plan.label}|{plan.kind_name}",
                          cell_seconds)
    if not replayed:
        return results, report

    t0 = time.perf_counter()
    metrics_list = compute_metrics_batch(lane_items)
    report.metrics_seconds = time.perf_counter() - t0
    if tr is not None:
        tr.wall_event(
            "metrics", "stacked_metrics", report.metrics_seconds,
            cells=len(replayed),
        )
    shared = (report.stack_seconds + report.metrics_seconds) / len(replayed)

    for plan, m in zip(replayed, metrics_list):
        cell = (plan.label, plan.kind_name)
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
        secs[cell] += shared
        report.seconds[cell] = secs[cell]
        if tr is not None:
            emit_replay_spans(tr, plan.label, plan.kind_name, m)
    return results, report
