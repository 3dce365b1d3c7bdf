"""Planner guardrails and the scheduler's planned-lane contract.

The planner must refuse — loudly, with :class:`BatchUnsupported` —
anything the static columnar plan cannot express, because a silent
mis-plan would corrupt numbers instead of falling back.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch.plan import BatchUnsupported, plan_cell, stack_plans
from repro.experiments.runner import Workload
from repro.ssd.request import OpCode
from repro.ssd.scheduler import TransactionScheduler, TxnSlice
from tests.oracles.planned_ftl import PlannedFTL

KiB = 1024
TINY = Workload(panels=2, panel_bytes=256 * KiB)


def test_plan_cell_produces_lanes():
    plan = plan_cell("CNL-EXT4", "SLC", TINY, 1013)
    stacked = stack_plans([plan])
    assert stacked == plan.n > 0
    for lane in ("main", "peak"):
        cols = plan.lane(lane)
        assert len(cols.op) == plan.n
        assert bool((cols.op == OpCode.READ).all())
        # decode invariants: channel/package/die within geometry
        geom = plan.path.device.geom
        assert int(cols.chan.max()) < geom.channels
        assert int(cols.pkg.max()) < geom.packages
        assert int(cols.die.max()) < geom.dies
    # the peak lane sees an infinite bus: transfer times collapse to 0
    assert int(plan.lane("peak").fb.max()) == 0
    assert int(plan.lane("peak").hb.max()) == 0


def test_impossible_workload_fails_exactly_like_scalar():
    """An over-capacity workload is not a planner limitation — the
    scalar path rejects it with the same typed error, so the planner
    lets it propagate instead of raising :class:`BatchUnsupported`
    (which would route the cell into a fallback that fails anyway)."""
    from repro.experiments.runner import run_config
    from repro.ssd.ftl import FTLError

    huge = Workload(panels=2, panel_bytes=1 << 40)  # 2 TiB > any device
    with pytest.raises(FTLError):
        plan_cell("CNL-EXT4", "SLC", huge, 1013)
    with pytest.raises(FTLError):
        run_config("CNL-EXT4", "SLC", huge, seed=1013)


def test_planned_ftl_is_stateless_passthrough():
    plan = _stacked_plan()
    ftl = PlannedFTL(n_logical_pages=128, page_bytes=4096, lane=plan.lane("main"))
    assert set(ftl.stats) == {
        "gc_runs", "gc_moved_pages", "host_writes_pages", "rmw_reads"
    }
    assert all(v == 0 for v in ftl.stats.values())
    ftl.preload(0)  # no-op by contract


def _stacked_plan():
    plan = plan_cell("CNL-EXT4", "SLC", TINY, 1013)
    stack_plans([plan])  # lanes read the stacked bases
    return plan


def _lane_scheduler():
    plan = _stacked_plan()
    dev = plan.path.device
    sched = TransactionScheduler(dev.geom, dev.bus, dev.host, kind=dev.kind)
    return sched, plan.lane("main")


def test_lane_submit_rejects_negative_arrival():
    sched, lane = _lane_scheduler()
    with pytest.raises(ValueError, match="negative arrival"):
        sched.submit(TxnSlice(lane, 0, 1), arrival=-1, req_id=0)


def test_lane_submit_empty_slice_is_noop():
    sched, lane = _lane_scheduler()
    assert sched.submit(TxnSlice(lane, 3, 3), arrival=42, req_id=0) == 42
    log = sched.finish()
    assert len(log) == 0
    assert set(log.columns) and all(
        isinstance(c, np.ndarray) for c in log.columns.values()
    )
