"""Replay one of a planned cell's lanes on the stock scheduler.

:func:`~repro.batch.plan.stack_plans` pre-passes every planned row of
the matrix in one sweep and hands each cell a ``main`` and a ``peak``
lane.  :func:`replay_lane` points the cell's device at one of them:
the FTL becomes a :class:`~repro.batch.plan.PlannedFTL` whose
translations are :class:`~repro.ssd.scheduler.TxnSlice` windows of the
lane, so the controller's flow control and the stock
:class:`~repro.ssd.scheduler.TransactionScheduler` replay the cell
unchanged, minus the per-command pre-pass.  Metrics are deferred to
the stacked pass of :mod:`repro.batch.metrics`.
"""

from __future__ import annotations

from ..ssd.scheduler import TxnLog
from .plan import CellPlan, PlannedFTL

__all__ = ["replay_lane"]


def replay_lane(plan: CellPlan, lane: str) -> TxnLog:
    """Replay ``plan``'s ``"main"`` or ``"peak"`` lane; return its log.

    The peak lane leaves the device unconstrained for good, so replay
    it after the main lane.
    """
    device = plan.path.device
    if lane == "peak":
        device.unconstrain()
    device.ftl = PlannedFTL(
        device.ftl.n_logical_pages, device.geom.page_bytes, plan.lanes[lane]
    )
    device.defer_metrics = True
    return device.run(plan.groups, posix_window=plan.posix_window).log
