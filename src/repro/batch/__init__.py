"""Columnar batch kernel: many Table-2 cells in one numpy pass.

The scalar engine replays every matrix cell through the device's
command-by-command dispatch/translate pipeline.  For the pre-staged,
read-only OoC eigensolver workload the per-cell transaction streams
are *statically known* the moment the file system has laid the files
out: address translation is the identity striping installed by
:meth:`repro.ssd.ftl.DeviceFTL.preload`, no command mutates FTL state,
and every per-transaction quantity except the resource-timeline
recurrence is embarrassingly data-parallel.

This package exploits that: it pre-translates every cell's command
stream, evaluates address decode, latency-ladder lookups, bus/link
arithmetic and command-sharing discounts with numpy one cell at a
time, stacks the columns the replay reads into one (cell x txn) int64
block, and replays every cell's flow control through the controller's
own ``dispatch`` generator and the scheduler's block recurrence in
lockstep.  As each cell's main lane finishes, mid-lockstep, its log is
assembled, measured by the metrics pass that also measures every scalar
replay (:func:`repro.ssd.metrics.compute_metrics`) and dropped with
the lane's recorded ends, while the other cells step on.

Golden tests assert :class:`~repro.ssd.metrics.RunMetrics` equality
between the batch and the scalar backend for all 52 Table-2 cells.

Fallback contract: anything the columnar plan cannot express — write or
trim commands, cold (unmapped) reads, fault injection, non-FIFO queue
policies — raises
:class:`BatchUnsupported` at plan time and the cell runs on the scalar
backend instead, bit-for-bit unchanged.
"""

from .backend import BatchReport, run_cells_batch
from .plan import BatchUnsupported, CellPlan, plan_cell, stack_plans

__all__ = [
    "BatchReport",
    "BatchUnsupported",
    "CellPlan",
    "plan_cell",
    "run_cells_batch",
    "stack_plans",
]
