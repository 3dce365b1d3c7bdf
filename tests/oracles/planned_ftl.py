"""A stand-in FTL that replays planned commands through ``SSDevice.run``.

The batch backend never translates a planned command: the lockstep
replay reads the command's ``lo:hi`` window of a pre-passed lane
directly.  Installing :class:`PlannedFTL` on a device makes the stock
controller and :class:`~repro.ssd.scheduler.TransactionScheduler`
replay the same rows, which is the per-lane oracle the lockstep replay
is tested against.  The scheduler pre-passes each window on its own;
that equals the planner's whole-lane pre-pass, because multi-plane
command-cycle sharing never crosses a command.
"""

from __future__ import annotations

import numpy as np

from repro.batch.plan import PlannedCommand
from repro.ssd.request import DeviceCommand
from repro.ssd.scheduler import LaneCols


class PlannedFTL:
    """Translation is a window of ``lane``; the stats roll-up is zero,
    exactly what :class:`~repro.ssd.ftl.DeviceFTL` reports for a
    pure-read replay."""

    def __init__(self, n_logical_pages: int, page_bytes: int, lane: LaneCols):
        self.n_logical_pages = n_logical_pages
        self.page_bytes = page_bytes
        self.lane = lane
        self.stats = {
            "gc_runs": 0,
            "gc_moved_pages": 0,
            "host_writes_pages": 0,
            "rmw_reads": 0,
        }

    def preload(self, nbytes: int) -> None:
        pass

    def translate(self, cmd: DeviceCommand) -> np.ndarray:
        """Rows ``lo:hi`` of the lane's transaction columns, as the
        int64 ``(n, 5)`` block of :data:`~repro.ssd.ftl.TXN_COLUMNS`."""
        assert isinstance(cmd, PlannedCommand), "planned FTL needs planned commands"
        lane, rows = self.lane, slice(cmd.lo, cmd.hi)
        cols = (lane.op, lane.flat, lane.nbytes, lane.group, lane.pib)
        return np.stack([col[rows] for col in cols], axis=1).astype(np.int64)
