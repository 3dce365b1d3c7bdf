"""A stand-in FTL that replays planned commands through ``SSDevice.run``.

The batch backend never translates a planned command: the lockstep
replay reads the command's ``lo:hi`` window of a pre-passed lane
directly.  Installing :class:`PlannedFTL` on a device makes the stock
controller and :class:`~repro.ssd.scheduler.TransactionScheduler`
replay the same windows, which is the per-lane oracle the lockstep
replay is tested against.
"""

from __future__ import annotations

from repro.batch.plan import PlannedCommand
from repro.ssd.request import DeviceCommand
from repro.ssd.scheduler import LaneCols, TxnSlice


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

    def translate(self, cmd: DeviceCommand) -> TxnSlice:
        assert isinstance(cmd, PlannedCommand), "planned FTL needs planned commands"
        return TxnSlice(self.lane, cmd.lo, cmd.hi)
