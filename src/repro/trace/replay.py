"""Replay POSIX traces through a storage path (FS -> FTL -> SSD).

This is the pipeline of Section 4.2: the POSIX trace is "replayed
through a real file system in order to capture the device-level block
trace required for input to NANDFlashSim" — here the behavioural FS
model produces the block-level commands and the transaction scheduler
produces the timed device trace.

Multi-client replay (ION configurations) interleaves the clients'
command groups round-robin, sharing the device and the host path, and
reports per-client bandwidth the way the paper reports per-CN numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle, islice

import numpy as np

from ..core.architecture import StoragePath
from ..ssd.controller import ReplayResult
from ..ssd.request import CommandGroup
from .posix import PosixTrace

__all__ = ["replay", "ReplaySummary"]


@dataclass
class ReplaySummary:
    """Replay outcome with the paper's reporting conventions."""

    result: ReplayResult
    per_client_mb: dict[int, float]

    @property
    def bandwidth_mb(self) -> float:
        """Per-client (per-CN) bandwidth, averaged — Figure 7/8's metric."""
        if not self.per_client_mb:
            return 0.0
        return float(np.mean(list(self.per_client_mb.values())))

    @property
    def aggregate_mb(self) -> float:
        return self.result.metrics.bandwidth_mb

    @property
    def metrics(self):
        return self.result.metrics


def _interleave(per_client_groups: list[list[CommandGroup]]) -> list[CommandGroup]:
    """Round-robin merge of the clients' group streams.

    Single-pass ``itertools`` round-robin: exhausted clients drop out of
    the rotation instead of being rescanned every cycle, so the merge is
    O(total groups) even when client stream lengths are skewed.
    """
    merged: list[CommandGroup] = []
    append = merged.append
    num_active = len(per_client_groups)
    nexts = cycle(iter(groups).__next__ for groups in per_client_groups)
    while num_active:
        try:
            for nxt in nexts:
                append(nxt())
        except StopIteration:
            num_active -= 1
            nexts = cycle(islice(nexts, num_active))
    return merged


def replay(
    path: StoragePath,
    traces: list[PosixTrace] | PosixTrace,
    posix_window: int = 2,
    *,
    pattern_peak: bool = True,
) -> ReplaySummary:
    """Format, preload and replay one or more client traces.

    Each trace's ``client`` attribute must be unique; file sizes from
    all clients are merged into one layout (the shared data set).
    ``pattern_peak`` is passed to :meth:`SSDevice.run`.
    """
    if isinstance(traces, PosixTrace):
        traces = [traces]
    if len({t.client for t in traces}) != len(traces):
        raise ValueError("client ids must be unique across traces")

    file_sizes: dict[int, int] = {}
    for t in traces:
        for fid, size in t.file_sizes().items():
            file_sizes[fid] = max(file_sizes.get(fid, 0), size)
    path.format_and_preload(file_sizes)

    per_client_groups = [
        [path.fs.translate(req, client=t.client) for req in t] for t in traces
    ]
    groups = (
        per_client_groups[0]
        if len(per_client_groups) == 1
        else _interleave(per_client_groups)
    )
    result = path.device.run(
        groups, posix_window=posix_window, pattern_peak=pattern_peak
    )
    per_client_mb = {
        c: bw / 1e6 for c, bw in result.metrics.client_bandwidth.items()
    }
    return ReplaySummary(result=result, per_client_mb=per_client_mb)
