"""SSD models: geometry, FTL, transaction scheduling, metrics."""

from .controller import ReplayResult, SSDevice
from .ftl import TXN_COLUMNS, DeviceFTL, FTLError
from .geometry import PAPER_GEOMETRY_KW, Geometry, PhysAddr
from .metrics import (
    BREAKDOWN_KEYS,
    PAL_KEYS,
    RunMetrics,
    compute_metrics,
    media_pattern_peak,
)
from .queueing import reorder_die_round_robin
from .request import CommandGroup, DeviceCommand, OpCode, PosixRequest
from .scheduler import TransactionScheduler, TxnLog

__all__ = [
    "Geometry",
    "PhysAddr",
    "PAPER_GEOMETRY_KW",
    "DeviceFTL",
    "FTLError",
    "TXN_COLUMNS",
    "TransactionScheduler",
    "TxnLog",
    "RunMetrics",
    "compute_metrics",
    "media_pattern_peak",
    "BREAKDOWN_KEYS",
    "PAL_KEYS",
    "SSDevice",
    "ReplayResult",
    "reorder_die_round_robin",
    "CommandGroup",
    "DeviceCommand",
    "OpCode",
    "PosixRequest",
]
