"""NVM media models: kinds (Table 1), buses, endurance."""

from .bus import DDR800, ONFI3_SDR400, BusSpec, bus_by_name
from .endurance import LifetimeEstimate, estimate_lifetime, gst_tracking_bytes, wear_report
from .kinds import KINDS, MLC, PCM, SLC, TLC, NVMKind, kind_by_name

__all__ = [
    "BusSpec",
    "ONFI3_SDR400",
    "DDR800",
    "bus_by_name",
    "LifetimeEstimate",
    "estimate_lifetime",
    "gst_tracking_bytes",
    "wear_report",
    "NVMKind",
    "SLC",
    "MLC",
    "TLC",
    "PCM",
    "KINDS",
    "kind_by_name",
]
