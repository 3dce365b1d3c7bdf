"""The metrics pass lives in :mod:`repro.ssd.metrics`."""

# re-exported only for the benchmark's wrap sites (perfbench/layers.py SITES)
from ..ssd.metrics import media_pattern_peak as pattern_peak_from_log

__all__ = ["pattern_peak_from_log"]
