"""Discrete-event simulation substrate (engine, resources, statistics).

The engine models cluster-level behaviour (networks, services,
middleware); the NVM transaction path uses the specialized scheduler in
:mod:`repro.ssd.scheduler`.  Both use an integer-nanosecond clock.
"""

from .engine import Event, Interrupt, Process, Simulator
from .resources import Container, Resource, Store
from .stats import RateMeter, Tally, TimeWeighted, percentile

__all__ = [
    "Event",
    "Interrupt",
    "Process",
    "Simulator",
    "Container",
    "Resource",
    "Store",
    "RateMeter",
    "Tally",
    "TimeWeighted",
    "percentile",
]
