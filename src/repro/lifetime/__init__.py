"""Device lifetime: wear leveling, write amplification, aged sweeps.

The paper's Table-1 endurance budgets (Section 2.3) bound how many
program/erase cycles each medium survives; this package turns those
budgets into runnable capacity planning:

* :mod:`~repro.lifetime.wear` — dynamic / static wear-leveling
  policies layered on the FTL, with write-amplification accounting;
* :mod:`~repro.lifetime.aging` — deterministic fast-forward of a
  device to a fraction of rated lifetime (pre-worn ledger, retired
  blocks, age-coupled ECC/die fault rates);
* :mod:`~repro.lifetime.sweep` — the ``python -m repro lifetime``
  exhibit: config x media kind x age, reporting bandwidth, p99
  latency, WAF and wear spread.
"""

from .aging import AgingSpec, aged_faults, block_wear, install_age
from .sweep import (
    DEFAULT_AGES,
    LIFETIME_KINDS,
    LIFETIME_LABELS,
    LifetimeCellResult,
    LifetimeSweepReport,
    lifetime_sweep,
)
from .wear import WEAR_POLICIES, WearFTL, WearPolicy

__all__ = [
    "AgingSpec",
    "aged_faults",
    "block_wear",
    "install_age",
    "DEFAULT_AGES",
    "LIFETIME_KINDS",
    "LIFETIME_LABELS",
    "LifetimeCellResult",
    "LifetimeSweepReport",
    "lifetime_sweep",
    "WEAR_POLICIES",
    "WearFTL",
    "WearPolicy",
]
