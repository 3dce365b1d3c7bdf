"""PAQ-style physically addressed queueing (the paper's ref. [22]).

Section 4.1: "we utilize queuing optimizations within NANDFlashSim as
discussed in [Physically Addressed Queueing, ISCA '12], to refine our
findings for future NVM devices."  PAQ's idea: the device queue knows
each pending transaction's *physical* target, so instead of issuing in
arrival order — where consecutive transactions often collide on the
same die while other dies idle — it dispatches conflict-free
transactions first.

:func:`reorder_die_round_robin` is the stateless reordering the
controller's ``paq`` queue policy applies: transactions are grouped per
die (preserving each die's internal order and multi-plane groups) and
re-emitted round-robin across dies, so a fragmented pattern that
happens to queue several operations on one die no longer serializes
the batch.

Reordering is only applied to read-only batches: mixed batches may
carry FTL-internal dependencies (a GC relocation's read must precede
its write), which arrival order preserves.
"""

from __future__ import annotations

import numpy as np

from .ftl import FLAT, GROUP, OP
from .geometry import Geometry
from .request import OpCode

__all__ = ["reorder_die_round_robin"]


def reorder_die_round_robin(txns: np.ndarray, geom: Geometry) -> np.ndarray:
    """Reorder a read batch so dispatch alternates across dies.

    ``txns`` is a transaction block (:data:`~repro.ssd.ftl.TXN_COLUMNS`).
    Per-die order is preserved (so the FTL's intent is kept) and
    multi-plane groups stay adjacent (they are one physical command).
    Batches containing writes or erases are returned unchanged —
    arrival order may encode dependencies there.

    Rows chunk into atomic units — a multi-plane group moves as one,
    every other row alone — and the units are emitted in rounds: each
    round takes the next unit of every die that has one left, dies in
    order of first appearance.
    """
    if (txns[:, OP] != OpCode.READ).any():
        return txns
    n = len(txns)
    group = txns[:, GROUP]
    start = np.ones(n, dtype=bool)
    start[1:] = (group[1:] < 0) | (group[1:] != group[:-1])
    firsts = np.flatnonzero(start)
    lens = np.diff(firsts, append=n)
    die = txns[firsts, FLAT] % geom.plane_units // geom.planes_per_die
    # each die's rank by first appearance, and each unit's round: how
    # many units of its die precede it
    _, first_unit, die_of_unit = np.unique(die, return_index=True, return_inverse=True)
    die_rank = np.argsort(np.argsort(first_unit))[die_of_unit]
    by_die = np.argsort(die_of_unit, kind="stable")
    die_sorted = die_of_unit[by_die]
    run_start = np.flatnonzero(np.r_[True, die_sorted[1:] != die_sorted[:-1]])
    counts = np.diff(run_start, append=len(die))
    rounds = np.empty(len(die), dtype=np.int64)
    rounds[by_die] = np.arange(len(die)) - np.repeat(run_start, counts)
    units = np.lexsort((die_rank, rounds))
    # expand the unit order to rows
    ulen = lens[units]
    offset = np.repeat(firsts[units] - (np.cumsum(ulen) - ulen), ulen)
    return txns[offset + np.arange(n)]
