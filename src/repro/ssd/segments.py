"""Segmented interval algebra: per-key union measures in one sweep.

The metrics pass (:mod:`repro.ssd.metrics`) needs union measures of
interval families for *every* (lane, resource) and (lane, request)
pair of any number of concatenated transaction logs at once, so this
module computes them with a single sort + running-maximum sweep over
all rows, keyed by a dense int64 segment id.

Everything stays in int64 (endpoints are exact nanoseconds), so the
per-key totals are exact; the float conversions happen only when the
metrics are assembled.  The metrics pass turns every "exclusive
measure" it reports into a difference of plain union measures, valid
because each subtrahend family is contained in the corresponding
minuend family (cell/fb/chb intervals of a transaction lie within its
own in-flight window).

Nested families (cell ⊂ cell∪fb ⊂ cell∪fb∪chb, media ⊂ host∪media)
share one sort: :func:`sorted_filter` sorts the outermost family and
returns the surviving original row ids, and a sorted *subset* of a
sorted sequence is still sorted, so the inner families are boolean
filters fed straight to :func:`measure_sorted`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["union_measure", "distinct_count", "sorted_filter", "measure_sorted"]


def sorted_filter(
    key: np.ndarray, start: np.ndarray, end: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Drop degenerate rows and sort by (key, start).

    Returns ``(ids, k, s, e)`` where ``ids`` are the original row
    indices in sorted order — callers carve nested sub-families out of
    one sort by masking on ``ids``.  Degenerate rows (``end <= start``)
    are dropped: they cover nothing.
    """
    keep = end > start
    if not keep.all():
        ids0 = np.flatnonzero(keep)
        key, start, end = key[ids0], start[ids0], end[ids0]
    else:
        ids0 = np.arange(len(key), dtype=np.int64)
    if len(key) == 0:
        return ids0, key, start, end
    # single composite-key sort: (key, start) packs into one int64 when
    # the spans allow (they always do for nanosecond timelines), halving
    # the sort cost vs a two-pass lexsort.  Ties are (key, start)-equal
    # rows, whose relative order cannot change the union measure.
    s_base = int(start.min())
    span = int(end.max()) - s_base + 1
    if int(key.max()) * span < 2**62:
        order = np.argsort(key * span + (start - s_base))
    else:  # pragma: no cover - astronomic timestamps
        order = np.lexsort((start, key))
    return ids0[order], key[order], start[order], end[order]


def measure_sorted(
    k: np.ndarray, s: np.ndarray, e: np.ndarray, n_keys: int
) -> np.ndarray:
    """Per-key union measure of rows already (key, start)-sorted.

    All rows must satisfy ``e > s`` (use :func:`sorted_filter`).  One
    global running maximum of ends computes every key's merged measure:
    segments are kept from bleeding into each other by lifting each
    segment onto its own disjoint value range (``end + seg * off`` with
    ``off`` wider than the global end spread), which preserves
    within-segment comparisons verbatim.
    """
    out = np.zeros(n_keys, dtype=np.int64)
    n = len(k)
    if n == 0:
        return out
    new = np.empty(n, dtype=bool)
    new[0] = True
    new[1:] = k[1:] != k[:-1]
    seg = np.cumsum(new) - 1
    off = int(e.max()) - int(e.min()) + 1
    n_segs = int(seg[-1]) + 1
    if n_segs * off >= 2**62:  # pragma: no cover - astronomic timestamps
        raise OverflowError("interval span too large for segmented sweep")
    # running max of ends up to-but-excluding each row, segment-local
    cummax = np.maximum.accumulate(e + seg * off) - seg * off
    prev = np.empty(n, dtype=np.int64)
    prev[0] = s[0]
    prev[1:] = cummax[:-1]
    base = np.maximum(prev, s)
    base[new] = s[new]  # first row of a segment counts in full
    added = np.maximum(e - base, 0)
    firsts = np.flatnonzero(new)
    out[k[firsts]] = np.add.reduceat(added, firsts)
    return out


def union_measure(
    key: np.ndarray, start: np.ndarray, end: np.ndarray, n_keys: int
) -> np.ndarray:
    """Per-key measure of the union of [start, end) intervals.

    Returns a dense int64 array of length ``n_keys`` (0 for keys with
    no intervals).  Convenience wrapper over :func:`sorted_filter` +
    :func:`measure_sorted` for standalone families.
    """
    _, k, s, e = sorted_filter(key, start, end)
    return measure_sorted(k, s, e, n_keys)


def distinct_count(key: np.ndarray, val: np.ndarray, n_keys: int) -> np.ndarray:
    """Number of distinct ``val`` values per key (dense int64 output)."""
    out = np.zeros(n_keys, dtype=np.int64)
    if len(key) == 0:
        return out
    order = np.lexsort((val, key))
    k = key[order]
    v = val[order]
    new = np.empty(len(k), dtype=bool)
    new[0] = True
    new[1:] = (k[1:] != k[:-1]) | (v[1:] != v[:-1])
    np.add.at(out, k[new], 1)
    return out
