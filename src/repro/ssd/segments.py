"""Segmented interval algebra: per-key union measures in one sweep.

The metrics pass (:mod:`repro.ssd.metrics`) needs union measures of
interval families for *every* resource and request of a transaction
log at once, so this module computes them with a single sort +
running-maximum sweep over all rows, keyed by a dense int64 segment id.

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

:func:`coalesce` shrinks a family before that sort.  It groups the
rows by key with a stable radix sort (:func:`radix_order`), so each
key's rows stay in their original order, and merges every stretch of
rows whose starts do not decrease and each of which starts no later
than the previous row ends into one run ``[first start, max end)``.
Such a stretch covers exactly that run, whatever the rows look like,
so the runs have the same per-key union as the rows: the result is
exact for any input.  What it saves depends on the order.  A resource
that serializes its work in row order (a die's cell operations, a
package's flash bus, a channel, a host link) emits disjoint intervals
in start order, and every back-to-back pair of them merges.

:func:`merge_sorted` returns a sorted family's canonical union as
disjoint runs, so one level's sort feeds the next level's families
with fewer rows: the metrics pass measures each channel's families
over the runs of its packages, not over their rows.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "coalesce",
    "distinct_count",
    "measure_sorted",
    "merge_sorted",
    "radix_order",
    "sorted_filter",
    "union_measure",
]


def radix_order(key: np.ndarray, n_keys: int) -> np.ndarray:
    """Stable permutation grouping the rows by ``key`` (``0 <= key < n_keys``).

    An LSD radix sort on 16-bit digits: numpy's stable argsort of a
    ``uint16`` array is a radix sort, so each digit costs one linear
    pass and no comparisons.  Rows with equal keys keep their order,
    and keys that are already non-decreasing cost one comparison pass.
    """
    if len(key) < 2 or bool((key[1:] >= key[:-1]).all()):
        return np.arange(len(key), dtype=np.int64)
    order = np.argsort((key & 0xFFFF).astype(np.uint16), kind="stable")
    shift = 16
    while (n_keys - 1) >> shift > 0:
        digit = ((key[order] >> shift) & 0xFFFF).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


def coalesce(
    key: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    n_keys: int,
    split: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Merge each key's back-to-back intervals, in row order, into runs.

    Rows are grouped by key (:func:`radix_order`), degenerate rows
    dropped, and a run starts wherever the key changes, the start
    decreases, or the start lies past the previous row's end; rows
    whose ``split`` values differ never share a run either.  A run is
    ``[its first start, the max end of its rows)``, which is exactly
    the union of its rows, so :func:`measure_sorted` over the runs
    equals it over the rows.

    Returns ``(rows, k, s, e)``: per run, the index of its first input
    row, its key, start and end; runs come grouped by key, each key's
    in row order.
    """
    keep = end > start
    ids = None if keep.all() else np.flatnonzero(keep)
    rows = radix_order(key if ids is None else key[ids], n_keys)
    if ids is not None:
        rows = ids[rows]
    k, s, e = key[rows], start[rows], end[rows]
    if len(rows) == 0:
        return rows, k, s, e
    new = np.empty(len(rows), dtype=bool)
    new[0] = True
    new[1:] = (k[1:] != k[:-1]) | (s[1:] < s[:-1]) | (s[1:] > e[:-1])
    if split is not None:
        sp = split[rows]
        new[1:] |= sp[1:] != sp[:-1]
    firsts = np.flatnonzero(new)
    return rows[firsts], k[firsts], s[firsts], np.maximum.reduceat(e, firsts)


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
    # the sort cost vs a two-pass lexsort.  The stable sort (timsort for
    # int64) merges already-sorted stretches instead of re-sorting them,
    # and :func:`coalesce` output arrives as one such stretch per key.
    s_base = int(start.min())
    span = int(end.max()) - s_base + 1
    if int(key.max()) * span < 2**62:
        order = np.argsort(key * span + (start - s_base), kind="stable")
    else:  # pragma: no cover - astronomic timestamps
        order = np.lexsort((start, key))
    return ids0[order], key[order], start[order], end[order]


def merge_sorted(
    k: np.ndarray, s: np.ndarray, e: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-key canonical union of rows already (key, start)-sorted.

    All rows must satisfy ``e > s`` (use :func:`sorted_filter`).
    Returns ``(k, s, e)`` of the merged runs: disjoint, in (key, start)
    order, touching or overlapping rows merged.  One global running
    maximum of ends serves every key: segments are kept from bleeding
    into each other by lifting each segment onto its own disjoint value
    range (``end + seg * off`` with ``off`` wider than the global end
    spread), which preserves within-segment comparisons verbatim.
    """
    n = len(k)
    if n == 0:
        return k, s, e
    new = np.empty(n, dtype=bool)
    new[0] = True
    new[1:] = k[1:] != k[:-1]
    seg = np.cumsum(new) - 1
    off = int(e.max()) - int(e.min()) + 1
    if (int(seg[-1]) + 1) * off >= 2**62:  # pragma: no cover - astronomic timestamps
        raise OverflowError("interval span too large for segmented sweep")
    # running max of ends up to each row, segment-local
    cummax = np.maximum.accumulate(e + seg * off) - seg * off
    new[1:] |= s[1:] > cummax[:-1]  # a gap opens a new run
    firsts = np.flatnonzero(new)
    return k[firsts], s[firsts], cummax[np.r_[firsts[1:] - 1, n - 1]]


def measure_sorted(
    k: np.ndarray, s: np.ndarray, e: np.ndarray, n_keys: int
) -> np.ndarray:
    """Per-key union measure of rows already (key, start)-sorted.

    All rows must satisfy ``e > s`` (use :func:`sorted_filter`); the
    measure is the summed length of the :func:`merge_sorted` runs.
    """
    out = np.zeros(n_keys, dtype=np.int64)
    rk, rs, re = merge_sorted(k, s, e)
    if len(rk) == 0:
        return out
    firsts = np.flatnonzero(np.r_[True, rk[1:] != rk[:-1]])
    out[rk[firsts]] = np.add.reduceat(re - rs, firsts)
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
    if len(key) == 0:
        return np.zeros(n_keys, dtype=np.int64)
    lo = int(val.min())
    width = int(val.max()) - lo + 1
    if n_keys * width <= 4 * len(key):
        # a dense (key, val) presence table is no bigger than the rows
        seen = np.bincount(key * width + (val - lo), minlength=n_keys * width)
        return np.count_nonzero(seen.reshape(n_keys, width), axis=1)
    # (key, val) order: a stable pass by val, then one by key
    order = radix_order(val - lo, width)
    order = order[radix_order(key[order], n_keys)]
    k = key[order]
    v = val[order]
    new = np.empty(len(k), dtype=bool)
    new[0] = True
    new[1:] = (k[1:] != k[:-1]) | (v[1:] != v[:-1])
    return np.bincount(k[new], minlength=n_keys)
