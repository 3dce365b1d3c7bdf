"""Property tests: coalescing and merging intervals keep every key's
union measure, against the reference ``tests.oracles.intervals``.

The metrics pass measures each family after :func:`coalesce` (grouped
by a stable radix sort, back-to-back rows merged in row order) and
:func:`merge_sorted`, so both must be exact on *any* keyed family:
overlapping, nested, out-of-order, degenerate and touching-chain
intervals, with or without a ``split`` column.  A coalescing that keeps
a run's last end instead of its largest one must fail.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import find, given, settings
from hypothesis import strategies as st

from repro.ssd.segments import (
    coalesce,
    distinct_count,
    measure_sorted,
    merge_sorted,
    radix_order,
    sorted_filter,
    union_measure,
)
from tests.oracles import intervals

N_KEYS = 4


@st.composite
def keyed_families(draw):
    """(key, start, end, split) rows: random intervals mixed with
    touching chains, nested and repeated intervals, empty rows and
    chains played backwards."""
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        key = draw(st.integers(0, N_KEYS - 1))
        shape = draw(st.sampled_from(("random", "chain", "nested", "empty", "backwards")))
        s = draw(st.integers(0, 60))
        if shape == "random":
            for _ in range(draw(st.integers(1, 4))):
                a = draw(st.integers(0, 60))
                rows.append((key, a, a + draw(st.integers(-3, 20))))
        elif shape == "empty":
            rows.append((key, s, s - draw(st.integers(0, 3))))
        else:
            chain = []
            for _ in range(draw(st.integers(2, 5))):
                e = s + draw(st.integers(1, 8))
                chain.append((key, s, e))
                s = e if shape != "nested" else s + draw(st.integers(0, 2))
            if shape == "nested":  # each row inside the first
                k, a, _ = chain[0]
                chain[0] = (k, a, a + 40)
            rows.extend(chain[::-1] if shape == "backwards" else chain)
    rows = draw(st.permutations(rows)) if draw(st.booleans()) else rows
    arr = np.asarray(rows, dtype=np.int64).reshape(-1, 3)
    split = np.asarray(
        draw(st.lists(st.integers(0, 2), min_size=len(rows), max_size=len(rows))),
        dtype=np.int64,
    )
    return arr[:, 0], arr[:, 1], arr[:, 2], split


def _reference(key, start, end):
    out = np.zeros(N_KEYS, dtype=np.int64)
    for k in range(N_KEYS):
        sel = key == k
        iv = intervals.as_intervals(list(zip(start[sel], end[sel])))
        out[k] = int(intervals.measure(intervals.merge(iv)))
    return out


def _coalesced_measure(key, start, end, split=None):
    rows, k, s, e = coalesce(key, start, end, N_KEYS, split)
    _, k, s, e = sorted_filter(k, s, e)
    return measure_sorted(k, s, e, N_KEYS)


def _coalescing_is_exact(family) -> bool:
    key, start, end, split = family
    want = _reference(key, start, end)
    return all(
        np.array_equal(_coalesced_measure(key, start, end, sp), want)
        for sp in (None, split)
    )


@given(keyed_families())
@settings(max_examples=300, deadline=None)
def test_coalesce_then_measure_equals_the_oracle(family):
    assert _coalescing_is_exact(family)


@given(keyed_families())
@settings(max_examples=200, deadline=None)
def test_runs_are_grouped_by_key_in_row_order_and_never_straddle_a_split(family):
    key, start, end, split = family
    rows, k, s, e = coalesce(key, start, end, N_KEYS, split)
    assert (e > s).all()
    assert np.array_equal(k, key[rows])
    assert np.array_equal(s, start[rows])
    assert (np.diff(k) >= 0).all()
    for kk in np.unique(k):
        assert (np.diff(rows[k == kk]) > 0).all()
    # every row lies in a run of its own key and split value
    live = np.flatnonzero(end > start)
    for i in live.tolist():
        mine = (k == key[i]) & (split[rows] == split[i]) & (s <= start[i]) & (e >= end[i])
        assert mine.any()


@given(keyed_families())
@settings(max_examples=200, deadline=None)
def test_merge_sorted_gives_disjoint_runs_of_the_same_measure(family):
    key, start, end, _ = family
    _, k, s, e = sorted_filter(key, start, end)
    rk, rs, re = merge_sorted(k, s, e)
    got = np.zeros(N_KEYS, dtype=np.int64)
    np.add.at(got, rk, re - rs)
    assert np.array_equal(got, _reference(key, start, end))
    same = rk[1:] == rk[:-1]
    assert (rs[1:][same] > re[:-1][same]).all()  # disjoint, not even touching


def _coalesce_keeping_last_end(key, start, end, n_keys, split=None):
    """:func:`coalesce` with a planted bug: rows merge on ``s <= e_prev``
    but a run ends where its last row ends, not at the largest end."""
    live = np.flatnonzero(end > start)
    rows = live[radix_order(key[live], n_keys)]
    k, s, e = key[rows], start[rows], end[rows]
    if len(rows) == 0:
        return rows, k, s, e
    new = np.r_[True, (k[1:] != k[:-1]) | (s[1:] < s[:-1]) | (s[1:] > e[:-1])]
    if split is not None:
        new[1:] |= split[rows][1:] != split[rows][:-1]
    firsts = np.flatnonzero(new)
    lasts = np.r_[firsts[1:] - 1, len(rows) - 1]
    return rows[firsts], k[firsts], s[firsts], e[lasts]


def test_keeping_the_last_end_fails_the_property():
    with mock.patch(f"{__name__}.coalesce", _coalesce_keeping_last_end):
        find(
            keyed_families(),
            lambda family: not _coalescing_is_exact(family),
            settings=settings(max_examples=500, database=None),
        )


@given(
    st.lists(st.integers(0, 2**20 - 1), max_size=60),
    st.sampled_from((1, 2**8, 2**16, 2**20)),
)
def test_radix_order_is_a_stable_sort_for_every_digit_count(values, n_keys):
    key = np.asarray(values, dtype=np.int64) % n_keys
    assert np.array_equal(radix_order(key, n_keys), np.argsort(key, kind="stable"))


@given(
    st.lists(st.tuples(st.integers(0, 5), st.integers(-3, 40)), max_size=60),
    st.integers(6, 50),
)
def test_distinct_count_both_paths(pairs, n_keys):
    key = np.asarray([k for k, _ in pairs], dtype=np.int64)
    val = np.asarray([v for _, v in pairs], dtype=np.int64)
    want = [len({v for k, v in pairs if k == kk}) for kk in range(n_keys)]
    assert distinct_count(key, val, n_keys).tolist() == want
    # a value range too wide for the dense table takes the radix path
    wide = np.where(val % 2 == 0, val, val + 10**6)
    want = [len({w for k, w in zip(key, wide) if k == kk}) for kk in range(n_keys)]
    assert distinct_count(key, wide, n_keys).tolist() == want


def test_union_measure_of_coalesced_runs_matches_rows():
    key = np.array([0, 0, 0, 1, 1], dtype=np.int64)
    start = np.array([0, 5, 9, 3, 1], dtype=np.int64)
    end = np.array([5, 9, 12, 4, 2], dtype=np.int64)  # key 0 is one touching chain
    rows, k, s, e = coalesce(key, start, end, 2)
    assert rows.tolist() == [0, 3, 4] and s.tolist() == [0, 3, 1] and e.tolist() == [12, 4, 2]
    assert union_measure(k, s, e, 2).tolist() == union_measure(key, start, end, 2).tolist()
