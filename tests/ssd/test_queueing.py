"""PAQ queueing: reordering correctness and performance effect."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import make_cnl_device
from repro.nvm import TLC, SLC
from repro.ssd import Geometry, OpCode
from repro.ssd.ftl import FLAT, GROUP
from repro.ssd.queueing import reorder_die_round_robin
from repro.trace import ooc_eigensolver_trace, replay

MiB = 1024 * 1024


def geom():
    return Geometry(kind=SLC, channels=2, packages_per_channel=2,
                    dies_per_package=2, planes_per_die=2, blocks_per_plane=8)


def read(flat, group=-1):
    return (OpCode.READ, flat, 2048, group, 0)


def block(rows):
    return np.array(rows, dtype=np.int64)


class TestReorder:
    def test_same_multiset(self):
        g = geom()
        txns = block([read(f) for f in (0, 16, 32, 2, 4)])
        out = reorder_die_round_robin(txns, g)
        assert sorted(out[:, FLAT]) == sorted(txns[:, FLAT])

    def test_per_die_order_preserved(self):
        g = geom()
        # flats 0, 16, 32 are consecutive slots of the same plane unit
        txns = block([read(0), read(16), read(32), read(2)])
        out = reorder_die_round_robin(txns, g)
        same_die = [f for f in out[:, FLAT].tolist() if f % 2 == 0 and (f % 16) == 0]
        assert same_die == [0, 16, 32]

    def test_interleaves_dies(self):
        g = geom()
        # two ops on die A, then two on die B: round-robin alternates
        txns = block([read(0), read(16), read(2), read(18)])
        out = reorder_die_round_robin(txns, g)
        u = g.plane_units
        dies = [(f % u) // 2 for f in out[:, FLAT].tolist()]
        assert dies == [dies[0], dies[1], dies[0], dies[1]]
        assert dies[0] != dies[1]

    def test_plane_groups_stay_adjacent(self):
        g = geom()
        txns = block([read(0, group=7), read(1, group=7), read(2), read(16)])
        out = reorder_die_round_robin(txns, g)
        idx = np.flatnonzero(out[:, GROUP] == 7).tolist()
        assert idx == [idx[0], idx[0] + 1]

    def test_writes_left_untouched(self):
        g = geom()
        txns = block([read(0), (OpCode.WRITE, 4, 2048, -1, 0), read(16)])
        assert np.array_equal(reorder_die_round_robin(txns, g), txns)

    @given(st.lists(st.integers(0, 500), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_property_permutation_and_die_order(self, flats):
        g = geom()
        flats = [f % g.total_pages for f in flats]
        txns = block([read(f) for f in flats])
        out = reorder_die_round_robin(txns, g)
        assert sorted(out[:, FLAT].tolist()) == sorted(flats)
        u = g.plane_units
        for die in range(g.dies):
            before = [f for f in flats if (f % u) // 2 == die]
            after = [f for f in out[:, FLAT].tolist() if (f % u) // 2 == die]
            assert before == after


def _round_robin_loop(rows: list[tuple], g) -> list[tuple]:
    """Per-die queues of atomic units, drained one unit per die a round."""
    units, i = [], 0
    while i < len(rows):
        j = i + 1
        if rows[i][GROUP] >= 0:
            while j < len(rows) and rows[j][GROUP] == rows[i][GROUP]:
                j += 1
        units.append(rows[i:j])
        i = j
    queues: dict[int, list] = {}
    for unit in units:
        die = unit[0][FLAT] % g.plane_units // g.planes_per_die
        queues.setdefault(die, []).append(unit)
    out = []
    while queues:
        for die in list(queues):
            out.extend(queues[die].pop(0))
            if not queues[die]:
                del queues[die]
    return out


@given(
    st.lists(
        st.tuples(st.integers(0, 127), st.sampled_from((-1, -1, 3, 4)), st.integers(1, 3)),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=100, deadline=None)
def test_reorder_matches_the_per_die_queue_loop(runs):
    """Runs of equal group id stay one unit; the unit order is exactly
    that of draining per-die queues round-robin."""
    g = geom()
    rows = [read(flat + k, group) for flat, group, n in runs for k in range(n)]
    out = reorder_die_round_robin(block(rows), g)
    assert out.tolist() == [list(r) for r in _round_robin_loop(rows, g)]


class TestDeviceIntegration:
    def _bw(self, policy):
        path = make_cnl_device("EXT2", TLC, 32 * MiB)
        path.device.queue_policy = policy
        trace = ooc_eigensolver_trace(panels=4, panel_bytes=8 * MiB, iterations=1)
        return replay(path, trace).bandwidth_mb

    def test_paq_never_hurts_fragmented_reads(self):
        assert self._bw("paq") >= self._bw("fifo") * 0.99

    def test_policy_validated(self):
        with pytest.raises(ValueError):
            make_cnl_device("EXT2", TLC, 32 * MiB).device.__class__(
                geometry=Geometry(kind=TLC),
                bus=__import__("repro.nvm", fromlist=["ONFI3_SDR400"]).ONFI3_SDR400,
                host=__import__(
                    "repro.interconnect", fromlist=["bridged_pcie2"]
                ).bridged_pcie2(8),
                logical_bytes=1 * MiB,
                queue_policy="lifo",
            )
