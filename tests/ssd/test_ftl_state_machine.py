"""The array FTL against the dict-based oracle, one command at a time.

A hypothesis state machine drives :class:`repro.lifetime.WearFTL` (the
array FTL under every wear policy) and :class:`tests.oracles.ftl.
DictWearFTL` through reads, full-page and sub-page writes, trims and
forced GC on a tiny geometry whose high ``gc_low_water`` keeps GC and
static swaps firing, fresh or aged (retired blocks).  After every
command the transaction rows, the maps, the per-block grids, the free
pools, the erase ledger and the stats must be identical.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import find, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from repro.lifetime.wear import WEAR_POLICIES, WearFTL, WearPolicy
from repro.nvm import SLC
from repro.ssd import Geometry
from repro.ssd.ftl import FTLError, plane_groups
from repro.ssd.request import DeviceCommand, OpCode
from tests.oracles.ftl import DictWearFTL, group_planes

#: SLC with 4-page blocks: a few dozen page writes cycle GC
TINY = dataclasses.replace(SLC, name="SLC-tiny", pages_per_block=4)
PB = TINY.page_bytes
BLOCKS = 6
GC_LOW = 3
RETIRE_AT = 10


def tiny_geom(planes: int) -> Geometry:
    return Geometry(
        kind=TINY, channels=1, packages_per_channel=1, dies_per_package=2,
        planes_per_die=planes, blocks_per_plane=BLOCKS,
    )


def build(policy: str, planes: int, aged: bool, preload: float, ftl_cls=WearFTL):
    """A fresh (array FTL, oracle) pair, optionally aged and preloaded."""
    geom = tiny_geom(planes)
    logical = geom.capacity_bytes // 4
    wear_policy = WearPolicy(kind=policy, static_threshold=2, static_interval=1)
    ftl = ftl_cls(geom, logical, gc_low_water=GC_LOW, policy=wear_policy)
    ref = DictWearFTL(geom, logical, gc_low_water=GC_LOW, policy=wear_policy)
    if aged:
        # uneven prior wear, one retired block per unit
        rng = np.random.default_rng(planes)
        wear = rng.integers(0, RETIRE_AT, size=(geom.plane_units, BLOCKS))
        wear[:, 0] = RETIRE_AT
        ftl.install_preexisting_wear(wear, retire_at=RETIRE_AT)
        ref.install_preexisting_wear(wear, retire_at=RETIRE_AT)
    nbytes = int(preload * ftl.n_logical_pages) * ftl.page_bytes
    if nbytes:
        ftl.preload(nbytes)
        ref.preload(nbytes)
    return ftl, ref


def _outcome(fn, *args):
    """(result, error message): an FTLError is an outcome too."""
    try:
        return fn(*args), None
    except FTLError as exc:
        return None, str(exc)


def _rows(txns) -> np.ndarray:
    return np.array(txns, dtype=np.int64).reshape(-1, 5)


def assert_same_state(ftl, ref) -> None:
    assert np.array_equal(ftl.map, ref.map)
    reverse = np.zeros_like(ftl.reverse)
    for flat, lpage in ref.reverse.items():
        reverse[flat] = lpage + 1
    assert np.array_equal(ftl.reverse, reverse)
    for name in ("valid", "frontier", "erases", "retired", "active_block"):
        assert np.array_equal(getattr(ftl, name), getattr(ref, name)), name
    assert [list(f) for f in ftl.free_blocks] == [list(f) for f in ref.free_blocks]
    assert ftl.erase_gen == ref.erase_gen
    assert ftl.stats == ref.stats
    assert ftl._alloc_unit == ref._alloc_unit
    assert ftl._group_counter == ref._group_counter


def step(ftl, ref, action: tuple) -> bool:
    """Apply one action to both FTLs and compare; False once they stop.

    A run ends when both FTLs run out of free space: that error may
    strike mid-relocation, where the two leave different partial state.
    """
    kind, *args = action
    pb = ftl.page_bytes
    if kind == "gc":
        unit = args[0] % ftl.geom.plane_units
        got, err = _outcome(ftl._collect, unit)
        want, ref_err = _outcome(ref._collect, unit)
    else:
        if kind == "subwrite":
            page, offset, nbytes = args
            op, lba = "write", page * pb + offset
        else:
            op, page, npages = kind, *args
            lba, nbytes = page * pb, npages * pb
        cmd = DeviceCommand(op, lba, nbytes)
        got, err = _outcome(ftl.translate, cmd)
        want, ref_err = _outcome(ref.translate, cmd)
    assert err == ref_err
    if err is not None and "free space" in err:
        return False
    if err is None:
        assert np.array_equal(got, _rows(want))
    assert_same_state(ftl, ref)
    return True


#: page indices reach a little past the 24-page logical space
PAGES = st.integers(0, 25)
ACTIONS = st.one_of(
    st.tuples(st.sampled_from(("read", "write", "trim")), PAGES, st.integers(1, 6)),
    st.tuples(
        st.just("subwrite"), PAGES, st.sampled_from((0, 1, PB // 2, PB - 1)),
        st.integers(1, 3 * PB) | st.sampled_from((PB - 1, PB, PB + 1)),
    ),
    st.tuples(st.just("gc"), st.integers(0, 5)),
)


class FTLMachine(RuleBasedStateMachine):
    """Random command streams against the oracle, every policy."""

    @initialize(
        policy=st.sampled_from(WEAR_POLICIES),
        planes=st.sampled_from((1, 2, 3)),
        aged=st.booleans(),
        preload=st.sampled_from((0.0, 0.5, 1.0)),
    )
    def setup(self, policy, planes, aged, preload):
        self.ftl, self.ref = build(policy, planes, aged, preload)
        self.live = True

    @precondition(lambda self: self.live)
    @rule(action=ACTIONS)
    def act(self, action):
        """A read, full-page write, sub-page write, trim or forced GC."""
        self.live = step(self.ftl, self.ref, action)


TestFTLMachine = FTLMachine.TestCase
TestFTLMachine.settings = settings(
    max_examples=80, stateful_step_count=40, deadline=None
)


# ----------------------------------------------------------------------
# planted mutation: the state comparison must catch a relocation that
# keeps the victim's stale reverse entries
class _StaleReverseFTL(WearFTL):
    def _relocate(self, u, victim, counter):
        src = (victim * self._ppb + self._page_ids) * self._units + u
        owner = self.reverse[src]
        rows = super()._relocate(u, victim, counter)
        self.reverse[src] = owner
        return rows


def _agrees(program, ftl_cls) -> bool:
    setup, actions = program
    try:
        ftl, ref = build(*setup, ftl_cls=ftl_cls)
        for action in actions:
            if not step(ftl, ref, action):
                break
    except AssertionError:
        return False
    return True


PROGRAMS = st.tuples(
    st.tuples(
        st.sampled_from(WEAR_POLICIES), st.sampled_from((1, 2, 3)),
        st.booleans(), st.sampled_from((0.0, 0.5, 1.0)),
    ),
    st.lists(ACTIONS, max_size=40),
)


def test_keeping_stale_reverse_entries_fails_the_comparison():
    find(
        PROGRAMS,
        lambda program: not _agrees(program, _StaleReverseFTL),
        settings=settings(max_examples=500, database=None),
    )


# ----------------------------------------------------------------------
@st.composite
def grouped_streams(draw):
    """(flat, op, cmd, U, P): runs of consecutive flats, split into commands."""
    planes = draw(st.sampled_from((1, 2, 3, 4)))
    units = planes * draw(st.integers(1, 3))
    flat, op = [], []
    for _ in range(draw(st.integers(0, 12))):
        start = draw(st.integers(0, 6 * units))
        kind = draw(st.sampled_from((OpCode.READ, OpCode.WRITE, OpCode.ERASE)))
        for k in range(draw(st.integers(1, 2 * planes + 1))):
            flat.append(start + k)
            # an op change inside a run must split it
            op.append(kind if draw(st.integers(0, 5)) else OpCode.READ)
    cuts = sorted(draw(st.lists(st.integers(0, len(flat)), max_size=4)))
    cmd = np.zeros(len(flat), dtype=np.int64)
    for cut in cuts:
        cmd[cut:] += 1
    return (np.array(flat, dtype=np.int64), np.array(op, dtype=np.int64),
            cmd, units, planes)


@given(grouped_streams())
@settings(max_examples=300, deadline=None)
def test_plane_groups_match_the_sequential_loop(stream):
    """The vectorized kernel numbers exactly the groups the per-command
    loop forms, with ids running on across commands, for any P."""
    flat, op, cmd, units, planes = stream
    want: list[int] = []
    gid = 0
    for c in np.unique(cmd).tolist():
        rows = [(o, f, 0, -1, 0) for o, f in zip(op[cmd == c].tolist(), flat[cmd == c].tolist())]
        grouped, gid = group_planes(rows, units, planes, gid)
        want.extend(r[3] for r in grouped)
    got, n_groups = plane_groups(flat, units, planes, op=op, cmd=cmd)
    assert got.tolist() == want
    assert n_groups == gid
