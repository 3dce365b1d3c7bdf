"""The array FTL against the dict-based oracle, one command at a time.

A hypothesis state machine drives :class:`repro.lifetime.WearFTL` (the
array FTL under every wear policy) and :class:`tests.oracles.ftl.
DictWearFTL` through reads, full-page and sub-page writes, trims and
forced GC on a tiny geometry whose high ``gc_low_water`` keeps GC and
static swaps firing, fresh or aged (retired blocks).  After every
command the transaction rows, the maps, the per-block grids, the free
pools, the erase ledger and the stats must be identical.

The dict oracle shares the array FTL's frontier and allocation logic,
so the same run also replays every emitted row block into a
:class:`tests.oracles.media.MediaLedger`, seeded from the FTL once
after aging and preload: the NAND discipline is checked by a model
that shares no state with the FTL.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from repro.lifetime.wear import WEAR_POLICIES, WearFTL, WearPolicy
from repro.nvm import SLC
from repro.ssd import Geometry
from repro.ssd.ftl import FTLError, plane_groups
from repro.ssd.request import DeviceCommand, OpCode
from tests.oracles.ftl import DictWearFTL, group_planes
from tests.oracles.media import MediaError, MediaLedger

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


def apply(ftl, action: tuple):
    """One action on one FTL: (rows, error message)."""
    kind, *args = action
    pb = ftl.page_bytes
    if kind == "gc":
        return _outcome(ftl._collect, args[0] % ftl.geom.plane_units)
    if kind == "subwrite":
        page, offset, nbytes = args
        op, lba = "write", page * pb + offset
    else:
        op, page, npages = kind, *args
        lba, nbytes = page * pb, npages * pb
    return _outcome(ftl.translate, DeviceCommand(op, lba, nbytes))


def compare(ftl, ref, action: tuple, got, err) -> bool:
    """Apply ``action`` to the oracle and compare it with the FTL's
    outcome ``got``/``err``; False once they stop.

    A run ends when both FTLs run out of free space: that error may
    strike mid-relocation, where the two leave different partial state.
    """
    want, ref_err = apply(ref, action)
    assert err == ref_err
    if err is not None and "free space" in err:
        return False
    if err is None:
        assert np.array_equal(got, _rows(want))
    assert_same_state(ftl, ref)
    return True


def ledger_of(ftl) -> MediaLedger:
    """A media ledger seeded from ``ftl`` as it stands."""
    return MediaLedger(ftl.geom, ftl.frontier, ftl.retired)


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
        self.ledger = ledger_of(self.ftl)
        self.live = True

    @precondition(lambda self: self.live)
    @rule(action=ACTIONS)
    def act(self, action):
        """A read, full-page write, sub-page write, trim or forced GC."""
        got, err = apply(self.ftl, action)
        if err is not None:
            # the failed translation changed state but returned no rows
            self.ledger = None
        elif self.ledger is not None:
            self.ledger.replay(got)
        self.live = compare(self.ftl, self.ref, action, got, err)


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
            if not compare(ftl, ref, action, *apply(ftl, action)):
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
    # any failing program shows the comparison caught it: no shrinking
    find(
        PROGRAMS,
        lambda program: not _agrees(program, _StaleReverseFTL),
        settings=settings(max_examples=500, database=None, phases=(Phase.generate,)),
    )


# ----------------------------------------------------------------------
# planted mutation: the ledger alone, with no dict oracle, must catch a
# relocation that programs past its destination block's frontier
class _SkippingRelocationFTL(WearFTL):
    def _allocate_in_unit(self, u, n):
        b = int(self.active_block[u])
        if b >= 0 and self.frontier[u, b] < self._ppb - 1:
            self.frontier[u, b] += 1  # leave one page unprogrammed
        return super()._allocate_in_unit(u, n)


def _obeys_ledger(program, ftl_cls) -> bool:
    """Whether every row the FTL emits obeys a ledger seeded after set-up;
    the run ends at the first failed translation."""
    setup, actions = program
    ftl, _ = build(*setup, ftl_cls=ftl_cls)
    ledger = ledger_of(ftl)
    for action in actions:
        got, err = apply(ftl, action)
        if err is not None:
            break
        try:
            ledger.replay(got)
        except MediaError:
            return False
    return True


def test_programming_past_the_frontier_fails_the_ledger():
    # any failing program shows the ledger caught it: no shrinking
    find(
        PROGRAMS,
        lambda program: not _obeys_ledger(program, _SkippingRelocationFTL),
        settings=settings(max_examples=500, database=None, phases=(Phase.generate,)),
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


def test_ledger_rules_on_hand_made_rows():
    """Adoption moves the frontier, programs must land on it, an erase
    resets it, and a retired block refuses every row."""
    geom = tiny_geom(2)
    U = geom.plane_units
    retired = np.zeros((U, BLOCKS), dtype=bool)
    retired[1, 5] = True
    ledger = MediaLedger(geom, np.zeros((U, BLOCKS), dtype=np.int32), retired)

    def row(op, unit, block, page):
        flat = (block * TINY.pages_per_block + page) * U + unit
        return np.array([(op, flat, PB, -1, page)], dtype=np.int64)

    ledger.replay(row(OpCode.READ, 0, 2, 1))  # cold read adopts page 1
    assert ledger.adopting_reads == 1
    ledger.replay(row(OpCode.READ, 0, 2, 0))  # below the frontier
    for page in (1, 3):  # behind, then past the frontier
        with pytest.raises(MediaError):
            ledger.replay(row(OpCode.WRITE, 0, 2, page))
    ledger.replay(row(OpCode.WRITE, 0, 2, 2))
    ledger.replay(row(OpCode.ERASE, 0, 2, 0))
    ledger.replay(row(OpCode.WRITE, 0, 2, 0))
    assert (ledger.programs, ledger.erases, ledger.adopting_reads) == (2, 1, 1)
    for op in (OpCode.READ, OpCode.WRITE, OpCode.ERASE):
        with pytest.raises(MediaError, match="retired"):
            ledger.replay(row(op, 1, 5, 0))
