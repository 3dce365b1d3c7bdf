"""Taint lattices, source tables and sink tables for :mod:`repro.flow`.

Three independent lattices ride through the same engine; each is a set
of *labels* and the lattice join is set union:

* **clock-domain taint** (``wall``) — a value derived from a wall-clock
  read (``time.perf_counter`` & friends).  Wall values must never reach
  a DES timestamp: sim-domain spans, ``Simulator.timeout`` delays or
  ``_schedule`` deadlines (rule ``FLOW001``).
* **provenance taint** (``unstable``) — a value derived from a
  process-dependent identity: ``id()``, ``hash()``, ``os.getpid``,
  global RNG draws, ``uuid``/``urandom``, set iteration order.  Such
  values must never reach a *site identity*: a ``hashlib`` digest, a
  ``FaultPlan.uniform/occurs`` site, a ``PacketOracle.lost`` query or a
  ``site=``/``site_key=`` keyword (rule ``FLOW002``; wall-clock values
  are equally forbidden there — a timestamp in a site id is just as
  run-dependent as a heap address).
* **escape kinds** (``lambda``/``file``/``rng``/``tracer``/``ftl``/
  ``plan``/``sim``) — objects that must not cross a process-pool
  boundary: they either do not pickle (lambdas, handles, simulators),
  pickle into silently-wrong state (live RNGs, tracers), or pickle at
  ruinous cost (columnar batch plans).  Rule ``FLOW003`` is the one
  pool-escape check; the tables below define what it tracks.

Taint elements are ``(kind, origin)`` tuples where ``origin`` is a
human-readable provenance string (``"time.perf_counter() at
src/...:42"``); parameter placeholders used by function summaries are
``("@param", index)``.  Joins keep at most :data:`MAX_ORIGINS` origins
per kind so pathological unions stay bounded.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

__all__ = [
    "Taint",
    "EMPTY",
    "WALL",
    "UNSTABLE",
    "PARAM",
    "VALUE_KINDS",
    "ESCAPE_KINDS",
    "ESCAPE_WHY",
    "MAX_ORIGINS",
    "join",
    "label",
    "param_ref",
    "kinds_of",
    "origins_for",
    "param_indices",
    "value_only",
    "source_kind",
    "ctor_escape_kind",
    "SinkSpec",
    "match_sinks",
    "PROPAGATE_ALL_BUILTINS",
    "VALUE_PRESERVING_BUILTINS",
]

# -- lattice ----------------------------------------------------------------

#: a taint is a frozenset of (kind, origin) / ("@param", index) elements
Taint = frozenset

EMPTY: Taint = frozenset()

WALL = "wall"
UNSTABLE = "unstable"
PARAM = "@param"

VALUE_KINDS = frozenset({WALL, UNSTABLE})
ESCAPE_KINDS = frozenset(
    {"lambda", "file", "rng", "tracer", "ftl", "plan", "sim"}
)

#: why each escape kind is banned at a pool boundary (finding text)
ESCAPE_WHY = {
    "lambda": "lambdas/nested closures are unpicklable",
    "file": "open file handles pickle as dead descriptors",
    "rng": "live RNG state pickles into correlated worker streams",
    "tracer": "a live Tracer's buffers/epoch must stay coordinator-side",
    "ftl": "a live FTL carries device state that must not be cloned",
    "plan": "columnar batch plans copy the shared lane stack when pickled",
    "sim": "a running Simulator (heap of generators) is unpicklable",
}

MAX_ORIGINS = 4


def label(kind: str, origin: str) -> tuple[str, str]:
    return (kind, origin)


def param_ref(index: int) -> tuple[str, int]:
    return (PARAM, index)


def join(*taints: Taint) -> Taint:
    """Union, keeping at most :data:`MAX_ORIGINS` origins per kind."""
    merged: set = set()
    for t in taints:
        merged |= t
    by_kind: dict[str, list] = {}
    params = []
    for el in merged:
        if el[0] == PARAM:
            params.append(el)
        else:
            by_kind.setdefault(el[0], []).append(el)
    out: set = set(params)
    for kind, els in by_kind.items():
        out.update(sorted(els)[:MAX_ORIGINS])
    return frozenset(out)


def kinds_of(taint: Taint) -> frozenset:
    return frozenset(el[0] for el in taint if el[0] != PARAM)


def origins_for(taint: Taint, kinds: frozenset) -> list[str]:
    return sorted(el[1] for el in taint if el[0] in kinds)


def param_indices(taint: Taint) -> list[int]:
    return sorted(el[1] for el in taint if el[0] == PARAM)


def value_only(taint: Taint) -> Taint:
    """Drop escape kinds: default propagation through unknown calls."""
    return frozenset(
        el for el in taint if el[0] == PARAM or el[0] in VALUE_KINDS
    )


# -- sources ----------------------------------------------------------------

_WALL_FQNS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

_UNSTABLE_FQNS = frozenset(
    {
        "id",
        "hash",
        "object",
        "os.getpid",
        "os.getppid",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "random.random",
        "random.randint",
        "random.randrange",
        "random.choice",
        "random.choices",
        "random.shuffle",
        "random.sample",
        "random.getrandbits",
        "random.uniform",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.randbits",
        "secrets.randbelow",
    }
)

#: ctor (or factory) names -> escape kind; matched on the resolved fqn
#: and, for the project's own well-known classes, on the bare basename
_ESCAPE_FQNS = {
    "open": "file",
    "io.open": "file",
    "gzip.open": "file",
    "bz2.open": "file",
    "lzma.open": "file",
    "tempfile.TemporaryFile": "file",
    "tempfile.NamedTemporaryFile": "file",
    "random.Random": "rng",
    "random.SystemRandom": "rng",
    "numpy.random.default_rng": "rng",
    "numpy.random.RandomState": "rng",
    "numpy.random.Generator": "rng",
}

_ESCAPE_BASENAMES = {
    "Simulator": "sim",
    "Tracer": "tracer",
    "DeviceFTL": "ftl",
    "WearFTL": "ftl",
    "CellPlan": "plan",
    "LaneCols": "plan",
    "StepCols": "plan",
    "plan_cell": "plan",
}

#: project factories whose *return value* carries an escape kind even
#: though the summary engine cannot see it (module-global registries)
_PROJECT_FACTORY_KINDS = {
    "repro.obs.trace.tracer": "tracer",
    "repro.obs.trace.install": "tracer",
}


def source_kind(fqn: Optional[str]) -> Optional[str]:
    """Value-taint kind introduced by calling ``fqn``, if any."""
    if fqn is None:
        return None
    if fqn in _WALL_FQNS:
        return WALL
    if fqn in _UNSTABLE_FQNS:
        return UNSTABLE
    return None


def ctor_escape_kind(fqn: Optional[str]) -> Optional[str]:
    """Escape kind of the object built by calling ``fqn``, if any."""
    if fqn is None:
        return None
    kind = _ESCAPE_FQNS.get(fqn)
    if kind is not None:
        return kind
    kind = _PROJECT_FACTORY_KINDS.get(fqn)
    if kind is not None:
        return kind
    base = fqn.rsplit(".", 1)[-1]
    if base == "open":  # pathlib.Path.open and friends
        return "file"
    return _ESCAPE_BASENAMES.get(base)


# -- sinks ------------------------------------------------------------------


class SinkSpec:
    """One argument position of one call that must stay taint-free."""

    __slots__ = ("rule", "forbidden", "describe")

    def __init__(self, rule: str, forbidden: frozenset, describe: str):
        self.rule = rule
        self.forbidden = forbidden
        self.describe = describe

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SinkSpec({self.rule}, {self.describe})"


_SIM_TS = SinkSpec(
    "FLOW001", frozenset({WALL}), "a sim-domain span timestamp"
)
_SIM_DELAY = SinkSpec(
    "FLOW001", frozenset({WALL}), "a DES timeout/schedule deadline"
)
_PROV = frozenset({UNSTABLE, WALL})
_HASH_SINK = SinkSpec("FLOW002", _PROV, "a hash-digest identity")
_SITE_SINK = SinkSpec("FLOW002", _PROV, "a fault-plan decision site")
_PACKET_SINK = SinkSpec("FLOW002", _PROV, "a packet/span site identity")
_POOL_SINK = SinkSpec(
    "FLOW003", ESCAPE_KINDS, "a process-pool submission"
)

_HASH_CTORS = frozenset(
    {
        "hashlib.blake2b",
        "hashlib.blake2s",
        "hashlib.sha256",
        "hashlib.sha1",
        "hashlib.sha512",
        "hashlib.md5",
        "blake2b",
        "blake2s",
        "sha256",
        "sha1",
        "sha512",
        "md5",
    }
)

_POOL_RECEIVER = re.compile(r"pool|executor", re.IGNORECASE)
_POOL_METHODS = frozenset(
    {"submit", "map", "imap", "imap_unordered", "starmap", "apply_async"}
)
_SIM_RECEIVER = re.compile(r"(^|\.)(sim|simulator)$")

PROCESS_EXECUTOR_FQNS = frozenset(
    {
        "concurrent.futures.ProcessPoolExecutor",
        "futures.ProcessPoolExecutor",
        "ProcessPoolExecutor",
        "multiprocessing.Pool",
        "multiprocessing.pool.Pool",
    }
)
THREAD_EXECUTOR_FQNS = frozenset(
    {
        "concurrent.futures.ThreadPoolExecutor",
        "futures.ThreadPoolExecutor",
        "ThreadPoolExecutor",
    }
)


def _positional(call: ast.Call, index: int) -> Optional[ast.expr]:
    if index < len(call.args) and not isinstance(call.args[index], ast.Starred):
        return call.args[index]
    return None


def match_sinks(
    call: ast.Call,
    callee_fqn: Optional[str],
    receiver: Optional[str],
    receiver_bind: Optional[str],
) -> Iterator[tuple[ast.expr, SinkSpec]]:
    """Yield ``(argument, sink)`` pairs for the *external* sinks of a call.

    ``callee_fqn`` is the import-resolved dotted callee when known;
    ``receiver`` the dotted receiver text of a method call; and
    ``receiver_bind`` the class fqn the receiver was constructed from
    when the engine tracked it (used to tell thread pools, which are
    not a pickle boundary, from process pools).  Sinks *inside* project
    functions are discovered by the summary engine instead.
    """
    method = (
        call.func.attr if isinstance(call.func, ast.Attribute) else None
    )

    # sim-domain timestamps: tracer.sim_span(layer, name, start, end)
    if method == "sim_span":
        for idx in (2, 3):
            arg = _positional(call, idx)
            if arg is not None:
                yield arg, _SIM_TS
        for kw in call.keywords:
            if kw.arg in ("start_ns", "end_ns"):
                yield kw.value, _SIM_TS

    # DES deadlines: sim.timeout(dt), sim._schedule(when, ...)
    if method in ("timeout", "_schedule") and receiver is not None:
        is_sim = receiver_bind is not None and receiver_bind.endswith(
            ".Simulator"
        )
        if is_sim or _SIM_RECEIVER.search(receiver):
            arg = _positional(call, 0)
            if arg is not None:
                yield arg, _SIM_DELAY

    # hash-digest identities
    if callee_fqn in _HASH_CTORS:
        arg = _positional(call, 0)
        if arg is not None:
            yield arg, _HASH_SINK

    # fault-plan sites and packet identities (mirrors SITE001-003)
    rng_receiver = receiver_bind is not None and (
        "random" in receiver_bind or receiver_bind.endswith("Generator")
    )
    if method in ("uniform", "occurs") and not rng_receiver:
        args = call.args[1:] if method == "occurs" else call.args
        for a in args:
            yield (a.value if isinstance(a, ast.Starred) else a), _SITE_SINK
    elif method == "lost":
        for a in call.args:
            yield (a.value if isinstance(a, ast.Starred) else a), _PACKET_SINK
    for kw in call.keywords:
        if kw.arg == "site":
            yield kw.value, _SITE_SINK
        elif kw.arg == "site_key":
            yield kw.value, _PACKET_SINK

    # process-pool submissions
    if method in _POOL_METHODS and receiver is not None:
        if receiver_bind in THREAD_EXECUTOR_FQNS:
            return
        is_pool = receiver_bind in PROCESS_EXECUTOR_FQNS or (
            receiver_bind is None
            and (
                _POOL_RECEIVER.search(receiver) is not None
                # MatrixEngine.map fan-out through an untyped receiver
                or (method == "map" and receiver.split(".")[-1] == "engine")
            )
        )
        if is_pool:
            for a in call.args:
                yield (a.value if isinstance(a, ast.Starred) else a), _POOL_SINK
            for kw in call.keywords:
                yield kw.value, _POOL_SINK


# -- propagation policy -----------------------------------------------------

#: builtins/helpers through which *all* taints (escape kinds included)
#: flow: containers and functools-style wrappers genuinely hold their
#: arguments
PROPAGATE_ALL_BUILTINS = frozenset(
    {
        "list",
        "tuple",
        "dict",
        "set",
        "frozenset",
        "sorted",
        "reversed",
        "iter",
        "next",
        "zip",
        "enumerate",
        "functools.partial",
        "partial",
        "copy.copy",
        "copy.deepcopy",
        "itertools.chain",
        "dataclasses.replace",
    }
)

#: unknown calls propagate only value taints (wall/unstable) from their
#: arguments: ``str(fh)`` is a string, not a file handle, but
#: ``int(perf_counter())`` is still a wall-clock value
VALUE_PRESERVING_BUILTINS = frozenset()  # (the default policy; kept for doc)
