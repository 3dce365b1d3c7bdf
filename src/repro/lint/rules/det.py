"""DET — nondeterminism inside the simulation layers.

Every quantity the reproduction reports must be a pure function of
``(config, workload, seed)``: the parallel engine asserts serial ==
parallel bit-for-bit, the cache replays results across sessions, and
the fault oracle replays decisions across processes.  Any ambient
entropy inside ``sim/``, ``ssd/``, ``nvm/``, ``fs/``, ``cluster/``,
``faults/`` or ``lifetime/`` breaks all three at once, so it is flagged
at lint time:

* ``DET001`` — wall-clock reads (``time.time``, ``datetime.now``, ...),
  including the tracer's wall domain: ``wall_span``/``wall_event``
  calls or imports (sim-domain code emits ``sim_span`` with explicit
  DES timestamps; wall spans belong in experiments/ or service/);
* ``DET002`` — entropy sources (``os.urandom``, ``uuid.uuid4``, ...);
* ``DET003`` — the process-global or unseeded RNG (``random.random``,
  ``numpy.random.rand``, ``default_rng()`` with no seed): global RNG
  state makes results depend on call *order*, which worker fan-out does
  not preserve;
* ``DET004`` — builtin ``hash()``: salted per process by
  ``PYTHONHASHSEED``, so it is not stable across runs or workers;
* ``DET005`` — iterating a ``set`` (or dict views, conservatively)
  inside a function that builds hashes/keys/signatures: set order is
  insertion-and-collision dependent, so digests differ across runs.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from ..context import FileContext, walk
from ..findings import Finding, unique_sites
from ..registry import FileChecker, dotted_name, register

__all__ = ["DetChecker"]

_WALLCLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
    }
)
#: matched against the *tail* of the dotted name (datetime.datetime.now)
_WALLCLOCK_SUFFIXES = (
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
)
#: wall-clock tracer entry points (:mod:`repro.obs.trace`), matched on
#: the last part of the dotted name (``tracer.wall_span``)
_WALL_SPANS = frozenset({"wall_span", "wall_event"})

_ENTROPY = frozenset(
    {
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "random.SystemRandom",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbits",
        "secrets.choice",
    }
)

#: module-level functions of the process-global stdlib RNG
_GLOBAL_RANDOM = frozenset(
    "random." + f
    for f in (
        "random",
        "randint",
        "randrange",
        "uniform",
        "gauss",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "betavariate",
        "expovariate",
        "normalvariate",
        "triangular",
        "vonmisesvariate",
        "getrandbits",
        "randbytes",
        "seed",
    )
)

#: numpy.random attributes that are NOT the legacy global RNG
_NUMPY_OK = frozenset({"default_rng", "Generator", "SeedSequence", "RandomState"})

#: constructors that take a seed and are only deterministic when given one
_SEEDED_CTORS = frozenset(
    {
        "random.Random",
        "np.random.default_rng",
        "numpy.random.default_rng",
        "np.random.RandomState",
        "numpy.random.RandomState",
    }
)

_HASH_CONTEXT_NAME = re.compile(r"key|digest|signature|fingerprint|hash")


def _is_numpy_global(name: str) -> bool:
    for prefix in ("np.random.", "numpy.random."):
        if name.startswith(prefix):
            return name[len(prefix) :] not in _NUMPY_OK
    return False


def _iterable_order_warning(node: ast.expr) -> Optional[str]:
    """Why iterating ``node`` has unstable order, or ``None``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set literal"
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name in ("set", "frozenset"):
            return f"{name}(...)"
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "keys",
            "values",
            "items",
        ):
            return f".{node.func.attr}() of a mapping"
    return None


@register
class DetChecker(FileChecker):
    codes = {
        "DET001": "wall-clock read inside a simulation layer",
        "DET002": "entropy source inside a simulation layer",
        "DET003": "process-global or unseeded RNG inside a simulation layer",
        "DET004": "builtin hash() is PYTHONHASHSEED-salted, not reproducible",
        "DET005": "unordered iteration feeding a hash/cache-key computation",
    }

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.det_gated:
            return
        yield from self._check_calls(ctx)
        yield from self._check_hash_contexts(ctx)

    # -- DET001..DET004: forbidden calls (and wall-span imports) --------
    def _check_calls(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name in _WALL_SPANS:
                        yield ctx.finding(
                            "DET001",
                            node,
                            f"importing `{alias.name}` into a simulation "
                            "layer invites wall-clock spans there; use "
                            "`sim_span` with DES timestamps instead",
                        )
                continue
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            if name in _WALLCLOCK or name.endswith(_WALLCLOCK_SUFFIXES):
                yield ctx.finding(
                    "DET001",
                    node,
                    f"`{name}()` reads the wall clock; simulated time must "
                    "come from the DES clock so replays are bit-identical",
                )
            elif name.rsplit(".", 1)[-1] in _WALL_SPANS:
                yield ctx.finding(
                    "DET001",
                    node,
                    f"`{name}()` records wall-clock time inside a "
                    "simulation layer; emit `sim_span` with explicit DES "
                    "timestamps (wall spans belong in experiments/ or "
                    "service/)",
                )
            elif name in _ENTROPY:
                yield ctx.finding(
                    "DET002",
                    node,
                    f"`{name}()` draws real entropy; derive randomness from "
                    "the run's seed instead",
                )
            elif name in _GLOBAL_RANDOM or _is_numpy_global(name):
                yield ctx.finding(
                    "DET003",
                    node,
                    f"`{name}()` uses the process-global RNG; results then "
                    "depend on call order, which worker fan-out does not "
                    "preserve — use a local `default_rng(seed)`",
                )
            elif (
                name in _SEEDED_CTORS
                and not node.args
                and not node.keywords
            ):
                yield ctx.finding(
                    "DET003",
                    node,
                    f"`{name}()` without a seed is entropy-seeded; pass the "
                    "run's seed explicitly",
                )
            elif name == "hash" and isinstance(node.func, ast.Name):
                yield ctx.finding(
                    "DET004",
                    node,
                    "builtin `hash()` is salted by PYTHONHASHSEED and differs "
                    "across processes; use `hashlib` for stable digests",
                )

    # -- DET005: unordered iteration in hash/key contexts ----------------
    def _check_hash_contexts(self, ctx: FileContext) -> list[Finding]:
        # a nested hash context is scanned as part of its enclosing
        # function too; one finding per site, named after the innermost
        return unique_sites(
            finding
            for fn in ctx.nodes
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for finding in self._check_function(ctx, fn)
        )

    def _check_function(
        self, ctx: FileContext, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        nodes = walk(fn)
        if not self._is_hash_context(fn, nodes):
            return
        for node in nodes:
            iterables: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iterables.extend(gen.iter for gen in node.generators)
            for it in iterables:
                why = _iterable_order_warning(it)
                if why is not None:
                    yield ctx.finding(
                        "DET005",
                        it,
                        f"iterating {why} inside `{fn.name}` feeds a "
                        "hash/key computation with unstable order; wrap "
                        "the iterable in `sorted(...)`",
                    )

    @staticmethod
    def _is_hash_context(
        fn: ast.FunctionDef | ast.AsyncFunctionDef, nodes: list[ast.AST]
    ) -> bool:
        if _HASH_CONTEXT_NAME.search(fn.name.lower()):
            return True
        for node in nodes:
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is not None and name.startswith("hashlib."):
                    return True
        return False
