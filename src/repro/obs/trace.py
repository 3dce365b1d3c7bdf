"""Lightweight cross-layer span tracer with two clock domains.

A :class:`Span` is one named, timed interval attributed to a *layer*
(``device``, ``ftl``, ``scheduler``, ``pool``, ``queue``, ...).  Spans
live in one of two clock domains and the two never mix:

* ``sim`` — timestamps are simulated nanoseconds from the DES clock.
  Sim spans are emitted *post hoc* with explicit ``start_ns/end_ns``
  (no clock is read), so the determinism-gated layers stay wall-clock
  free (DET001) and the sim span tree is a pure function of
  ``(config, workload, seed)`` — identical across worker counts.
* ``wall`` — timestamps are wall seconds relative to the tracer's
  epoch, recorded with ``perf_counter``.  Wall spans are the profiling
  view (where does *compute* time go) and are only legal outside the
  sim-domain directories — ``repro.lint`` rule DET001 enforces this.

Site identity reuses the :mod:`repro.faults.plan` idiom: every span
gets a stable BLAKE2b digest of ``(tracer ctx, parent site, domain,
layer, name, occurrence)``, so the same logical span has the same id
across runs, processes and worker counts.

**Pool boundary**: spans serialize as plain tuples
(:meth:`Tracer.to_tuples`) — no handles, no lambdas, no live state —
so a worker process collects into its own :class:`Tracer` and ships
the tuples back for :meth:`Tracer.ingest` on the coordinator.

**Zero cost when disabled**: the module-global tracer defaults to
``None``; instrumentation sites guard with ``tracer()`` (one global
load and an ``is None`` test) and sit at per-replay / per-cell / per-
job granularity, never inside per-transaction loops.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from contextlib import contextmanager
from typing import Iterable, NamedTuple, Optional

__all__ = [
    "SIM",
    "WALL",
    "Span",
    "Tracer",
    "install",
    "uninstall",
    "tracer",
    "enabled",
    "tracing",
]

SIM = "sim"
WALL = "wall"


class Span(NamedTuple):
    """One traced interval; a plain tuple on the wire."""

    domain: str  # "sim" | "wall"
    layer: str  # attribution bucket ("device", "pool", "queue", ...)
    name: str  # event name within the layer
    site: str  # stable BLAKE2b site id
    parent: str  # parent span's site id ("" for a root)
    start: float  # ns (sim) or seconds since tracer epoch (wall)
    end: float
    attrs: tuple  # sorted ((key, value), ...) pairs, JSON-safe values

    @property
    def duration(self) -> float:
        return self.end - self.start

    def attr(self, key: str, default=None):
        for k, v in self.attrs:
            if k == key:
                return v
        return default

    def to_dict(self) -> dict:
        return {
            "domain": self.domain,
            "layer": self.layer,
            "name": self.name,
            "site": self.site,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
        }


def _freeze_attrs(attrs: dict) -> tuple:
    return tuple(sorted(attrs.items()))


def _default_trace_id() -> str:
    # wall-domain identity: unique per process + instant is all we need
    raw = f"{os.getpid()}:{time.time_ns()}".encode()
    return hashlib.blake2b(raw, digest_size=8).hexdigest()


class Tracer:
    """Collects spans; one per run (coordinator) or per worker cell.

    ``ctx`` is a dict of attributes stamped onto every span this tracer
    records (a worker tracer carries ``{"cell": "label|kind"}``), and it
    prefixes every site digest so logically-distinct contexts can never
    collide.  Thread-safe: service executor threads share the installed
    tracer.
    """

    def __init__(self, trace_id: Optional[str] = None, ctx: Optional[dict] = None):
        self.trace_id = trace_id if trace_id is not None else _default_trace_id()
        self.ctx = dict(ctx or {})
        self._ctx_attrs = _freeze_attrs(self.ctx)
        self._site_prefix = repr(self._ctx_attrs).encode()
        self.epoch = time.perf_counter()
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._seq: dict[tuple, int] = {}
        self._wall_stack: list[str] = []

    # -- site identity --------------------------------------------------
    def _site(self, domain: str, layer: str, name: str, parent: str) -> str:
        key = (parent, domain, layer, name)
        n = self._seq.get(key, 0)
        self._seq[key] = n + 1
        raw = self._site_prefix + f"|{parent}|{domain}|{layer}|{name}|{n}".encode()
        return hashlib.blake2b(raw, digest_size=6).hexdigest()

    def _record(self, span: Span) -> None:
        self.spans.append(span)

    # -- sim domain -----------------------------------------------------
    def sim_span(
        self,
        layer: str,
        name: str,
        start_ns: int,
        end_ns: int,
        parent: str = "",
        site_key: Optional[tuple] = None,
        **attrs,
    ) -> str:
        """Record one simulated-time interval; returns its site id.

        Timestamps come from the caller (the DES clock) — this method
        never reads wall time, so sim spans are deterministic.  Parents
        are explicit and must themselves be sim spans: the sim tree
        never dangles off wall spans, whose identity varies run to run.

        ``site_key``, when given, derives the site id from that tuple
        alone instead of the tracer's ctx + occurrence counter — use it
        for spans whose logical identity is already globally unique
        (e.g. ``("replay", label, kind)``), so the same span gets the
        same id no matter which tracer (coordinator or worker) emits it.
        """
        with self._lock:
            if site_key is not None:
                site = hashlib.blake2b(
                    repr(site_key).encode(), digest_size=6
                ).hexdigest()
            else:
                site = self._site(SIM, layer, name, parent)
            self._record(
                Span(SIM, layer, name, site, parent, int(start_ns), int(end_ns),
                     self._ctx_attrs + _freeze_attrs(attrs))
            )
        return site

    # -- wall domain ----------------------------------------------------
    @contextmanager
    def wall_span(self, layer: str, name: str, **attrs):
        """Time a wall-clock interval; nests under the enclosing one.

        Forbidden inside the sim-domain directories (lint rule DET001):
        wall time there would leak nondeterminism into simulated state.
        """
        t0 = time.perf_counter() - self.epoch
        with self._lock:
            parent = self._wall_stack[-1] if self._wall_stack else ""
            site = self._site(WALL, layer, name, parent)
            self._wall_stack.append(site)
        try:
            yield site
        finally:
            t1 = time.perf_counter() - self.epoch
            with self._lock:
                if site in self._wall_stack:
                    self._wall_stack.remove(site)
                self._record(
                    Span(WALL, layer, name, site, parent, t0, t1,
                         self._ctx_attrs + _freeze_attrs(attrs))
                )

    def wall_event(self, layer: str, name: str, seconds: float, **attrs) -> str:
        """Record an already-measured wall duration (e.g. a worker's
        reported cell seconds) without re-reading the clock twice."""
        t1 = time.perf_counter() - self.epoch
        with self._lock:
            parent = self._wall_stack[-1] if self._wall_stack else ""
            site = self._site(WALL, layer, name, parent)
            self._record(
                Span(WALL, layer, name, site, parent, t1 - float(seconds), t1,
                     self._ctx_attrs + _freeze_attrs(attrs))
            )
        return site

    # -- pool boundary --------------------------------------------------
    def to_tuples(self) -> list[tuple]:
        """Spans as plain tuples — the only thing that crosses the pool."""
        return [tuple(s) for s in self.spans]

    def ingest(self, tuples: Iterable[tuple]) -> None:
        """Adopt spans shipped back from a worker tracer.

        Spans keep their own site ids and parent links (worker site ids
        embed the worker's ctx, so they cannot collide with ours); they
        are appended as-is, and canonical ordering is restored at
        export/report time by sorting — arrival order across workers is
        scheduling-dependent and deliberately not meaningful.
        """
        with self._lock:
            for t in tuples:
                self._record(Span(*t))

    # -- views ----------------------------------------------------------
    def sim_spans(self) -> list[Span]:
        """Sim-domain spans in canonical (deterministic) order."""
        return sorted(
            (s for s in self.spans if s.domain == SIM),
            key=lambda s: (s.attrs, s.start, s.layer, s.name, s.site),
        )

    def wall_spans(self) -> list[Span]:
        return [s for s in self.spans if s.domain == WALL]

    def __len__(self) -> int:
        return len(self.spans)


# -- module-global tracer (the zero-cost-when-disabled switch) -----------
_ACTIVE: Optional[Tracer] = None


def install(t: Tracer) -> Tracer:
    """Make ``t`` the process-wide active tracer."""
    global _ACTIVE
    _ACTIVE = t
    return t


def uninstall() -> None:
    global _ACTIVE
    _ACTIVE = None


def tracer() -> Optional[Tracer]:
    """The active tracer, or ``None`` — callers guard on this."""
    return _ACTIVE


def enabled() -> bool:
    return _ACTIVE is not None


@contextmanager
def tracing(t: Optional[Tracer] = None):
    """Scoped install/uninstall; yields the tracer."""
    t = t if t is not None else Tracer()
    prev = _ACTIVE
    install(t)
    try:
        yield t
    finally:
        if prev is None:
            uninstall()
        else:
            install(prev)
