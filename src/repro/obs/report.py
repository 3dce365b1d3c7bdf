"""``python -m repro obs`` — render a trace into per-layer breakdowns.

The report answers the two questions an optimization pass starts with:

* **simulated time** — of every simulated nanosecond the replays
  produced, which device layer was responsible (cell activation, flash
  bus, channel bus, the two contention classes, non-overlapped DMA)?
  Attribution comes from the sim-domain span tree, whose children tile
  each replay's makespan, so coverage is a structural property the
  smoke test asserts (>= 95%).
* **wall time** — of every wall second the run burned, which compute
  stage was responsible (FTL planning, the scheduler recurrence, the
  metrics pass, pool supervision, queue wait, cache)?  This is
  the profiling view the lockstep-vectorization roadmap item targets:
  the ``scheduler`` row *is* the per-cell recurrence loop.

Wall rows report **self time** (a span's duration minus its children's)
so nested spans never double-count.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict
from typing import Optional, Sequence

from .trace import SIM, WALL, Span

__all__ = ["sim_breakdown", "wall_breakdown", "render_report", "main"]


def sim_breakdown(spans: Sequence[Span]) -> dict:
    """Per-layer simulated-time attribution over all replay roots.

    Returns ``{"total_ns", "attributed_ns", "coverage", "layers":
    {layer: ns}, "replays": n}``.  The denominator is the summed
    duration of the sim roots (one per replay); the numerator is the
    summed duration of their child spans, grouped by layer.
    """
    sim = [s for s in spans if s.domain == SIM]
    roots = [s for s in sim if s.parent == ""]
    root_sites = {s.site for s in roots}
    total = sum(s.duration for s in roots)
    layers: dict[str, float] = defaultdict(float)
    attributed = 0.0
    for s in sim:
        if s.parent in root_sites:
            layers[s.layer] += s.duration
            attributed += s.duration
    return {
        "total_ns": int(total),
        "attributed_ns": int(attributed),
        "coverage": attributed / total if total > 0 else 0.0,
        "layers": dict(sorted(layers.items(), key=lambda kv: -kv[1])),
        "replays": len(roots),
    }


def wall_breakdown(spans: Sequence[Span]) -> dict:
    """Per-layer wall self-time; ``{"total_s", "layers": {layer: s}}``."""
    wall = [s for s in spans if s.domain == WALL]
    child_time: dict[str, float] = defaultdict(float)
    for s in wall:
        if s.parent:
            child_time[s.parent] += s.duration
    layers: dict[str, float] = defaultdict(float)
    for s in wall:
        self_time = max(0.0, s.duration - child_time.get(s.site, 0.0))
        layers[s.layer] += self_time
    total = sum(s.duration for s in wall if s.parent == "")
    if total == 0.0:
        total = sum(layers.values())
    return {
        "total_s": total,
        "layers": dict(sorted(layers.items(), key=lambda kv: -kv[1])),
        "spans": len(wall),
    }


def _table(rows: list[tuple[str, str, str]], headers: tuple[str, str, str]) -> str:
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(3)
    ]
    fmt = f"  {{:<{widths[0]}}}  {{:>{widths[1]}}}  {{:>{widths[2]}}}"
    lines = [fmt.format(*headers), fmt.format(*("-" * w for w in widths))]
    lines.extend(fmt.format(*r) for r in rows)
    return "\n".join(lines)


def render_report(header: dict, spans: Sequence[Span]) -> str:
    """The human-readable per-layer time-breakdown report."""
    out: list[str] = []
    trace_id = header.get("trace_id", "?")
    out.append(f"trace {trace_id}: {len(spans)} spans")

    sim = sim_breakdown(spans)
    out.append("")
    out.append(
        f"simulated time ({sim['replays']} replays, "
        f"{sim['total_ns'] / 1e6:.2f} ms simulated)"
    )
    if sim["total_ns"] > 0:
        rows = [
            (layer, f"{ns / 1e6:.3f} ms", f"{ns / sim['total_ns']:6.1%}")
            for layer, ns in sim["layers"].items()
        ]
        out.append(_table(rows, ("layer", "sim time", "share")))
        out.append(
            f"  attributed: {sim['attributed_ns'] / 1e6:.2f} ms "
            f"({sim['coverage']:.1%} of simulated time)"
        )
    else:
        out.append("  (no sim-domain spans in this trace)")

    wall = wall_breakdown(spans)
    out.append("")
    out.append(
        f"wall time ({wall['spans']} spans, {wall['total_s']:.3f} s traced)"
    )
    if wall["layers"]:
        total = wall["total_s"] or 1.0
        rows = [
            (layer, f"{s:9.4f} s", f"{s / total:6.1%}")
            for layer, s in wall["layers"].items()
        ]
        out.append(_table(rows, ("layer", "self time", "share")))
    else:
        out.append("  (no wall-domain spans in this trace)")
    return "\n".join(out)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro obs",
        description="Inspect repro observability traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    rep = sub.add_parser(
        "report", help="per-layer time breakdown of a --trace JSONL file"
    )
    rep.add_argument("trace", help="path to a trace written by --trace")
    rep.add_argument(
        "--require-coverage",
        type=float,
        default=None,
        metavar="FRAC",
        help="exit 1 unless sim-time attribution coverage >= FRAC (CI gate)",
    )
    args = parser.parse_args(argv)

    from .export import read_jsonl

    try:
        header, spans = read_jsonl(args.trace)
    except OSError as exc:
        print(f"obs report: cannot read {args.trace}: {exc}", file=sys.stderr)
        return 2
    if not spans:
        print(f"obs report: no spans in {args.trace}", file=sys.stderr)
        return 2
    print(render_report(header, spans))
    if args.require_coverage is not None:
        cov = sim_breakdown(spans)["coverage"]
        if cov < args.require_coverage:
            print(
                f"obs report: sim-time coverage {cov:.1%} below required "
                f"{args.require_coverage:.1%}",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
