"""Shared benchmark fixtures.

Every figure/table benchmark regenerates its exhibit from the
simulation, writes the rendered rows/series to ``benchmarks/output/``
and asserts the paper's shape (who wins, by roughly what factor, where
the crossovers fall).  Set ``REPRO_BENCH_SCALE`` (default ``1.0``) to
shrink or grow the workload; the shape assertions hold across scales.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

from repro.experiments import Workload

# the test oracles (``tests.oracles``) import from the repository root
ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

MiB = 1024 * 1024
OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def output_dir() -> Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture(scope="session")
def workload() -> Workload:
    """The OoC trace shape used by every matrix benchmark."""
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    panels = max(2, int(round(12 * scale)))
    return Workload(panels=panels, panel_bytes=8 * MiB, iterations=1)


def save_exhibit(output_dir: Path, name: str, text: str) -> None:
    """Persist one regenerated exhibit and echo it to the terminal."""
    path = output_dir / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[saved to {path}]")
