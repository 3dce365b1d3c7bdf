"""The rest of the per-file pool heuristic's shapes: each marked line
reports FLOW003 once."""

from concurrent.futures import ProcessPoolExecutor

import numpy as np
import numpy

from repro.ssd.scheduler import LaneCols


def work(*args, **kwargs):
    return args, kwargs


def numpy_rngs(executor):
    gen = np.random.default_rng(7)
    legacy = numpy.random.RandomState(7)
    executor.submit(work, gen)  # FLOW003: numpy Generator
    executor.submit(work, legacy)  # FLOW003: legacy RandomState


def engine_fan_out(engine, items):
    rng = np.random.default_rng(3)
    engine.map(lambda item: item, items)  # FLOW003: lambda into engine.map
    engine.map(work, [rng])  # FLOW003: RNG inside a list


def mapped_handle(paths):
    handle = open(paths[0])
    with ProcessPoolExecutor() as executor:
        executor.map(work, handle)  # FLOW003: open handle
        executor.submit(work, key=lambda x: x)  # FLOW003: keyword lambda
    handle.close()


def lane_columns(pool):
    cols = LaneCols()
    pool.submit(work, cols)  # FLOW003: lane columns
