"""A closure whose own timing locals share the enclosing function's
names: its result carries no wall-clock value, so its spans are clean."""

import time


def replay(items, on_done):
    return [on_done(item) for item in items]


def run(tr, items):
    t0 = time.perf_counter()

    def measure(item):
        t0 = time.perf_counter()
        size = item * 2
        t1 = time.perf_counter()
        tr.counter("measure", t1 - t0)
        return size

    for size in replay(items, measure):
        tr.sim_span("device", "replay", 0, size)
    return time.perf_counter() - t0
