"""A closure that rebinds the enclosing function's wall-clock reading
through ``nonlocal``: the name it reads is the enclosing one, so its
result stays wall-derived and reaches the span (FLOW001)."""

import time


def replay(items, on_done):
    return [on_done(item) for item in items]


def run(tr, items):
    t0 = time.perf_counter()

    def measure(item):
        nonlocal t0
        size = item * 2 + t0
        t0 = time.perf_counter()
        return size

    for size in replay(items, measure):
        tr.sim_span("device", "replay", 0, size)
