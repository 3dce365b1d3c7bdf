"""Seeded pool escapes: each marked line reports FLOW003 once."""

import random
from concurrent.futures import ProcessPoolExecutor


def work(x):
    return x


def fan_out(items):
    rng = random.Random(7)
    log = open("log.txt", "w")
    with ProcessPoolExecutor() as pool:
        futs = [pool.submit(lambda x: x + 1, item) for item in items]  # FLOW003: lambda
        futs.append(pool.submit(work, rng))  # FLOW003: live RNG state
        futs.append(pool.submit(work, log))  # FLOW003: open handle
        futs.append(pool.submit(work, open("data.bin", "rb")))  # FLOW003: handle opened in the call
    log.close()
    return futs


def batch_fan_out(cells, workload, seed):
    from repro.batch.plan import plan_cell

    plans = None  # placeholder binding, overwritten below
    with ProcessPoolExecutor() as pool:
        plan = plan_cell(*cells[0], workload, seed)
        futs = [pool.submit(work, plan)]  # FLOW003: stacked plan copy
        futs.append(pool.submit(work, plan_cell(*cells[1], workload, seed)))  # FLOW003: planned in the call
    return plans, futs
