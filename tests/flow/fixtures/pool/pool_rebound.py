"""A pool escape whose name is rebound after the submit: still FLOW003."""

import random
from concurrent.futures import ProcessPoolExecutor


def work(x):
    return x


def fan_out_then_rebind():
    rng = random.Random(7)
    with ProcessPoolExecutor() as pool:
        fut = pool.submit(work, rng)  # FLOW003: live RNG state
    rng = None  # the later binding must not hide the escape above
    return fut, rng
