"""A pool escape inside a nested function: one site, one finding."""

from concurrent.futures import ProcessPoolExecutor


def outer():
    def inner():
        with ProcessPoolExecutor() as pool:
            pool.submit(lambda: 1)  # FLOW003  # repro: noqa[FLOW003]

    return inner
