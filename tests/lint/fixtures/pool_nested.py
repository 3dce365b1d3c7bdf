"""A POOL violation inside a nested function: one site, one finding."""

from concurrent.futures import ProcessPoolExecutor


def outer():
    def inner():
        with ProcessPoolExecutor() as pool:
            pool.submit(lambda: 1)  # POOL001  # repro: noqa[POOL001]

    return inner
