"""A call chain written against the analyzer's sweep order.

Functions are swept in sorted order, but each ``step_NN`` reads the
summary of ``step_NN+1``: the wall-clock source at the bottom climbs one
function per sweep, so the chain is longer than the sweep cap and its
top never sees the taint.
"""

import hashlib
import time


def record():
    return hashlib.blake2b(step_00()).hexdigest()


def step_00():
    return step_01()


def step_01():
    return step_02()


def step_02():
    return step_03()


def step_03():
    return step_04()


def step_04():
    return step_05()


def step_05():
    return step_06()


def step_06():
    return step_07()


def step_07():
    return step_08()


def step_08():
    return step_09()


def step_09():
    return step_10()


def step_10():
    return step_11()


def step_11():
    return step_12()


def step_12():
    return step_13()


def step_13():
    return step_14()


def step_14():
    return time.perf_counter_ns()
