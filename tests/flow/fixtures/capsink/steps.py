"""A sink whose taint arrives in the sweep the cap cuts off.

Each ``step_NN`` reads the summary of ``step_NN+1``, so the wall-clock
source at the bottom climbs one function per sweep and reaches
``step_01`` in the last sweep the cap allows.  ``seal`` sorts before
every step: it ran on ``step_01``'s clean summary, and is still dirty
when the cap bites, so its finding exists only if it is interpreted
once more on the final summaries.
"""

import hashlib
import time


def seal():
    return hashlib.blake2b(step_01()).hexdigest()


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
    return time.perf_counter_ns()
