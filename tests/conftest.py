import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

# HYPOTHESIS_PROFILE=ci: the same examples on every run, no per-example deadline
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def traced_peak(fn, *args):
    """(fn's result, the peak bytes traced while it ran) of one call."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def held_bytes(fn, *args):
    """(fn's result, the traced bytes still allocated when fn returns) of one
    call: what the result and anything fn left behind (a tape's records)
    hold. Inside :func:`traced_peak` it leaves that trace running."""
    nested = tracemalloc.is_tracing()
    if not nested:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        if not nested:
            tracemalloc.stop()
