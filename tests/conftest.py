import os
import time

import pytest
from hypothesis import HealthCheck, settings

from heightcount.verify import run_check

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", deadline=None, max_examples=25)

settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture(scope="session")
def registry():
    """`verify`'s registry checks, each run at most once per session.

    Returns a lookup name -> (CheckResult, seconds the check took)."""
    done = {}

    def result(name):
        if name not in done:
            t0 = time.perf_counter()
            res = run_check(name)
            done[name] = (res, time.perf_counter() - t0)
        return done[name]

    return result
