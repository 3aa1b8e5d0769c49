"""A time limit per test, from the standard library.

A fault that keeps an elimination from ending (a pivot that never
clears) would otherwise hang the suite.  faulthandler ends the run with
every thread's traceback once a single test has run for TEST_LIMIT_S
seconds: far above the slowest test (the algebra-law suite, ~25 s) and
its 60 s budget, so only a hang reaches it.
"""

import faulthandler
import os
import sys

import pytest

TEST_LIMIT_S = 300

_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # While a test runs, output capture points fd 2 at a file that is
    # lost when the process exits; a copy taken now reaches the terminal.
    config.stash[_STDERR] = os.dup(sys.__stderr__.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def time_limit(request):
    faulthandler.dump_traceback_later(
        TEST_LIMIT_S, exit=True, file=request.config.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
