"""Benchmark-suite configuration.

Each experiment bench runs its experiment once (``rounds=1``) under
pytest-benchmark timing, asserts the paper's qualitative claim held, and
prints the paper-style table (visible with ``pytest -s`` or on failure).
"""

import time

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--exp-full",
        action="store_true",
        default=False,
        help="run experiments at report-quality horizons (slow)",
    )
    parser.addoption(
        "--perf-smoke",
        action="store_true",
        default=False,
        help="exercise every benchmark's code path but skip the wall-clock "
             "assertions (shared CI runners have unpredictable timing; this "
             "keeps benchmark code from rotting without flaky failures)",
    )


@pytest.fixture
def exp_fast(request):
    return not request.config.getoption("--exp-full")


@pytest.fixture
def perf_asserts(request):
    """False under --perf-smoke: measure and report, but don't gate."""
    return not request.config.getoption("--perf-smoke")


@pytest.fixture
def timed_pass(benchmark):
    """``timed_pass(fn, *args)`` runs ``fn`` once under
    ``benchmark.pedantic`` (so pytest-benchmark still records the test)
    and returns ``(result, seconds)``.

    The seconds are the pass's own ``time.perf_counter()`` time, the
    clock every bench times its baseline with, so both sides of a ratio
    read one clock, with or without ``--benchmark-disable``.
    """
    def run(fn, *args):
        tick = time.perf_counter()
        result = benchmark.pedantic(fn, args=args, rounds=1, iterations=1)
        return result, time.perf_counter() - tick

    return run
