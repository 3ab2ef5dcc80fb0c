"""Shared test plumbing: trace failed tests to JSONL for CI artifacts.

When ``REPRO_TRACE_DIR`` is set (CI exports it), every failing test
appends a ``test_failed`` event (and the ``pytest.report`` span it
happened in) to ``$REPRO_TRACE_DIR/failed_tests.jsonl`` through the same
:class:`repro.obs.JsonlSink` the engine traces with — the file is
uploaded as a CI artifact so a red run carries its own forensics.
"""

import os

import pytest


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    trace_dir = os.environ.get("REPRO_TRACE_DIR")
    if not trace_dir or not report.failed:
        return
    from repro.obs import JsonlSink, span

    path = os.path.join(trace_dir, "failed_tests.jsonl")
    with JsonlSink(path, append=True) as sink:
        with span("pytest.report", sink=sink) as sp:
            sp.event(
                "test_failed",
                nodeid=item.nodeid,
                when=report.when,
                duration=report.duration,
                error=str(report.longrepr)[-4000:],
            )
