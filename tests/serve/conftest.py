"""Every serve test module leaves the process-global observability state
as it found it.

A server turns the metrics registry and a span sink on for its lifetime,
so servers that overlap must stop in reverse start order (see
:class:`repro.serve.BackgroundServer`); otherwise every later test runs
with observability on.
"""

import pytest

from repro.obs import get_registry, get_span_sink


@pytest.fixture(scope="module", autouse=True)
def _observability_restored():
    registry = get_registry()
    before = registry.enabled, get_span_sink().enabled
    yield
    after = registry.enabled, get_span_sink().enabled
    if after != before:
        pytest.fail(
            "module left observability state changed: (registry enabled, "
            f"span sink enabled) was {before}, is {after}; stop overlapping "
            "servers in reverse start order",
            pytrace=False,
        )
