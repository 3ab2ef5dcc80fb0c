"""Every obs test leaves the process-global observability state clean."""

import pytest

from repro.obs import get_registry, set_span_sink


@pytest.fixture(autouse=True)
def _clean_obs():
    registry = get_registry()
    prev_enabled = registry.enabled
    yield
    set_span_sink(None)
    registry.enabled = prev_enabled
    registry.reset()
