"""Dynamic (time-varying) topologies — Conjecture 4's setting."""

from repro._exports import lazy_exports

_EXPORTS = {
    ".topology": ("TopologySchedule", "ScheduledChanges", "PeriodicLinkSchedule",
                  "EdgeChurnSchedule"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
