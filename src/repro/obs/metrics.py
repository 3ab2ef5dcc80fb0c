"""Process-local metrics: counters, gauges, and fixed-bucket histograms.

The registry is the quantitative half of :mod:`repro.obs` (the trace layer
is the qualitative half).  Producers — flow solvers, the feasibility
cache, the sweep executor — ask the registry for an instrument *at the
point of use*::

    reg = get_registry()
    if reg.enabled:
        reg.counter("repro_flow_solves_total",
                    "Max-flow solver invocations.").labels(
                        algorithm="dinic").inc()

and consumers read :meth:`MetricsRegistry.snapshot` (a plain dict) or
:meth:`MetricsRegistry.render_prometheus` (the Prometheus text exposition
format, one scrape-able page).

Zero-cost-when-off discipline
-----------------------------
The process-global registry starts **disabled**.  While disabled, every
instrument accessor returns the shared :data:`NULL_INSTRUMENT`, whose
``inc`` / ``set`` / ``observe`` / ``labels`` are no-ops — so producer code
pays one dict lookup and one no-op call, and *must not* cache instruments
across enable/disable flips (always re-fetch from the registry; the guard
``if reg.enabled`` above also skips any label-building work).  Enable with
``repro.obs.configure(metrics=True)``.

Every instrument guards its value updates (and its labeled-child table)
with a per-instrument lock.  The registry is per-process by design (sweep
workers each own one) and the simulator hot path is single-threaded —
there an ``inc``/``set``/``observe`` costs one uncontended acquire — but
:mod:`repro.serve` updates the same instruments from the event-loop
thread, the request thread pool, and the jobs worker, and its load tests
assert counters *exactly* (shed count == number of 429s), so a lost
read-modify-write is a correctness bug, not noise.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Mapping, Optional, Sequence, Tuple

from repro.errors import ObservabilityError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_INSTRUMENT",
    "get_registry",
    "DEFAULT_LATENCY_BUCKETS",
    "PROMETHEUS_CONTENT_TYPE",
]

#: The Content-Type a compliant scrape endpoint must serve for
#: :meth:`MetricsRegistry.render_prometheus` output.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Upper bucket bounds (seconds) used for latency histograms unless the
#: caller picks their own; the implicit ``+Inf`` bucket is always added.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

LabelValues = Tuple[Tuple[str, str], ...]


def _label_key(label_names: Tuple[str, ...], kv: Mapping[str, object]) -> LabelValues:
    if set(kv) != set(label_names):
        raise ObservabilityError(
            f"labels {sorted(kv)} do not match declared label names "
            f"{sorted(label_names)}"
        )
    return tuple((name, str(kv[name])) for name in label_names)


class _NullInstrument:
    """Shared no-op stand-in returned by a disabled registry."""

    __slots__ = ()

    def labels(self, **_kv) -> "_NullInstrument":
        return self

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        pass


NULL_INSTRUMENT = _NullInstrument()


class _Instrument:
    """Common parent/child plumbing: a labeled family with one value slot
    per distinct label tuple (the unlabeled parent is its own slot).

    ``_lock`` guards both the child table and this slot's value — serve
    updates instruments from several threads at once.
    """

    kind = "untyped"

    def __init__(self, name: str, help: str = "", label_names: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(label_names)
        self._labels: LabelValues = ()
        self._children: dict[LabelValues, "_Instrument"] = {}
        self._lock = threading.Lock()

    def labels(self, **kv) -> "_Instrument":
        key = _label_key(self.label_names, kv)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = type(self)(self.name, self.help, self.label_names)
                    child._labels = key
                    self._children[key] = child
        return child

    # -- export --------------------------------------------------------
    def _series(self):
        """Yield (labels, instrument) for every slot that holds data."""
        if not self.label_names:
            yield (), self
        for key in sorted(self._children):
            yield key, self._children[key]


class Counter(_Instrument):
    """Monotonically increasing count (events, packets, cache hits)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", label_names: Sequence[str] = ()) -> None:
        super().__init__(name, help, label_names)
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name} cannot decrease (inc({amount}))"
            )
        with self._lock:
            self.value += amount


class Gauge(_Instrument):
    """A value that can go both ways (queue depth, in-flight chunks)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", label_names: Sequence[str] = ()) -> None:
        super().__init__(name, help, label_names)
        self.value: float = 0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self.value -= amount


class Histogram(_Instrument):
    """Fixed-bucket histogram (cumulative counts, Prometheus-style).

    ``buckets`` are finite upper bounds in increasing order; an implicit
    ``+Inf`` bucket catches the rest.  ``observe`` costs one bisect.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help, label_names)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ObservabilityError(
                f"histogram {name} needs strictly increasing bucket bounds, "
                f"got {bounds}"
            )
        if math.isinf(bounds[-1]):
            bounds = bounds[:-1]
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last slot = +Inf
        self.sum: float = 0.0
        self.count: int = 0
        # bucket slot -> (exemplar_id, value): the most recent traced
        # observation that landed there.  Surfaced via snapshot() only;
        # the text exposition stays pure 0.0.4.
        self.exemplars: dict[int, Tuple[str, float]] = {}

    def labels(self, **kv) -> "Histogram":
        key = _label_key(self.label_names, kv)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = Histogram(self.name, self.help, self.label_names,
                                      self.bounds)
                    child._labels = key
                    self._children[key] = child
        return child  # type: ignore[return-value]

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        slot = bisect_left(self.bounds, value)
        with self._lock:
            self.bucket_counts[slot] += 1
            self.sum += value
            self.count += 1
            if exemplar is not None:
                self.exemplars[slot] = (str(exemplar), value)


class MetricsRegistry:
    """Named instrument table with a disabled fast path.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first
    call fixes the instrument's help text, label names (and buckets);
    later calls must agree on the kind or raise
    :class:`~repro.errors.ObservabilityError`.
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self._instruments: dict[str, _Instrument] = {}
        self._lock = threading.Lock()

    # -- accessors -----------------------------------------------------
    def _get(self, cls, name: str, help: str, label_names, **kwargs):
        if not self.enabled:
            return NULL_INSTRUMENT
        inst = self._instruments.get(name)
        if inst is None:
            with self._lock:
                inst = self._instruments.get(name)
                if inst is None:
                    inst = cls(name, help, label_names, **kwargs)
                    self._instruments[name] = inst
        if type(inst) is not cls:
            raise ObservabilityError(
                f"metric {name!r} already registered as {inst.kind}, "
                f"not {cls.kind}"
            )
        return inst

    def counter(self, name: str, help: str = "", label_names: Sequence[str] = ()):
        return self._get(Counter, name, help, label_names)

    def gauge(self, name: str, help: str = "", label_names: Sequence[str] = ()):
        return self._get(Gauge, name, help, label_names)

    def histogram(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        return self._get(Histogram, name, help, label_names, buckets=buckets)

    # -- export --------------------------------------------------------
    def snapshot(self) -> dict:
        """All recorded data as a plain (JSON-able) dict, keyed by name."""
        out: dict[str, dict] = {}
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            entry: dict = {"kind": inst.kind, "help": inst.help}
            series = []
            for labels, slot in inst._series():
                if isinstance(slot, Histogram):
                    if slot.count == 0 and labels == ():
                        continue
                    bound_names = [str(b) for b in slot.bounds] + ["+Inf"]
                    entry_series = {
                        "labels": dict(labels),
                        "buckets": dict(zip(
                            bound_names,
                            _cumulative(slot.bucket_counts),
                        )),
                        "sum": slot.sum,
                        "count": slot.count,
                    }
                    if slot.exemplars:
                        entry_series["exemplars"] = {
                            bound_names[i]: {"trace_id": ex, "value": v}
                            for i, (ex, v) in sorted(slot.exemplars.items())
                        }
                    series.append(entry_series)
                else:
                    if slot.value == 0 and labels == () and inst._children:
                        continue
                    series.append({"labels": dict(labels), "value": slot.value})
            entry["series"] = series
            out[name] = entry
        return out

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        from repro.obs.merge import render_snapshot

        return render_snapshot(self.snapshot())

    def reset(self) -> None:
        """Drop every instrument (tests; a fresh sweep's clean slate)."""
        self._instruments.clear()


def _cumulative(counts: Sequence[int]) -> list[int]:
    out, running = [], 0
    for c in counts:
        running += c
        out.append(running)
    return out


#: The process-global registry.  Disabled until
#: ``repro.obs.configure(metrics=True)``.
_REGISTRY = MetricsRegistry(enabled=False)


def get_registry() -> MetricsRegistry:
    """The process-global registry (always the same object; its ``enabled``
    flag is what :func:`repro.obs.configure` flips)."""
    return _REGISTRY
