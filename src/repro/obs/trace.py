"""Trace sinks: where span and event records go, and how they come back.

Every record the observability layer writes is one of two dicts, both
built in :mod:`repro.obs.spans`:

``{"type": "span", "name", "trace_id", "span_id", "parent_id", "attrs", "duration_s", "ts"}``
    a finished span;
``{"type": "event", "name", "trace_id", "span_id", "attrs", "ts"}``
    something that happened *in* span ``span_id`` — a run's ``run_start``
    / ``step`` / ``run_end``, a sweep's ``sweep_start`` / ``point_done`` /
    ``chunk_failed``.

This module holds the sinks those records go to, the one resolver that
turns a ``trace=`` argument into a sink, the config fingerprint the
engine stamps on a run, and :func:`read_trace`.  A sink only ever sees
dicts, so implementations stay trivial.

Sinks
-----
* :class:`JsonlSink` — one canonical-JSON line per record, flushed
  immediately (the same crash-survivability contract as the sweep
  checkpoint: a kill loses at most the torn final line);
* :class:`RingBufferSink` — the last ``capacity`` records in memory, for
  tests, the serve tier and interactive inspection;
* :class:`NullSink` — ``enabled = False`` and drops everything; the
  default of the process-global span sink.

Determinism
-----------
Every record is stamped with a monotonic ``ts``; spans add a measured
``duration_s`` and carry a randomly minted ``trace_id``.  The fields
named in :data:`WALL_CLOCK_FIELDS` are the only nondeterministic ones —
strip them and two runs of the same seeded simulation produce
byte-identical JSONL traces (``tests/obs/test_trace.py`` asserts exactly
that).
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from dataclasses import fields as dataclass_fields
from dataclasses import is_dataclass
from enum import Enum
from hashlib import sha256
from pathlib import Path
from typing import Iterable, Optional, Union

import numpy as np

from repro.errors import ObservabilityError

__all__ = [
    "WALL_CLOCK_FIELDS",
    "TraceSink",
    "NullSink",
    "NULL_SINK",
    "JsonlSink",
    "RingBufferSink",
    "resolve_sink",
    "config_fingerprint",
    "read_trace",
]

#: Record fields that carry wall-clock time or run-identity randomness.
#: Everything else in a trace — span names, ids, parent links, attrs and
#: event attrs — is deterministic given ``(spec, config, seed)``.
WALL_CLOCK_FIELDS = frozenset({"ts", "duration_s", "trace_id"})


class TraceSink:
    """Protocol-by-inheritance: ``emit(record)`` + ``close()``.

    ``enabled`` is a *class-level* fast-path flag: producers check it
    before building a record, so a disabled sink costs one attribute
    lookup and no allocation.
    """

    enabled: bool = True

    def emit(self, record: dict) -> None:
        raise NotImplementedError

    def close(self) -> None:  # noqa: B027 - optional hook
        pass

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NullSink(TraceSink):
    """Drops every record; ``enabled`` is False so producers skip building
    records entirely."""

    enabled = False

    def emit(self, record: dict) -> None:
        pass


NULL_SINK = NullSink()


def _json_default(obj: object):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Enum):
        return obj.value
    raise TypeError(f"trace records must be JSON-able, got {type(obj).__name__}")


class JsonlSink(TraceSink):
    """Append one canonical (sorted-key, compact) JSON line per record.

    Lines are flushed as they are written, so a crashed run's trace is
    readable up to the final record.
    """

    def __init__(self, path: Union[str, Path], *, append: bool = False) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a" if append else "w", encoding="utf-8")
        self.emitted = 0

    def emit(self, record: dict) -> None:
        if self._fh is None:
            raise ObservabilityError(
                f"JsonlSink({self.path}) used after close()"
            )
        self._fh.write(
            json.dumps(record, sort_keys=True, separators=(",", ":"),
                       default=_json_default)
        )
        self._fh.write("\n")
        self._fh.flush()
        self.emitted += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class RingBufferSink(TraceSink):
    """Keep the newest ``capacity`` records in memory.

    ``dropped`` counts records that fell off the old end — a consumer can
    tell a complete trace from a truncated one.  Emission is locked: the
    serve tier feeds one ring from the event loop, executor threads, and
    worker-reply relays at once.
    """

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ObservabilityError(f"ring buffer needs capacity >= 1, got {capacity}")
        self.capacity = capacity
        self._buf: deque[dict] = deque(maxlen=capacity)
        self.emitted = 0
        self._lock = threading.Lock()

    def emit(self, record: dict) -> None:
        with self._lock:
            self._buf.append(record)
            self.emitted += 1

    @property
    def records(self) -> list[dict]:
        with self._lock:
            return list(self._buf)

    @property
    def dropped(self) -> int:
        with self._lock:
            return self.emitted - len(self._buf)

    def clear(self) -> None:
        with self._lock:
            self._buf.clear()
            self.emitted = 0


# ----------------------------------------------------------------------
# the one sink resolver
# ----------------------------------------------------------------------
def resolve_sink(value, what: str, *, paths: bool = True) -> Optional[TraceSink]:
    """Turn a ``trace=``-style argument into a sink.

    ``None``/``False`` resolve to ``None`` (the caller's default); a
    ``str``/``os.PathLike`` opens a new :class:`JsonlSink`, which the
    caller owns and closes, unless ``paths=False``; a sink passes
    through.  Anything else raises a one-line
    :class:`~repro.errors.ObservabilityError` naming ``what``.
    """
    if value is None or value is False:
        return None
    if isinstance(value, (str, os.PathLike)):
        if not paths:
            raise ObservabilityError(
                f"{what} must be None or a TraceSink, not a path: "
                f"nothing would close the file"
            )
        return JsonlSink(value)
    if callable(getattr(value, "emit", None)) and hasattr(value, "enabled"):
        return value
    raise ObservabilityError(
        f"{what} must be None, {'a path, ' if paths else ''}or a TraceSink "
        f"(enabled, emit(record)); got {type(value).__name__}"
    )


# ----------------------------------------------------------------------
# run identity
# ----------------------------------------------------------------------
def _fingerprint_value(value):
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (np.integer, np.floating)):
        return value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return type(value).__qualname__  # model objects: identity by class


def config_fingerprint(config) -> str:
    """Stable sha256 of a :class:`~repro.core.engine.SimulationConfig`.

    Component objects (arrival processes, loss models, sinks) contribute
    their class name only — the fingerprint identifies the run *shape*,
    not the full closure; the trace field itself is excluded (tracing a
    run must not change its identity).
    """
    if is_dataclass(config):
        payload = {
            f.name: _fingerprint_value(getattr(config, f.name))
            for f in dataclass_fields(config)
            if f.name != "trace"
        }
    else:
        payload = {"repr": repr(config)}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# reading traces back
# ----------------------------------------------------------------------
def read_trace(source: Union[str, Path, Iterable[dict]]) -> list[dict]:
    """Materialise a trace: a JSONL path, or any iterable of records.

    Raises :class:`~repro.errors.ObservabilityError` on unparseable lines
    (a torn final line — the crash footprint — is dropped, mirroring the
    sweep checkpoint's tolerance).
    """
    if not isinstance(source, (str, Path)):
        return [dict(rec) for rec in source]
    path = Path(source)
    if not path.exists():
        raise ObservabilityError(f"no trace file at {path}")
    records: list[dict] = []
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for i, line in enumerate(lines):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                break  # torn tail: a mid-write kill; everything before is good
            raise ObservabilityError(
                f"corrupt trace record at {path}:{i + 1}"
            ) from None
    return records
