"""Parent-linked spans and the events inside them: the one event model.

A *span* is a named, timed section of work.  Spans form a tree under a
``trace_id`` minted at the edge (HTTP ingress, a CLI entry, a sweep), and
every span record carries enough to rebuild that tree after the fact:

``trace_id``
    The whole request's identity — the only *random* field.  Minted by
    :func:`new_trace_id` (or supplied by the caller, e.g. from an
    ``X-Repro-Trace-Id`` header).
``span_id`` / ``parent_id``
    Hierarchical path strings (``"1"``, ``"1.2"``, ``"1.2.w0"``): each
    span numbers its children with a per-span counter, so ids are
    *deterministic* — two runs of the same work produce byte-identical
    span trees once the fields in
    :data:`~repro.obs.trace.WALL_CLOCK_FIELDS` are stripped.  Crossing a
    process boundary appends a non-numeric suffix (``.w0`` for worker 0,
    ``.local`` for the in-process twin, ``.r`` for a detached task), so
    remote children can number themselves without coordinating with the
    parent process.

An *event* is something that happened inside a span, emitted at once by
:meth:`Span.event` as ``{"type": "event", "name", "trace_id", "span_id",
"attrs", "ts"}``: the engine's ``run_start`` / ``step`` / ``run_end``
on ``sim.run``, the sweep's ``sweep_start`` / ``point_done`` /
``chunk_failed`` on ``sweep``.  ``(trace_id, span_id)`` names the span,
so the events of two runs in one file never mix.  Event attrs are plain
JSON values, so a ring buffer and a JSONL file hold the same records.

Propagation is a :mod:`contextvars` variable inside one thread/task, and
an explicit ``parent=(trace_id, parent_span_id)`` tuple across executor
threads and :class:`~repro.serve.workers.WorkerPool` pipes (workers
collect their span records locally and ship them back in the task reply).

Sinks
-----
There is one process-global sink (``NULL_SINK`` by default; install one
with ``repro.obs.configure(spans=...)``).  A span opened with ``sink=``
writes there *and takes its children along*: a span with no ``sink=``
writes to its parent span's sink, and only a root (or a child of a tuple
parent) falls back to the global sink.  Events are written only where a
caller asked for them — ``SimulationConfig.trace``, ``run_sweep(trace=)``
or ``--trace`` — so a server's global span ring never fills with
per-step records.

Zero cost when off
------------------
:func:`span` is active when its sink is enabled **or** the metrics
registry is (every finished span feeds the per-stage latency histogram
``repro_obs_span_seconds{name=...}`` with the trace id as exemplar);
with both off it yields a shared null span and touches nothing.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterable, Iterator, Optional, Sequence, Union

from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, get_registry
from repro.obs.trace import NULL_SINK, TraceSink, resolve_sink

__all__ = [
    "SPAN_SECONDS_METRIC",
    "Span",
    "span",
    "current_span",
    "current_trace_id",
    "new_trace_id",
    "get_span_sink",
    "set_span_sink",
    "span_records",
    "span_tree",
    "normalized_tree",
    "render_waterfall",
]

#: Per-stage latency histogram every finished span observes (when the
#: registry is enabled), labeled by span name, exemplared by trace id.
SPAN_SECONDS_METRIC = "repro_obs_span_seconds"

_SPAN_SINK: TraceSink = NULL_SINK
_CURRENT: ContextVar[Optional["Span"]] = ContextVar(
    "repro_obs_current_span", default=None
)


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (the one nondeterministic field)."""
    return os.urandom(8).hex()


def get_span_sink() -> TraceSink:
    """The process-global span sink (``NULL_SINK`` unless configured)."""
    return _SPAN_SINK


def set_span_sink(sink: Optional[TraceSink]) -> TraceSink:
    """Install ``sink`` (``None`` → ``NULL_SINK``); returns the old one.

    Prefer ``repro.obs.configure(spans=...)``, which also accepts a path.
    """
    global _SPAN_SINK
    sink = resolve_sink(sink, "span sink", paths=False)
    previous, _SPAN_SINK = _SPAN_SINK, NULL_SINK if sink is None else sink
    return previous


class Span:
    """One live span: identity, mutable attrs, its sink, and a child-id
    counter."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "attrs",
                 "sink", "_children")

    def __init__(self, name: str, trace_id: str, span_id: str,
                 parent_id: Optional[str], attrs: dict,
                 sink: TraceSink) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.sink = sink
        self._children = 0

    def child_id(self) -> str:
        self._children += 1
        return f"{self.span_id}.{self._children}"

    def set(self, key: str, value) -> None:
        """Attach/overwrite one attribute (recorded at span end)."""
        self.attrs[key] = value

    def context(self) -> tuple[str, str]:
        """``(trace_id, span_id)`` — the tuple to hand across a process
        or thread boundary as an explicit ``parent=``."""
        return (self.trace_id, self.span_id)

    def event(self, name: str, **attrs) -> None:
        """Emit one ``event`` record, now, naming this span.

        ``attrs`` must be plain JSON values (ints, floats, strings,
        lists), never numpy ones.
        """
        if self.sink.enabled:
            self.sink.emit({
                "type": "event",
                "name": name,
                "trace_id": self.trace_id,
                "span_id": self.span_id,
                "attrs": attrs,
                "ts": time.monotonic(),
            })


class _NullSpan:
    """Shared no-op stand-in yielded while spans are off."""

    __slots__ = ()
    name = None
    trace_id = None
    span_id = None
    parent_id = None
    attrs: dict = {}

    def set(self, key: str, value) -> None:
        pass

    def context(self) -> None:
        return None

    def event(self, name: str, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()

ParentRef = Union[Span, tuple, None]


@contextmanager
def span(
    name: str,
    *,
    parent: ParentRef = None,
    trace_id: Optional[str] = None,
    remote_suffix: Optional[str] = None,
    sink: Optional[TraceSink] = None,
    **attrs,
) -> Iterator[Union[Span, _NullSpan]]:
    """Open a timed span; emits one record when the block exits.

    Parameters
    ----------
    parent:
        ``None`` — nest under the context-local current span (or start a
        new root); a ``(trace_id, parent_span_id)`` tuple — an *explicit*
        parent from another thread or process; a :class:`Span` — nest
        under it directly.
    trace_id:
        Force the root's trace id (HTTP ingress honoring a client-sent
        header).  Ignored when a parent determines the trace.
    remote_suffix:
        Span-id suffix used with a tuple ``parent`` — the cross-boundary
        namespace (``"w0"``, ``"local"``); defaults to ``"r"``.  Keeps
        remote children collision-free without coordinating counters.
    sink:
        Emit to this sink, and let every child span inherit it.  Without
        it the span writes to its parent span's sink, or to the
        process-global span sink when it has no parent :class:`Span`
        (a root, or a tuple ``parent``).
    attrs:
        Initial attributes; deterministic values only, so span trees stay
        comparable across runs (wall-clock belongs to the timing fields).

    An exception in the body stamps ``error=<type name>`` on the span and
    propagates.  When both the span sink and the metrics registry are off
    the shared null span is yielded and nothing is recorded.
    """
    if parent is None:
        parent = _CURRENT.get()
    if sink is None:
        sink = parent.sink if isinstance(parent, Span) else _SPAN_SINK
    reg = get_registry()
    if not sink.enabled and not reg.enabled:
        yield _NULL_SPAN
        return

    if isinstance(parent, Span):
        tid = parent.trace_id
        sid = parent.child_id()
        pid = parent.span_id
    elif isinstance(parent, tuple):
        tid, pid = str(parent[0]), str(parent[1])
        sid = f"{pid}.{remote_suffix or 'r'}"
    else:
        tid = trace_id or new_trace_id()
        sid = "1"
        pid = None

    sp = Span(name, tid, sid, pid, dict(attrs), sink)
    token = _CURRENT.set(sp)
    t0 = time.perf_counter()
    try:
        yield sp
    except BaseException as exc:
        sp.attrs.setdefault("error", type(exc).__name__)
        raise
    finally:
        duration = time.perf_counter() - t0
        _CURRENT.reset(token)
        if sink.enabled:
            sink.emit({
                "type": "span",
                "name": name,
                "trace_id": sp.trace_id,
                "span_id": sp.span_id,
                "parent_id": sp.parent_id,
                "attrs": sp.attrs,
                "duration_s": duration,
                "ts": time.monotonic(),
            })
        if reg.enabled:
            reg.histogram(
                SPAN_SECONDS_METRIC,
                "Span duration by stage name (exemplars carry trace ids).",
                label_names=("name",),
                buckets=DEFAULT_LATENCY_BUCKETS,
            ).labels(name=name).observe(duration, exemplar=sp.trace_id)


def current_span() -> Optional[Span]:
    """The context-local active span, or ``None`` outside any span."""
    return _CURRENT.get()


def current_trace_id() -> Optional[str]:
    sp = _CURRENT.get()
    return sp.trace_id if sp is not None else None


# ----------------------------------------------------------------------
# reading span streams back
# ----------------------------------------------------------------------
def span_records(records: Iterable[dict],
                 trace_id: Optional[str] = None) -> list[dict]:
    """The ``span``-typed records (optionally of one trace) from a stream."""
    return [r for r in records
            if r.get("type") == "span"
            and (trace_id is None or r.get("trace_id") == trace_id)]


def _id_sort_key(span_id: str) -> tuple:
    parts: list[tuple[int, object]] = []
    for piece in str(span_id).split("."):
        parts.append((0, int(piece)) if piece.isdigit() else (1, piece))
    return tuple(parts)


def span_tree(records: Iterable[dict],
              trace_id: Optional[str] = None) -> list[dict]:
    """Rebuild the span tree(s): a list of nested ``{..., "children"}``.

    Orphans (parent span missing — e.g. still open, or evicted from a
    ring buffer) surface as additional roots rather than vanishing.
    """
    spans = span_records(records, trace_id)
    nodes: dict[tuple, dict] = {}
    for rec in spans:
        node = dict(rec)
        node["children"] = []
        nodes[(rec.get("trace_id"), rec.get("span_id"))] = node
    roots: list[dict] = []
    ordered = sorted(nodes, key=lambda k: (str(k[0]), _id_sort_key(k[1])))
    for key in ordered:
        node = nodes[key]
        parent_key = (node.get("trace_id"), node.get("parent_id"))
        if node.get("parent_id") is not None and parent_key in nodes:
            nodes[parent_key]["children"].append(node)
        else:
            roots.append(node)
    return roots


def normalized_tree(
    records: Iterable[dict],
    trace_id: Optional[str] = None,
    *,
    drop_attrs: Sequence[str] = (),
) -> list:
    """The span tree with every nondeterministic field stripped.

    Removes :data:`WALL_CLOCK_FIELDS` plus the id plumbing, keeping
    ``(name, attrs, children)`` — the shape differential tests compare
    across backends, worker tiers, and reruns.  ``drop_attrs`` removes
    identity-ish attributes (a worker index) that legitimately differ.
    """
    def strip(node: dict) -> dict:
        attrs = {k: v for k, v in (node.get("attrs") or {}).items()
                 if k not in drop_attrs}
        return {
            "name": node.get("name"),
            "attrs": attrs,
            "children": [strip(c) for c in node["children"]],
        }

    return [strip(root) for root in span_tree(records, trace_id)]


def render_waterfall(records: Iterable[dict],
                     trace_id: Optional[str] = None,
                     *, width: int = 32) -> str:
    """A text waterfall per trace: indentation = depth, bar ∝ duration.

    Durations are monotonic-clock measurements local to each process, so
    bars compare durations (relative to the trace's root), not absolute
    offsets — offsets across process boundaries are not meaningful.
    """
    lines: list[str] = []
    for root in span_tree(records, trace_id):
        total = float(root.get("duration_s") or 0.0)
        count = _count(root)
        lines.append(f"trace {root.get('trace_id')}  "
                     f"({count} span{'s' if count != 1 else ''}, "
                     f"{1e3 * total:.1f}ms)")
        _render_node(root, total, 0, width, lines)
        lines.append("")
    if lines and lines[-1] == "":
        lines.pop()
    return "\n".join(lines)


def _count(node: dict) -> int:
    return 1 + sum(_count(c) for c in node["children"])


def _render_node(node: dict, total: float, depth: int, width: int,
                 lines: list[str]) -> None:
    duration = float(node.get("duration_s") or 0.0)
    frac = duration / total if total > 0 else 0.0
    bar = "─" * max(1, round(frac * width))
    label = "  " * depth + str(node.get("name"))
    attrs = node.get("attrs") or {}
    suffix = f"  {attrs}" if attrs else ""
    lines.append(f"{label:<28} {bar:<{width + 1}} {1e3 * duration:8.2f}ms{suffix}")
    for child in node["children"]:
        _render_node(child, total, depth + 1, width, lines)
