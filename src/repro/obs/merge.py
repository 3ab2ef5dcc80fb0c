"""Merging per-process metric snapshots into one scrape page.

The registry (:mod:`repro.obs.metrics`) is per-process by design: every
:class:`~repro.serve.workers.WorkerPool` worker owns its own, so shard
FeasibilityCache hits, warm-flow solves, and fastpath counters land in a
process the frontend's ``/metrics`` cannot see.  This module is the
parent-side half of the merge protocol:

* workers ship :meth:`MetricsRegistry.snapshot` dicts piggybacked on
  every task reply, and a scrape reads the latest one per worker (a
  worker's registry changes only while it runs a task — see
  :meth:`WorkerPool.metrics_snapshots`);
* :func:`add_snapshots` folds a dead worker's last snapshot into the
  bank its successor builds on, keeping every counter monotone across a
  respawn (counters and histogram buckets add; gauges take the newer
  value);
* :func:`merge_worker_snapshots` relabels each worker's series with a
  ``worker`` label and lays them alongside the parent's own (unlabeled)
  series;
* :func:`render_snapshot` renders a snapshot dict, merged or not, as a
  Prometheus text-0.0.4 page (:meth:`MetricsRegistry.render_prometheus`
  is this renderer over the registry's own snapshot), and
  :func:`parse_exposition` reads such a page back (the round-trip test
  and the CI smoke's assertions).

All functions take and return plain snapshot dicts — nothing here
touches a live registry, so merging is safe from any thread.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from repro.errors import ObservabilityError

__all__ = [
    "add_snapshots",
    "merge_worker_snapshots",
    "render_snapshot",
    "parse_exposition",
    "counter_regressions",
]


def _copy_series(series: dict) -> dict:
    out = dict(series)
    out["labels"] = dict(series.get("labels") or {})
    if "buckets" in series:
        out["buckets"] = dict(series["buckets"])
    if "exemplars" in series:
        out["exemplars"] = {k: dict(v) for k, v in series["exemplars"].items()}
    return out


def _copy_entry(entry: dict) -> dict:
    return {
        "kind": entry.get("kind", "untyped"),
        "help": entry.get("help", ""),
        "series": [_copy_series(s) for s in entry.get("series", [])],
    }


def _series_key(series: dict) -> tuple:
    return tuple(sorted((str(k), str(v))
                        for k, v in (series.get("labels") or {}).items()))


def _add_series(kind: str, name: str, base: dict, extra: dict) -> dict:
    out = _copy_series(base)
    if kind == "histogram":
        buckets = dict(out.get("buckets") or {})
        for bound, count in (extra.get("buckets") or {}).items():
            buckets[bound] = buckets.get(bound, 0) + count
        out["buckets"] = buckets
        out["sum"] = out.get("sum", 0) + extra.get("sum", 0)
        out["count"] = out.get("count", 0) + extra.get("count", 0)
        if extra.get("exemplars"):
            merged = dict(out.get("exemplars") or {})
            merged.update({k: dict(v) for k, v in extra["exemplars"].items()})
            out["exemplars"] = merged
    elif kind == "gauge":
        out["value"] = extra.get("value", 0)   # gauges: the live value wins
    else:
        out["value"] = out.get("value", 0) + extra.get("value", 0)
    return out


def add_snapshots(base: Optional[dict], extra: Optional[dict]) -> dict:
    """Fold ``extra`` into ``base`` (neither is mutated).

    Counters and histogram buckets/sums/counts add — cumulative bucket
    counts are linear, so adding them per bound is exact.  Gauges take
    ``extra``'s value (it is the more recent reading).  Exemplars prefer
    ``extra``.  This is how a respawned worker's predecessor counts stay
    banked: ``bank = add_snapshots(bank, last_snapshot_of_dead_worker)``.
    """
    if not base:
        return {name: _copy_entry(entry) for name, entry in (extra or {}).items()}
    if not extra:
        return {name: _copy_entry(entry) for name, entry in base.items()}
    out = {name: _copy_entry(entry) for name, entry in base.items()}
    for name, entry in extra.items():
        if name not in out:
            out[name] = _copy_entry(entry)
            continue
        target = out[name]
        if target["kind"] != entry.get("kind", "untyped"):
            raise ObservabilityError(
                f"cannot merge metric {name!r}: kind {target['kind']} vs "
                f"{entry.get('kind')}"
            )
        if not target["help"]:
            target["help"] = entry.get("help", "")
        by_key = {_series_key(s): i for i, s in enumerate(target["series"])}
        for series in entry.get("series", []):
            key = _series_key(series)
            if key in by_key:
                i = by_key[key]
                target["series"][i] = _add_series(
                    target["kind"], name, target["series"][i], series)
            else:
                by_key[key] = len(target["series"])
                target["series"].append(_copy_series(series))
    return out


def merge_worker_snapshots(parent: dict,
                           workers: Mapping[object, dict]) -> dict:
    """One combined snapshot: parent series unlabeled (back-compatible),
    each worker's series tagged ``worker=<index>``.

    A worker snapshot must not already carry a ``worker`` label — the
    label is this function's namespace, and a collision would silently
    alias two processes' series.
    """
    out = {name: _copy_entry(entry) for name, entry in (parent or {}).items()}
    for worker_label, snap in workers.items():
        for name, entry in (snap or {}).items():
            target = out.get(name)
            if target is None:
                target = {"kind": entry.get("kind", "untyped"),
                          "help": entry.get("help", ""), "series": []}
                out[name] = target
            elif target["kind"] != entry.get("kind", "untyped"):
                raise ObservabilityError(
                    f"cannot merge metric {name!r}: kind {target['kind']} vs "
                    f"{entry.get('kind')} from worker {worker_label}"
                )
            if not target["help"]:
                target["help"] = entry.get("help", "")
            for series in entry.get("series", []):
                labeled = _copy_series(series)
                if "worker" in labeled["labels"]:
                    raise ObservabilityError(
                        f"metric {name!r} already carries a worker label; "
                        f"refusing to alias worker {worker_label}"
                    )
                labeled["labels"]["worker"] = str(worker_label)
                target["series"].append(labeled)
    return out


def _escape(value: object) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt_labels(labels: tuple, extra: Optional[tuple] = None) -> str:
    pairs = list(labels) + ([extra] if extra else [])
    if not pairs:
        return ""
    return "{" + ",".join(f'{k}="{_escape(v)}"' for k, v in pairs) + "}"


def _fmt_value(v: float) -> str:
    if isinstance(v, float) and v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def render_snapshot(snapshot: dict) -> str:
    """Prometheus text exposition (0.0.4) from a snapshot-format dict.

    The one Prometheus renderer: :meth:`MetricsRegistry.render_prometheus`
    calls it on the registry's snapshot, and the serve tier on the merged
    one.  Series print sorted by their label pairs.  Exemplars stay out —
    the page remains pure 0.0.4.
    """
    lines: list[str] = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        if entry.get("help"):
            lines.append(f"# HELP {name} {entry['help']}")
        lines.append(f"# TYPE {name} {entry.get('kind', 'untyped')}")
        for series in sorted(entry.get("series", []), key=_series_key):
            labels = tuple(sorted(
                (str(k), str(v))
                for k, v in (series.get("labels") or {}).items()))
            if "buckets" in series:
                for bound, count in series["buckets"].items():
                    lines.append(
                        f"{name}_bucket"
                        f"{_fmt_labels(labels, ('le', str(bound)))} {count}"
                    )
                lines.append(f"{name}_sum{_fmt_labels(labels)} "
                             f"{_fmt_value(series.get('sum', 0))}")
                lines.append(f"{name}_count{_fmt_labels(labels)} "
                             f"{series.get('count', 0)}")
            else:
                lines.append(f"{name}{_fmt_labels(labels)} "
                             f"{_fmt_value(series.get('value', 0))}")
    return "\n".join(lines) + ("\n" if lines else "")


def _parse_labels(blob: str) -> dict:
    labels: dict[str, str] = {}
    i = 0
    while i < len(blob):
        eq = blob.index("=", i)
        key = blob[i:eq].strip().lstrip(",").strip()
        if blob[eq + 1] != '"':
            raise ObservabilityError(f"unquoted label value near {blob[i:]!r}")
        j = eq + 2
        value: list[str] = []
        while blob[j] != '"':
            if blob[j] == "\\":
                nxt = blob[j + 1]
                value.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, nxt))
                j += 2
            else:
                value.append(blob[j])
                j += 1
        labels[key] = "".join(value)
        i = j + 1
    return labels


def parse_exposition(text: str) -> dict:
    """Read a 0.0.4 text page back into ``{"samples", "types", "helps"}``.

    ``samples`` is a list of ``(name, labels_dict, value)`` — histogram
    samples keep their ``_bucket``/``_sum``/``_count`` suffixes and the
    ``le`` label, exactly as exposed.  Raises on a sample whose family
    has no preceding ``# TYPE`` line (the compliance property CI checks).
    """
    samples: list[tuple[str, dict, float]] = []
    types: dict[str, str] = {}
    helps: dict[str, str] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            name, _, help_text = line[len("# HELP "):].partition(" ")
            helps[name] = help_text
            continue
        if line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            types[name] = kind.strip()
            continue
        if line.startswith("#"):
            continue
        try:
            if "{" in line:
                name = line[:line.index("{")]
                blob = line[line.index("{") + 1:line.rindex("}")]
                labels = _parse_labels(blob)
                value = float(line[line.rindex("}") + 1:].strip())
            else:
                name, _, raw = line.partition(" ")
                labels = {}
                value = float(raw.strip())
        except (ValueError, IndexError):
            raise ObservabilityError(
                f"unparseable exposition line {lineno}: {line!r}"
            ) from None
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[:-len(suffix)] if name.endswith(suffix) else None
            if base and types.get(base) == "histogram":
                family = base
                break
        if family not in types:
            raise ObservabilityError(
                f"sample {name!r} (line {lineno}) has no preceding # TYPE"
            )
        samples.append((name, labels, value))
    return {"samples": samples, "types": types, "helps": helps}


def counter_regressions(prev: dict, new: dict,
                        *, ignore: Iterable[str] = ()) -> list[str]:
    """Counter/histogram series that went *down* between two snapshots.

    Returns human-readable violations (empty == monotone).  This is the
    restart-safety assertion: after a worker SIGKILL + respawn, the
    merged page must never lose completed work.
    """
    skip = set(ignore)
    violations: list[str] = []
    for name, entry in (prev or {}).items():
        if name in skip or entry.get("kind") not in ("counter", "histogram"):
            continue
        new_entry = (new or {}).get(name, {})
        new_series = {_series_key(s): s for s in new_entry.get("series", [])}
        for series in entry.get("series", []):
            key = _series_key(series)
            after = new_series.get(key)
            label_txt = dict(key) or ""
            if after is None:
                violations.append(f"{name}{label_txt}: series disappeared")
                continue
            if entry.get("kind") == "counter":
                if after.get("value", 0) < series.get("value", 0):
                    violations.append(
                        f"{name}{label_txt}: {series.get('value')} -> "
                        f"{after.get('value')}")
            else:
                if after.get("count", 0) < series.get("count", 0):
                    violations.append(
                        f"{name}{label_txt}: count {series.get('count')} -> "
                        f"{after.get('count')}")
    return violations
