"""Chrome trace-event export: span trees as flamegraph-ready JSON.

Writes the ``chrome://tracing`` / Perfetto "trace event" format — a flat
list of complete (``"ph": "X"``) events with microsecond timestamps — from
any *timed* span tree.  Spans without timing stamps (the deterministic
plane) are skipped: a flamegraph of structure without durations would be
fiction.

For service runs, :func:`chrome_trace_for_service` lays the coordinator's
job/lease spans on pid 0 and the completing worker's timed tree on pid 1 —
the worker's clock is monotonic but unrelated to the coordinator's, so
its tree keeps its own timebase (normalized to its root) instead of
being force-fit onto the coordinator's.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from .spans import Span


def _complete_event(span: Span, origin: float, pid: int, tid: int,
                    depth: int) -> Optional[Dict]:
    if span.start is None or span.end is None:
        return None
    return {
        "name": f"{span.kind}:{span.name}",
        "cat": span.kind,
        "ph": "X",
        "ts": round((span.start - origin) * 1e6, 3),
        "dur": round((span.end - span.start) * 1e6, 3),
        "pid": pid,
        "tid": tid,
        "args": {"depth": depth, "counters": dict(span.counters),
                 "meta": {k: v for k, v in span.meta.items()
                          if isinstance(v, (int, float, str, bool,
                                            type(None)))}},
    }


def chrome_trace_events(root: Span, pid: int = 0, tid: int = 0,
                        origin: Optional[float] = None) -> List[Dict]:
    """Flatten one timed span tree into trace events (untimed spans skip)."""
    if origin is None:
        origin = root.start if root.start is not None else 0.0
    events: List[Dict] = []

    def visit(span: Span, depth: int) -> None:
        event = _complete_event(span, origin, pid, tid, depth)
        if event is not None:
            events.append(event)
        for child in span.children:
            visit(child, depth + 1)

    visit(root, 0)
    return events


def chrome_trace(root: Span, pid: int = 0, tid: int = 0) -> Dict:
    """A complete Chrome trace document for one span tree."""
    return {
        "traceEvents": chrome_trace_events(root, pid=pid, tid=tid),
        "displayTimeUnit": "ms",
    }


def chrome_trace_for_service(job_root: Span,
                             worker_spans: Optional[Dict] = None) -> Dict:
    """Job + lease spans (pid 0) plus the worker's own tree (pid 1).

    ``worker_spans`` is the worker's timed span tree as a plain dict
    (``Span.to_dict(timing=True)``), the form it crosses the service seam
    in.
    """
    origin = job_root.start if job_root.start is not None else 0.0
    events = chrome_trace_events(job_root, pid=0, tid=0, origin=origin)
    if worker_spans:
        events.extend(chrome_trace_events(Span.from_dict(worker_spans),
                                          pid=1, tid=0))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, document: Dict) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(document, fp, indent=1, sort_keys=True)
        fp.write("\n")
