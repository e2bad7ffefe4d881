"""Chrome trace-event export: span trees as flamegraph-ready JSON.

Writes the ``chrome://tracing`` / Perfetto "trace event" format — a flat
list of complete (``"ph": "X"``) events with microsecond timestamps — from
any *timed* span tree.  Spans without timing stamps (the deterministic
plane) are skipped: a flamegraph of structure without durations would be
fiction.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from .spans import Span


def _complete_event(span: Span, origin: float,
                    depth: int) -> Optional[Dict]:
    if span.start is None or span.end is None:
        return None
    return {
        "name": f"{span.kind}:{span.name}",
        "cat": span.kind,
        "ph": "X",
        "ts": round((span.start - origin) * 1e6, 3),
        "dur": round((span.end - span.start) * 1e6, 3),
        "pid": 0,
        "tid": 0,
        "args": {"depth": depth, "counters": dict(span.counters),
                 "meta": {k: v for k, v in span.meta.items()
                          if isinstance(v, (int, float, str, bool,
                                            type(None)))}},
    }


def chrome_trace(root: Span) -> Dict:
    """A complete Chrome trace document for one span tree: its timed spans
    flattened into trace events (untimed spans skip)."""
    origin = root.start if root.start is not None else 0.0
    events: List[Dict] = []

    def visit(span: Span, depth: int) -> None:
        event = _complete_event(span, origin, depth)
        if event is not None:
            events.append(event)
        for child in span.children:
            visit(child, depth + 1)

    visit(root, 0)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, document: Dict) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(document, fp, indent=1, sort_keys=True)
        fp.write("\n")
