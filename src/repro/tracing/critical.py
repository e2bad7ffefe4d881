"""Critical-path and heuristic-attribution analytics over a span tree.

The critical path answers "where did the time go": from the root, follow
the most expensive child until a leaf.  On a timed tree (a live run with
a clock) "expensive" means duration; when a level has untimed children —
the deterministic plane — the walk falls back to rolled up probe cost,
which is the paper's own currency (Section 3.6 prices everything in
probes).

The heuristic attribution table answers "where did the probes go, rule by
rule": per H1–H9 fire counts, the probes charged to each rule's
judgements (the pending-probe attribution of :class:`SpanBuilder`),
verdict breakdown, time (when timed) and shrink executions.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .spans import PHASE_EXPLORATION, Span


def span_cost(span: Span) -> int:
    """Probe-denominated rollup: wire probes + suppressed stand-ins."""
    return span.total("probes") + span.total("suppressed")


def critical_path(root: Span) -> List[Span]:
    """Root-to-leaf chain of the most expensive spans.

    Children are compared by duration when *every* sibling carries timing
    stamps, by probe cost otherwise; ties keep the earliest sibling
    (deterministic either way).
    """
    path = [root]
    node = root
    while node.children:
        timed = all(child.duration is not None for child in node.children)
        if timed:
            node = max(node.children, key=lambda c: c.duration)
        else:
            node = max(node.children, key=span_cost)
        path.append(node)
    return path


def render_critical_path(path: List[Span]) -> str:
    lines = ["critical path (slowest chain):"]
    for depth, span in enumerate(path):
        cost = span_cost(span)
        timing = (f"{span.duration * 1e3:.2f} ms"
                  if span.duration is not None else "untimed")
        lines.append(f"{'  ' * depth}- {span.kind}:{span.name}  "
                     f"[{cost} probes, {timing}]")
    return "\n".join(lines)


def heuristic_attribution(root: Span) -> Dict[str, Dict]:
    """Per-rule rows: fires, probes charged, verdicts, time, shrinks."""
    rows: Dict[str, Dict] = {}

    def row(rule: str) -> Dict:
        return rows.setdefault(rule, {
            "fires": 0, "probes": 0, "cache_hits": 0,
            "seconds": 0.0, "timed": False, "shrinks": 0,
            "verdicts": {},
        })

    for span in root.walk():
        if span.kind == "heuristic":
            entry = row(span.name)
            entry["fires"] += span.counters.get("fires", 0)
            entry["probes"] += span.counters.get("probes", 0)
            entry["cache_hits"] += span.counters.get("cache_hits", 0)
            verdict = span.meta.get("verdict", "?")
            entry["verdicts"][verdict] = \
                entry["verdicts"].get(verdict, 0) + 1
            if span.duration is not None:
                entry["seconds"] += span.duration
                entry["timed"] = True
        elif span.kind == "phase" and span.name == PHASE_EXPLORATION:
            for key, value in span.counters.items():
                if key.startswith("shrink:"):
                    row(key[len("shrink:"):])["shrinks"] += value
    return rows


def growth_outcomes(root: Span) -> Dict[str, int]:
    """Subnet stop reasons tallied over every exploration span."""
    outcomes: Dict[str, int] = {}
    for span in root.walk():
        if span.kind == "phase" and span.name == PHASE_EXPLORATION:
            reason = span.meta.get("stop_reason")
            if reason is not None:
                outcomes[reason] = outcomes.get(reason, 0) + 1
    return outcomes


def render_heuristics_table(root: Span) -> str:
    """The ``tracenet stats --heuristics`` / ``spans`` report table."""
    rows = heuristic_attribution(root)
    outcomes = growth_outcomes(root)
    lines = ["heuristic attribution (probes charged per judgement):",
             f"{'rule':<18}{'fires':>7}{'probes':>8}{'cache':>7}"
             f"{'shrinks':>9}{'time':>11}  verdicts"]
    for rule in sorted(rows):
        entry = rows[rule]
        timing = (f"{entry['seconds'] * 1e3:8.2f} ms"
                  if entry["timed"] else f"{'—':>11}")
        verdicts = ", ".join(f"{k}={v}" for k, v in
                             sorted(entry["verdicts"].items())) or "—"
        lines.append(f"{rule:<18}{entry['fires']:>7}{entry['probes']:>8}"
                     f"{entry['cache_hits']:>7}{entry['shrinks']:>9}"
                     f"{timing}  {verdicts}")
    if not rows:
        lines.append("(no heuristic judgements in this stream)")
    if outcomes:
        summary = ", ".join(f"{reason}={count}" for reason, count
                            in sorted(outcomes.items()))
        lines.append(f"subnet growth outcomes: {summary}")
    return "\n".join(lines)


def render_summary(root: Span) -> str:
    """One-glance totals for the ``tracenet spans`` report header."""
    traces = sum(1 for span in root.walk() if span.kind == "trace")
    parts = [f"{root.kind}:{root.name}",
             f"{span_cost(root)} probes",
             f"{root.total('cache_hits')} cache hits",
             f"{root.total('suppressed')} suppressed",
             f"{root.total('subnets')} subnets",
             f"{traces} traces"]
    if root.duration is not None:
        parts.append(f"{root.duration:.3f} s")
    return "  ".join(parts)


def render_report(root: Span) -> str:
    """The default human-readable ``tracenet spans`` output."""
    return "\n\n".join([
        render_summary(root),
        render_critical_path(critical_path(root)),
        render_heuristics_table(root),
    ])


def per_trace_table(root: Span, limit: Optional[int] = 10) -> str:
    """Most expensive traces, one line each (by probe cost)."""
    traces = [span for span in root.walk() if span.kind == "trace"]
    traces.sort(key=span_cost, reverse=True)
    shown = traces if limit is None else traces[:limit]
    lines = [f"top {len(shown)} traces by probe cost:"]
    for span in shown:
        timing = (f" {span.duration * 1e3:.2f} ms"
                  if span.duration is not None else "")
        lines.append(f"  {span.name:<18}{span_cost(span):>6} probes  "
                     f"{span.total('subnets')} subnets"
                     f"  reached={span.meta.get('reached')}{timing}")
    return "\n".join(lines)
