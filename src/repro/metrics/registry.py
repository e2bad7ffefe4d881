"""A deterministic metrics registry: counters, gauges, fixed-bucket histograms.

Design constraints, in order of importance:

1. **Replay parity.**  Everything in the default :meth:`MetricsRegistry.snapshot`
   payload must be a pure function of the session-event stream, so a live
   run, a :class:`~repro.transport.ReplayTransport` replay of its journal,
   and ``tracenet stats`` over the same journal produce *identical*
   snapshots.  Wall-clock material is quarantined: monotonic timing spans
   live in :attr:`MetricsRegistry.timings` and backend implementation
   counters (engine path cache, transport internals) in
   :attr:`MetricsRegistry.backend`; both appear only in
   :meth:`MetricsRegistry.full_snapshot`.
2. **No dependencies.**  Plain dicts out: every snapshot is JSON as it
   stands.

Metric identity is ``(name, labels)``; a name maps to exactly one metric
kind (creating ``x`` as a counter and again as a gauge raises).  Histograms
use fixed upper-bound buckets with Prometheus ``le`` semantics: a value
lands in the first bucket whose bound is >= the value, values above the
last bound land in the implicit overflow (``+Inf``) bucket.

Writers on a hot path resolve a series once: :meth:`MetricsRegistry.family`
maps each label value to its counter, created on first use.  A writer may
also keep updates of its own and register a fold with
:meth:`MetricsRegistry.defer`; the registry runs every fold before any
read, so readers never see the deferral.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from contextlib import contextmanager
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

LabelItems = Tuple[Tuple[str, str], ...]


def _label_items(labels: Dict[str, str]) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _series_key(name: str, labels: LabelItems) -> str:
    """The flat snapshot key: ``name`` or ``name{a="x",b="y"}``."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing integer."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        self.value += amount


class Gauge:
    """A value that can be set to anything (last write wins)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems):
        self.name = name
        self.labels = labels
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def inc(self, amount=1) -> None:
        self.value += amount


class Histogram:
    """Fixed-bucket histogram: per-bucket counts plus sum and count.

    ``bounds`` are inclusive upper bounds in strictly increasing order; an
    implicit overflow bucket catches everything above the last bound.
    Counts are stored per bucket (non-cumulative); the Prometheus formatter
    accumulates them into ``le`` series at exposition time.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "bounds", "counts", "sum", "count")

    def __init__(self, name: str, labels: LabelItems,
                 bounds: Sequence[float]):
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"histogram {name} bounds must strictly increase: {bounds}")
        self.name = name
        self.labels = labels
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)  # + overflow
        self.sum = 0
        self.count = 0

    def observe(self, value, times: int = 1) -> None:
        """Record ``value``, ``times`` times over."""
        self.counts[bisect_left(self.bounds, value)] += times
        self.sum += value * times
        self.count += times

    def bucket_index(self, value) -> int:
        """The first bucket whose bound is >= ``value`` (``le``); the
        overflow bucket's index, ``len(bounds)``, above the last bound."""
        return bisect_left(self.bounds, value)

    @property
    def overflow(self) -> int:
        """Observations above the last bound (the ``+Inf`` bucket)."""
        return self.counts[-1]


class MetricsRegistry:
    """Holds every metric of one collection run.

    ``registry.backend`` is a nested registry for implementation-detail
    counters (engine path cache, transport internals) that legitimately
    differ between a live run and a journal replay; it is excluded from the
    deterministic :meth:`snapshot`.  ``registry.timings`` holds monotonic
    timing spans recorded by :meth:`time`, likewise excluded.
    """

    def __init__(self, _nested: bool = False):
        self._metrics: Dict[Tuple[str, LabelItems], object] = {}
        self._kinds: Dict[str, str] = {}
        self._help: Dict[str, str] = {}
        self.timings: Dict[str, Dict[str, float]] = {}
        self.backend: Optional[MetricsRegistry] = (
            None if _nested else MetricsRegistry(_nested=True))
        self._folds: List[Callable[[], None]] = []

    # -- creation / lookup ---------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        self._fold()
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        self._fold()
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str, buckets: Optional[Sequence[float]] = None,
                  **labels) -> Histogram:
        self._fold()
        return self._histogram(name, buckets, labels)

    def family(self, name: str, label: str) -> "Family":
        """The counters ``name{label=...}`` by label value; each series is
        created on its first use, as :meth:`inc` would create it."""
        return Family(self, name, label)

    def defer(self, fold: Callable[[], None]) -> None:
        """Register ``fold``, which applies a writer's pending updates.

        Every read (:meth:`counter`, :meth:`gauge`, :meth:`histogram`,
        :meth:`value`, :meth:`series`, and so :meth:`snapshot`) runs the
        folds first.  Pending updates must commute with direct writes:
        additions, or writes to series only that writer touches.
        """
        self._folds.append(fold)

    def _fold(self) -> None:
        for fold in self._folds:
            fold()

    def _histogram(self, name: str, buckets: Optional[Sequence[float]],
                   labels: Dict) -> Histogram:
        metric = self._metrics.get((name, _label_items(labels)))
        if metric is not None:
            if not isinstance(metric, Histogram):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}")
            return metric
        if self._kinds.get(name, "histogram") != "histogram":
            raise ValueError(
                f"metric {name!r} already registered as {self._kinds[name]}")
        if buckets is None:
            raise ValueError(f"first use of histogram {name!r} must name "
                             f"its buckets")
        metric = Histogram(name, _label_items(labels), buckets)
        self._metrics[(name, metric.labels)] = metric
        self._kinds[name] = "histogram"
        return metric

    def _get_or_create(self, cls, name: str, labels: Dict) -> object:
        key = (name, _label_items(labels))
        metric = self._metrics.get(key)
        if metric is None:
            if self._kinds.get(name, cls.kind) != cls.kind:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{self._kinds[name]}")
            metric = cls(name, key[1])
            self._metrics[key] = metric
            self._kinds[name] = cls.kind
        elif not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}")
        return metric

    # -- convenience mutators ------------------------------------------------

    def inc(self, name: str, amount: int = 1, **labels) -> None:
        self._get_or_create(Counter, name, labels).inc(amount)

    def set_gauge(self, name: str, value, **labels) -> None:
        self._get_or_create(Gauge, name, labels).set(value)

    def observe(self, name: str, value,
                buckets: Optional[Sequence[float]] = None, **labels) -> None:
        self._histogram(name, buckets, labels).observe(value)

    @contextmanager
    def time(self, name: str) -> Iterator[None]:
        """Record a monotonic-clock span under ``timings`` (never in the
        deterministic snapshot — wall clocks break record→replay parity)."""
        started = time.perf_counter()
        try:
            yield
        finally:
            span = self.timings.setdefault(name, {"seconds": 0.0, "count": 0})
            span["seconds"] += time.perf_counter() - started
            span["count"] += 1

    def describe(self, name: str, help_text: str) -> None:
        """Attach a help string (used by the Prometheus exposition)."""
        self._help[name] = help_text

    def help_text(self, name: str) -> Optional[str]:
        return self._help.get(name)

    # -- reading -------------------------------------------------------------

    def value(self, name: str, default=0, **labels):
        """Current value of a counter/gauge series (``default`` if absent)."""
        self._fold()
        metric = self._metrics.get((name, _label_items(labels)))
        if metric is None:
            return default
        if isinstance(metric, Histogram):
            raise ValueError(f"{name!r} is a histogram; read series()")
        return metric.value

    def series(self) -> List[object]:
        """Every metric object, in deterministic (name, labels) order."""
        self._fold()
        return [self._metrics[key] for key in sorted(self._metrics)]

    def snapshot(self) -> Dict:
        """The deterministic payload: session-scope metrics only.

        Identical for a live run, a journal replay, and ``tracenet stats``
        over the same recorded session — the parity contract of
        ``tests/test_metrics_determinism.py``.
        """
        counters: Dict[str, int] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict] = {}
        for metric in self.series():
            key = _series_key(metric.name, metric.labels)
            if isinstance(metric, Counter):
                counters[key] = metric.value
            elif isinstance(metric, Gauge):
                gauges[key] = metric.value
            else:
                histograms[key] = {
                    "buckets": list(metric.bounds),
                    "counts": list(metric.counts),
                    "sum": metric.sum,
                    "count": metric.count,
                }
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def full_snapshot(self) -> Dict:
        """Everything: deterministic metrics + backend scope + timings."""
        payload = {"metrics": self.snapshot()}
        if self.backend is not None:
            payload["backend"] = self.backend.snapshot()
        payload["timings"] = {
            name: {"seconds": round(span["seconds"], 6),
                   "count": span["count"]}
            for name, span in sorted(self.timings.items())
        }
        return payload


class Family(dict):
    """One labelled counter's series, by label value (see
    :meth:`MetricsRegistry.family`): a dict hit once a value is known."""

    __slots__ = ("_registry", "_name", "_label")

    def __init__(self, registry: MetricsRegistry, name: str, label: str):
        super().__init__()
        self._registry = registry
        self._name = name
        self._label = label

    def __missing__(self, value) -> Counter:
        metric = self[value] = self._registry._get_or_create(
            Counter, self._name, {self._label: value})
        return metric
