"""Batch survey runner with checkpointing.

Survey-scale collection (the paper traces 34 084 targets) needs the
operational wrapper every real measurement tool grows: walk a target list,
persist results incrementally, survive interruption, and resume without
re-probing finished targets.  :class:`SurveyRunner` wraps a
:class:`~repro.core.tracenet.TraceNET` instance with exactly that.

The checkpoint is a :class:`~repro.mapping.store.CollectionArchive` JSON
document; a resumed run reloads it, seeds the tool's subnet registry from
the archived subnets (so reuse keeps working across restarts), and skips
targets whose traces are already recorded.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set

from .core.results import TraceResult
from .core.tracenet import TraceNET
from .events import CheckpointWritten, SurveyProgressed
from .mapping.store import CollectionArchive, load_archive, save_archive


@dataclass
class SurveyProgress:
    """Progress counters reported to the caller."""

    total_targets: int = 0
    completed: int = 0
    reached: int = 0
    skipped: int = 0
    probes_sent: int = 0

    @property
    def remaining(self) -> int:
        return self.total_targets - self.completed - self.skipped

    def describe(self) -> str:
        return (f"{self.completed + self.skipped}/{self.total_targets} targets "
                f"({self.skipped} resumed, {self.reached} reached, "
                f"{self.probes_sent} probes)")


#: The checkpoint file ``tracenet survey --checkpoint-dir DIR`` writes
#: inside ``DIR``; a later run over the same directory resumes from it.
CHECKPOINT_FILENAME = "shard-0.json"


class SurveyRunner:
    """Drives a TraceNET instance over a target list with checkpoints.

    After every target the runner emits
    :class:`~repro.events.SurveyProgressed` on the tool's event bus.

    Args:
        tool: the collector (owns vantage, protocol, retry rule...).
        checkpoint_path: JSON file written every ``checkpoint_every``
            completed targets and at the end.  None disables persistence.
        checkpoint_every: flush cadence.
        metrics: optional :class:`repro.metrics.MetricsRegistry`.  When
            given, a metrics fold and probe-economy auditor are attached to
            the tool's event bus for the lifetime of this runner, and
            ``run()`` records a ``survey_run_seconds`` timing span.
        tracer: optional :class:`repro.tracing.SpanBuilder`, attached to
            the tool's event bus as a fold; ``run()`` finishes the tree
            when the survey ends.
    """

    def __init__(self, tool: TraceNET,
                 checkpoint_path: Optional[str] = None,
                 checkpoint_every: int = 25,
                 metrics=None, tracer=None):
        self.tool = tool
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = max(1, checkpoint_every)
        self.tracer = tracer
        if tracer is not None:
            self.tool.events.attach(tracer)
        self.metrics = metrics
        self._instrumentation = None
        if metrics is not None:
            # Lazy import: runner sits below the metrics facade in the
            # import graph (metrics.analytics drives collectors), so the
            # dependency must stay one-way at module-import time.
            from .metrics import instrument

            self._instrumentation = instrument(self.tool.events,
                                               registry=metrics)
        self.progress = SurveyProgress()
        self.traces: List[TraceResult] = []
        self._done_targets: Set[int] = set()
        self._resume()

    # -- public API -----------------------------------------------------

    def run(self, targets: Sequence[int]) -> SurveyProgress:
        """Trace every target not already covered by the checkpoint.

        Each call gets fresh per-run counters: re-running (e.g. resuming
        with a second target list) must not inherit ``completed``/``skipped``
        from the previous call, or ``remaining`` goes negative.
        """
        try:
            if self.metrics is not None:
                with self.metrics.time("survey_run_seconds"):
                    return self._run(targets)
            return self._run(targets)
        finally:
            # The records after the last trace (progress, checkpoints).
            self.tool.events.drain()
            if self.tracer is not None:
                self.tracer.finish()

    def _run(self, targets: Sequence[int]) -> SurveyProgress:
        self.progress = SurveyProgress(total_targets=len(targets))
        # Per-run delta, not the instance's lifetime total: a prober that
        # already sent probes (an earlier run() call, a warm-up trace) must
        # not inflate this run's count.
        sent_before_run = self.tool.prober.stats.sent
        since_flush = 0
        for target in targets:
            if target in self._done_targets:
                self.progress.skipped += 1
                self._report()
                continue
            result = self.tool.trace(target)
            self.traces.append(result)
            self._done_targets.add(target)
            self.progress.completed += 1
            self.progress.reached += int(result.reached)
            self.progress.probes_sent = (
                self.tool.prober.stats.sent - sent_before_run)
            self._report()
            since_flush += 1
            if since_flush >= self.checkpoint_every:
                self.flush()
                since_flush = 0
        self.flush()
        return self.progress

    def flush(self) -> None:
        """Write the checkpoint archive (no-op without a path)."""
        if self.checkpoint_path is None:
            return
        archive = CollectionArchive(
            vantage=self.tool.vantage_host_id,
            subnets=list(self.tool.collected_subnets),
            traces=list(self.traces),
            metadata={"done_targets": sorted(self._done_targets)},
        )
        tmp_path = self.checkpoint_path + ".tmp"
        save_archive(tmp_path, archive)
        os.replace(tmp_path, self.checkpoint_path)
        if self.tool.events:
            self.tool.events.record(CheckpointWritten, self.checkpoint_path,
                                    len(self._done_targets), len(self.traces))

    @property
    def archive(self) -> CollectionArchive:
        """The current collection as an archive (without writing it)."""
        return CollectionArchive(
            vantage=self.tool.vantage_host_id,
            subnets=list(self.tool.collected_subnets),
            traces=list(self.traces),
            metadata={"done_targets": sorted(self._done_targets)},
        )

    # -- internals ----------------------------------------------------------

    def _resume(self) -> None:
        if self.checkpoint_path is None or not os.path.exists(self.checkpoint_path):
            return
        archive = load_archive(self.checkpoint_path)
        if archive.vantage != self.tool.vantage_host_id:
            raise ValueError(
                f"checkpoint belongs to vantage {archive.vantage!r}, "
                f"not {self.tool.vantage_host_id!r}"
            )
        self.traces = list(archive.traces)
        self._done_targets = set(archive.metadata.get("done_targets", []))
        for subnet in archive.subnets:
            self.tool.register_subnet(subnet)

    def _report(self) -> None:
        if self.tool.events:
            progress = self.progress
            self.tool.events.record(SurveyProgressed, progress.total_targets,
                                    progress.completed, progress.skipped,
                                    progress.reached, progress.probes_sent)
