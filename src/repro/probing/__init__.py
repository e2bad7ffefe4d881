"""Probing layer: the raw-socket/scapy stand-in used by every tool.

Provides :class:`~repro.probing.prober.Prober` (direct/indirect probes with
retry, caching and metering — one at a time or batched through
``probe_many``), probe statistics, and the Doubletree-style
:class:`~repro.probing.stopset.StopSet` for cross-trace redundancy
elimination.
"""

from .budget import ProbeStats
from .prober import Prober, RetryPolicy
from .stopset import DEFAULT_STOP_PREFIX_LENGTH, StopSet

__all__ = [
    "DEFAULT_STOP_PREFIX_LENGTH",
    "ProbeStats",
    "Prober",
    "RetryPolicy",
    "StopSet",
]
