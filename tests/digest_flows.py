"""Behaviour-pinning digests: the CLI flows whose outputs must never drift.

Each flow runs ``tracenet`` in a fresh interpreter (probe ids are a
process-global counter that the journal records, so an in-process run would
depend on whatever the test session probed before) and hashes what the run
leaves behind:

* ``journal`` — the ``--record`` probe journal, header included;
* ``archive`` — the collection itself: the ``trace --json`` result, the
  survey's ``--checkpoint-dir`` archive, or the radar's ``--out`` directory;
* ``events`` — the ``--events`` session-event JSONL;
* ``metrics`` — the deterministic ``metrics`` section of ``--metrics-out``
  (backend counters and the timing plane are excluded);
* ``spans`` — the ``--spans-out`` deterministic span tree;
* ``map`` — the collected map alone: the
  :func:`~repro.mapping.store.archive_signature` of the archive (of every
  radar round, in order), so probe counts may move while it stays put.

``tests/test_digests.py`` re-derives every digest and compares it with
``tests/digests.json``.  Regenerate the file only for an intended behaviour
change::

    PYTHONPATH=src python tests/digest_flows.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

from repro.mapping.store import (
    CollectionArchive,
    archive_signature,
    load_archive,
    subnet_from_dict,
    trace_from_dict,
)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
DIGESTS_PATH = os.path.join(HERE, "digests.json")

#: flow name -> the collection's argv.  A survey's archive comes from a
#: second, checkpointed run of the same argv (``--checkpoint-dir`` cannot
#: be combined with ``--record``).
FLOWS: Dict[str, List[str]] = {
    "trace-figure3-icmp": ["trace", "--scenario", "figure3",
                           "--protocol", "icmp", "--json"],
    "trace-figure3-udp": ["trace", "--scenario", "figure3",
                          "--protocol", "udp", "--json"],
    "survey-internet2": ["survey", "--network", "internet2", "--seed", "7"],
    "survey-geant": ["survey", "--network", "geant", "--seed", "7"],
    "survey-geant-stop-sets": ["survey", "--network", "geant", "--seed", "7",
                               "--stop-sets"],
    "survey-geant-batch-window-4": ["survey", "--network", "geant",
                                    "--seed", "7", "--batch-window", "4"],
    "radar-geant-drop-0.05": ["radar", "--network", "geant",
                              "--drop-rate", "0.05"],
    # Mutations fire in rounds 0 and 1: an ECMP flip dirties every target
    # in round 1, and round 2 re-probes only the prefix-dirty targets.
    "radar-internet2-churn-drop-0.05": [
        "radar", "--network", "internet2", "--drop-rate", "0.05",
        "--rounds", "4", "--churn-count", "10", "--churn-interval", "800"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha(path: str) -> str:
    with open(path, "rb") as fp:
        return _sha(fp.read())


def _dir_sha(path: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        digest.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as fp:
            digest.update(fp.read())
    return digest.hexdigest()


def _map_sha(archives: List[CollectionArchive]) -> str:
    return _sha(json.dumps([archive_signature(a) for a in archives],
                           sort_keys=True).encode())


def _trace_archive(payload: Dict):
    """A ``trace --json`` result as a one-trace archive."""
    subnets = {}
    for hop in payload["hops"]:
        subnet = hop["subnet"]
        if subnet is not None:
            subnets[subnet["prefix"]] = subnet_from_dict({
                **subnet, "pivot_distance": None,
                "prefix_length": int(subnet["prefix"].split("/")[1])})
    return CollectionArchive(vantage=payload["vantage"],
                             subnets=list(subnets.values()),
                             traces=[trace_from_dict(payload)])


def _load_archives(*paths: str) -> List[CollectionArchive]:
    return [load_archive(path) for path in paths]


def _cli(argv: List[str]) -> bytes:
    env = dict(os.environ, PYTHONPATH=SRC)
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv], env=env,
        capture_output=True, check=False)
    if completed.returncode != 0:
        raise RuntimeError(
            f"tracenet {' '.join(argv)} exited {completed.returncode}: "
            f"{completed.stderr.decode(errors='replace')}")
    return completed.stdout


def flow_digests(name: str, workdir: str) -> Dict[str, str]:
    """Run one flow in ``workdir`` and hash its outputs."""
    argv = FLOWS[name]
    paths = {key: os.path.join(workdir, f"{name}.{key}")
             for key in ("journal", "events", "metrics", "spans", "out")}
    stdout = _cli([*argv,
                   "--record", paths["journal"],
                   "--events", paths["events"],
                   "--metrics-out", paths["metrics"],
                   "--spans-out", paths["spans"],
                   *(["--out", paths["out"]] if argv[0] == "radar" else [])])
    if argv[0] == "trace":
        archive = _sha(stdout)
        collected = [_trace_archive(json.loads(stdout))]
    elif argv[0] == "radar":
        archive = _dir_sha(paths["out"])
        collected = _load_archives(*(
            os.path.join(paths["out"], name)
            for name in sorted(os.listdir(paths["out"]))
            if name.startswith("round-")))
    else:
        _cli([*argv, "--checkpoint-dir", paths["out"]])
        archive = _file_sha(os.path.join(paths["out"], "shard-0.json"))
        collected = _load_archives(os.path.join(paths["out"],
                                                "shard-0.json"))
    with open(paths["metrics"], "r", encoding="utf-8") as fp:
        metrics = json.load(fp)["metrics"]
    return {
        "journal": _file_sha(paths["journal"]),
        "archive": archive,
        "events": _file_sha(paths["events"]),
        "metrics": _sha(json.dumps(metrics, sort_keys=True).encode()),
        "spans": _file_sha(paths["spans"]),
        "map": _map_sha(collected),
    }


def derive_all(workdir: Optional[str] = None) -> Dict[str, Dict[str, str]]:
    if workdir is None:
        with tempfile.TemporaryDirectory() as tmp:
            return derive_all(tmp)
    return {name: flow_digests(name, workdir) for name in FLOWS}


if __name__ == "__main__":  # pragma: no cover - maintenance entry point
    digests = derive_all()
    payload = json.dumps(digests, indent=1, sort_keys=True) + "\n"
    if "--write" in sys.argv[1:]:
        with open(DIGESTS_PATH, "w", encoding="utf-8") as fp:
            fp.write(payload)
        print(f"wrote {len(digests)} flow digests to {DIGESTS_PATH}")
    else:
        sys.stdout.write(payload)
