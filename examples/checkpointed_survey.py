#!/usr/bin/env python3
"""Survey-scale collection with checkpoints and resume.

Runs the Internet2 survey through the SurveyRunner, interrupting it halfway
(simulating a crash), then resumes from the JSON
checkpoint: already-traced targets are skipped and the archived subnets
seed the collector's reuse registry.

Run:  python examples/checkpointed_survey.py [seed]
"""

import os
import sys
import tempfile

from repro import Engine, SurveyRunner, TraceNET
from repro.mapping import load_archive
from repro.topogen import internet2


def make_tool(network):
    return TraceNET(Engine(network.topology, policy=network.policy),
                    "utdallas")


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    network = internet2.build(seed=seed)
    targets = internet2.targets(network, seed=seed)
    checkpoint = os.path.join(tempfile.gettempdir(), "tracenet-survey.json")
    if os.path.exists(checkpoint):
        os.unlink(checkpoint)

    half = len(targets) // 2
    print(f"phase 1: tracing the first {half} of {len(targets)} targets...")
    first = SurveyRunner(make_tool(network), checkpoint_path=checkpoint)
    progress = first.run(targets[:half])
    print(f"  {progress.describe()}")
    print(f"  checkpoint: {checkpoint} "
          f"({os.path.getsize(checkpoint)} bytes)")

    print("phase 2: 'restart' — a fresh tool resumes from the checkpoint...")
    resumed_tool = make_tool(network)
    resumed = SurveyRunner(resumed_tool, checkpoint_path=checkpoint)
    progress = resumed.run(targets)
    print(f"  {progress.describe()}")

    archive = load_archive(checkpoint)
    multi = sum(1 for s in archive.subnets if s.size > 1)
    print(f"final archive: {len(archive.traces)} traces, "
          f"{multi} multi-member subnets")
    os.unlink(checkpoint)


if __name__ == "__main__":
    main()
