#!/usr/bin/env python
"""Print the sha256 of every registered experiment's seed-0 payload.

One line per experiment: its name and the digest of
``json.dumps(report.payload(), sort_keys=True)``.  Two checkouts whose
outputs agree produce byte-identical payloads, so diffing the outputs
of a change and of its parent shows which experiments moved.

Usage: python scripts/payload_digests.py
"""

import hashlib
import json
import sys

from qnlab.harness import ExperimentConfig, list_experiments, run


def main() -> int:
    for entry in list_experiments():
        name = entry["name"]
        payload = run(ExperimentConfig(experiment=name)).payload()
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
        print(f"{name:24s} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
