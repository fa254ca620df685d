#!/usr/bin/env python
"""Print the sha256 of every registered experiment's seed-0 payload.

One line per experiment: its name, the digest of
``json.dumps(report.payload(), sort_keys=True)``, and the digest of its
``records`` and ``verdicts`` alone.  Two checkouts whose outputs agree
produce byte-identical payloads, so diffing the outputs of a change and
of its parent shows which experiments moved; a line whose second digest
still agrees moved only outside its results, e.g. in the config echo.

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
        results = {"records": payload["records"], "verdicts": payload["verdicts"]}
        print(f"{name:24s} payload {_digest(payload)} results {_digest(results)}", flush=True)
    return 0


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


if __name__ == "__main__":
    sys.exit(main())
