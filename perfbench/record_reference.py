"""Record the reference digests the benchmark gates every document on.

    python3 perfbench/record_reference.py [--scale tiny|bench|roadmap ...]

Runs each workload's round once per scale, checks every verdict, tested
count and oracle, and writes ``reference.json``: for each scale,
workload and operation, the SHA-256 of each document with its timing
fields removed.  Run it only on a commit whose reports are known good
(it was first run on the unmodified seed sources); a later change that
alters any report byte then fails the benchmark's gate.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", action="append", choices=("tiny", "bench", "roadmap"))
    args = ap.parse_args()
    workloads = run.import_critfact()
    try:
        table = json.loads(run.REFERENCE.read_text())
    except FileNotFoundError:
        table = {}
    for scale in args.scale or ("tiny", "bench", "roadmap"):
        table[scale] = {}
        for name in workloads.WORKLOADS:
            refs = {}
            for op in workloads.make_ops(workloads.build_inputs(name, 0, scale)):
                docs, problems, _ = op.inspect(op.call())
                if problems:
                    print(f"{scale}/{name}/{op.id}: {problems}", file=sys.stderr)
                    return 1
                if op.gated:
                    refs[op.id] = [workloads.digest(d) for d in docs]
            table[scale][name] = refs
            print(f"recorded {scale}/{name}: {len(refs)} operations", file=sys.stderr)
    run.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
