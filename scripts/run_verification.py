#!/usr/bin/env python3
"""Run the whole verification battery at a chosen scale and write one
JSON document with every report.

    python scripts/run_verification.py                 # desk scale
    python scripts/run_verification.py --deep          # acceptance scale
    python scripts/run_verification.py --out reports.json --jobs 4
"""

import argparse
import json
import sys
import time
from contextlib import nullcontext

from critfact import (
    TheoremId,
    VerifyOptions,
    verify,
    verify_alpha_extremal,
    verify_beta_eta,
    verify_many,
    verify_wx_density,
)
from critfact.cli import _run


def battery(deep: bool, jobs: int) -> list:
    """Every report, at acceptance scale when ``deep``."""
    sf_max = 25 if deep else 14
    all_max = 12 if deep else 10
    cft_ternary = 11 if deep else 9
    cft_binary = 14 if deep else 11

    reports = []
    opts = VerifyOptions(jobs=jobs)
    reports.append(verify(TheoremId.CFT, 2, cft_ternary, opts))
    reports.append(verify(TheoremId.CFT, 2, cft_binary, VerifyOptions(alphabet="01", jobs=jobs)))
    reports.extend(
        verify_many(
            [TheoremId.MIN_REP_UNBORDERED, TheoremId.OVERFLOW_IFF_SQUAREFREE],
            2,
            all_max,
            opts,
        )
    )
    reports.extend(
        verify_many(
            [
                TheoremId.MIDPOINT,
                TheoremId.UNIMODAL,
                TheoremId.INTERVAL,
                TheoremId.LOWER_BOUND,
                TheoremId.NO_SELF_OVERLAP,
            ],
            2,
            sf_max,
            opts,
        )
    )
    if deep:
        reports.append(
            verify(
                TheoremId.UPPER_BOUND,
                26,
                27,
                VerifyOptions(jobs=jobs, random_count=10**4, random_min=28,
                              random_max=60, seed=20260808),
            )
        )
    reports.append(verify_alpha_extremal())
    reports.append(verify_beta_eta(3, 10**4))
    reports.append(verify_wx_density(4 if deep else 2))
    return reports


def write_battery(args) -> int:
    """Write the battery's document; 1 on a FAIL verdict, else 0."""
    # --out is opened first, so a bad path fails before the battery runs
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as out:
        t0 = time.perf_counter()
        reports = battery(args.deep, args.jobs)
        doc = {
            "reports": [r.to_json_dict() for r in reports],
            "totalElapsedMs": int(round((time.perf_counter() - t0) * 1000)),
            "verdict": "PASS" if all(r.verdict == "PASS" for r in reports) else "FAIL",
        }
        print(json.dumps(doc, indent=2), file=out)
    for r in reports:
        print(f"{r.theorem:18s} {r.verdict}  tested={r.tested}", file=sys.stderr)
    return 0 if doc["verdict"] == "PASS" else 1


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--deep", action="store_true", help="acceptance-scale ranges")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--out", default=None)
    ap.set_defaults(handler=write_battery)
    sys.exit(_run(ap))
