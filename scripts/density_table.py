#!/usr/bin/env python3
"""Emit a CSV of critical-point statistics across word families, for
plotting elsewhere.

    python scripts/density_table.py                  # fixed-point prefixes
    python scripts/density_table.py --family wx --n 5
    python scripts/density_table.py --family beta --count 10 --bound 100000
"""

import argparse
import sys

from critfact import RangeError, beta_family, construct_wx, m_prefix, profile, x_n
from critfact.cli import _run


def table(rows) -> list[str]:
    """The CSV lines, all computed before any is printed."""
    lines = ["family,param,length,period,eta,density,densityOverLength"]
    for family, param, w in rows:
        prof = profile(w)
        n = len(w)
        lines.append(
            f"{family},{param},{n},{prof.period},{prof.eta},"
            f"{prof.eta}/{n - 1},{prof.eta}/{n}"
        )
    return lines


def print_table(args) -> int:
    """Print the table of the chosen family; 0 once it is printed."""
    if args.family == "m-prefix":
        rows = [("m-prefix", L, m_prefix(L)) for L in args.lengths]
    elif args.family == "wx":
        rows = [("wx", n, construct_wx(x_n(n))) for n in range(1, args.n + 1)]
    else:
        rows = [
            ("beta", i, w)
            for i, w in enumerate(beta_family(args.count, args.bound), start=1)
        ]
    if not rows:
        raise RangeError(f"the {args.family} table has no rows")
    print("\n".join(table(rows)))
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--family", choices=["m-prefix", "wx", "beta"], default="m-prefix")
    ap.add_argument("--n", type=int, default=4, help="largest wx index")
    ap.add_argument("--lengths", type=int, nargs="*", default=[10, 20, 40, 80, 160, 320])
    ap.add_argument("--count", type=int, default=5)
    ap.add_argument("--bound", type=int, default=10**5)
    ap.set_defaults(handler=print_table)
    sys.exit(_run(ap))
