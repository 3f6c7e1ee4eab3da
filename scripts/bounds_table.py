#!/usr/bin/env python3
"""Tabulate closed forms vs bounds for K_{a,q} over a parameter grid.

Example:
    python scripts/bounds_table.py --a 2 3 --q-max 40 --format csv
"""

import argparse
import json
import sys

from sumchoice.bipartite import bounds_report, bounds_report_to_json


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--a", type=int, nargs="+", default=[2, 3])
    parser.add_argument("--q-max", type=int, default=40)
    parser.add_argument("--log-base", choices=("e", "2"), default="e")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    args = parser.parse_args()

    q_range = range(1, args.q_max + 1)
    rows = [bounds_report(a, q, log_base=args.log_base) for a in args.a for q in q_range]
    if args.format == "json":
        doc = [bounds_report_to_json(r) for r in rows]
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write("a,q,closed_form,ub,lb,sandwich_ok\n")
        for r in rows:
            lb = "" if r.lower is None else f"{r.lower:.4f}"
            sys.stdout.write(
                f"{r.a},{r.q},{'' if r.closed is None else r.closed},"
                f"{'' if r.upper is None else r.upper},{lb},"
                f"{'' if r.sandwich_ok is None else int(r.sandwich_ok)}\n"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
