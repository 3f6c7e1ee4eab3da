#!/usr/bin/env python3
"""Success-rate summary for the two-step random transversal process.

Sweeps a grid of (a, q), samples random type-II assignments at the bound's
list size r, and reports how many assignments get a transversal within the
trial cap.  Everything is seeded; rerunning reproduces the same table.

Example:
    python scripts/rt_experiment.py --a 2 4 --q 16 64 --assignments 50
"""

import argparse
import sys

from sumchoice.bipartite import (
    default_pick_probability,
    random_transversal,
    random_type2_assignment,
    recommended_r,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--a", type=int, nargs="+", default=[2, 4])
    parser.add_argument("--q", type=int, nargs="+", default=[16, 64])
    parser.add_argument("--assignments", type=int, default=50)
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    for flag in ("assignments", "trials"):
        if getattr(args, flag) < 1:
            parser.error(f"--{flag} must be >= 1, got {getattr(args, flag)}")

    sys.stdout.write("a,q,r,p,assignments,success,mean_trials_to_success\n")
    for a in args.a:
        for q in args.q:
            if q < a:
                continue
            r = recommended_r(a, q)
            p = default_pick_probability(a, q)
            wins = 0
            trial_counts = []
            for i in range(args.assignments):
                LA, LQ = random_type2_assignment(a, q, r, seed=args.seed * 7919 + i)
                got = random_transversal(
                    LA, LQ, p, seed=args.seed * 104729 + i, max_trials=args.trials
                )
                if got is not None:
                    wins += 1
                    trial_counts.append(got[1].trial + 1)
            mean = sum(trial_counts) / len(trial_counts) if trial_counts else float("nan")
            sys.stdout.write(
                f"{a},{q},{r},{p:.5f},{args.assignments},{wins},{mean:.3f}\n"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
