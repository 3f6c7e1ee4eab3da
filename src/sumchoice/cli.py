"""Batch command line: tables, checks, experiments, witness inspection.

Every command prints JSON (CSV for experiment traces) with a config echo,
sorted keys, and no timestamps, so identical invocations are byte-identical.
Exit codes: 0 success, 1 verify-tables mismatch, 2 usage error, 3 budget
exhausted (partial output already printed).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import graphs
from .acceptance import CRITERIA, run_rows
from .bipartite import (
    bounds_report,
    bounds_report_to_json,
    constr_assignment,
    default_pick_probability,
    random_type2_assignment,
    recommended_r,
    transversal_trials,
)
from .choosability import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    color_from_lists,
    is_sufficient,
    lists_from_json,
    lists_to_json,
    transversal_check,
)
from .exact import sum_choice_exact
from .graphs import generate, graph_to_json, load_graph
from .turan import independent_sdr, split_bounds
from .type2 import beta, reduced_witness_to_json, type2_insufficient

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_UNDECIDED = 3


def _int_str_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _int_list(text: str) -> list[int]:
    return [int(part) for part in _int_str_list(text)]


def _emit(doc: dict, args: argparse.Namespace, extra: dict | None = None) -> None:
    config = {"command": args.command}
    config.update((flag, getattr(args, flag)) for flag in ("seed", "budget") if hasattr(args, flag))
    if extra:
        config.update(extra)
    doc = dict(doc)
    doc["config"] = config
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _load_lists(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return lists_from_json(json.load(fh))


def _graph_from_args(args: argparse.Namespace) -> graphs.Graph:
    if getattr(args, "graph", None):
        return load_graph(args.graph)
    family = args.family
    if family is None:
        raise ValueError("either --graph or --family is required")
    names = graphs._FAMILIES[family][1]
    if args.params is not None:
        params = _int_list(args.params)
    elif names is None:
        raise ValueError(f"family {family!r} needs --params")
    else:
        params = [getattr(args, name) for name in names]
    if any(p is None for p in params):
        raise ValueError(f"family {family!r} is missing parameters (use --params or the named flags)")
    g = generate(family, params)
    if names is not None and "seed" in names:
        args.seed = params[names.index("seed")]  # the config echo reports the seed used
    return g


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumchoice",
        description="Sum choice numbers: exact values, bounds, constructions, witnesses.",
    )
    # Each subcommand takes only the flags it reads: --seed where a family
    # or an experiment draws from it, --budget where an oracle runs.
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="base seed for randomized commands")
    budgeted = argparse.ArgumentParser(add_help=False)
    budgeted.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="search budget cap")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def sub(name: str, *parents: argparse.ArgumentParser, **kwargs) -> argparse.ArgumentParser:
        return subparsers.add_parser(name, parents=list(parents), **kwargs)

    def family_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--params", help="comma-separated integer parameters")
        for flag in ("--a", "--q", "--n", "--m"):
            p.add_argument(flag, type=int)

    p = sub("generate", seeded, help="emit a named-family graph as JSON")
    p.add_argument("--family", required=True, choices=graphs.family_names())
    family_flags(p)
    p.add_argument("--out", help="write to file instead of stdout")

    p = sub("check", budgeted, help="test a size function or a concrete list assignment")
    p.add_argument("--graph", required=True, help="graph JSON file (or inline JSON)")
    p.add_argument("--f", help="comma-separated list sizes per vertex")
    p.add_argument("--lists", help="list-assignment JSON file")

    p = sub("sumchoice", seeded, budgeted, help="exact sum choice number")
    p.add_argument("--graph")
    p.add_argument("--family", choices=graphs.family_names())
    family_flags(p)

    p = sub("bounds", help="closed form and bounds for K_{a,q}")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--log-base", choices=("e", "2"), default="e")

    p = sub("constr", help="the doubling construction for a=2^t, q=t*ell^2")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)

    p = sub("experiment", seeded, help="randomized experiments (CSV)")
    p.add_argument("kind", choices=("rt",), help="rt: random transversal process")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int, help="A-list size (default: the bound's r)")
    p.add_argument("--p", type=float, help="pick probability (default: the bound's p)")
    p.add_argument("--universe", type=int, help="color universe size (default 2q)")
    p.add_argument("--trials", type=int, default=50)

    p = sub("sdr", help="greedy independent SDR with step trace")
    p.add_argument("--graph", required=True)
    p.add_argument("--lists", required=True)

    p = sub("split-bounds", help="bounds for the complete split graph G_{a,q}")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    p = sub("type2", budgeted, help="type-II insufficiency witness for K_{a,q}")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--f", required=True, help="comma-separated A-side list sizes")

    p = sub("beta", help="the normalized type-II limit constant")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--grid", type=int, default=32)

    p = sub("verify-tables", help="re-run every acceptance row; nonzero exit on mismatch")
    p.add_argument("--only", help="comma-separated row ids (default: all)")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except BudgetExceededError as exc:
        sys.stderr.write(f"undecided: {exc}\n")
        return EXIT_UNDECIDED
    # an oversized integer argument overflows at once, before it allocates
    except (ValueError, OverflowError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def _dispatch(args: argparse.Namespace) -> int:
    if getattr(args, "budget", 0) < 0:
        raise ValueError(f"--budget must be >= 0, got {args.budget}")

    if args.command == "generate":
        g = _graph_from_args(args)
        doc = graph_to_json(g)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True, indent=2)
                fh.write("\n")
            _emit({"written": args.out, "n": g.n, "edges": g.m}, args)
        else:
            _emit(doc, args)
        return EXIT_OK

    if args.command == "check":
        g = load_graph(args.graph)
        if (args.f is None) == (args.lists is None):
            raise ValueError("check needs exactly one of --f or --lists")
        if args.f is not None:
            verdict = is_sufficient(g, _int_list(args.f), budget=args.budget)
            doc = {"verdict": verdict.status, "checked": verdict.checked}
            if verdict.witness is not None:
                doc["witness"] = lists_to_json(verdict.witness)
            _emit(doc, args, {"f": args.f})
            return EXIT_UNDECIDED if verdict.status == "undecided" else EXIT_OK
        lists = _load_lists(args.lists)
        coloring = color_from_lists(g, lists)
        doc = {"colorable": coloring is not None}
        if coloring is not None:
            doc["coloring"] = list(coloring)
        _emit(doc, args, {"lists": args.lists})
        return EXIT_OK

    if args.command == "sumchoice":
        g = _graph_from_args(args)
        result = sum_choice_exact(g, budget=args.budget)
        doc = {
            "chi_sc": result.value,
            "optimal_f": list(result.optimal_f) if result.optimal_f is not None else None,
            "budget_used": result.budget_used,
        }
        if result.undecided:
            doc["undecided"] = True
            doc["bracket"] = list(result.bracket)
        _emit(doc, args)
        return EXIT_UNDECIDED if result.undecided else EXIT_OK

    if args.command == "bounds":
        report = bounds_report(args.a, args.q, log_base=args.log_base)
        _emit(bounds_report_to_json(report), args, {"log_base": args.log_base})
        return EXIT_OK

    if args.command == "constr":
        c = constr_assignment(args.t, args.ell)
        doc = asdict(c)
        doc["a_lists"] = [sorted(L) for L in c.a_lists]
        doc["q_lists"] = [sorted(L) for L in c.q_lists]
        doc["insufficient"] = transversal_check(c.a_lists, c.q_lists) is None
        _emit(doc, args)
        return EXIT_OK

    if args.command == "experiment":
        a, q = args.a, args.q
        r = args.r if args.r is not None else recommended_r(a, q)
        p = args.p if args.p is not None else default_pick_probability(a, q)
        universe = args.universe if args.universe is not None else max(2 * q, r)
        LA, LQ = random_type2_assignment(a, q, r, seed=args.seed, universe=universe)
        config = {
            "kind": args.kind, "a": a, "q": q, "r": r, "p": p,
            "universe": universe, "trials": args.trials, "seed": args.seed,
        }
        # validated before the header, so a bad --trials prints nothing
        traces = transversal_trials(LA, LQ, p, seed=args.seed, max_trials=args.trials)
        sys.stdout.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
        sys.stdout.write("trial,Y,min_X_u,success\n")
        for trace in traces:
            sys.stdout.write(
                f"{trace.trial},{trace.spanned},{min(trace.hits)},{int(trace.success)}\n"
            )
        return EXIT_OK

    if args.command == "sdr":
        g = load_graph(args.graph)
        lists = _load_lists(args.lists)
        result = independent_sdr(g, lists)
        _emit({"success": False} if result is None else {"success": True, **asdict(result)}, args)
        return EXIT_OK

    if args.command == "split-bounds":
        _emit(asdict(split_bounds(args.a, args.q)), args)
        return EXIT_OK

    if args.command == "type2":
        f = _int_list(args.f)
        if len(f) != args.a:
            raise ValueError(f"--f has {len(f)} entries but --a is {args.a}")
        witness = type2_insufficient(f, args.q, budget=args.budget)
        doc = {"verdict": "sufficient"}
        if witness is not None:
            doc = {"verdict": "insufficient", "witness": reduced_witness_to_json(witness)}
        _emit(doc, args, {"f": args.f, "q": args.q})
        return EXIT_OK

    if args.command == "beta":
        value = beta(args.a, args.tol, grid=args.grid)
        _emit({"a": args.a, "beta": value, "tolerance": args.tol}, args, {"grid": args.grid})
        return EXIT_OK

    if args.command == "verify-tables":
        only = None if args.only is None else set(_int_str_list(args.only))
        if only is not None:
            if not only:
                raise ValueError(f"--only names no row id: {args.only!r}")
            known = {row_id for row_id, _, _ in CRITERIA}
            bad = only - known
            if bad:
                raise ValueError(f"unknown row ids: {sorted(bad)}")
        failures = 0
        for row_id, title, ok, detail in run_rows(only):
            status = "PASS" if ok else "FAIL"
            sys.stdout.write(f"ROW {row_id:>2} {status} {title}: {detail}\n")
            failures += 0 if ok else 1
        sys.stdout.write(f"{'OK' if failures == 0 else 'MISMATCH'} ({failures} failing rows)\n")
        return EXIT_OK if failures == 0 else EXIT_MISMATCH

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
