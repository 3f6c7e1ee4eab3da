"""Per-layer metrics of a traced pass: which functions are wrapped, what the
hooks count, and how the spans become the named metrics in BENCHMARK.json.

Layers follow the package's modules: the exact driver (``exact``), oracle
dispatch, verdicts, class enumeration and leaf solvers (``choosability``),
the type-II reduction (``type2``), and ``bipartite``, ``turan`` and
``acceptance``.  Verdict counts and ``choosability.checked`` come from the
outermost oracle call only, so a transversal verdict nested inside
``is_sufficient`` is not counted twice.
"""

from __future__ import annotations

import inspect
from collections import Counter

from sumchoice import choosability, graphs, type2

from tracer import Tracer

TARGETS: list[tuple[str, str]] = [
    ("sumchoice.exact", "sum_choice_exact"),
    ("sumchoice.exact", "sum_choice_type2_exact"),
    ("sumchoice.choosability", "is_sufficient"),
    ("sumchoice.choosability", "bipartite_is_sufficient"),
    ("sumchoice.choosability", "split_is_sufficient"),
    ("sumchoice.choosability", "detect_structure"),
    ("sumchoice.choosability", "peel_order"),
    ("sumchoice.choosability", "enumerate_canonical_assignments"),
    ("sumchoice.choosability", "color_from_lists"),
    ("sumchoice.choosability", "minimal_transversal_sets"),
    ("sumchoice.choosability", "sdr_image_sets"),
    ("sumchoice.choosability", "transversal_check"),
    ("sumchoice.type2", "type2_insufficient"),
    ("sumchoice.type2", "chi_sc2_reduced"),
    ("sumchoice.type2", "blocking_orbits"),
    ("sumchoice.type2", "materialize_reduced_witness"),
    ("sumchoice.type2", "beta"),
    ("sumchoice.bipartite", "random_transversal"),
    ("sumchoice.turan", "independent_sdr"),
    ("sumchoice.turan", "split_witness"),
    ("sumchoice.acceptance", "all_trees_up_to_iso"),
]

DRIVERS = {"exact.sum_choice_exact", "exact.sum_choice_type2_exact"}
ORACLES = {
    "choosability.is_sufficient": choosability.is_sufficient,
    "choosability.bipartite_is_sufficient": choosability.bipartite_is_sufficient,
    "choosability.split_is_sufficient": choosability.split_is_sufficient,
}
ROWS = [f"acceptance.row_{i}.s" for i in range(1, 11)]

# name -> unit, in report order.
METRICS: dict[str, str] = {
    "exact.driver_self_s": "s",
    "exact.oracle_s": "s",
    "exact.oracle_calls": "count",
    "exact.insufficient_found": "count",
    "choosability.is_sufficient.calls": "count",
    "choosability.dispatch_self_s": "s",
    "choosability.detect_structure.calls": "count",
    "choosability.detect_structure.s": "s",
    "choosability.peel_order.s": "s",
    "choosability.verdicts.sufficient": "count",
    "choosability.verdicts.insufficient": "count",
    "choosability.verdicts.undecided": "count",
    "choosability.sufficient_s": "s",
    "choosability.insufficient_s": "s",
    "choosability.checked": "count",
    "choosability.classes": "count",
    "choosability.enumerate_s": "s",
    "choosability.color_from_lists.calls": "count",
    "choosability.color_from_lists.s": "s",
    "choosability.minimal_transversal_sets.calls": "count",
    "choosability.minimal_transversal_sets.s": "s",
    "choosability.sdr_image_sets.calls": "count",
    "choosability.sdr_image_sets.s": "s",
    "choosability.blocker_search_s": "s",
    "choosability.transversal_check.calls": "count",
    "choosability.transversal_check.s": "s",
    "type2.type2_insufficient.calls": "count",
    "type2.type2_insufficient.found": "count",
    "type2.type2_insufficient.s": "s",
    "type2.type2_insufficient.found_s": "s",
    "type2.type2_insufficient.none_s": "s",
    "type2.chi_sc2_reduced.s": "s",
    "type2.blocking_orbits.s": "s",
    "type2.materialize_reduced_witness.s": "s",
    "type2.beta.s": "s",
    "bipartite.random_transversal.calls": "count",
    "bipartite.random_transversal.s": "s",
    "turan.independent_sdr.calls": "count",
    "turan.independent_sdr.s": "s",
    "turan.split_witness.calls": "count",
    "turan.split_witness.s": "s",
    "acceptance.all_trees_up_to_iso.s": "s",
    **{row: "s" for row in ROWS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Recorder:
    """Hook state of one traced pass: verdict tallies and the witnesses to
    re-check once tracing is off."""

    def __init__(self):
        self.verdicts: Counter = Counter()
        self.verdict_s: Counter = Counter()
        self.checked = 0
        self.driver_oracle_s = 0.0
        self.driver_oracle_calls = 0
        self.driver_insufficient = 0
        self.type2_found = 0
        self.type2_found_s = 0.0
        self.type2_none_s = 0.0
        # (graph, f, lists): every insufficient verdict of an outermost oracle call
        self.witnesses: list[tuple[graphs.Graph, tuple[int, ...], tuple]] = []
        # (graph, f on all vertices, lists): every materialized type-II witness
        self.type2_witnesses: list[tuple[graphs.Graph, tuple[int, ...], tuple]] = []

    def hooks(self) -> dict:
        out = {name: self._oracle_hook(name, fn) for name, fn in ORACLES.items()}
        out["type2.type2_insufficient"] = self._type2
        out["type2.materialize_reduced_witness"] = self._materialized
        return out

    def _oracle_hook(self, name: str, fn):
        sig = inspect.signature(fn)

        def hook(tracer: Tracer, args, kwargs, verdict, elapsed: float) -> None:
            parent = tracer.parent()
            if parent in DRIVERS:
                self.driver_oracle_s += elapsed
                self.driver_oracle_calls += 1
                self.driver_insufficient += verdict.status == "insufficient"
            if parent in ORACLES:
                return
            self.verdicts[verdict.status] += 1
            self.verdict_s[verdict.status] += elapsed
            self.checked += verdict.checked
            if verdict.status == "insufficient":
                bound = sig.bind(*args, **kwargs).arguments
                if name == "choosability.is_sufficient":
                    g, f = bound["g"], tuple(bound["f"])
                else:
                    a_sizes, q_sizes = tuple(bound["a_sizes"]), tuple(bound["q_sizes"])
                    make = graphs.complete_bipartite if "bipartite" in name else graphs.complete_split
                    g, f = make(len(a_sizes), len(q_sizes)), a_sizes + q_sizes
                self.witnesses.append((g, f, verdict.witness))

        return hook

    def _type2(self, tracer, args, kwargs, witness, elapsed: float) -> None:
        if witness is None:
            self.type2_none_s += elapsed
        else:
            self.type2_found += 1
            self.type2_found_s += elapsed

    def _materialized(self, tracer, args, kwargs, result, elapsed: float) -> None:
        bound = inspect.signature(type2.materialize_reduced_witness).bind(*args, **kwargs).arguments
        g, lists = result
        q = bound["q"]
        self.type2_witnesses.append((g, tuple(bound["f_A"]) + (2,) * q, lists))


def recheck(witnesses) -> list[str]:
    """Failures among (graph, f, lists) claimed insufficient: a list of the
    wrong size, or a proper coloring found by ``color_from_lists``.  Call with
    tracing off, so the original function does the checking."""
    failures = []
    for g, f, lists in witnesses:
        if lists is None or [len(L) for L in lists] != list(f):
            failures.append(f"witness sizes do not match f={f}")
        elif choosability.color_from_lists(g, lists) is not None:
            failures.append(f"witness for f={f} on {g.n} vertices is colorable")
    return failures


def metrics(tracer: Tracer, rec: Recorder, case_s: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric of METRICS except the two trace.* ones;
    ``case_s`` gives the acceptance rows' times (cases ``row_<i>``)."""
    t, s, c = tracer.total, tracer.self_time, tracer.calls
    enum = tracer.stats.get("choosability.enumerate_canonical_assignments")
    out = {
        "exact.driver_self_s": s("exact.sum_choice_exact") + s("exact.sum_choice_type2_exact"),
        "exact.oracle_s": rec.driver_oracle_s,
        "exact.oracle_calls": rec.driver_oracle_calls,
        "exact.insufficient_found": rec.driver_insufficient,
        "choosability.is_sufficient.calls": c("choosability.is_sufficient"),
        "choosability.dispatch_self_s": s("choosability.is_sufficient"),
        "choosability.detect_structure.calls": c("choosability.detect_structure"),
        "choosability.detect_structure.s": t("choosability.detect_structure"),
        "choosability.peel_order.s": t("choosability.peel_order"),
        "choosability.verdicts.sufficient": rec.verdicts["sufficient"],
        "choosability.verdicts.insufficient": rec.verdicts["insufficient"],
        "choosability.verdicts.undecided": rec.verdicts["undecided"],
        "choosability.sufficient_s": float(rec.verdict_s["sufficient"]),
        "choosability.insufficient_s": float(rec.verdict_s["insufficient"]),
        "choosability.checked": rec.checked,
        "choosability.classes": enum.items if enum else 0,
        "choosability.enumerate_s": t("choosability.enumerate_canonical_assignments"),
        "choosability.blocker_search_s": s("choosability.bipartite_is_sufficient") + s("choosability.split_is_sufficient"),
        "type2.type2_insufficient.found": rec.type2_found,
        "type2.type2_insufficient.found_s": rec.type2_found_s,
        "type2.type2_insufficient.none_s": rec.type2_none_s,
    }
    for name in (
        "choosability.color_from_lists",
        "choosability.minimal_transversal_sets",
        "choosability.sdr_image_sets",
        "choosability.transversal_check",
        "type2.type2_insufficient",
        "bipartite.random_transversal",
        "turan.independent_sdr",
        "turan.split_witness",
    ):
        out[f"{name}.calls"] = c(name)
        out[f"{name}.s"] = t(name)
    for name in (
        "type2.chi_sc2_reduced",
        "type2.blocking_orbits",
        "type2.materialize_reduced_witness",
        "type2.beta",
        "acceptance.all_trees_up_to_iso",
    ):
        out[f"{name}.s"] = t(name)
    for i, row in enumerate(ROWS, start=1):
        out[row] = case_s.get(f"row_{i}", 0.0)
    return out


def counts(values: dict[str, float]) -> dict[str, int]:
    """The count metrics, which must repeat exactly for one code and seed."""
    return {k: v for k, v in values.items() if METRICS.get(k) == "count"}
