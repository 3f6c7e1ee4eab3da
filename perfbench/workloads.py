"""The five benchmark workloads: inputs made from a seed, answers checked
against references that do not come from the code path being timed.

A workload's pass is a generator yielding ``(case, answer)`` once per case,
so the runner can time each case from outside.  ``checks[case](answer)``
returns None when the answer is right and a one-line reason otherwise.
References that cost time are computed once per run, lazily, after the
timed passes.  Values with no independent reference are frozen, taken from
the package when the benchmark was written, and listed in
``Workload.frozen``.

Seeds: the seed relabels vertices (seed 0 is the identity) wherever that
leaves the answer and, nearly, the search cost unchanged: the labeled
complete graphs within each part, the sufficient queries (every class is
enumerated whatever the labels) and the disconnected graph.  A relabeling
moves the cost of the random graphs by up to ten times and that of K_{4,4}
by up to 1.8 times, so they keep their labels.  The type-II sweep draws its
pairs from the seed; the acceptance rows fix their own seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Iterator

from sumchoice import acceptance, choosability, exact, graphs, type2
from sumchoice.bipartite import closed_form
from sumchoice.graphs import Graph, make_graph

Check = Callable[[object], "str | None"]


@dataclass
class Workload:
    name: str
    seed: int
    run_pass: Callable[[], Iterator[tuple[str, object]]]
    checks: dict[str, Check]
    frozen: list[str] = field(default_factory=list)


@dataclass
class Case:
    name: str
    run: Callable[[], object]
    check: Check


def _workload(name: str, seed: int, cases: list[Case], frozen: list[str] | None = None) -> Workload:
    def run_pass() -> Iterator[tuple[str, object]]:
        for c in cases:
            try:
                answer = c.run()
            except Exception as exc:  # reported as a failed case
                answer = exc
            yield c.name, answer

    return Workload(name, seed, run_pass, {c.name: c.check for c in cases}, frozen or [])


# ---------------------------------------------------------------------------
# Seeded relabeling


def permutation(seed: int, label: str, n: int, blocks=None) -> list[int]:
    """Vertex permutation for ``seed``; identity for seed 0.  Vertices move
    only within each block (default: one block of all vertices)."""
    perm = list(range(n))
    if seed == 0:
        return perm
    rng = random.Random(f"perfbench:{seed}:{label}")
    for block in blocks if blocks is not None else [range(n)]:
        src = list(block)
        dst = src[:]
        rng.shuffle(dst)
        for u, v in zip(src, dst):
            perm[u] = v
    return perm


def relabel(g: Graph, perm: list[int]) -> Graph:
    parts = None if g.parts is None else tuple(tuple(perm[v] for v in side) for side in g.parts)
    return make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges], parts=parts)


def relabel_f(f: tuple[int, ...], perm: list[int]) -> tuple[int, ...]:
    out = [0] * len(f)
    for v, s in enumerate(f):
        out[perm[v]] = s
    return tuple(out)


# ---------------------------------------------------------------------------
# Answer summaries and checks


def _exact_answer(g: Graph) -> tuple:
    r = exact.sum_choice_exact(g)
    return (r.value, r.optimal_f, r.undecided)


def _check_exact(want: int) -> Check:
    def check(answer) -> str | None:
        value, f, undecided = answer
        if undecided:
            return "undecided"
        if value != want or sum(f) != value:
            return f"value {value} (optimal f {f}), want {want}"
        return None

    return check


def _check_status(reference: Callable[[], str]) -> Check:
    def check(answer) -> str | None:
        status, _detail = answer
        want = reference()
        return None if status == want else f"verdict {status}, reference says {want}"

    return check


# ---------------------------------------------------------------------------
# Workloads


def kaq_exact(seed: int) -> Workload:
    """Labeled K_{a,q} / G_{a,q}: the exact driver plus the transversal oracle."""
    # K_{4,4} keeps its labels: the order of its A side moves its search
    # cost by up to 1.8 times, the other three barely move.
    specs = [
        ("K_{2,10}", graphs.complete_bipartite(2, 10), closed_form(2, 10), True),
        ("K_{3,6}", graphs.complete_bipartite(3, 6), closed_form(3, 6), True),
        ("K_{4,4}", graphs.complete_bipartite(4, 4), 20, False),  # frozen
        ("G_{3,4}", graphs.complete_split(3, 4), 20, True),  # frozen
    ]
    cases = []
    for name, g, want, relabeled in specs:
        h = relabel(g, permutation(seed if relabeled else 0, name, g.n, g.parts))
        cases.append(Case(name, lambda h=h: _exact_answer(h), _check_exact(want)))
    return _workload("kaq_exact", seed, cases, frozen=["K_{4,4}", "G_{3,4}"])


def generic_exact(seed: int) -> Workload:
    """Unlabeled graphs: the exact driver over the generic class-enumeration
    oracle.  chi_sc of a disjoint union of cliques is the sum of n(n+1)/2.

    Only the disconnected graph is relabeled: a relabeling moves the cost of
    the random graphs by up to ten times, which would swamp any change of
    the code between runs of different seeds."""
    specs = [
        ("random_graph(6,8,1)", graphs.random_graph(6, 8, 1), 14, False),  # frozen
        ("random_graph(6,8,7)", graphs.random_graph(6, 8, 7), 14, False),  # frozen
        ("disjoint_cliques(3,3,2)", graphs.disjoint_cliques(3, 3, 2), sum(k * (k + 1) // 2 for k in (3, 3, 2)), True),
    ]
    cases = []
    for name, g, want, relabeled in specs:
        h = relabel(g, permutation(seed if relabeled else 0, name, g.n))
        cases.append(Case(name, lambda h=h: _exact_answer(h), _check_exact(want)))
    return _workload("generic_exact", seed, cases, frozen=["random_graph(6,8,1)", "random_graph(6,8,7)"])


def generic_sufficient(seed: int) -> Workload:
    """Sufficient is_sufficient queries on unlabeled graphs: every class is
    enumerated.  Even cycles are 2-choosable; the unlabeled K_{2,q} copies
    must agree with the labeled transversal oracle at the same f."""
    c6 = relabel(graphs.cycle(6), permutation(seed, "C_6", 6))
    cases = [Case("C_6 f=2", lambda: _verdict(c6, (2,) * 6), _check_status(lambda: "sufficient"))]
    for q, f in [(3, (2, 2, 2, 2, 2)), (3, (3, 2, 2, 2, 2)), (3, (3, 3, 2, 2, 2)), (4, (2, 2, 2, 2, 2, 3))]:
        name = f"K_{{2,{q}}} unlabeled f={f}"
        labeled = graphs.complete_bipartite(2, q)
        perm = permutation(seed, name, labeled.n)
        h = relabel(make_graph(labeled.n, labeled.edges), perm)
        fh = relabel_f(f, perm)
        reference = cache(lambda f=f: choosability.bipartite_is_sufficient(f[:2], f[2:]).status)
        cases.append(Case(name, lambda h=h, fh=fh: _verdict(h, fh), _check_status(reference)))
    return _workload("generic_sufficient", seed, cases)


def _verdict(g: Graph, f: tuple[int, ...]) -> tuple[str, int]:
    v = choosability.is_sufficient(g, f)
    return (v.status, v.checked)


def sweep_pairs(seed: int, count: int = 12) -> list[tuple[tuple[int, int, int], int, str]]:
    """``count`` triples (f_A, q, verdict) with a = 3: q cycles through 2..6
    and the pairs alternate sufficient / insufficient, so every seed has the
    same mix of cheap early exits and full scans, each cheaper than
    chi_sc2_reduced(3, 10); f_A is drawn from the seed until the transversal
    oracle's verdict, the reference, puts it in its slot's class."""
    rng = random.Random(f"perfbench:{seed}:type2-sweep")
    pairs = []
    for i in range(count):
        q = 2 + (i // 2) % 5
        want = "sufficient" if i % 2 == 0 else "insufficient"
        while True:
            f = tuple(sorted(rng.randint(1, min(q + 1, 5)) for _ in range(3)))
            if choosability.bipartite_is_sufficient(f, (2,) * q).status == want:
                break
        pairs.append((f, q, want))
    return pairs


def type2_workload(seed: int) -> Workload:
    """chi_sc2_reduced(3, q) for q = 2..10 against the closed form and the
    transversal oracle, then a seeded sweep of type2_insufficient against
    bipartite_is_sufficient."""
    cases = []
    for q in range(2, 11):
        reference = cache(lambda q=q: (closed_form(3, q), exact.sum_choice_type2_exact(3, q)))

        def check(answer, reference=reference) -> str | None:
            want = reference()
            return None if want == (answer, answer) else f"chi_sc2_reduced {answer}, closed form / exact {want}"

        cases.append(Case(f"chi_sc2_reduced(3,{q})", lambda q=q: type2.chi_sc2_reduced(3, q), check))
    for i, (f, q, want) in enumerate(sweep_pairs(seed)):

        def run(f=f, q=q):
            w = type2.type2_insufficient(f, q)
            if w is None:
                return ("sufficient", None)
            type2.materialize_reduced_witness(w, f, q)
            return ("insufficient", w.cost)

        cases.append(Case(f"type2_insufficient#{i}({f},{q})", run, _check_status(lambda want=want: want)))
    return _workload("type2", seed, cases)


def verify_tables(seed: int) -> Workload:
    """The ten acceptance rows through acceptance.run_rows(); each row's own
    ``ok`` is its check.  The rows fix their own seeds, so ``seed`` is unused."""

    def run_pass() -> Iterator[tuple[str, object]]:
        for row_id, _title, ok, detail in acceptance.run_rows():
            yield f"row_{row_id}", (ok, detail)

    def check(answer) -> str | None:
        ok, detail = answer
        return None if ok else detail

    return Workload("verify_tables", seed, run_pass, {f"row_{rid}": check for rid, _, _ in acceptance.CRITERIA})


BUILDERS = {
    "kaq_exact": kaq_exact,
    "generic_exact": generic_exact,
    "generic_sufficient": generic_sufficient,
    "type2": type2_workload,
    "verify_tables": verify_tables,
}


def setup(name: str, seed: int) -> Workload:
    """Build the inputs and fill the module caches a workload reads."""
    workload = BUILDERS[name](seed)
    if name in ("type2", "verify_tables"):
        type2.blocking_orbits(2)
        type2.blocking_orbits(3)
    return workload
