"""Self-contained acceptance rows: every table the package must reproduce.

Each row is a callable returning (ok, detail); the CLI ``verify-tables``
command and the test suite both run these, so the checks need no network
and no external data.  Expected numbers are frozen here on purpose.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

from .bipartite import (
    closed_form,
    constr_assignment,
    default_pick_probability,
    lb_bound,
    random_transversal,
    random_type2_assignment,
    recommended_r,
    ub_bound,
)
from .choosability import (
    bipartite_is_sufficient,
    color_from_lists,
    is_sufficient,
    transversal_check,
)
from .exact import edge_bound, greedy_sufficient_f, sum_choice_exact, sum_choice_type2_exact
from .graphs import Graph, make_graph, random_graph
from .rng import derive_rng
from .turan import independent_sdr, sharp_family, split_bounds, split_witness, t_balanced
from .type2 import beta, chi_sc2_reduced, materialize_reduced_witness, type2_insufficient
from . import graphs

# Planar triangulation fixtures (3n-6 edges each); planarity is by
# construction, not recognized at runtime.
TRIANGULATIONS: dict[str, tuple[int, tuple[tuple[int, int], ...]]] = {
    "k4": (4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
    "triangular_bipyramid": (
        5,
        ((0, 1), (0, 2), (1, 2), (3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (4, 2)),
    ),
    "octahedron": (
        6,
        tuple(
            (u, v)
            for u in range(6)
            for v in range(u + 1, 6)
            if (u, v) not in {(0, 5), (1, 3), (2, 4)}
        ),
    ),
    "pentagonal_bipyramid": (
        7,
        tuple((i, (i + 1) % 5) for i in range(5))
        + tuple((5, i) for i in range(5))
        + tuple((6, i) for i in range(5)),
    ),
    "icosahedron": (
        12,
        tuple((0, i) for i in range(1, 6))
        + tuple((i, i % 5 + 1) for i in range(1, 6))
        + tuple((5 + i, 5 + i % 5 + 1) for i in range(1, 6))
        + tuple((11, i) for i in range(6, 11))
        + tuple((i, 5 + i) for i in range(1, 6))
        + tuple((i, 5 + i % 5 + 1) for i in range(1, 6)),
    ),
}


def triangulation_graphs() -> dict[str, Graph]:
    return {name: make_graph(n, edges) for name, (n, edges) in TRIANGULATIONS.items()}


def _tree_key(n: int, edges: Sequence[tuple[int, int]]) -> str:
    """AHU canonical string of a tree rooted at its center, equal exactly
    for isomorphic trees.  Leaves are stripped layer by layer, each vertex
    encoded from its stripped children; two centers give the sorted pair of
    their encodings."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    degree = [len(nb) for nb in adj]
    children: list[list[str]] = [[] for _ in range(n)]
    layer = [v for v in range(n) if degree[v] <= 1]
    left = n
    while left > 2:
        left -= len(layer)
        nxt = []
        for v in layer:
            degree[v] = 0
            code = "(" + "".join(sorted(children[v])) + ")"
            for w in adj[v]:
                if degree[w]:
                    children[w].append(code)
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt
    return "".join(sorted("(" + "".join(sorted(children[c])) + ")" for c in layer))


def all_trees_up_to_iso(n: int) -> list[Graph]:
    """Every isomorphism class of trees on n vertices, grown one leaf at a
    time: deleting a leaf leaves a tree, so joining a new vertex m-1 to each
    vertex of each class on m-1 vertices reaches every class on m vertices.
    Classes are deduplicated by the center-rooted AHU string, each keeping
    the first tree that reaches it."""
    level: list[list[tuple[int, int]]] = [[]]
    for m in range(2, n + 1):
        classes: dict[str, list[tuple[int, int]]] = {}
        for edges in level:
            for v in range(m - 1):
                grown = [*edges, (v, m - 1)]
                classes.setdefault(_tree_key(m, grown), grown)
        level = list(classes.values())
    return [make_graph(n, edges) for edges in level]


# ---------------------------------------------------------------------------
# Rows


def row_closed_forms() -> tuple[bool, str]:
    expect = {(2, 1): 5, (2, 2): 8, (2, 3): 10, (2, 4): 13, (3, 1): 7, (3, 2): 10, (3, 3): 13}
    got = {}
    for (a, q), want in expect.items():
        g = graphs.complete_bipartite(a, q)
        value = sum_choice_exact(g).value
        got[(a, q)] = value
        if value != want or closed_form(a, q) != want:
            return False, f"K_{{{a},{q}}}: exact={value} closed={closed_form(a, q)} want={want}"
    return True, f"exact==closed on {sorted(got)} -> {[got[k] for k in sorted(got)]}"


def row_trees() -> tuple[bool, str]:
    total = 0
    for n in range(1, 7):
        for g in all_trees_up_to_iso(n):
            total += 1
            value = sum_choice_exact(g).value
            if value != 2 * n - 1:
                return False, f"tree on {n} vertices (edges {g.edges}): got {value}, want {2 * n - 1}"
    return True, f"all {total} tree classes n<=6 give 2n-1"


def row_greedy_bound() -> tuple[bool, str]:
    for name, g in triangulation_graphs().items():
        f = greedy_sufficient_f(g)
        if sum(f) > 4 * g.n - 6 or max(f) > 6:
            return False, f"{name}: sum f={sum(f)} (cap {4 * g.n - 6}), max f={max(f)}"
        if edge_bound(g) != 4 * g.n - 6:
            return False, f"{name}: not a triangulation? |V|+|E|={edge_bound(g)}"
    for i in range(50):
        rng = derive_rng(3, "greedy-random", i)
        n = rng.randint(4, 8)
        m = rng.randint(0, n * (n - 1) // 2)
        g = random_graph(n, m, seed=i)
        verdict = is_sufficient(g, greedy_sufficient_f(g))
        if verdict.status != "sufficient":
            return False, f"random graph #{i} (n={n}, m={m}): greedy f not sufficient"
    return True, "5 triangulations within 4n-6 / max 6; greedy f sufficient on 50 random graphs"


def row_constr() -> tuple[bool, str]:
    for t, ell in [(2, 1), (2, 2)]:
        c = constr_assignment(t, ell)
        if transversal_check(c.a_lists, c.q_lists) is not None:
            return False, f"constr({t},{ell}) unexpectedly admits a transversal"
        size = len(c.a_lists[0])
        if size * size != c.q * int(math.log2(c.a)) or size != c.t * c.ell:
            return False, f"constr({t},{ell}) list size {size} != sqrt(q log2 a)"
    return True, "constr(2,1) and constr(2,2) insufficient; |L| = sqrt(q log2 a) exactly"


def row_sandwich() -> tuple[bool, str]:
    rows = []
    for a, q in [(2, 12), (2, 20), (3, 100)]:
        lo = lb_bound(a, q)
        mid = closed_form(a, q)
        hi = ub_bound(a, q)
        rows.append(f"({a},{q}): {lo:.3f} <= {mid} <= {hi}")
        if not lo <= mid <= hi:
            return False, rows[-1]
    return True, "; ".join(rows)


def row_random_process() -> tuple[bool, str]:
    a, q = 4, 64
    r = recommended_r(a, q)
    p = default_pick_probability(a, q)
    for i in range(100):
        LA, LQ = random_type2_assignment(a, q, r, seed=i)
        got = random_transversal(LA, LQ, p, seed=1000 + i, max_trials=50)
        if got is None:
            return False, f"assignment #{i}: no success within 50 trials"
        T, trace = got
        coloring = [min(L & T) for L in LA] + [min(L - T) for L in LQ]
        for u in range(a):
            for v in range(q):
                if coloring[u] == coloring[a + v]:
                    return False, f"assignment #{i}: improper coloring"
    return True, f"100 assignments (a=4,q=64,r={r},p={p:.4f}) all succeed with proper colorings"


def row_turan() -> tuple[bool, str]:
    table = _min_clique_edges(20, 6)
    for s in range(0, 21):
        for k in range(1, 7):
            best = table[k][s]
            if t_balanced(s, k) != best:
                return False, f"t({s},{k})={t_balanced(s, k)} but brute force gives {best}"
    for i in range(500):
        rng = derive_rng(7, "sdr-instance", i)
        a = rng.randint(2, 4)
        s = rng.randint(a, 8)
        n = rng.randint(s, 12)
        m = rng.randint(0, min(n * (n - 1) // 2, t_balanced(s, a - 1) - 1))
        g = random_graph(n, m, seed=10_000 + i)
        lists = [frozenset(rng.sample(range(n), s)) for _ in range(a)]
        res = independent_sdr(g, lists)
        if res is None:
            return False, f"instance #{i} (n={n}, m={m} < t({s},{a - 1})): greedy failed"
        reps = res.representatives
        if len(set(reps)) != a or any(reps[k] not in lists[res.list_indices[k]] for k in range(a)):
            return False, f"instance #{i}: invalid representatives"
        if any(g.has_edge(u, v) for u, v in itertools.combinations(reps, 2)):
            return False, f"instance #{i}: representatives not independent"
        blocks = [set(step.closed_neighborhood) for step in res.steps]
        for b1, b2 in itertools.combinations(blocks, 2):
            if b1 & b2:
                return False, f"instance #{i}: claimed neighborhoods overlap"
    for s, a in [(3, 2), (4, 3), (5, 3), (6, 4), (8, 4), (10, 6)]:
        g, lists = sharp_family(s, a)
        if g.m != t_balanced(s, a - 1):
            return False, f"sharp({s},{a}) has {g.m} edges, want t={t_balanced(s, a - 1)}"
        if _has_independent_sdr(g, lists):
            return False, f"sharp({s},{a}) admits an independent SDR"
    return True, "t(s,k) matches brute force (s<=20,k<=6); 500 SDR instances; sharp families blocked"


def row_type2() -> tuple[bool, str]:
    for q in range(1, 7):
        for f in itertools.product(range(1, 7), repeat=2):
            witness = type2_insufficient(f, q)
            oracle = bipartite_is_sufficient(f, (2,) * q)
            if (witness is None) != (oracle.status == "sufficient"):
                return False, f"f={f} q={q}: reduced says {witness}, oracle says {oracle.status}"
            if witness is not None:
                g, lists = materialize_reduced_witness(witness, f, q)
                if color_from_lists(g, lists) is not None:
                    return False, f"f={f} q={q}: materialized witness is colorable"
        if chi_sc2_reduced(2, q) != sum_choice_type2_exact(2, q):
            return False, f"q={q}: chi_sc2 reduced != exact"
    return True, "reduced criterion == brute force for a=2, q<=6, entries<=6; chi_sc2 agrees"


def row_beta() -> tuple[bool, str]:
    b2 = beta(2, 1e-6)
    if abs(b2 - 2.0) > 1e-6:
        return False, f"beta(2)={b2!r}, want 2.0 +- 1e-6"
    b3 = beta(3, 1e-3)
    if abs(b3 - 3.4641) > 0.05:
        return False, f"beta(3)={b3:.6f}, want 3.4641 +- 0.05"
    return True, f"beta(2)={b2}, beta(3)={b3:.5f} (target 2*sqrt(3)={2 * math.sqrt(3):.5f})"


def row_split() -> tuple[bool, str]:
    for a, q in [(2, 5), (3, 4)]:
        sb = split_bounds(a, q)
        g = graphs.complete_split(a, q)
        verdict = is_sufficient(g, sb.upper_f)
        if verdict.status != "sufficient":
            return False, f"G_{{{a},{q}}}: upper_f {sb.upper_f} not sufficient ({verdict.status})"
    produced = 0
    for a in (2, 3):
        for svec in itertools.combinations_with_replacement(range(1, 5), a):
            for q in range(1, 7):
                w = split_witness(svec, q)
                if w is None:
                    continue
                produced += 1
                g = graphs.complete_split(len(svec), q)
                if color_from_lists(g, w) is not None:
                    return False, f"split_witness({svec}, {q}) is colorable"
    return True, f"upper_f sufficient on G_2,5 and G_3,4; {produced} split witnesses all fail coloring"


def _min_clique_edges(s_max: int, k_max: int) -> list[list[int]]:
    """``table[k][s]``: the least sum of C(d_i, 2) over all compositions of
    s into k nonnegative parts, for 1 <= k <= k_max and 0 <= s <= s_max
    (row 0 is unused).

    The objective is a sum over parts, so fixing the last part d leaves the
    same problem on k-1 parts summing to s-d:
    ``best_1(s) = C(s,2)`` and ``best_k(s) = min over d = 0..s of
    C(d,2) + best_{k-1}(s-d)``.  Every composition is one path through this
    recurrence, so the table is exactly the brute-force minimum.  It never
    uses the convexity of C(d,2) that makes the balanced split optimal, so
    it checks ``t_balanced`` independently.
    """
    table = [[], [math.comb(s, 2) for s in range(s_max + 1)]]
    for _ in range(2, k_max + 1):
        prev = table[-1]
        table.append(
            [min(math.comb(d, 2) + prev[s - d] for d in range(s + 1)) for s in range(s_max + 1)]
        )
    return table


def _has_independent_sdr(g: Graph, lists) -> bool:
    """Exhaustive search for distinct, pairwise non-adjacent representatives,
    one from each list, taken in list order.  ``closed`` holds the chosen
    vertices and their neighborhoods: exactly the vertices no later list may
    use."""
    options = [sorted(L) for L in lists]
    adj = g.adj

    def rec(i: int, closed: int) -> bool:
        if i == len(options):
            return True
        for v in options[i]:
            if closed >> v & 1:
                continue
            if rec(i + 1, closed | 1 << v | adj[v]):
                return True
        return False

    try:
        return rec(0, 0)
    finally:
        del rec  # rec refers to itself through its closure cell


CRITERIA: list[tuple[str, str, Callable[[], tuple[bool, str]]]] = [
    ("1", "closed forms vs exact search on K_{2,q} and K_{3,q}", row_closed_forms),
    ("2", "trees on up to 6 vertices have sum choice number 2n-1", row_trees),
    ("3", "greedy back-degree bound on triangulations and random graphs", row_greedy_bound),
    ("4", "doubling construction is insufficient with the stated sizes", row_constr),
    ("5", "lower bound <= closed form <= upper bound", row_sandwich),
    ("6", "random transversal process succeeds on type-II assignments", row_random_process),
    ("7", "balanced Turan counts, greedy SDR, and sharp families", row_turan),
    ("8", "type-II reduced criterion matches brute force", row_type2),
    ("9", "beta(2)=2 and beta(3)=2*sqrt(3) within tolerance", row_beta),
    ("10", "split-graph sufficiency and insufficiency witnesses", row_split),
]


def run_rows(only: set[str] | None = None):
    """Yield (id, title, ok, detail) for each selected acceptance row."""
    for row_id, title, runner in CRITERIA:
        if only is not None and row_id not in only:
            continue
        ok, detail = runner()
        yield row_id, title, ok, detail
