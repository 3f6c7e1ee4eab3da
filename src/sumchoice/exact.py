"""Exact sum choice numbers at desk scale, plus the two general upper bounds.

The search walks candidate totals k upward from n; the first sufficient size
function wins, so the reported optimum is the lexicographically smallest
sufficient f at the smallest achievable total.  The greedy back-degree
function caps the search: it is always sufficient and lies inside the
per-vertex degree+1 cap, so termination needs no separate argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .choosability import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    ListAssignment,
    SizeFunction,
    bipartite_is_sufficient,
    detect_structure,
    is_sufficient,
)
from .graphs import Graph, degeneracy_order


@dataclass(frozen=True)
class SumChoiceResult:
    value: int | None
    optimal_f: SizeFunction | None
    undecided: bool
    bracket: tuple[int, int]
    budget_used: int
    witnesses: dict[SizeFunction, ListAssignment] | None = None


def greedy_sufficient_f(g: Graph) -> SizeFunction:
    """f(v) = (earlier neighbors in a degeneracy order) + 1, per vertex.

    Always sufficient: color along the order, each vertex has more colors
    than already-colored neighbors.  Sums to n + |E| in the worst case; on
    planar graphs the order keeps every value at most 6.
    """
    vo = degeneracy_order(g)
    return tuple(d + 1 for d in vo.back_degree)


def edge_bound(g: Graph) -> int:
    """|V| + |E|, an upper bound for the sum choice number of any graph."""
    return g.n + g.m


def sorted_profiles(total: int, length: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Nondecreasing vectors of the given length and sum, entries in [1, cap]."""

    def rec(remaining: int, slots: int, lo: int) -> Iterator[tuple[int, ...]]:
        if slots == 0:
            if remaining == 0:
                yield ()
            return
        hi = min(cap, remaining - (slots - 1) * lo)
        for v in range(lo, hi + 1):
            if v * slots > remaining or remaining - v > (slots - 1) * cap:
                continue
            for rest in rec(remaining - v, slots - 1, v):
                yield (v,) + rest

    yield from rec(total, length, 1)


def _vectors_with_sum(total: int, caps: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All vectors with entries in [1, caps[i]] and the given sum, in
    lexicographic order."""
    n = len(caps)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + caps[i]

    def rec(i: int, remaining: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            if remaining == 0:
                yield ()
            return
        lo = max(1, remaining - suffix[i + 1])
        hi = min(caps[i], remaining - (n - i - 1))
        for v in range(lo, hi + 1):
            for rest in rec(i + 1, remaining - v):
                yield (v,) + rest

    yield from rec(0, total)


def _part_candidates(g: Graph, k: int) -> Iterator[SizeFunction]:
    """Candidate f's for part-labeled graphs at total k, ordered by the full
    vector.  Part vertices are interchangeable, so each part takes a sorted
    profile laid out ascending over its vertices in increasing label order:
    the lex-least member of its orbit, whatever the labels."""
    a_side, q_side = g.parts  # type: ignore[misc]
    slots = sorted(a_side) + sorted(q_side)
    where = sorted(range(g.n), key=slots.__getitem__)  # vertex -> index into fa + fq
    cap_a = g.degree(a_side[0]) + 1
    cap_q = g.degree(q_side[0]) + 1
    a, q = len(a_side), len(q_side)
    found = []
    for sa in range(a, min(a * cap_a, k - q) + 1):
        sq = k - sa
        if not q <= sq <= q * cap_q:
            continue
        for fa in sorted_profiles(sa, a, cap_a):
            for fq in sorted_profiles(sq, q, cap_q):
                fv = fa + fq
                found.append(tuple(fv[i] for i in where))
    yield from sorted(found)


def sum_choice_exact(
    g: Graph, *, budget: int = DEFAULT_BUDGET, record_witnesses: bool = False
) -> SumChoiceResult:
    """Minimum of sum f over sufficient f, with the achieving f.

    Candidates are capped at f(v) <= deg(v)+1 (a vertex with that many
    choices colors last, so the cap never moves the optimum) and tested in
    lexicographic order for a deterministic optimal_f.  Budget exhaustion
    returns an undecided result bracketing the answer.

    No candidate is skipped as dominated by a known-insufficient c: totals
    rise and each candidate is tested once, so every earlier c has
    sum(c) <= sum(f), and c >= f componentwise would force c == f.  The cost
    of the search is its oracle calls.
    """
    if g.n == 0:
        return SumChoiceResult(0, (), False, (0, 0), 0)
    caps = tuple(g.degree(v) + 1 for v in range(g.n))
    upper = sum(greedy_sufficient_f(g))
    labeled = detect_structure(g) is not None
    used = 0
    witnesses: dict[SizeFunction, ListAssignment] | None = {} if record_witnesses else None
    for k in range(g.n, upper + 1):
        candidates = _part_candidates(g, k) if labeled else _vectors_with_sum(k, caps)
        for f in candidates:
            verdict = is_sufficient(g, f, budget=budget - used)
            used += verdict.checked
            if verdict.status == "sufficient":
                return SumChoiceResult(k, f, False, (k, k), used, witnesses)
            if verdict.status == "undecided":
                return SumChoiceResult(None, None, True, (k, upper), used, witnesses)
            if witnesses is not None and verdict.witness is not None:
                witnesses[f] = verdict.witness
    raise AssertionError("greedy sufficient f lies within the search space")


def type2_profile_search(a: int, q: int, insufficient: Callable[[SizeFunction], bool]) -> int:
    """Type-II sum choice number of K_{a,q}: 2q plus the least A-total s
    with a sorted profile fa (entries in [1, q+1]) for which
    ``insufficient(fa)`` is false.  Profiles are tried by total, then in
    sorted_profiles order; a BudgetExceededError from the test is re-raised
    with the bracket of totals still open."""
    if a < 1 or q < 1:
        raise ValueError("need a >= 1 and q >= 1")
    for s in range(a, a * (q + 1) + 1):
        for fa in sorted_profiles(s, a, q + 1):
            try:
                if not insufficient(fa):
                    return 2 * q + s
            except BudgetExceededError:
                raise BudgetExceededError(
                    f"type-II search for K_{{{a},{q}}} ran out of budget",
                    bracket=(2 * q + s, 2 * q + a * (q + 1)),
                ) from None
    raise AssertionError("f on A identically q+1 is type-II sufficient")


def sum_choice_type2_exact(a: int, q: int, *, budget: int = DEFAULT_BUDGET) -> int:
    """Minimum total over sufficient type-II functions on K_{a,q}
    (every Q-vertex pinned to list size 2), via the transversal oracle.
    Each oracle call gets the budget the earlier ones left."""
    used = 0

    def insufficient(fa: SizeFunction) -> bool:
        nonlocal used
        verdict = bipartite_is_sufficient(fa, (2,) * q, budget=budget - used)
        used += verdict.checked
        if verdict.status == "undecided":
            raise BudgetExceededError("sufficiency search budget exceeded")
        return verdict.status == "insufficient"

    return type2_profile_search(a, q, insufficient)
