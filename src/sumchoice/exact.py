"""Exact sum choice numbers at desk scale, plus the two general upper bounds.

The driver splits the graph into its blocks (``Graph.blocks``: maximal
2-connected subgraphs, bridges and isolated vertices) and searches each
one on its own.  If G1 and G2 share exactly one vertex v, chi_sc(G1 u G2)
= chi_sc(G1) + chi_sc(G2) - 1, and components add (the sum-list-coloring
rule of Berliner, Bostelmann, Brualdi and Deaett, 2006).  Both directions
are short.  Upper: f(v) = f1(v) + f2(v) - 1 is sufficient, since the
colors of L(v) that extend into G1 number at least f2(v), else G1 colors
from the rest of L(v).  Lower: with t the least value at v that makes f
restricted to G1 sufficient, failing lists of G1 at t - 1 and of G2 at
f(v) - t + 1, on disjoint colors, fail the union.  So with b(v) the number
of blocks holding v,

    chi_sc(G) = sum_B chi_sc(B) - sum_v (b(v) - 1),
    optimal_f(v) = sum_B f_B(v) - (b(v) - 1).

The composed f is the lexicographically least optimal f of G.  By the
lower bound, every optimal f of G1 u_v G2 is f1 (+) f2 for some optimal f1
and f2 of the two parts, and the two sets of those are independent.  A
lexicographic scan in vertex order therefore minimises each part's own
coordinates, and at v it minimises f1(v) + f2(v) - 1, which holds only
when both terms are at their minimum; induction over leaf blocks gives
every block tree.  An isolated vertex has chi_sc 1 = |B| and f = 1, so it
adds nothing to either sum and is not searched.

The search of one block walks candidate totals k upward from n; the first
sufficient size function wins, so it finds the lexicographically smallest
sufficient f at the smallest achievable total.  Sufficiency is invariant
under automorphisms, so only the lexicographically least f of each orbit
under Aut(G) needs a test.  One size-vector generator yields the f
nondecreasing along each twin class (``Graph.twin_classes``), taking the
classes as blocks of interchangeable positions; the search then skips
every f that a lift of an automorphism of the twin quotient
(``Graph.twin_quotient_lifts``, found once per search) maps to a smaller
one.  That costs every candidate one image per lift, so the search for
quotient automorphisms stops after ``_MAX_QUOTIENT_GROUP`` - 1 lifts; on a
larger quotient group the filter runs with those lifts alone, still exact,
and skips fewer candidates.  The greedy back-degree function caps the
search: it is always sufficient, lies inside the per-vertex degree+1 cap
and sums to the edge bound |V| + |E| (each edge adds one to the
back-degree of its later end), so the walk stops by that total and needs
no separate termination argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from .choosability import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    ListAssignment,
    SizeFunction,
    _Budget,
    _labeled_search,
    _transversal_search,
    _transversal_witness,
    is_sufficient,
    pad_witness,
)
from .graphs import Graph, as_int, degeneracy_order, make_graph


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


def _vectors_with_sum(
    total: int, caps: Sequence[int], blocks: Sequence[Sequence[int]] = ()
) -> Iterator[tuple[int, ...]]:
    """All vectors with entries in [1, caps[i]] and the given sum, in
    lexicographic order, nondecreasing along each block of interchangeable
    positions (in increasing position order; caps are equal within a block).
    Every value in a position's range extends to a full vector, so the walk
    never enters a dead branch."""
    n = len(caps)
    if not n:
        if total == 0:
            yield ()
        return
    # prev[i]: i's block-mate just before it, or n when there is none (vec[n]
    # is the floor 1); width[i]: i and its later block-mates.
    prev, width = [n] * n, [1] * n
    for block in map(sorted, blocks):
        for k, i in enumerate(block):
            prev[i], width[i] = block[k - 1] if k else n, len(block) - k
    suffix = [sum(caps[i:]) for i in range(n + 1)]
    vec, last = [0] * n + [1], n - 1
    # An odometer over the positions.  rem[i]: the sum left for positions
    # i..; least[i]: the smallest sum they can still take; others[i]: the
    # part of it outside i's block (each later block-mate takes >= vec[i]);
    # top[i]: the largest value i can take.  v is the value to try at i, or
    # None on entering i.
    rem, least, others, top = [total] + [0] * last, [n] + [0] * last, [0] * n, [0] * n
    i, v = 0, None
    while True:
        if v is None:
            lo, w = vec[prev[i]], width[i]
            others[i] = least[i] - w * lo
            top[i] = min(caps[i], (rem[i] - others[i]) // w)
            v = max(lo, rem[i] - suffix[i + 1])
        if v > top[i]:
            if not i:
                return
            i -= 1
            v = vec[i] + 1
            continue
        vec[i] = v
        if i == last:
            yield tuple(vec[:n])
            v += 1
        else:
            rem[i + 1] = rem[i] - v
            least[i + 1] = others[i] + (width[i] - 1) * v
            i, v = i + 1, None


def sorted_profiles(total: int, length: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Nondecreasing vectors of the given length and sum, entries in [1, cap]."""
    return _vectors_with_sum(total, (cap,) * length, (range(length),))


# The orbit filter tests each candidate against at most this many quotient
# automorphisms: the identity, never listed, and the first 119 lifts, so a
# quotient group of at most 120 is filtered in full.  On a larger group the
# first lifts still skip most non-minima at a bounded cost per candidate:
# against the plain twin-sorted walk, six K_2 (720 automorphisms) ran 11.2
# -> 6.6 ms, C_5 + C_5 (200) 0.77 -> 0.10 s and C_6 + C_6 (288) 7.1 ->
# 0.99 s, where all 199 lifts of C_5 + C_5 took 0.22 s (best of 3, 2-core VM).
# Those three graphs have several blocks, so the driver searches each
# component on its own; they reach ``_search`` whole only through the
# tests' whole-graph walk.  Blocks that do pass the cap: the theta graph
# of five paths of length 3 between two poles (12 vertices, 15 edges, 240
# quotient automorphisms; decided at 26 with 67,313 units in 5.9 s on a
# 2-core Xeon VM), the crown graph K_{5,5} minus a perfect matching (240),
# and the Petersen graph at exactly 120.
_MAX_QUOTIENT_GROUP = 120


def sum_choice_exact(
    g: Graph, *, budget: int = DEFAULT_BUDGET, record_witnesses: bool = False
) -> SumChoiceResult:
    """Minimum of sum f over sufficient f, with the lexicographically least
    achieving f: ``_search`` once per block of g, each relabeled ascending,
    composed by the block rule of the module docstring.  A block that is
    all of g is g itself, parts and all; an isolated vertex, a block
    without an edge, is not searched.

    All blocks tick one meter, so ``budget_used`` is its units over all of
    them, and a block repeated up to labels meets the memos of the first.
    An undecided result composes its bracket the same way: (k, k) for a
    block decided at k, the open bracket of the block that ran out, and
    (|B|, |B| + |E_B|) for each block not yet searched.
    ``record_witnesses`` keeps every tested block candidate's witness lifted
    to g by ``_lift_witnesses``.
    """
    meter = _Budget(budget)
    witnesses: dict[SizeFunction, ListAssignment] | None = {} if record_witnesses else None
    subs = [(g if len(b) == g.n else _induced_graph(g, b), b) for b in g.blocks if len(b) > 1]
    value, f = g.n - sum(sub.n for sub, _ in subs), [1] * g.n  # less sum_v (b(v) - 1)
    for i, (sub, block) in enumerate(subs):
        found = None if witnesses is None else {}
        try:
            k, f_block = _search(sub, meter, found)
        except BudgetExceededError as exc:
            _lift_witnesses(g, block, found, witnesses)
            rest = subs[i + 1 :]
            lo = value + exc.bracket[0] + sum(later.n for later, _ in rest)
            hi = value + exc.bracket[1] + sum(later.n + later.m for later, _ in rest)
            return SumChoiceResult(None, None, True, (lo, hi), meter.used, witnesses)
        _lift_witnesses(g, block, found, witnesses)
        value += k
        for v, size in zip(block, f_block):
            f[v] += size - 1
    return SumChoiceResult(value, tuple(f), False, (value, value), meter.used, witnesses)


def _search(
    g: Graph, meter: _Budget, witnesses: dict[SizeFunction, ListAssignment] | None
) -> tuple[int, SizeFunction]:
    """(chi_sc(g), the lexicographically least optimal f) by the candidate
    walk on all of g, ticking ``meter``; the witness of each tested
    insufficient candidate goes into ``witnesses`` unless it is None.  A
    BudgetExceededError carries the bracket (k, |V| + |E|) of the total k
    under test.

    Candidates are capped at f(v) <= deg(v)+1 (a vertex with that many
    choices colors last, so the cap never moves the optimum), sorted within
    each twin class (twins share a cap), and tested in lexicographic order
    for a deterministic optimal f.  An f that a lift of a twin-quotient
    automorphism maps to a lexicographically smaller one is skipped, for
    that image has its verdict and comes earlier at the same total.  So the
    units are the tested candidates', and ``witnesses`` holds the tested
    candidates only.  The filter uses the first ``_MAX_QUOTIENT_GROUP`` - 1
    lifts: on a quotient group of at most ``_MAX_QUOTIENT_GROUP`` elements
    those are all of them and only orbit minima are tested; on a larger
    group some non-minima are tested too, which moves neither the value nor
    the optimal f.

    A candidate's witness is built only when ``witnesses`` is a dict: on a
    labeled K_{a,q} / G_{a,q} the transversal search yields the raw failure,
    and the padded witness is made from it on request; on any other graph
    the generic oracle's verdict builds it from its raw failure when
    ``witness`` is first read, and the search reads it only then.

    No candidate is skipped as dominated by a known-insufficient c: totals
    rise and each candidate is tested once, so every earlier c has
    sum(c) <= sum(f), and c >= f componentwise would force c == f.  The
    candidates share one meter, so a step that an earlier one ran, kept in
    the meter's memos, is neither run nor ticked again.
    """
    caps = tuple(g.degree(v) + 1 for v in range(g.n))
    upper = edge_bound(g)
    images = [itemgetter(*p) for p in islice(g.twin_quotient_lifts(), _MAX_QUOTIENT_GROUP - 1)]
    k = g.n
    try:
        for k in range(g.n, upper + 1):
            for f in _vectors_with_sum(k, caps, g.twin_classes):
                if images and any(image(f) < f for image in images):
                    continue  # not the least of its orbit
                # every candidate ticks one meter and shares its memos; a labeled
                # K_{a,q} / G_{a,q} goes straight to the transversal search
                if g.structure:
                    failure = _labeled_search(g, f, meter)
                    if witnesses is not None and failure is not None:
                        witnesses[f] = _transversal_witness(failure)
                    sufficient = failure is None
                else:
                    verdict = is_sufficient(g, f, budget=meter)
                    if verdict.status == "undecided":  # the meter ran out
                        raise BudgetExceededError("sufficiency search budget exceeded")
                    sufficient = verdict.status == "sufficient"
                    if witnesses is not None and not sufficient:
                        witnesses[f] = verdict.witness
                if sufficient:
                    return k, f
    except BudgetExceededError:
        raise BudgetExceededError("sufficiency search budget exceeded", bracket=(k, upper)) from None
    raise AssertionError("greedy sufficient f lies within the search space")


def _induced_graph(g: Graph, vertices: Sequence[int]) -> Graph:
    """The subgraph of g on ``vertices`` (ascending), relabeled 0, 1, ...
    in their order, so that lexicographic order is kept."""
    index = {v: i for i, v in enumerate(vertices)}
    return make_graph(len(vertices), [(index[u], index[v]) for u, v in g.edges if u in index and v in index])


def _lift_witnesses(
    g: Graph,
    block: Sequence[int],
    found: dict[SizeFunction, ListAssignment] | None,
    witnesses: dict[SizeFunction, ListAssignment] | None,
) -> None:
    """Each witness in ``found``, of a block candidate f_B, into
    ``witnesses`` as one of g: the block's lists on its vertices and a fresh
    color alone at every other vertex (``pad_witness``), keyed by f_B there
    and 1 elsewhere.  No coloring of g restricts to one of the block, so
    none exists.  A key already present keeps its first entry."""
    if found is None:
        return
    for f_block, lists in found.items():
        sizes = [1] * g.n
        for v, size in zip(block, f_block):
            sizes[v] = size
        f, fresh = tuple(sizes), 1 + max((c for L in lists for c in L), default=-1)
        witnesses.setdefault(f, pad_witness(dict(zip(block, lists)), f, fresh))  # type: ignore[union-attr]


def type2_profile_search(a: int, q: int, insufficient: Callable[[SizeFunction], bool]) -> int:
    """Type-II sum choice number of K_{a,q}: 2q plus the least A-total s
    with a sorted profile fa (entries in [1, q+1]) for which
    ``insufficient(fa)`` is false.  Profiles are tried by total, then in
    sorted_profiles order; a BudgetExceededError from the test is re-raised
    with the bracket of totals still open."""
    a, q = as_int(a, "values of a", ValueError), as_int(q, "values of q", ValueError)
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
    All calls tick one meter, and so share its memo of A-shapes and blocker
    searches."""
    meter = _Budget(budget)
    return type2_profile_search(a, q, lambda fa: _transversal_search(fa, (2,) * q, False, meter) is not None)
