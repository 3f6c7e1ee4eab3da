"""Exact sum choice numbers, the greedy bound, and type-II optimum."""

import functools
import hashlib
import itertools
import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sumchoice import choosability, exact
from sumchoice.bipartite import closed_form
from sumchoice.choosability import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    _Budget,
    bipartite_is_sufficient,
    color_from_lists,
    enumerate_canonical_assignments,
    is_sufficient,
    peel_order,
)
from sumchoice.exact import (
    _MAX_QUOTIENT_GROUP,
    _vectors_with_sum,
    edge_bound,
    greedy_sufficient_f,
    sorted_profiles,
    sum_choice_exact,
    sum_choice_type2_exact,
    type2_profile_search,
)
from sumchoice.graphs import (
    complete_bipartite,
    complete_split,
    cycle,
    degeneracy_order,
    disjoint_cliques,
    generate,
    make_graph,
    random_graph,
    star,
)
from sumchoice.acceptance import TRIANGULATIONS

PROPERTY_SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def brute_force_chi_sc(g, max_size):
    """Independent oracle: raw assignment enumeration, no canonicalization,
    no caps beyond max_size, universe exactly sum(f)."""

    def sufficient(f):
        universe = range(sum(f))
        return all(
            color_from_lists(g, lists) is not None
            for lists in itertools.product(*[itertools.combinations(universe, s) for s in f])
        )

    for total in itertools.count(g.n):
        for f in itertools.product(range(1, max_size + 1), repeat=g.n):
            if sum(f) == total and sufficient(f):
                return total, f


def test_path3_value():
    assert sum_choice_exact(generate("path", [3])).value == 5


def test_k22_value():
    assert sum_choice_exact(generate("complete_bipartite", [2, 2])).value == 8


def test_triangle_matches_brute_force():
    g = generate("complete", [3])
    brute, _ = brute_force_chi_sc(g, max_size=3)
    assert brute == 6
    assert sum_choice_exact(g).value == 6


def test_small_cycle_matches_brute_force():
    g = generate("cycle", [4])
    brute, _ = brute_force_chi_sc(g, max_size=3)
    assert sum_choice_exact(g).value == brute


def test_optimal_f_is_sufficient_and_tight():
    for g in [generate("path", [4]), generate("complete", [3]), generate("complete_bipartite", [2, 2])]:
        res = sum_choice_exact(g)
        assert is_sufficient(g, res.optimal_f).status == "sufficient"
        for v in range(g.n):
            lowered = tuple(s - 1 if u == v else s for u, s in enumerate(res.optimal_f))
            if min(lowered) >= 1:
                assert is_sufficient(g, lowered).status == "insufficient"


def test_record_witnesses():
    res = sum_choice_exact(generate("path", [3]), record_witnesses=True)
    assert res.witnesses
    for f, witness in res.witnesses.items():
        assert tuple(len(L) for L in witness) == f


def relabeled(g, perm):
    """g with vertex v renamed perm[v]; part labels follow their vertices."""
    parts = None if g.parts is None else tuple(tuple(perm[v] for v in side) for side in g.parts)
    return make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges], parts=parts)


class _Forgetful(dict):
    """A memo that never hits: a lookup misses whatever it holds."""

    def __contains__(self, key):
        return False


def forget_memos(monkeypatch):
    """Patch every meter made from here on so that neither its generic nor
    its blocker memo ever hits: each search runs every step it reaches."""
    init = _Budget.__init__

    def forgetful(meter, cap):
        init(meter, cap)
        meter.settled, meter.searches = _Forgetful(), _Forgetful()

    monkeypatch.setattr(_Budget, "__init__", forgetful)


# (value, optimal_f, budget_used) of the exact search, pinned so that a change
# to the driver cannot move the answer, the tie-break or the oracle calls.
# The value and optimal_f of random_graph(7, 10, 0) were first computed by
# the oracle without the exact removal of f = 1 vertices (about 45 s).
# budget_used is that of the search with both memos patched never to hit,
# which is what a run read while a memo hit ticked the units of its first
# run again; ``UNITS_AS_RUN`` pins the runs as they are.  The five
# unlabeled rows' units are generic search calls plus classes walked; when
# only classes ticked and the walk kept every class whose patterns all span
# an edge, they were 68, 10, 0, 0 and 6,177.
GOLDEN = [
    (complete_bipartite(2, 10), 27, (3, 4) + (2,) * 10, 4681),
    (complete_bipartite(3, 6), 21, (3, 3, 3, 2, 2, 2, 2, 2, 2), 5903),
    (complete_bipartite(4, 4), 20, (2, 2, 2, 2, 3, 3, 3, 3), 5978),
    (complete_split(3, 4), 20, (2, 4, 6, 2, 2, 2, 2), 8143),
    (random_graph(6, 8, 1), 14, (1, 1, 1, 3, 3, 5), 1989),
    (random_graph(6, 8, 7), 14, (1, 2, 1, 2, 3, 5), 537),
    (disjoint_cliques(3, 3, 2), 15, (1, 2, 3, 1, 2, 3, 1, 2), 102),
    (cycle(7), 14, (1, 2, 2, 2, 2, 2, 3), 147),
    (random_graph(7, 10, 0), 16, (1, 2, 2, 2, 4, 3, 2), 6899),
]


@pytest.mark.parametrize("g, value, optimal_f, budget_used", GOLDEN)
def test_exact_golden(g, value, optimal_f, budget_used, monkeypatch):
    forget_memos(monkeypatch)
    res = sum_choice_exact(g)
    assert (res.value, res.optimal_f, res.budget_used) == (value, optimal_f, budget_used)
    assert res.bracket == (value, value) and not res.undecided


# (value, optimal_f, budget_used with no memo hit, witnesses); see below.
CERTIFIED = [
    (random_graph(8, 12, 1), 20, (1, 2, 2, 2, 3, 3, 5, 2), 75785, 11496),
    (random_graph(9, 12, 0), 21, (1, 2, 1, 2, 3, 2, 2, 2, 6), 58163, 19305),
]

# budget_used of the GOLDEN searches, in order, then of the CERTIFIED ones,
# as they run: a memo hit costs only the tick of the call that finds it.
# Each is at most its memo-free pin, and every value and optimal_f is the
# same with the memos as without.
UNITS_AS_RUN = [2189, 3368, 3462, 6946, 1166, 398, 94, 116, 3590, 16153, 24446]


@pytest.mark.parametrize(
    "g, value, optimal_f, budget_used",
    [(row[0], row[1], row[2], units) for row, units in zip(GOLDEN + CERTIFIED, UNITS_AS_RUN, strict=True)],
)
def test_exact_units_as_run(g, value, optimal_f, budget_used):
    res = sum_choice_exact(g)
    assert (res.value, res.optimal_f, res.budget_used) == (value, optimal_f, budget_used)
    assert res.bracket == (value, value) and not res.undecided


@pytest.mark.parametrize("g, value, optimal_f, budget_used, witnesses", CERTIFIED)
def test_exact_value_certified_without_the_class_walk(g, value, optimal_f, budget_used, witnesses, monkeypatch):
    # A second path for the value: the peel alone empties the graph at
    # optimal_f, so it is sufficient (color the vertices in reverse peel
    # order), and every capped twin-sorted candidate tried before it, every
    # one of a smaller total included, has a recorded witness that
    # color_from_lists cannot color.  Every other capped candidate before
    # optimal_f sorts within the twin classes to one of those, and swapping
    # twins is an automorphism, so the proof covers it too.  The twin
    # quotient has no symmetry, so the orbit filter skips no candidate.
    # (random_graph(8, 12, 0) has no such proof: its optimal f keeps all
    # eight vertices in the core.)  budget_used counts every generic search
    # call run with no memo hit; it was 8,858 and 5,344 when only classes
    # walked ticked.
    assert next(g.twin_quotient_lifts(), None) is None
    res = sum_choice_exact(g, record_witnesses=True)
    assert (res.value, res.optimal_f) == (value, optimal_f) and res.budget_used < budget_used
    assert peel_order(g.adj, optimal_f) == []
    caps = tuple(g.degree(v) + 1 for v in range(g.n))
    tried = [f for k in range(g.n, value + 1) for f in _vectors_with_sum(k, caps, g.twin_classes)]
    assert list(res.witnesses) == tried[: tried.index(optimal_f)]
    assert len(res.witnesses) == witnesses
    every = [f for k in range(g.n, value + 1) for f in _vectors_with_sum(k, caps)]
    for f in every[: every.index(optimal_f)]:
        twin_sorted = list(f)
        for block in g.twin_classes:
            for v, s in zip(block, sorted(f[v] for v in block)):
                twin_sorted[v] = s
        assert tuple(twin_sorted) in res.witnesses, f
    for f, lists in res.witnesses.items():
        assert tuple(len(L) for L in lists) == f
        assert color_from_lists(g, lists) is None, f
    forget_memos(monkeypatch)
    memo_free = sum_choice_exact(g, record_witnesses=True)
    assert (memo_free.value, memo_free.optimal_f, memo_free.budget_used) == (value, optimal_f, budget_used)
    assert memo_free.witnesses == res.witnesses


def reference_optimum(g):
    """(value, optimal_f): the first sufficient f over every capped
    candidate, by total, then lexicographically, with no symmetry."""
    caps = [g.degree(v) + 1 for v in range(g.n)]
    every = itertools.product(*(range(1, c + 1) for c in caps))
    for f in sorted(every, key=lambda f: (sum(f), f)):
        if is_sufficient(g, f).status == "sufficient":
            return sum(f), f


def test_twin_sorted_search_matches_full_walk():
    # All 1,099 labeled graphs on one to five vertices.
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for chosen in itertools.product((False, True), repeat=len(pairs)):
            g = make_graph(n, itertools.compress(pairs, chosen))
            res = sum_choice_exact(g)
            assert (res.value, res.optimal_f) == reference_optimum(g), g.edges


def test_labeled_candidates_follow_part_labels():
    k25 = relabeled(complete_bipartite(2, 5), [2, 3, 1, 4, 5, 0, 6])
    assert k25.parts == ((2, 3), (1, 4, 5, 0, 6))
    res = sum_choice_exact(k25)
    assert res.value == closed_form(2, 5) == 15
    assert is_sufficient(k25, res.optimal_f).status == "sufficient"
    g34 = relabeled(complete_split(3, 4), [6, 0, 3, 1, 2, 4, 5])
    res = sum_choice_exact(g34)
    assert res.value == 20
    assert is_sufficient(g34, res.optimal_f).status == "sufficient"


@pytest.mark.parametrize("perm", [range(6), [4, 1, 0, 2, 5, 3]])
def test_record_witnesses_labeled(perm):
    g = relabeled(complete_bipartite(2, 4), list(perm))
    res = sum_choice_exact(g, record_witnesses=True)
    assert res.value == closed_form(2, 4) and res.witnesses
    for f, witness in res.witnesses.items():
        assert tuple(len(L) for L in witness) == f
        assert color_from_lists(g, witness) is None


@functools.cache
def brute_force_automorphisms(g):
    """Aut(g) by brute force: every one of the n! vertex permutations that
    maps each edge to an edge."""
    adj = g.adj
    return tuple(
        p for p in itertools.permutations(range(g.n)) if all(adj[p[u]] >> p[v] & 1 for u, v in g.edges)
    )


def cube(d):
    """The d-dimensional hypercube Q_d."""
    return make_graph(1 << d, [(u, u | 1 << b) for u in range(1 << d) for b in range(d) if not u >> b & 1])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return make_graph(10, outer + inner + [(i, i + 5) for i in range(5)])


def every_small_graph():
    """All 1,099 labeled graphs on one to five vertices."""
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for chosen in itertools.product((False, True), repeat=len(pairs)):
            yield make_graph(n, itertools.compress(pairs, chosen))


def test_quotient_lifts_and_twin_swaps_make_the_automorphism_group():
    # |Aut(G)| = |Aut(quotient)| * prod |C|! over the twin classes C, with
    # every lift an automorphism of G and no lift twice.
    seeded = [random_graph(6, m, seed) for m in (4, 6, 8, 10) for seed in range(4)]
    seeded += [random_graph(7, m, seed) for m in (6, 9, 12) for seed in range(3)]
    named = [cycle(7), complete_bipartite(4, 4), cube(3), petersen(), disjoint_cliques(2, 2, 2, 2)]
    for g in [*every_small_graph(), *seeded, *named]:
        lifts = list(g.twin_quotient_lifts())
        autos = brute_force_automorphisms(g)
        swaps = math.prod(math.factorial(len(c)) for c in g.twin_classes)
        assert len(autos) == (len(lifts) + 1) * swaps, g.edges
        assert len(set(lifts)) == len(lifts) and set(lifts) <= set(autos), g.edges
    assert [len(list(g.twin_quotient_lifts())) + 1 for g in named] == [14, 2, 48, 120, 24]


def twin_sorted_optimum(g):
    """(value, optimal_f): the first sufficient f of the twin-sorted walk,
    with no orbit filter."""
    caps = tuple(g.degree(v) + 1 for v in range(g.n))
    for k in itertools.count(g.n):
        for f in _vectors_with_sum(k, caps, g.twin_classes):
            if is_sufficient(g, f).status == "sufficient":
                return k, f


@pytest.mark.parametrize(
    "g",
    [
        *(cycle(n) for n in range(5, 9)),
        complete_bipartite(3, 3),
        complete_bipartite(4, 4),
        make_graph(6, complete_bipartite(3, 3).edges),
        disjoint_cliques(3, 3, 2),
        random_graph(6, 8, 7),
        random_graph(7, 10, 0),
    ],
)
def test_orbit_filter_keeps_value_and_optimal_f(g):
    assert next(g.twin_quotient_lifts(), None)  # a symmetry that the twins do not see
    res = sum_choice_exact(g)
    assert (res.value, res.optimal_f) == twin_sorted_optimum(g)


def reference_exact(g, budget):
    """The driver's candidate walk, twin-sorted and skipping every f that an
    automorphism found by brute force maps to a lexicographically smaller
    one, with a fresh public is_sufficient call per candidate, as (value,
    optimal_f, undecided, bracket, budget_used, witnesses)."""
    autos = brute_force_automorphisms(g)
    swaps = math.prod(math.factorial(len(c)) for c in g.twin_classes)
    assert len(autos) // swaps <= _MAX_QUOTIENT_GROUP  # the driver filters
    return fresh_walk(g, budget, autos)


def fresh_walk(g, budget, autos=()):
    """reference_exact's walk with the automorphisms given; with none, the
    plain twin-sorted walk."""
    caps = tuple(g.degree(v) + 1 for v in range(g.n))
    upper = sum(greedy_sufficient_f(g))
    used, witnesses = 0, {}
    for k in range(g.n, upper + 1):
        for f in _vectors_with_sum(k, caps, g.twin_classes):
            if any(tuple(f[v] for v in p) < f for p in autos):
                continue
            verdict = is_sufficient(g, f, budget=budget - used)
            used += verdict.checked
            if verdict.status == "sufficient":
                return k, f, False, (k, k), used, witnesses
            if verdict.status == "undecided":
                return None, None, True, (k, upper), used, witnesses
            witnesses[f] = verdict.witness
    raise AssertionError("greedy f is sufficient")


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "make, a, q", [(complete_bipartite, 3, 3), (complete_bipartite, 2, 5), (complete_split, 3, 3)]
)
def test_shared_search_matches_fresh_calls_on_relabeled_graphs(make, a, q, seed):
    # Vertices shuffled over the whole graph, so the A side is not 0..a-1 and
    # each part lists its vertices out of order: f along the parts is then
    # not sorted, and shapes shared between candidates must keep positions.
    perm = random.Random(seed).sample(range(a + q), a + q)
    g = relabeled(make(a, q), perm)
    res = assert_matches_fresh_calls(g)
    full = res.budget_used
    for budget in (0, 7, full // 3, full - 1, full):
        got = assert_cut_short_like_the_full_run(g, res, budget)
        # without record_witnesses only the witness builder is skipped
        off = sum_choice_exact(g, budget=budget)
        assert (off.value, off.optimal_f, off.undecided, off.bracket, off.budget_used) == got[:5]
        assert off.witnesses is None
    for f, witness in res.witnesses.items():
        assert tuple(len(L) for L in witness) == f
        assert color_from_lists(g, witness) is None


def exact_outcome(g, budget):
    res = sum_choice_exact(g, budget=budget, record_witnesses=True)
    return res.value, res.optimal_f, res.undecided, res.bracket, res.budget_used, res.witnesses


def assert_matches_fresh_calls(g):
    """The search at the default budget against ``reference_exact``'s fresh
    oracle call per candidate: the same outcome and witnesses, for at most
    their units, since the candidates share one meter and its memos.
    Returns the search's result."""
    res = sum_choice_exact(g, record_witnesses=True)
    value, optimal_f, undecided, bracket, used, witnesses = reference_exact(g, DEFAULT_BUDGET)
    assert (res.value, res.optimal_f, res.undecided, res.bracket) == (value, optimal_f, undecided, bracket), g.edges
    assert res.witnesses == witnesses and res.budget_used <= used, g.edges
    return res


def assert_cut_short_like_the_full_run(g, full, budget):
    """A run at ``budget`` takes the steps of ``full``, the run at the
    default budget, until its units run out: it is that run when budget
    covers its budget_used, and otherwise undecided after budget + 1 units,
    with a bracket around the value and the witnesses recorded so far.
    Returns ``exact_outcome(g, budget)``."""
    got = exact_outcome(g, budget)
    if budget >= full.budget_used:
        assert got == exact_outcome(g, DEFAULT_BUDGET), (g.edges, budget)
        return got
    value, optimal_f, undecided, (lo, hi), used, witnesses = got
    assert (value, optimal_f, undecided, used) == (None, None, True, budget + 1), (g.edges, budget)
    assert lo <= full.value <= hi, (g.edges, budget)
    assert list(witnesses.items()) == list(full.witnesses.items())[: len(witnesses)], (g.edges, budget)
    return got


def test_orbit_filter_past_the_cap_is_sound(monkeypatch):
    # Six and seven disjoint K_2 and C_5 + C_5 have quotient groups of 720,
    # 5,040 and 200, past the 120 the driver filters in full: it tests each
    # candidate against its first 119 lifts only.  Every candidate it skips
    # still has a smaller image among them that the plain twin-sorted walk
    # found insufficient, so the outcome is the walk's.
    tested = []

    def recording_is_sufficient(g, f, **kw):
        tested.append(f)
        return is_sufficient(g, f, **kw)

    monkeypatch.setattr("sumchoice.exact.is_sufficient", recording_is_sufficient)
    c5 = cycle(5).edges
    two_c5 = make_graph(10, [*c5, *((u + 5, v + 5) for u, v in c5)])
    for g in (disjoint_cliques(*(2,) * 6), disjoint_cliques(*(2,) * 7), two_c5):
        lifts = list(itertools.islice(g.twin_quotient_lifts(), _MAX_QUOTIENT_GROUP))
        assert len(lifts) == _MAX_QUOTIENT_GROUP, g.edges
        tested.clear()
        res = sum_choice_exact(g, record_witnesses=True)
        value, optimal_f, undecided, bracket, _, walk_witnesses = fresh_walk(g, DEFAULT_BUDGET)
        assert (res.value, res.optimal_f, res.undecided, res.bracket) == (value, optimal_f, undecided, bracket)
        walked = {*walk_witnesses, optimal_f}
        assert len(set(tested)) == len(tested) and set(tested) <= walked, g.edges
        skipped = walked - set(tested)
        assert skipped, g.edges  # the capped filter still skips
        for f in skipped:
            images = (tuple(f[v] for v in p) for p in lifts[: _MAX_QUOTIENT_GROUP - 1])
            assert any(image < f and image in walk_witnesses for image in images), (g.edges, f)
        assert set(res.witnesses) == set(tested) - {optimal_f}, g.edges
        for witness in res.witnesses.values():
            assert color_from_lists(g, witness) is None
    # Ten disjoint K_2 have 10! = 3,628,800; listing their lifts would take
    # about a gigabyte, so this returns only because the search stops early.
    # Every generic search call ticks, so it runs at the default budget.
    res = sum_choice_exact(disjoint_cliques(*(2,) * 10))
    assert (res.value, res.optimal_f, res.undecided, res.budget_used) == (30, (1, 2) * 10, False, 2553)


def test_three_disjoint_c5_at_budget_zero_stop_at_once():
    # The peel and the f = 1 removal settle every tested candidate of three
    # disjoint C_5 without walking a class.  Each generic search call ticks,
    # so the first candidate runs out of a budget of 0; when only classes
    # ticked, this ran for about 30 s and returned 30 as decided, at 0 units.
    c5 = cycle(5).edges
    g = make_graph(15, [(u + 5 * k, v + 5 * k) for k in range(3) for u, v in c5])
    res = sum_choice_exact(g, budget=0)
    assert (res.value, res.optimal_f, res.undecided, res.bracket, res.budget_used) == (None, None, True, (15, 30), 1)


def test_every_generic_search_call_ticks(monkeypatch):
    # One unit bounds every loop: each generic search call, the deletion
    # step's, the safety tests' and the memo hits' included, ticks the meter
    # at least once, so budget_used is at least the number of calls.
    calls = 0
    search = choosability._generic_search

    def counting(*args):
        nonlocal calls
        calls += 1
        return search(*args)

    monkeypatch.setattr(choosability, "_generic_search", counting)
    for g, value, optimal_f, _ in GOLDEN:
        if g.parts is None:
            calls = 0
            res = sum_choice_exact(g)
            assert (res.value, res.optimal_f) == (value, optimal_f), g.edges
            assert res.budget_used >= calls > 0, g.edges


def test_every_labeled_candidate_ticks_or_ends_the_search(monkeypatch):
    # The driver's candidate loop on a labeled K_{a,q} / G_{a,q} needs no
    # tick of its own: a tested candidate either walks an A-shape, one unit,
    # or is sufficient and ends the search (a peel that empties the A side
    # makes it sufficient), so budget_used is at least the searches less one.
    searches = 0
    search = exact._labeled_search

    def counting(*args):
        nonlocal searches
        searches += 1
        return search(*args)

    monkeypatch.setattr(exact, "_labeled_search", counting)
    for g, value, optimal_f, _ in GOLDEN:
        if g.parts is not None:
            searches = 0
            res = sum_choice_exact(g)
            assert (res.value, res.optimal_f) == (value, optimal_f), g.edges
            assert res.budget_used >= searches - 1 and searches > 1, g.edges


@pytest.mark.parametrize("g", [complete_bipartite(3, 6), complete_bipartite(4, 4), complete_split(3, 4), star(5)])
def test_labeled_search_at_budget_zero_stops_at_its_first_candidate(g):
    res = sum_choice_exact(g, budget=0)
    assert (res.value, res.optimal_f, res.undecided) == (None, None, True)
    assert (res.bracket, res.budget_used) == ((g.n, g.n + g.m), 1)


@pytest.mark.parametrize("a, q, value", [(2, 5, 15), (2, 6, 18), (3, 3, 13), (3, 4, 16)])
def test_unlabeled_complete_bipartite_matches_the_labeled_value(a, q, value):
    # A second path for each value: the generic oracle on an unlabeled copy
    # against the transversal oracle on the labeled graph.
    labeled = complete_bipartite(a, q)
    assert sum_choice_exact(labeled).value == value
    assert sum_choice_exact(make_graph(labeled.n, labeled.edges)).value == value


def test_unlabeled_k27_is_decided_at_the_default_budget():
    # A second path for chi_sc(K_{2,7}) = closed_form(2, 7).  While a memo
    # hit ticked the units of its first run again, this used up all 10^8
    # units in about 0.1 s and returned undecided with bracket (20, 23).
    labeled = complete_bipartite(2, 7)
    res = sum_choice_exact(make_graph(labeled.n, labeled.edges))
    assert (res.value, res.undecided, res.budget_used) == (closed_form(2, 7), False, 22131)
    assert res.value == 20


@pytest.mark.parametrize("budget", [-1, 2.5, "3"])
def test_driver_rejects_a_budget_that_is_no_count(budget):
    # -1 once returned undecided at one unit, and 2.5 ran as a count.
    with pytest.raises(ValueError, match="budget"):
        sum_choice_exact(cycle(4), budget=budget)


def test_shared_memo_matches_fresh_calls_on_every_small_graph():
    # All 1,099 labeled graphs on one to five vertices.  The search keeps
    # one memo of generic cores, so its outcome and witnesses are those of a
    # fresh oracle call per orbit minimum, for at most their units.
    for g in every_small_graph():
        assert_matches_fresh_calls(g)


@pytest.mark.parametrize(
    "g", [random_graph(7, 10, 0), make_graph(6, complete_bipartite(2, 4).edges), random_graph(6, 8, 1)]
)
def test_shared_memo_matches_fresh_calls_at_every_budget(g):
    # A memo hit only saves steps, so a search cut short stops where the
    # full run would have reached budget + 1 units.
    res = assert_matches_fresh_calls(g)
    full = res.budget_used
    for budget in sorted({0, 1, 7, full // 3, full // 2, full - 1, full}):
        assert_cut_short_like_the_full_run(g, res, budget)


# Every budget below 60 and every 241st up to the full run of three labeled
# graphs (budget_used 3462, 6946, 2264; 5978, 8143 and 3834 while a memo hit
# ticked the units of its first run again), one line per run, pinned by one
# sha256.  Each run below the full one stops after budget + 1 units, with a
# bracket and the witnesses recorded so far.
BUDGET_SWEEP = [
    (complete_bipartite(4, 4), 3462),
    (complete_split(3, 4), 6946),
    (complete_bipartite(3, 5), 2264),
]
BUDGET_SWEEP_DIGEST = "a391889fd9128beab1cb3edf5a449f32f951d123aa359b084e4dd80869233f67"


def test_budget_sweep_pinned():
    h = hashlib.sha256()
    for g, full in BUDGET_SWEEP:
        for budget in sorted({*range(60), *range(60, full + 1, 241), full - 1, full}):
            r = sum_choice_exact(g, budget=budget, record_witnesses=True)
            assert (r.undecided, r.budget_used) == ((True, budget + 1) if budget < full else (False, full))
            witnesses = [(f, [sorted(L) for L in w]) for f, w in r.witnesses.items()]
            line = (budget, r.value, r.optimal_f, r.undecided, r.bracket, r.budget_used, witnesses)
            h.update(repr(line).encode() + b"\n")
    assert h.hexdigest() == BUDGET_SWEEP_DIGEST


def test_empty_graph():
    # The one candidate, f = (), costs its one generic search call.
    res = sum_choice_exact(make_graph(0, []))
    assert (res.value, res.optimal_f, res.bracket, res.budget_used) == (0, (), (0, 0), 1)
    assert res.witnesses is None
    res = sum_choice_exact(make_graph(0, []), record_witnesses=True)
    assert (res.value, res.optimal_f, res.undecided, res.bracket) == (0, (), False, (0, 0))
    assert (res.budget_used, res.witnesses) == (1, {})


def test_undecided_bracket():
    g = generate("complete", [4])
    res = sum_choice_exact(g, budget=1)
    assert res.undecided and res.value is None
    lo, hi = res.bracket
    assert lo <= sum_choice_exact(g).value <= hi


def test_greedy_path3():
    g = generate("path", [3])
    f = greedy_sufficient_f(g)
    order = degeneracy_order(g).order
    assert tuple(f[v] for v in order) == (1, 2, 2)
    assert sum(f) == 5


def test_greedy_complete4():
    g = generate("complete", [4])
    f = greedy_sufficient_f(g)
    order = degeneracy_order(g).order
    assert tuple(f[v] for v in order) == (1, 2, 3, 4)
    assert sum(f) == 10


def test_greedy_octahedron_planar_bound():
    n, edges = TRIANGULATIONS["octahedron"]
    g = make_graph(n, edges)
    f = greedy_sufficient_f(g)
    assert sum(f) <= 4 * g.n - 6
    assert max(f) <= 6


def test_edge_bound_values():
    assert edge_bound(generate("complete_bipartite", [2, 2])) == 8
    assert edge_bound(make_graph(5, [])) == 5
    assert edge_bound(generate("complete", [4])) == 10


def test_capped_search_equals_uncapped():
    # independent uncapped search: entries may go up to n
    def uncapped(g):
        for total in itertools.count(g.n):
            for f in sorted(
                f
                for f in itertools.product(range(1, g.n + 1), repeat=g.n)
                if sum(f) == total
            ):
                if is_sufficient(g, f).status == "sufficient":
                    return total

    for g in [
        generate("path", [4]),
        generate("complete", [3]),
        generate("cycle", [4]),
        generate("star", [3]),
        generate("random_graph", [5, 4, 1]),
    ]:
        assert sum_choice_exact(g).value == uncapped(g)


def test_tree_values_2n_minus_1():
    for n in range(1, 6):
        for seed in range(2):
            g = generate("random_tree", [n, seed])
            assert sum_choice_exact(g).value == 2 * n - 1


def test_tree_isomorphism_class_counts():
    from sumchoice.acceptance import all_trees_up_to_iso

    # OEIS A000055
    assert [len(all_trees_up_to_iso(n)) for n in range(1, 10)] == [1, 1, 1, 2, 3, 6, 11, 23, 47]


def test_greedy_total_is_the_edge_bound():
    # Each edge adds one to the back-degree of its later end, so the greedy
    # f sums to |V| + |E| whatever the order.
    seeded = [random_graph(n, m, seed) for n, m in ((6, 8), (7, 10), (8, 12)) for seed in range(8)]
    for g in [*every_small_graph(), *seeded, *(g for g, *_ in GOLDEN)]:
        assert sum(greedy_sufficient_f(g)) == edge_bound(g), g.edges


def test_chain_chi_le_greedy_le_edge_bound():
    for seed in range(6):
        g = generate("random_graph", [5, 5, seed])
        chi = sum_choice_exact(g).value
        assert chi <= sum(greedy_sufficient_f(g)) <= edge_bound(g)


@PROPERTY_SETTINGS
@given(st.integers(min_value=0, max_value=500))
def test_greedy_is_always_sufficient(seed):
    import random

    rng = random.Random(seed)
    n = rng.randint(1, 7)
    m = rng.randint(0, n * (n - 1) // 2)
    g = generate("random_graph", [n, m, seed])
    assert is_sufficient(g, greedy_sufficient_f(g)).status == "sufficient"


# ---------------------------------------------------------------------------
# type-II optimum


def type2_oracle_a2(q):
    """For a=2 the type-II optimum is 2q plus the least s1+s2 with s1*s2 > q."""
    return 2 * q + min(
        s1 + s2 for s1 in range(1, q + 2) for s2 in range(1, q + 2) if s1 * s2 > q
    )


def test_type2_small_values():
    assert sum_choice_type2_exact(2, 2) == type2_oracle_a2(2) == 8
    assert sum_choice_type2_exact(2, 6) == type2_oracle_a2(6) == 18


def test_type2_star_collapses_to_closed_form():
    assert sum_choice_type2_exact(1, 3) == closed_form(1, 3) == 7


def test_type2_dominates_chi_sc():
    for a, q in [(1, 2), (2, 2), (2, 3), (2, 4), (3, 2)]:
        g = generate("complete_bipartite", [a, q])
        assert sum_choice_exact(g).value <= sum_choice_type2_exact(a, q)


def type2_with_public_oracle(a, q, budget):
    """``sum_choice_type2_exact``'s search driven by the public
    ``bipartite_is_sufficient`` on one shared meter: the value, or the
    bracket of the BudgetExceededError, and the units used."""
    meter = _Budget(budget)

    def insufficient(fa):
        verdict = bipartite_is_sufficient(fa, (2,) * q, budget=meter)
        if verdict.status == "undecided":
            raise BudgetExceededError("sufficiency search budget exceeded")
        return verdict.status == "insufficient"

    try:
        return type2_profile_search(a, q, insufficient), meter.used
    except BudgetExceededError as exc:
        return exc.bracket, meter.used


@pytest.mark.parametrize("a, q", [(2, 5), (3, 4), (3, 5)])
def test_type2_exact_matches_the_public_oracle_search(a, q):
    full = type2_with_public_oracle(a, q, DEFAULT_BUDGET)[1]
    for budget in (0, 7, full // 3, full - 1, full):
        want = type2_with_public_oracle(a, q, budget)[0]
        try:
            got = sum_choice_type2_exact(a, q, budget=budget)
        except BudgetExceededError as exc:
            got = exc.bracket
        assert got == want, (a, q, budget)
        assert isinstance(got, tuple) == (budget < full), (a, q, budget)


def test_status_only_paths_build_no_witness(monkeypatch):
    def refuse(*args):
        raise AssertionError("a witness was built on a status-only path")

    monkeypatch.setattr(choosability, "pad_witness", refuse)
    verdict = bipartite_is_sufficient((1,), (1,))  # builds no witness until read
    with pytest.raises(AssertionError, match="status-only"):  # the patch bites
        verdict.witness
    res = sum_choice_exact(complete_bipartite(3, 5))
    assert (res.value, res.optimal_f, res.budget_used) == (closed_form(3, 5), (2, 3, 3, 2, 2, 2, 2, 3), 2264)
    res = sum_choice_exact(complete_split(3, 4))
    assert (res.value, res.optimal_f, res.budget_used) == (20, (2, 4, 6, 2, 2, 2, 2), 6946)
    assert sum_choice_type2_exact(3, 5) == 19
    # the generic path: nearly every candidate is insufficient, none is read
    res = sum_choice_exact(random_graph(6, 8, 1))
    assert (res.value, res.optimal_f, res.budget_used) == (14, (1, 1, 1, 3, 3, 5), 1166)
    res = sum_choice_exact(disjoint_cliques(3, 3, 2))
    assert (res.value, res.optimal_f, res.budget_used) == (15, (1, 2, 3, 1, 2, 3, 1, 2), 94)


def test_sorted_profiles_cover_all_multisets():
    got = set(sorted_profiles(6, 2, 5))
    want = {
        tuple(sorted(f))
        for f in itertools.product(range(1, 6), repeat=2)
        if sum(f) == 6
    }
    assert got == want


@functools.cache
def reference_profiles(total, length, cap):
    """Nondecreasing vectors with entries in [1, cap] and the given sum."""
    every = itertools.combinations_with_replacement(range(1, cap + 1), length)
    return [p for p in every if sum(p) == total]


def reference_part_candidates(g, k):
    """The labeled driver's candidates as first written: the product of the
    two parts' sorted profiles, laid out ascending over each part's vertices
    in increasing label order, then sorted."""
    a_side, q_side = g.parts
    slots = sorted(a_side) + sorted(q_side)
    where = sorted(range(g.n), key=slots.__getitem__)  # vertex -> index into fa + fq
    cap_a, cap_q = g.degree(a_side[0]) + 1, g.degree(q_side[0]) + 1
    a, q = len(a_side), len(q_side)
    found = []
    for sa in range(a, min(a * cap_a, k - q) + 1):
        for fa in reference_profiles(sa, a, cap_a):
            for fq in reference_profiles(k - sa, q, cap_q):
                fv = fa + fq
                found.append(tuple(fv[i] for i in where))
    return sorted(found)


def test_block_generator_matches_part_candidates():
    for build in (complete_bipartite, complete_split):
        for a in range(1, 5):
            for q in range(1, 7):
                base = build(a, q)
                perm = list(range(base.n))
                random.Random(97 * a + q).shuffle(perm)
                for g in (base, relabeled(base, perm)):
                    caps = tuple(g.degree(v) + 1 for v in range(g.n))
                    for k in range(sum(caps) + 2):
                        got = list(_vectors_with_sum(k, caps, g.parts))
                        assert got == reference_part_candidates(g, k), (g.parts, k)


def test_vector_generator_matches_product_filter():
    rng = random.Random(8)
    for _ in range(150):
        n = rng.randint(1, 6)
        positions = list(range(n))
        rng.shuffle(positions)
        blocks, caps = [], [0] * n
        while positions:
            block = sorted(positions[: rng.randint(1, len(positions))])
            del positions[: len(block)]
            cap = rng.randint(1, 4)
            for i in block:
                caps[i] = cap
            if len(block) > 1 and rng.random() < 0.7:
                blocks.append(tuple(rng.sample(block, len(block))))
        every = list(itertools.product(*[range(1, c + 1) for c in caps]))
        monotone = [
            f for f in every
            if all(f[i] <= f[j] for block in blocks for i, j in itertools.combinations(sorted(block), 2))
        ]
        for k in range(sum(caps) + 2):
            assert list(_vectors_with_sum(k, caps)) == [f for f in every if sum(f) == k]
            assert list(_vectors_with_sum(k, caps, blocks)) == [f for f in monotone if sum(f) == k]


def set_partitions(items):
    """Every partition of items into blocks, each block in increasing order."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        yield [[first]] + partition
        for k in range(len(partition)):
            yield partition[:k] + [[first] + partition[k]] + partition[k + 1 :]


def test_vector_generator_matches_product_filter_exhaustively():
    # Every caps in [1, 3]^n for n <= 4 with every partition into blocks of
    # equal caps (singletons given as blocks or left out), every total, and
    # sorted_profiles for every length <= 4 and cap <= 4: each stream equals
    # the filtered product, element for element.
    for n in range(5):
        for caps in itertools.product(range(1, 4), repeat=n):
            every = list(itertools.product(*[range(1, c + 1) for c in caps]))
            for partition in set_partitions(list(range(n))):
                if any(caps[i] != caps[b[0]] for b in partition for i in b):
                    continue
                for blocks in (partition, [b for b in partition if len(b) > 1]):
                    monotone = [f for f in every if all(f[i] <= f[j] for b in blocks for i, j in zip(b, b[1:]))]
                    for k in range(sum(caps) + 2):
                        got = list(_vectors_with_sum(k, caps, blocks))
                        assert got == [f for f in monotone if sum(f) == k], (caps, blocks, k)
    for length in range(5):
        for cap in range(1, 5):
            every = list(itertools.product(range(1, cap + 1), repeat=length))
            for total in range(length * cap + 2):
                want = [f for f in every if sum(f) == total and list(f) == sorted(f)]
                assert list(sorted_profiles(total, length, cap)) == want, (total, length, cap)


def test_vector_generator_empty():
    assert list(_vectors_with_sum(0, ())) == [()]
    assert list(_vectors_with_sum(1, ())) == []
    assert list(sorted_profiles(0, 0, 3)) == [()]
    assert list(sorted_profiles(2, 0, 3)) == []


def test_canonical_enumeration_count_vs_profiles():
    # there must be at least one assignment class per profile shape
    assert sum(1 for _ in enumerate_canonical_assignments((1, 1, 1))) >= 1
