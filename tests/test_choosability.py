"""The sufficiency oracle: coloring search, canonical enumeration, fast paths."""

import functools
import gc
import hashlib
import itertools
import operator
import random
import sys
import time
import tracemalloc
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sumchoice import choosability, type2
from sumchoice.acceptance import _has_independent_sdr
from sumchoice.bipartite import constr_assignment
from sumchoice.choosability import (
    BudgetExceededError,
    Verdict,
    _Budget,
    _by_size_then_colors,
    _class_masks,
    _induced,
    _minimal_covers,
    _unsafe_patterns,
    _without,
    bipartite_is_sufficient,
    color_from_lists,
    detect_structure,
    enumerate_canonical_assignments,
    is_sufficient,
    lists_from_json,
    lists_to_json,
    minimal_transversal_sets,
    normalize_lists,
    peel_order,
    sdr_image_sets,
    split_is_sufficient,
    transversal_check,
)
from sumchoice.graphs import (
    bits_of,
    complete_bipartite,
    complete_split,
    cycle,
    generate,
    make_graph,
    random_graph,
)
from sumchoice.turan import sharp_family
from sumchoice.type2 import type2_insufficient

PROPERTY_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ---------------------------------------------------------------------------
# color_from_lists


def test_forced_conflict_on_edge():
    k2 = generate("complete", [2])
    assert color_from_lists(k2, [{0}, {0}]) is None
    assert color_from_lists(k2, [{0}, {0, 1}]) == (0, 1)


def test_constr_instance_not_colorable():
    c = constr_assignment(2, 1)
    assert color_from_lists(c.graph(), c.assignment()) is None


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        color_from_lists(generate("path", [3]), [{0}, {1}])


# Colors far from 0 on both sides, so a fault in ranking colors into bit
# positions shows: negative ones, and ones at and beyond 2**64.
COLOR_POOL = [0, 1, 2, 3, 7, -1, -5, -(2**70), 2**64 - 1, 2**64, 2**64 + 3, 10**20]


def coloring_cases(count, label):
    """Seeded (graph, lists) on at most 7 vertices: lists drawn from a few
    pool colors, some empty, some a copy of an earlier vertex's list, and
    some with a color written twice."""
    for seed in range(count):
        rng = random.Random(f"{label}:{seed}")
        n = rng.randint(1, 7)
        g = make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.45])
        palette = rng.sample(COLOR_POOL, rng.randint(1, 5))
        lists = []
        for v in range(n):
            roll = rng.random()
            if roll < 0.04:
                L = []
            elif roll < 0.2 and lists:
                L = list(rng.choice(lists))
            else:
                L = rng.sample(palette, rng.randint(1, min(3, len(palette))))
                if rng.random() < 0.1:
                    L.append(L[0])
            lists.append(L)
        yield g, lists


def test_color_from_lists_matches_brute_force():
    verdicts = set()
    for g, lists in coloring_cases(500, "coloring-reference"):
        colorable = any(
            all(pick[u] != pick[v] for u, v in g.edges) for pick in itertools.product(*map(set, lists))
        )
        got = color_from_lists(g, lists)
        assert (got is not None) == colorable, (g, lists)
        if got is not None:
            assert all(c in L for c, L in zip(got, lists)), (g, lists, got)
            assert all(got[u] != got[v] for u, v in g.edges), (g, lists, got)
        verdicts.add(got is not None)
    assert verdicts == {True, False}


def test_color_from_lists_outputs_pinned():
    # sha256 of every input and returned coloring over a seeded sweep: the
    # coloring is public (``sumchoice check --lists`` prints it), so the
    # search order must not drift.
    digest = hashlib.sha256()
    for g, lists in coloring_cases(1500, "coloring-digest"):
        line = (g.n, g.edges, [sorted(set(L)) for L in lists], color_from_lists(g, lists))
        digest.update(repr(line).encode() + b"\n")
    assert digest.hexdigest() == "8b01cd9eca5aa35266a1849d12cfc293c209f3cd2633c0af5a661cc8655bff34"


# ---------------------------------------------------------------------------
# canonical enumeration


def brute_force_class_count(f, universe):
    """Independent oracle: enumerate every assignment over the universe and
    deduplicate by the best relabeling."""
    colors = list(range(universe))
    classes = set()
    for lists in itertools.product(*[itertools.combinations(colors, s) for s in f]):
        best = None
        for perm in itertools.permutations(colors):
            key = tuple(tuple(sorted(perm[c] for c in L)) for L in lists)
            if best is None or key < best:
                best = key
        classes.add(best)
    return len(classes)


def test_single_vertex_single_class():
    assert list(enumerate_canonical_assignments((1,))) == [(frozenset({0}),)]


def test_two_isolated_vertices_two_classes():
    got = list(enumerate_canonical_assignments((1, 1)))
    assert len(got) == 2


def test_class_count_matches_brute_force_dedup():
    got = sum(1 for _ in enumerate_canonical_assignments((2, 2)))
    assert got == brute_force_class_count((2, 2), universe=4) == 3


def test_class_count_matches_brute_force_dedup_mixed():
    got = sum(1 for _ in enumerate_canonical_assignments((1, 2)))
    assert got == brute_force_class_count((1, 2), universe=3)


def test_every_class_has_right_sizes():
    for lists in enumerate_canonical_assignments((2, 1, 2)):
        assert tuple(len(L) for L in lists) == (2, 1, 2)


def test_enumeration_covers_every_assignment_up_to_relabeling():
    # each canonical class, relabeled every way over a universe two colors
    # wider, must land back on exactly one enumerated representative
    f = (2, 1)
    reps = list(enumerate_canonical_assignments(f))
    universe = sum(f) + 2
    colors = list(range(universe))
    seen = set()
    for lists in itertools.product(*[itertools.combinations(colors, s) for s in f]):
        pattern_multiset = tuple(
            sorted(
                tuple(sorted(v for v in range(len(f)) if c in lists[v]))
                for c in colors
                if any(c in L for L in lists)
            )
        )
        seen.add(pattern_multiset)
    rep_keys = {
        tuple(
            sorted(
                tuple(sorted(v for v in range(len(f)) if c in L_list[v]))
                for c in set().union(*L_list)
            )
        )
        for L_list in reps
    }
    assert seen == rep_keys


def small_size_functions():
    """Every f with 1 to 4 vertices and entries in 1..3."""
    for n in range(1, 5):
        yield from itertools.product(range(1, 4), repeat=n)


def test_enumeration_stream_is_pinned():
    # sha256 of the stream as the original pattern-1 walk produced it.  The
    # bipartite and split oracles return the first failing class, so their
    # witnesses follow this order: a rewrite of the walk must keep the
    # classes, their representatives and their order.
    digest = hashlib.sha256()
    for f in small_size_functions():
        digest.update(repr(list(enumerate_canonical_assignments(f))).encode())
    assert digest.hexdigest() == "61321f584ef82df9058d338b8be5967e7955219871fdd02377577ffedcf01de3"


def test_class_count_all_twos_on_six_vertices():
    assert sum(1 for _ in enumerate_canonical_assignments((2,) * 6)) == 29_388


def graphs_up_to_isomorphism(n):
    """One labeled graph per isomorphism class on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    seen = set()
    for bits in range(1 << len(pairs)):
        edges = [p for i, p in enumerate(pairs) if bits >> i & 1]
        key = min(
            tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))
            for perm in itertools.permutations(range(n))
        )
        if key not in seen:
            seen.add(key)
            yield make_graph(n, edges)


def cores_up_to_isomorphism(g, cap):
    """Every f on g with 1 <= f(v) <= min(cap, deg(v)), one per orbit under
    the automorphisms of g.  These (g, f) are exactly the peeled cores: no
    vertex has more colors than neighbors."""
    autos = [p for p in itertools.permutations(range(g.n)) if all(g.has_edge(p[u], p[v]) for u, v in g.edges)]
    for f in itertools.product(*[range(1, min(cap, g.degree(v)) + 1) for v in range(g.n)]):
        if f == min(tuple(f[v] for v in p) for p in autos):
            yield f


def minus_vertex(g, v):
    """g with vertex v deleted, the vertices above it renumbered one down."""
    keep = [u for u in range(g.n) if u != v]
    return make_graph(g.n - 1, [(keep.index(a), keep.index(b)) for a, b in g.edges if v not in (a, b)])


def test_unsafe_walk_is_the_filtered_stream():
    # The generic oracle walks only the classes whose every pattern P (the
    # vertices holding one color) is unsafe: no v in P is such that the
    # lists of g - v, one smaller on the neighbours of v in P, are always
    # colorable.  The walk runs on a core with no f = 1 once every g - v is
    # sufficient at f, so on every core with at most five vertices and
    # f <= 3, up to isomorphism, and on seeded six-vertex cores with f <= 2,
    # each f where that holds must walk the full stream (the one
    # enumerate_canonical_assignments views) filtered by that test, asked of
    # a fresh is_sufficient for each v in P, in the stream's order.
    full_stream = functools.cache(lambda f: list(_class_masks(f, None)))
    cases = [(g, 3) for n in range(1, 6) for g in graphs_up_to_isomorphism(n)]
    for seed in range(2):
        rng = random.Random(f"edge-spanning-walk:{seed}")
        cases.append((make_graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6) if rng.random() < 0.5]), 2))
    dropped = kept = 0
    for g, cap in cases:
        for f in cores_up_to_isomorphism(g, cap):
            if 1 in f or any(
                is_sufficient(minus_vertex(g, v), f[:v] + f[v + 1 :]).status != "sufficient" for v in range(g.n)
            ):
                continue

            @functools.cache
            def unsafe(pattern):
                return all(
                    is_sufficient(
                        minus_vertex(g, v), [s - ((g.adj[v] & pattern) >> u & 1) for u, s in enumerate(f) if u != v]
                    ).status
                    != "sufficient"
                    for v in bits_of(pattern)
                )

            want = [
                masks
                for masks in full_stream(f)
                if all(
                    unsafe(sum(1 << v for v, L in enumerate(masks) if L >> c & 1))
                    for c in range(functools.reduce(operator.or_, masks).bit_length())
                )
            ]
            assert list(_class_masks(f, _unsafe_patterns(g.adj, f, _Budget(10**9)))) == want, (g, f)
            dropped += len(full_stream(f)) - len(want)
            kept += len(want)
    assert dropped > kept > 0


# ---------------------------------------------------------------------------
# is_sufficient


def test_k2_ones_insufficient_with_canonical_witness():
    verdict = is_sufficient(generate("complete", [2]), (1, 1))
    assert verdict.status == "insufficient"
    assert verdict.witness == (frozenset({0}), frozenset({0}))


def test_path3_back_degree_function_sufficient():
    verdict = is_sufficient(generate("path", [3]), (1, 2, 2))
    assert verdict.status == "sufficient"


def test_k22_all_twos_sufficient_generic():
    g = generate("complete_bipartite", [2, 2])
    unlabeled = make_graph(g.n, g.edges)
    assert is_sufficient(unlabeled, (2, 2, 2, 2)).status == "sufficient"


def test_zero_size_trivially_insufficient():
    g = generate("path", [3])
    verdict = is_sufficient(g, (1, 0, 1))
    assert verdict.status == "insufficient"
    assert verdict.witness[1] == frozenset()
    assert color_from_lists(g, verdict.witness) is None


def test_budget_exhaustion_reports_undecided():
    # C4 with all twos is sufficient, so the search must walk every class;
    # a budget of 2 cannot finish and must say so rather than guess
    g = generate("cycle", [4])
    verdict = is_sufficient(g, (2, 2, 2, 2), budget=2)
    assert verdict.status == "undecided"
    assert is_sufficient(g, (2, 2, 2, 2)).status == "sufficient"


@pytest.mark.parametrize(
    "search",
    [
        lambda meter: choosability._transversal_search((2, 2), (2, 2), False, meter),
        lambda meter: choosability._labeled_search(complete_split(2, 2), (2,) * 4, meter),
        lambda meter: choosability._generic_search(cycle(4).adj, (2,) * 4, meter),
        lambda meter: choosability._blocking_family((0b11,), (2,), meter),
        lambda meter: type2._integer_point(type2._minimal_plans(2)[0], (2, 2), 4, meter),
    ],
    ids=["transversal", "labeled", "generic", "blocking_family", "integer_point"],
)
def test_private_searches_raise_when_the_meter_runs_out(search):
    # One way to run out: a private search lets the meter's error through,
    # and only the public entries turn it into undecided or a bracket.
    with pytest.raises(BudgetExceededError):
        search(_Budget(0))


@pytest.mark.parametrize("g, f", [(cycle(22), (2,) * 22), (random_graph(22, 60, 0), (3,) * 22)])
def test_large_core_runs_out_of_budget_without_a_pattern_table(g, f):
    # The pattern test fills as the walk meets patterns.  Every core-v of
    # C_22 peels away, so its own walk starts at once: a table over its
    # 2**22 patterns, built before the first class, would take far more
    # than the bound below.
    tracemalloc.start()
    try:
        verdict = is_sufficient(g, f, budget=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (verdict.status, verdict.checked) == ("undecided", 1001)
    assert peak < 4 * 2**20


def test_witness_always_fails_coloring():
    for n, f in [(3, (1, 1, 1)), (4, (1, 2, 2, 1))]:
        g = generate("path", [n])
        verdict = is_sufficient(g, f)
        if verdict.status == "insufficient":
            assert color_from_lists(g, verdict.witness) is None
            assert tuple(len(L) for L in verdict.witness) == f


def reference_status(g, f):
    """The generic oracle without the vertex-deletion reduction: every class
    of the peeled core, each one colored."""
    if any(s == 0 for s in f):
        return "insufficient"
    core = peel_order(g.adj, f)
    sub = make_graph(len(core), [(core.index(u), core.index(v)) for u, v in g.edges if u in core and v in core])
    for lists in enumerate_canonical_assignments(tuple(f[v] for v in core)):
        if color_from_lists(sub, lists) is None:
            return "insufficient"
    return "sufficient"


def test_generic_oracle_matches_reference_on_random_graphs():
    # Each graph walks f down from min(3, deg+1), one random vertex at a
    # time, until the reference says insufficient: the walk crosses the
    # boundary where every core-v is sufficient and only classes without a
    # private color can fail.  Vertices at 1 are lowered only when nothing
    # else can be, which gives f with a 0 on the edgeless graphs.  A core
    # never has one vertex (that needs f = 0); one-vertex graphs and single
    # edges give the nearest cases, an empty core and a one-vertex core-v.
    tested = set()
    for seed in range(150):
        rng = random.Random(f"differential:{seed}")
        n = rng.randint(1, 6)
        g = make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
        f = [min(3, g.degree(v) + 1) for v in range(n)]
        while True:
            want = reference_status(g, f)
            verdict = is_sufficient(g, f)
            assert verdict.status == want, (seed, g, f)
            tested.add((want, 0 in f, len(peel_order(g.adj, f)) if 0 not in f else None))
            if want == "insufficient":
                assert tuple(len(L) for L in verdict.witness) == tuple(f)
                assert color_from_lists(g, verdict.witness) is None
                break
            f[rng.choice([v for v in range(n) if f[v] > 1] or range(n))] -= 1
    assert ("insufficient", True, None) in tested
    assert {("sufficient", False, k) for k in (0, 4, 5, 6)} <= tested
    assert {("insufficient", False, k) for k in (2, 3, 4, 5, 6)} <= tested


def test_generic_sufficient_work_pinned():
    # Units ticked on the sufficient queries of the generic_sufficient bench
    # workload: one per generic search call run and one per class walked; a
    # memo hit costs only the tick of the call that finds it.  The walks
    # take 1 / 8 / 1 / 1 / 8 classes: every other class has a safe pattern.
    # With both memos patched never to hit, the units are the 88 / 192 /
    # 110 / 52 / 192 pinned while a hit ticked the units of its first run
    # again.  When only classes ticked and the walk kept every class whose
    # patterns all span an edge, the units were 543 / 88 / 93 / 125 / 88
    # (2,691 / 189 / 215 / 329 / 189 when it kept every class).
    cases = [(cycle(6), (2,) * 6, 52, 88)]
    for q, f, checked, memo_free in [
        (3, (2, 2, 2, 2, 2), 87, 192),
        (3, (3, 2, 2, 2, 2), 49, 110),
        (3, (3, 3, 2, 2, 2), 41, 52),
        (4, (2, 2, 2, 2, 2, 3), 87, 192),
    ]:
        labeled = complete_bipartite(2, q)
        cases.append((make_graph(labeled.n, labeled.edges), f, checked, memo_free))
    for g, f, checked, memo_free in cases:
        assert is_sufficient(g, f) == Verdict("sufficient", None, checked), (g, f)
        assert is_sufficient(g, f, budget=_forgetful_meter()) == Verdict("sufficient", None, memo_free), (g, f)


def fixed_point_peel(adj, f):
    """The core by the peel's definition: drop every vertex whose f exceeds
    its degree among the vertices left, all at once, until none does."""
    alive = set(range(len(adj)))
    while True:
        drop = {v for v in alive if f[v] > sum(adj[v] >> u & 1 for u in alive)}
        if not drop:
            return sorted(alive)
        alive -= drop


def peel_cases():
    """(adj, f): every labeled graph on at most 4 vertices with every
    f <= deg+1, then a seeded sample of graphs and f on 5-7 vertices."""
    for n in range(5):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = make_graph(n, [e for k, e in enumerate(pairs) if bits >> k & 1])
            for f in itertools.product(*[range(g.degree(v) + 2) for v in range(n)]):
                yield g.adj, f
    rng = random.Random("peel")
    for _ in range(3000):
        n = rng.randint(5, 7)
        g = make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < rng.random()])
        yield g.adj, tuple(rng.randint(0, g.degree(v) + 1) for v in range(n))


def test_worklist_peel_matches_the_fixed_point_peel():
    cores = set()
    for adj, f in peel_cases():
        core = peel_order(adj, f)
        assert core == fixed_point_peel(adj, f), (adj, f)
        cores.add(len(adj) - len(core))
    assert cores == set(range(8))  # from nothing dropped to every vertex of 7


def test_core_minus_a_vertex_by_bit_deletion_matches_induced():
    seen = set()
    for adj, f in peel_cases():
        sub = _induced(adj, peel_order(adj, f))
        for i in range(len(sub)):
            assert _without(sub, i) == _induced(sub, [u for u in range(len(sub)) if u != i]), (sub, i)
            seen.add(len(sub))
    assert seen == set(range(1, 8))


def test_exact_removal_of_size_one_vertices_matches_reference():
    # Every f <= min(3, deg+1) whose peeled core holds a vertex i with
    # f(i) = 1, the case the oracle answers by removing i exactly.  When a
    # core neighbor of i also has f = 1 the answer is insufficient at once.
    seen = set()
    for seed in range(40):
        rng = random.Random(f"exact-removal:{seed}")
        n = rng.randint(2, 5)
        g = make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6])
        caps = [min(3, g.degree(v) + 1) for v in range(n)]
        for f in itertools.product(*[range(1, c + 1) for c in caps]):
            core = peel_order(g.adj, f)
            ones = [v for v in core if f[v] == 1]
            if not ones:
                continue
            shortcut = any(f[u] == 1 and g.has_edge(ones[0], u) for u in core)
            want = reference_status(g, f)
            verdict = is_sufficient(g, f)
            assert verdict.status == want, (seed, g, f)
            seen.add((want, shortcut))
            if want == "insufficient":
                assert tuple(len(L) for L in verdict.witness) == f
                assert color_from_lists(g, verdict.witness) is None
    assert seen == {("sufficient", False), ("insufficient", False), ("insufficient", True)}


# ---------------------------------------------------------------------------
# transversal_check


def test_transversal_simple():
    assert transversal_check([{0, 1}], [{0, 1}]) == frozenset({0})


def test_transversal_constr_absent():
    c = constr_assignment(2, 1)
    assert transversal_check(c.a_lists, c.q_lists) is None


def test_transversal_forced_containment():
    # T must be {0,1}, which swallows the Q-list whole
    assert transversal_check([{0}, {1}], [{0, 1}]) is None


def test_transversal_longer_q_lists_allowed():
    assert transversal_check([{0}, {1}], [{0, 1, 2}]) == frozenset({0, 1})


@pytest.mark.parametrize("bad", ["a", 1.0])
def test_transversal_colors_must_be_integers(bad):
    # lists were read as any frozenset: [{"a", "b"}], [{"a"}] gave frozenset({'b'})
    message = f"colors must be integers, got {bad!r}"
    with pytest.raises(ValueError, match=message):
        transversal_check([{bad, 2}], [{bad}])
    with pytest.raises(ValueError, match=message):
        transversal_check([{0, 2}], [{bad}])


def test_transversal_check_stops_at_the_first_transversal():
    # 16 disjoint 3-color A-lists have 3^16 minimal transversals; building
    # and sorting all of them before testing one took about a minute
    LA = [{3 * i, 3 * i + 1, 3 * i + 2} for i in range(16)]
    start = time.perf_counter()
    T = transversal_check(LA, [{0, 1}])
    assert time.perf_counter() - start < 0.1
    assert T is not None and all(T & L for L in LA) and not {0, 1} <= T


# ---------------------------------------------------------------------------
# oracle equivalence: the transversal view agrees with coloring on K_{a,q}


@pytest.mark.parametrize(
    "a,q,f",
    [
        (1, 2, (2, 2, 2)),
        (2, 2, (2, 2, 2, 2)),
        (1, 3, (2, 2, 2, 2)),
        (2, 3, (2, 2, 2, 2, 2)),
        (3, 2, (2, 2, 2, 2, 2)),
        (2, 4, (2, 2, 2, 2, 2, 2)),
        (1, 5, (2, 2, 2, 2, 2, 2)),
        (2, 5, (2, 2, 2, 1, 1, 2, 1)),
        (3, 4, (2, 2, 2, 1, 2, 1, 1)),
    ],
)
def test_transversal_agrees_with_coloring_every_assignment(a, q, f):
    g = generate("complete_bipartite", [a, q])
    for lists in enumerate_canonical_assignments(f):
        colored = color_from_lists(g, lists) is not None
        transversal = transversal_check(lists[:a], lists[a:]) is not None
        assert colored == transversal


def test_fast_paths_match_generic_oracle():
    for kind, pairs in [("complete_bipartite", [(2, 2), (1, 3)]), ("complete_split", [(2, 2)])]:
        for a, q in pairs:
            g = generate(kind, [a, q])
            unlabeled = make_graph(g.n, g.edges)
            caps = [min(g.degree(v) + 1, 3) for v in range(g.n)]
            for f in itertools.product(*[range(1, c + 1) for c in caps]):
                fast = is_sufficient(g, f).status
                slow = is_sufficient(unlabeled, f).status
                assert fast == slow, (kind, a, q, f)


def test_transversal_peel_matches_generic_oracle():
    # Every sorted f_A with an entry at deg + 1, so the transversal body
    # peels at least one A-vertex, and every f_Q up to a + 1; the unlabeled
    # copy takes the generic oracle.  checked == 0 marks an empty core.
    seen = set()
    for kind, a, q in itertools.product(("complete_bipartite", "complete_split"), range(1, 4), range(1, 4)):
        g = generate(kind, [a, q])
        unlabeled = make_graph(g.n, g.edges)
        deg = g.degree(0)
        for fa in itertools.combinations_with_replacement(range(1, deg + 2), a):
            if fa[-1] <= deg:
                continue
            for fq in itertools.product(range(1, a + 2), repeat=q):
                f = fa + fq
                verdict = is_sufficient(g, f)
                assert verdict.status == is_sufficient(unlabeled, f).status, (kind, f)
                seen.add((verdict.status, verdict.checked == 0))
                if verdict.status == "insufficient":
                    assert tuple(len(L) for L in verdict.witness) == f
                    assert color_from_lists(g, verdict.witness) is None
    assert seen == {("sufficient", True), ("sufficient", False), ("insufficient", False)}


def test_transversal_peel_pins():
    # acceptance row 10's G_{3,4} query: A-degree 6 < 8, so the whole graph
    # peels; G_{2,5}'s upper_f sits at A-degree 6 and still searches
    assert split_is_sufficient((8, 8, 8), (2,) * 4) == Verdict("sufficient", None, 0)
    verdict = split_is_sufficient((6, 6), (2,) * 5)
    assert verdict.status == "sufficient" and verdict.checked > 0
    # the two-vertex clique with one color each is no peel case
    assert split_is_sufficient((1, 1), ()).status == "insufficient"


@pytest.mark.parametrize("oracle", [bipartite_is_sufficient, split_is_sufficient])
def test_transversal_oracles_accept_empty_sides(oracle):
    assert oracle((), (2,)) == Verdict("sufficient", None, 0)
    assert oracle((2,), ()) == Verdict("sufficient", None, 0)


def test_universe_bound_is_sound():
    # brute force over a universe two colors wider than sum(f) must agree
    cases = [
        (generate("complete", [2]), (2, 2)),
        (generate("path", [3]), (1, 2, 1)),
        (generate("complete", [3]), (1, 2, 2)),
    ]
    for g, f in cases:
        universe = sum(f) + 2
        colors = range(universe)
        brute_insufficient = any(
            color_from_lists(g, lists) is None
            for lists in itertools.product(*[itertools.combinations(colors, s) for s in f])
        )
        verdict = is_sufficient(make_graph(g.n, g.edges), f)
        assert (verdict.status == "insufficient") == brute_insufficient


# ---------------------------------------------------------------------------
# properties


@st.composite
def graph_and_sizes(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))) if possible else []
    f = tuple(draw(st.integers(min_value=1, max_value=3)) for _ in range(n))
    return make_graph(n, edges), f


@PROPERTY_SETTINGS
@given(graph_and_sizes())
def test_sufficiency_is_monotone(gf):
    g, f = gf
    if is_sufficient(g, f).status != "sufficient":
        return
    for v in range(g.n):
        bumped = tuple(s + 1 if u == v else s for u, s in enumerate(f))
        assert is_sufficient(g, bumped).status == "sufficient"


@PROPERTY_SETTINGS
@given(st.integers(min_value=0, max_value=10_000))
def test_color_permutation_invariance(seed):
    import random

    rng = random.Random(seed)
    g = generate("cycle", [4])
    lists = [frozenset(rng.sample(range(6), rng.randint(1, 3))) for _ in range(4)]
    colors = sorted(set().union(*lists))
    perm = {c: p for c, p in zip(colors, rng.sample(colors, len(colors)))}
    relabeled = [frozenset(perm[c] for c in L) for L in lists]
    assert (color_from_lists(g, lists) is None) == (color_from_lists(g, relabeled) is None)


def test_minimal_transversals_are_minimal_and_complete():
    rng = random.Random(0)
    families = [
        (),  # no lists: the empty set alone
        (frozenset({0, 1}), frozenset({1, 2})),
        (frozenset({0, 1}), frozenset()),  # an empty list: nothing hits it
        (frozenset({0, 1}), frozenset({0, 1}), frozenset({1, 2})),  # a repeated list
        (frozenset({0, 1, 2}), frozenset({0, 3}), frozenset({0, 4, 5})),  # color 0 in every list
    ]
    for _ in range(300):
        k = rng.randint(1, 7)
        families.append(
            tuple(frozenset(rng.sample(range(k), rng.randint(0, k))) for _ in range(rng.randint(1, 4)))
        )
    for LA in families:
        # oracle: filter all subsets of the union
        union = sorted(set().union(*LA))
        all_tr = [
            frozenset(T)
            for k in range(len(union) + 1)
            for T in itertools.combinations(union, k)
            if all(set(T) & L for L in LA)
        ]
        minimal = [T for T in all_tr if not any(S < T for S in all_tr)]
        assert minimal_transversal_sets(LA) == sorted(minimal, key=lambda T: (len(T), sorted(T))), LA


def test_minimal_covers_match_brute_force():
    # Atoms are index masks below 2**a; a cover is a mask over atom
    # positions whose atoms together hold every index, and the routine
    # returns the inclusion-minimal ones, ascending.
    assert _minimal_covers((), 0) == (0,) and _minimal_covers((1, 2), 0) == (0,)
    assert _minimal_covers((1, 1, 3), 3) == ()  # index 2 in no atom
    rng = random.Random(0)
    cases = [((), 2), ((0,), 1), ((3, 3), 2), ((1, 1, 2, 0), 2), ((7, 1, 2, 4), 3)]
    for _ in range(400):
        a = rng.randint(0, 4)
        cases.append((tuple(rng.randrange(1 << a) for _ in range(rng.randint(0, 7))), a))
    for verts, a in cases:
        full = (1 << a) - 1
        hitting = [
            c
            for c in range(1 << len(verts))
            if functools.reduce(operator.or_, (verts[j] for j in bits_of(c)), 0) == full
        ]
        minimal = [c for c in hitting if not any(d != c and d & c == d for d in hitting)]
        assert _minimal_covers(verts, a) == tuple(sorted(minimal)), (verts, a)


_REVERSED_BYTE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def by_reversed_bytes(masks):
    """The masks by size, then in descending order of the masks with their
    bits reversed over a byte width that holds every mask: the byte-reversal
    key the candidate families were once sorted by."""
    masks = list(masks)
    width = (max(masks, default=0).bit_length() + 7) // 8

    def key(T):
        return T.bit_count(), -int.from_bytes(T.to_bytes(width, "little").translate(_REVERSED_BYTE), "big")

    return tuple(sorted(masks, key=key))


def test_size_then_colors_order_matches_the_reversed_byte_key():
    # Every mask below 2**12 shuffled, masks past bit 64, no mask, and seeded
    # mask families of several widths, past 2**64 too; the sparse masks make
    # many of one size, where the two keys must agree.
    every = list(range(1 << 12))
    random.Random(0).shuffle(every)
    wide = [1 << 64, (1 << 64) | 1, 3 << 63, 1 << 63, (1 << 70) | 5, (1 << 65) | 8, (1 << 100) | (1 << 64), 7, 0]
    for masks in (every, wide, []):
        assert _by_size_then_colors(masks) == by_reversed_bytes(masks)
    rng = random.Random(0)
    for width in (1, 3, 8, 9, 16, 63, 64, 65, 100, 130):
        for _ in range(20):
            masks = [rng.getrandbits(width) for _ in range(rng.randint(0, 30))]
            masks += [sum(1 << rng.randrange(width) for _ in range(3)) for _ in range(rng.randint(0, 30))]
            assert _by_size_then_colors(masks) == by_reversed_bytes(masks), (width, masks)


def test_sdr_image_sets_match_brute_force():
    rng = random.Random(0)
    families = [
        (),  # no lists: the empty set alone
        (frozenset({0, 1}), frozenset()),  # an empty list: no representative
        (frozenset({0, 1}), frozenset({0, 1})),  # a repeated list
        (frozenset({0}), frozenset({0}), frozenset({0, 1, 2})),  # a repeated singleton: no SDR
        (frozenset({0, 1, 2}), frozenset({0, 1, 2}), frozenset({0, 1, 2})),
    ]
    for _ in range(300):
        k = rng.randint(1, 7)
        families.append(
            tuple(frozenset(rng.sample(range(k), rng.randint(0, k))) for _ in range(rng.randint(1, 4)))
        )
    for LA in families:
        # oracle: the len(LA)-subsets of the union with an ordering that
        # matches the lists one by one
        union = sorted(set().union(*LA))
        images = [
            frozenset(T)
            for T in itertools.combinations(union, len(LA))
            if any(all(c in L for c, L in zip(p, LA)) for p in itertools.permutations(T))
        ]
        assert sdr_image_sets(LA) == sorted(images, key=lambda T: (len(T), sorted(T))), LA


def test_detect_structure():
    assert detect_structure(generate("complete_bipartite", [2, 3])) == "complete_bipartite"
    assert detect_structure(generate("complete_split", [2, 3])) == "complete_split"
    assert detect_structure(generate("path", [4])) is None
    # mislabeled parts fall back to generic
    g = make_graph(3, [(0, 1)], parts=((0,), (1, 2)))
    assert detect_structure(g) is None


def test_split_oracle_clique_collision():
    # identical singleton lists on a split A-side can never be distinct
    verdict = split_is_sufficient((1, 1), (2,))
    assert verdict.status == "insufficient"


def test_bipartite_oracle_star_formula_values():
    # f=(1 | 2,...,2) is sufficient on K_{1,q}; adding one singleton kills it
    assert bipartite_is_sufficient((1,), (2, 2, 2)).status == "sufficient"
    assert bipartite_is_sufficient((1,), (1, 2, 2)).status == "insufficient"


def test_witness_serialization_round_trip():
    lists = (frozenset({0, 2}), frozenset({1}))
    assert lists_from_json(lists_to_json(lists)) == lists


def test_fast_path_with_noncontiguous_parts():
    # K_{2,2} with the Q-side listed first; witnesses must come back in
    # vertex order regardless of how the parts are labeled
    g = make_graph(
        4,
        [(0, 2), (0, 3), (1, 2), (1, 3)],
        parts=((2, 3), (0, 1)),
    )
    assert detect_structure(g) == "complete_bipartite"
    verdict = is_sufficient(g, (1, 1, 1, 1))
    assert verdict.status == "insufficient"
    assert tuple(len(L) for L in verdict.witness) == (1, 1, 1, 1)
    assert color_from_lists(g, verdict.witness) is None


# ---------------------------------------------------------------------------
# one meter per top-level search: every public oracle takes an int or a meter


# Labeled and unlabeled graphs and every transversal entry, with repeats that
# hit blocker searches in the meter's memo (K_{3,3} at f = 2 is the same
# core as bipartite_is_sufficient((2, 2, 2), (2, 2, 2))).
SHARED_CALLS = [
    (is_sufficient, (complete_bipartite(3, 3), (2,) * 6)),
    (bipartite_is_sufficient, ((2, 2, 2), (2, 2, 2))),
    (is_sufficient, (cycle(5), (2,) * 5)),
    (is_sufficient, (cycle(4), (2,) * 4)),
    (is_sufficient, (complete_split(2, 3), (3, 2, 2, 2, 2))),
    (split_is_sufficient, ((3, 2), (2, 2, 2))),
    (is_sufficient, (random_graph(6, 8, 1), (1, 2, 2, 2, 2, 3))),
    (bipartite_is_sufficient, ((3, 3, 3), (2,) * 4)),
    (type2_insufficient, ((2, 2, 2), 4)),
    (is_sufficient, (make_graph(6, complete_bipartite(3, 3).edges), (2,) * 6)),
    (bipartite_is_sufficient, ((2, 2, 2), (2, 2, 2))),
    (type2_insufficient, ((3, 3, 3), 8)),
    (type2_insufficient, ((3, 3, 3), 4)),
    (split_is_sufficient, ((3, 2), (2, 2, 2))),
]


def _ticked(fn, args, meter):
    """(answer, units ticked) of one call on meter; a budget that runs out
    answers "undecided" for type2_insufficient, which raises instead."""
    start = meter.used
    try:
        answer = fn(*args, budget=meter)
    except BudgetExceededError:
        answer = "undecided"
    return answer, meter.used - start


def _same_answer(shared, bare):
    """Equal answers, but for a Verdict's ``checked``."""
    if isinstance(bare, Verdict):
        return (shared.status, shared.witness) == (bare.status, bare.witness)
    return shared == bare


def test_shared_meter_matches_bare_calls():
    # A call on a meter shared with earlier calls gives the bare call's
    # answer and ticks at most its units: what the memos hold is not run
    # again.  The repeats run strictly less.
    meter = _Budget(10**9)
    total = 0
    for k, (fn, args) in enumerate(SHARED_CALLS):
        bare, need = _ticked(fn, args, _Budget(10**9))
        shared, ticked = _ticked(fn, args, meter)
        assert _same_answer(shared, bare), (fn.__name__, args)
        if isinstance(bare, Verdict):
            assert (shared.checked, bare.checked) == (ticked, need), (fn.__name__, args)
        assert 0 < ticked <= need, (fn.__name__, args)
        if (fn, args) in SHARED_CALLS[:k]:
            assert ticked < need, (fn.__name__, args)
        total += ticked
    assert meter.used == total > 0
    assert meter.searches  # the transversal calls shared one memo


def test_meter_with_k_units_left_runs_out_like_budget_k():
    # A call that needs `need` units on a meter (fewer on one whose memos an
    # earlier call filled) is decided iff the meter has that many left, and
    # otherwise ticks one unit past what is left and answers undecided, like
    # a bare call at the same budget.
    warmup = (bipartite_is_sufficient, ((2, 2), (2, 2, 2)))
    spent = _ticked(*warmup, _Budget(10**9))[1]
    for fn, args in SHARED_CALLS:
        meter = _Budget(10**9)
        _ticked(*warmup, meter)
        full, need = _ticked(fn, args, meter)
        assert need <= _ticked(fn, args, _Budget(10**9))[1], (fn.__name__, args)
        for k in sorted({0, 1, need // 2, need - 1, need}):
            meter = _Budget(spent + k)
            _ticked(*warmup, meter)  # leaves exactly k units, and a memo
            assert meter.left == k
            shared, ticked = _ticked(fn, args, meter)
            if k == need:
                assert _same_answer(shared, full) and ticked == need, (fn.__name__, args)
                continue
            bare = _ticked(fn, args, _Budget(k))[0]
            if isinstance(shared, Verdict):
                assert shared == Verdict("undecided", None, k + 1) == bare, (fn.__name__, args, k)
            else:
                assert shared == "undecided" == bare, (args, k)
            assert ticked == k + 1, (fn.__name__, args, k)


def test_finished_search_holds_no_reference_to_its_meter():
    # the blocker search's recursion closes over the meter; a reference cycle
    # left behind would keep the meter, and its memo, alive
    meter = _Budget(10**9)
    gc.disable()
    try:
        before = sys.getrefcount(meter)
        bipartite_is_sufficient((2, 2), (2, 2, 2), budget=meter)
        after = sys.getrefcount(meter)
    finally:
        gc.enable()
    assert meter.used > 0 and after == before


def test_oracles_leave_no_reference_cycles():
    # The recursive closures (the coloring walk, the class walk, the
    # blocker search, the type-II integer point search and acceptance's SDR
    # search) refer to themselves through their closure cells, and each call
    # must break that cycle before it returns.
    gc.collect()
    gc.disable()
    try:
        generic = is_sufficient(cycle(5), (2,) * 5)
        transversal = bipartite_is_sufficient((2, 2), (2, 2, 2, 2))
        assert generic.status == transversal.status == "insufficient"
        assert type2_insufficient((3, 3, 3), 4) is None
        assert not _has_independent_sdr(*sharp_family(4, 3))
        assert gc.collect() == 0
    finally:
        gc.enable()


class _Forgetful(dict):
    """A memo that never hits: a lookup misses whatever it holds."""

    def __contains__(self, key):
        return False


def _forgetful_meter(cap=10**9):
    """A meter whose generic and blocker memos never hit."""
    meter = _Budget(cap)
    meter.settled, meter.searches = _Forgetful(), _Forgetful()
    return meter


class _Hits(dict):
    """A memo that counts its hits."""

    hits = 0

    def __contains__(self, key):
        found = super().__contains__(key)
        self.hits += found
        return found


def test_memo_reach_changes_no_verdict():
    # Generic, bipartite and split calls, each once and then again in a
    # shuffled order, on a meter that keeps its memos and on one whose
    # generic and blocker memos never hit.  A hit runs nothing again, so
    # each call has the same status and witness on both, and ticks at most
    # the units of the search with no memo.
    rng = random.Random(0)
    calls = []
    for seed in range(40):
        n = rng.randint(4, 6)
        g = random_graph(n, rng.randint(n, min(n * (n - 1) // 2, 2 * n)), seed)
        for _ in range(4):
            calls.append((is_sufficient, (g, tuple(rng.randint(2, 3) for _ in range(n)))))
    for fn in (bipartite_is_sufficient, split_is_sufficient):
        for _ in range(60):
            a_sizes = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
            calls.append((fn, (a_sizes, tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4))))))
    calls += rng.sample(calls, len(calls))
    kept, bare = _Budget(10**9), _forgetful_meter()
    kept.settled, kept.searches = _Hits(), _Hits()
    for fn, args in calls:
        got, want = fn(*args, budget=kept), fn(*args, budget=bare)
        assert _same_answer(got, want) and got.checked <= want.checked, (fn.__name__, args)
    assert kept.used < bare.used
    assert kept.settled.hits and kept.searches.hits


def test_repeated_generic_call_costs_one_unit():
    # The second call hits the top core in the memo: it ticks once, for the
    # call, and runs nothing else.  While a hit ticked the units of its
    # first run again, it cost all 192.
    labeled = complete_bipartite(2, 4)
    g, f = make_graph(labeled.n, labeled.edges), (2, 2, 2, 2, 2, 3)
    first = is_sufficient(g, f)
    assert first == Verdict("sufficient", None, 87)
    meter = _Budget(10**9)
    assert is_sufficient(g, f, budget=meter) == first
    settled = dict(meter.settled)
    assert is_sufficient(g, f, budget=meter) == Verdict("sufficient", None, 1)
    assert meter.settled == settled and meter.used == first.checked + 1
    for k in (0, 1, 2):
        meter = _Budget(first.checked + k)
        is_sufficient(g, f, budget=meter)
        assert meter.left == k
        want = Verdict("sufficient", None, 1) if k else Verdict("undecided", None, 1)
        assert is_sufficient(g, f, budget=meter) == want, k


@pytest.mark.parametrize("budget", [-1, 2.5, "3", None])
def test_oracle_rejects_a_budget_that_is_no_count(budget):
    # A cap must be a nonnegative int: -1 once ran as undecided at one unit,
    # 2.5 ran as if it were a count.
    with pytest.raises(ValueError, match="budget"):
        is_sufficient(cycle(4), (2,) * 4, budget=budget)
    with pytest.raises(ValueError, match="budget"):
        is_sufficient(cycle(4), (0,) * 4, budget=budget)  # no search, still read


@pytest.mark.parametrize(
    "call",
    [
        lambda budget: is_sufficient(cycle(5), (2,) * 5, budget=budget),
        lambda budget: bipartite_is_sufficient((2, 2), (2, 2, 2, 2), budget=budget),
    ],
)
def test_insufficient_verdict_reads_as_a_plain_one(call):
    # The oracles build an insufficient verdict's witness on first read.
    meter = _Budget(10**9)
    late = call(meter)
    call(meter)  # later calls tick the same meter and hit its memos
    is_sufficient(cycle(4), (2,) * 4, budget=meter)
    bipartite_is_sufficient((2, 2), (2, 2, 2), budget=meter)
    verdict = call(10**9)
    witness = verdict.witness
    assert verdict.status == "insufficient" and verdict.witness is witness
    assert [len(L) for L in witness] == [2] * len(witness)
    assert verdict == Verdict("insufficient", witness, verdict.checked)
    other = (frozenset({100, 101}),) + witness[1:]
    assert verdict != Verdict("insufficient", other, verdict.checked)
    assert repr(verdict) == f"Verdict(status='insufficient', witness={witness!r}, checked={verdict.checked})"
    assert late.witness == witness and late == verdict


def _contract_verdict(kind):
    """An eager insufficient verdict, a lazy one not read yet, or a lazy one
    whose witness has been read."""
    if kind == "eager":
        return Verdict("insufficient", (frozenset({0}), frozenset({0})), 3)
    verdict = bipartite_is_sufficient((2, 2), (2, 2, 2, 2))
    if kind == "read":
        verdict.witness
    return verdict


@pytest.mark.parametrize("kind", ["eager", "lazy", "read"])
def test_verdict_contract(kind):
    with pytest.raises(ValueError, match="bad verdict status 'maybe'"):
        Verdict("maybe")
    verdict = _contract_verdict(kind)
    for name in ("status", "checked", "witness"):
        with pytest.raises(FrozenInstanceError):
            setattr(verdict, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(verdict, name)
    witness = verdict.witness
    assert verdict.status == "insufficient" and verdict.witness is witness
    assert hash(verdict) == hash(Verdict("insufficient", witness, verdict.checked))
    assert (verdict == "insufficient") is False


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: is_sufficient(cycle(4), (2, 2, 2, -1)), "list sizes must be >= 0"),
        (lambda: bipartite_is_sufficient((0, 2), (2,)), "list sizes must be >= 1"),
    ],
)
def test_sizes_below_the_minimum_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda f: is_sufficient(cycle(4), f),
        lambda f: bipartite_is_sufficient(f, (2, 2)),
        lambda f: split_is_sufficient(f, (2, 2)),
        lambda f: list(enumerate_canonical_assignments(f)),
    ],
)
@pytest.mark.parametrize("bad", [1.9, 2.0, "2"])
def test_non_integer_sizes_are_rejected(call, bad):
    with pytest.raises(ValueError, match=f"list sizes must be integers, got {bad!r}"):
        call((bad, 2, 2, 2))
    assert call((True, 2, 2, 2)) == call((1, 2, 2, 2))


@pytest.mark.parametrize("bad", [1.5, 1.0, "1"])
def test_non_integer_colors_are_rejected(bad):
    with pytest.raises(ValueError, match=f"colors must be integers, got {bad!r}"):
        normalize_lists([[bad, 2]])
    assert normalize_lists([[True, 2]]) == (frozenset({1, 2}),)
