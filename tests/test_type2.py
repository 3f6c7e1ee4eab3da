"""Reduced graphs, blocking enumeration, the integer criterion, and beta."""

import functools
import hashlib
import itertools
import math
import operator
import re
from fractions import Fraction

import pytest

from sumchoice.bipartite import closed_form, constr_assignment
from sumchoice.choosability import (
    BudgetExceededError,
    _atoms,
    _Budget,
    _ranked,
    bipartite_is_sufficient,
    color_from_lists,
    normalize_lists,
)
from sumchoice.exact import sorted_profiles, sum_choice_type2_exact
from sumchoice.graphs import make_graph
from sumchoice.rng import derive_rng
from sumchoice.type2 import (
    ReducedGraph,
    ReducedWitness,
    _assignment_insufficient,
    _FaceCost,
    _integer_point,
    _minimal_blocking,
    _minimal_plans,
    _min_bilinear,
    _prep_relaxations,
    atom_label,
    beta,
    blocking_orbits,
    chi_sc2_reduced,
    enumerate_blocking,
    is_blocking,
    materialize_reduced_witness,
    phi,
    reduced_witness_to_json,
    symmetrize,
    type2_insufficient,
)

# ---------------------------------------------------------------------------
# phi and atoms


def test_phi_examples():
    assert phi({0b01: 1, 0b11: 2}, 2) == (3, 2)
    assert phi({}, 2) == (0, 0)
    assert phi({0b111: 1}, 3) == (1, 1, 1)


def test_phi_validates():
    with pytest.raises(ValueError):
        phi({0: 1}, 2)
    with pytest.raises(ValueError):
        phi({0b100: 1}, 2)


# ---------------------------------------------------------------------------
# is_blocking


def test_is_blocking_examples():
    assert is_blocking(ReducedGraph((1, 2), ((1, 2),)), 2) is True
    assert is_blocking(ReducedGraph((1, 2, 3), ((1, 2),)), 2) is False
    assert is_blocking(ReducedGraph((1, 2), ()), 2) is False
    # a = 0: the empty cover holds no edge, so nothing blocks
    assert is_blocking(ReducedGraph((), ()), 0) is False


def test_is_blocking_uncovered_index_rejected():
    with pytest.raises(ValueError):
        is_blocking(ReducedGraph((1,), ()), 2)


def test_is_blocking_permutation_invariant():
    perms = list(itertools.permutations(range(3)))

    def apply(mask, perm):
        return sum(1 << perm[i] for i in range(3) if mask >> i & 1)

    for r in enumerate_blocking(3)[:40]:
        for perm in perms:
            mapped = ReducedGraph(
                tuple(sorted(apply(v, perm) for v in r.vertices)),
                tuple(
                    sorted(
                        (min(apply(u, perm), apply(v, perm)), max(apply(u, perm), apply(v, perm)))
                        for u, v in r.edges
                    )
                ),
            )
            assert is_blocking(mapped, 3)


# ---------------------------------------------------------------------------
# enumerate_blocking


def test_enumerate_blocking_a1_empty():
    assert enumerate_blocking(1) == ()


def test_enumerate_blocking_a2():
    got = enumerate_blocking(2)
    assert got == (ReducedGraph((1, 2), ((1, 2),)),)


def brute_blocking(a, max_vertices):
    """Independent filter over every (vertex set, edge set) pair with the
    public is_blocking as the only decision procedure."""
    atoms = list(range(1, 1 << a))
    found = []
    for pick in range(1, 1 << len(atoms)):
        verts = tuple(atoms[j] for j in range(len(atoms)) if pick >> j & 1)
        if len(verts) > max_vertices:
            continue
        covered = 0
        for v in verts:
            covered |= v
        if covered != (1 << a) - 1:
            continue
        pairs = list(itertools.combinations(verts, 2))
        for emask in range(1, 1 << len(pairs)):
            edges = tuple(pairs[k] for k in range(len(pairs)) if emask >> k & 1)
            if is_blocking(ReducedGraph(verts, edges), a):
                found.append((verts, edges))
    return found


def test_enumerate_blocking_a2_matches_brute_filter():
    brute = brute_blocking(2, max_vertices=3)
    # one blocking graph total, and its orbit is itself
    assert len(brute) == 1
    assert len(blocking_orbits(2)) == 1


def test_enumerate_blocking_a3_matches_brute_filter():
    # vertex sets of size 7 all contain the universal atom, whose singleton
    # cover blocks nothing, so size <= 6 is the whole story (checked below)
    brute = set(brute_blocking(3, max_vertices=6))
    orbit = {(r.vertices, r.edges) for r in blocking_orbits(3)}
    assert brute == orbit
    assert len(orbit) == 1158


def test_seven_atom_vertex_sets_never_block():
    verts = tuple(range(1, 8))
    pairs = list(itertools.combinations(verts, 2))
    for emask in (1, 2**21 - 1, 0b101010101010101010101, 0b110011001100110011001):
        edges = tuple(pairs[k] for k in range(len(pairs)) if emask >> k & 1)
        assert not is_blocking(ReducedGraph(verts, edges), 3)


def test_every_enumerated_graph_is_blocking():
    for r in enumerate_blocking(3):
        assert is_blocking(r, 3)


def test_blocking_never_contains_the_full_atom():
    # a cover by the universal atom alone contains no edge, so no blocking R
    # may include it; this falls out of the definition rather than a special case
    full = 0b111
    assert all(full not in r.vertices for r in blocking_orbits(3))
    assert not is_blocking(ReducedGraph((1, 2, 0b111), ((1, 2),)), 3)


def test_enumerate_blocking_a4_exceeds_budget():
    # a usage error, not an exhausted budget: no search ran, so no bracket
    with pytest.raises(ValueError, match="a <= 3"):
        enumerate_blocking(4)
    with pytest.raises(ValueError, match="a <= 3"):
        chi_sc2_reduced(4, 3)


# ---------------------------------------------------------------------------
# the edge-minimal blocking graphs


def test_minimal_blocking_counts():
    assert len(_minimal_blocking(3)) == 61
    assert _minimal_blocking(2) == blocking_orbits(2)


def test_minimal_blocking_keeps_orbit_order():
    order = {r: k for k, r in enumerate(blocking_orbits(3))}
    ranks = [order[r] for r in _minimal_blocking(3)]
    assert ranks == sorted(ranks)


def test_minimal_blocking_graphs_are_edge_minimal():
    for a in (2, 3):
        for r in _minimal_blocking(a):
            assert is_blocking(r, a)
            for e in r.edges:
                fewer = tuple(d for d in r.edges if d != e)
                assert not is_blocking(ReducedGraph(r.vertices, fewer), a), (r, e)


def test_minimal_blocking_covers_every_vertex_set():
    vertex_sets = {r.vertices for r in blocking_orbits(3)}
    assert len(vertex_sets) == 45
    assert {r.vertices for r in _minimal_blocking(3)} == vertex_sets


# ---------------------------------------------------------------------------
# symmetrize


def test_symmetrize_fixed_point():
    conflict = make_graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    x, r = symmetrize([{0, 1}, {2, 3}], conflict)
    assert x == {1: 2, 2: 2}
    assert r == ReducedGraph((1, 2), ((1, 2),))
    assert is_blocking(r, 2)


def test_symmetrize_constr_instance_is_blocking():
    c = constr_assignment(2, 1)
    conflict = make_graph(c.n_colors, [tuple(sorted(L)) for L in c.q_lists])
    x, r = symmetrize(c.a_lists, conflict)
    assert sum(x.values()) == c.n_colors
    assert is_blocking(r, c.a)


def test_symmetrize_strips_in_atom_edges():
    conflict = make_graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (0, 1)])
    x, r = symmetrize([{0, 1}, {2, 3}], conflict)
    assert r.edges == ((1, 2),)


def test_symmetrize_rejects_sufficient_input():
    with pytest.raises(ValueError):
        symmetrize([{0}, {1}], make_graph(2, []))


@pytest.mark.parametrize("lists", [[[]], [[0], []]])
def test_symmetrize_rejects_empty_a_list(lists):
    with pytest.raises(ValueError, match="nonempty"):
        symmetrize(lists, make_graph(2, [(0, 1)]))


def looped_symmetrize(LA, conflict):
    """symmetrize as it was before its single pass: both steps repeated
    until nothing changes."""
    LA = normalize_lists(LA)
    if not all(LA):
        raise ValueError("every A-list must be nonempty")
    colors, masks = _ranked(LA)
    adj: dict[int, set[int]] = {c: set() for c in colors}
    for u, v in conflict.edges:
        if u in adj and v in adj:  # conflicts on colors outside every list are inert
            adj[u].add(v)
            adj[v].add(u)
    if not _assignment_insufficient(LA, adj):
        raise ValueError("assignment is sufficient; nothing to symmetrize")

    atoms = {pattern: [colors[c] for c in cs] for pattern, cs in _atoms(masks).items()}

    for _ in range(4 * len(colors) * len(colors) + 16):
        changed = False
        for mask in sorted(atoms):
            members = atoms[mask]
            for u, v in itertools.combinations(members, 2):
                if v in adj[u]:
                    adj[u].discard(v)
                    adj[v].discard(u)
                    changed = True
        for mask in sorted(atoms):
            members = atoms[mask]
            source = min(members, key=lambda c: (len(adj[c]), c))
            target = set(adj[source])
            for c in members:
                if adj[c] != target:
                    for w in adj[c] - target:
                        adj[w].discard(c)
                    for w in target - adj[c]:
                        adj[w].add(c)
                    adj[c] = set(target)
                    changed = True
        if not changed:
            break
    else:
        raise RuntimeError("symmetrization did not converge")

    x = {mask: len(members) for mask, members in atoms.items()}
    edges = []
    for m1, m2 in itertools.combinations(sorted(atoms), 2):
        links = sum(1 for c in atoms[m1] for d in atoms[m2] if d in adj[c])
        if links == len(atoms[m1]) * len(atoms[m2]):
            edges.append((m1, m2))
        elif links != 0:
            raise AssertionError("block neither complete nor empty after symmetrization")
    if not _assignment_insufficient(LA, adj):
        raise AssertionError("symmetrization lost insufficiency")
    reduced = ReducedGraph(vertices=tuple(sorted(atoms)), edges=tuple(sorted(edges)))
    return x, reduced


def test_symmetrize_single_pass_matches_the_loop():
    # Seeded random assignments of up to four A-lists over up to nine
    # colors with dense conflicts, a quarter of them insufficient: one pass
    # returns what the loop to a fixed point returned, or raises what it
    # raised.
    insufficient = 0
    for i in range(2000):
        rng = derive_rng(0, "symmetrize-single-pass", i)
        n_colors = rng.randint(2, 9)
        lists = [
            rng.sample(range(n_colors), rng.randint(1, min(4, n_colors)))
            for _ in range(rng.randint(1, 4))
        ]
        density = rng.choice((0.5, 0.7, 0.85, 1.0))
        edges = [p for p in itertools.combinations(range(n_colors), 2) if rng.random() < density]
        conflict = make_graph(n_colors, edges)
        try:
            want = looped_symmetrize(lists, conflict)
        except ValueError as err:
            with pytest.raises(ValueError, match=re.escape(str(err))):
                symmetrize(lists, conflict)
            continue
        assert symmetrize(lists, conflict) == want, (lists, edges)
        insufficient += 1
    assert insufficient == 492


@pytest.mark.parametrize(
    "run, a, q, bad",
    [
        (chi_sc2_reduced, 2.5, 3, "a"),
        (chi_sc2_reduced, "2", 3, "a"),
        (sum_choice_type2_exact, 2, 2.5, "q"),
        (sum_choice_type2_exact, 2.5, 3, "a"),
        (sum_choice_type2_exact, 2, "3", "q"),
    ],
)
def test_type2_search_sizes_must_be_integers(run, a, q, bad):
    # each died with a TypeError in range or in a comparison before
    value = {"a": a, "q": q}[bad]
    with pytest.raises(ValueError, match=re.escape(f"values of {bad} must be integers, got {value!r}")):
        run(a, q)


# ---------------------------------------------------------------------------
# the integer criterion


def test_type2_insufficient_examples():
    w = type2_insufficient((2, 2), 4)
    assert w is not None and w.cost == 4
    assert type2_insufficient((2, 3), 4) is None
    w = type2_insufficient((1, 5), 5)
    assert w is not None and w.cost <= 5


@pytest.mark.parametrize("bad", [1.5, 2.0, "2"])
def test_type2_sizes_must_be_integers(bad):
    # a float was truncated before: (1.5, 2) answered for (1, 2)
    message = f"list sizes must be integers, got {bad!r}"
    with pytest.raises(ValueError, match=message):
        type2_insufficient((bad, 2), 3)
    w = type2_insufficient((2, 2), 4)
    with pytest.raises(ValueError, match=message):
        materialize_reduced_witness(w, (2, bad), 4)
    with pytest.raises(ValueError, match="A-list sizes must be positive"):
        type2_insufficient((0, 2), 3)


@pytest.mark.parametrize("bad", [2.5, 0.5, "3", None])
def test_type2_q_must_be_an_integer(bad):
    # 2.5 died in range and "3" or None in a comparison, all TypeError; a
    # float below 1 would skip every graph and read sufficient
    message = re.escape(f"values of q must be integers, got {bad!r}")
    with pytest.raises(ValueError, match=message):
        type2_insufficient((2, 2, 2), bad)
    with pytest.raises(ValueError, match=message):
        chi_sc2_reduced(3, bad)


def test_type2_phi_dominates_f():
    w = type2_insufficient((2, 2), 4)
    f = phi(dict(w.atoms), 2)
    assert all(fi >= want for fi, want in zip(f, (2, 2)))


def reference_type2_insufficient(f, q):
    """The scan over every blocking graph of blocking_orbits, each searched
    value by value, skipping (not stopping at) values whose partial cost
    exceeds q."""
    a, cap = len(f), max(f)
    for r in blocking_orbits(a):
        multi = sorted((v for v in r.vertices if v.bit_count() >= 2), key=lambda v: (-v.bit_count(), v))
        singles = [v for v in r.vertices if v.bit_count() == 1]
        x = {}

        def cost(y):
            return sum(y.get(u, 0) * y.get(v, 0) for u, v in r.edges)

        def rec(idx):
            if idx == len(multi):
                got = dict(x)
                for mask in sorted(singles):
                    i = mask.bit_length() - 1
                    got[mask] = max(0, f[i] - sum(c for I, c in got.items() if I >> i & 1))
                if all(p >= want for p, want in zip(phi(got, a), f)) and cost(got) <= q:
                    return got
                return None
            for val in range(cap + 1):
                x[multi[idx]] = val
                if cost(x) <= q:
                    got = rec(idx + 1)
                    if got is not None:
                        return got
            del x[multi[idx]]
            return None

        got = rec(0)
        if got is not None:
            atoms = tuple(sorted((mask, c) for mask, c in got.items() if c > 0))
            return ReducedWitness(r, atoms, cost(got))
    return None


def test_type2_insufficient_matches_full_scan():
    # a sufficient a=3 pair costs the reference about 0.3 s, hence the small
    # grid; the extra pairs have witnesses on 3- and 4-atom graphs and unsorted f
    pairs = [(f, q) for q in range(2, 5) for f in itertools.combinations_with_replacement(range(1, 4), 3)]
    pairs += [((3, 3, 3), 7), ((4, 3, 4), 10), ((2, 3, 3), 5), ((3, 1, 3), 5)]
    pairs += [(f, q) for q in range(1, 6) for f in itertools.product(range(1, 6), repeat=2)]
    sizes = set()
    for f, q in pairs:
        want = reference_type2_insufficient(f, q)
        assert type2_insufficient(f, q) == want, (f, q)
        sizes.add(None if want is None else len(want.reduced.vertices))
    assert sizes == {None, 2, 3, 4}


def _cost(r, x):
    return sum(x.get(u, 0) * x.get(v, 0) for u, v in r.edges)


def reference_integer_point(r, f, q, meter):
    """The integer-point search as first written (dict state, every partial
    cost and the final cost summed over all edges of r), returning the first
    point of its walk with every atom positive: finish forces each singleton
    to at least 1 and passes over a point with a zero atom, so the walk goes
    on to the next one."""
    a = len(f)
    cap = max(f)
    verts = r.vertices
    multi = sorted((v for v in verts if v.bit_count() >= 2), key=lambda v: (-v.bit_count(), v))
    singles = {v: v.bit_length() - 1 for v in verts if v.bit_count() == 1}

    x = {}

    def finish():
        got = dict(x)
        for mask, i in sorted(singles.items()):
            need = f[i] - sum(c for I, c in got.items() if I >> i & 1)
            got[mask] = max(1, need)
        for i in range(a):
            if sum(c for I, c in got.items() if I >> i & 1) < f[i]:
                return None
        if _cost(r, got) <= q and all(got.values()):
            return got
        return None

    def rec(idx):
        meter.tick()
        if idx == len(multi):
            return finish()
        v = multi[idx]
        for val in range(cap + 1):
            x[v] = val
            partial = sum(
                x.get(u1, 0) * x.get(u2, 0) for u1, u2 in r.edges if u1 in x and u2 in x
            )
            if partial > q:
                break
            got = rec(idx + 1)
            if got is not None:
                return got
        del x[v]
        return None

    return rec(0)


def _both_kernels(r, plan, f, q, budget):
    """(result, nodes) of the reference kernel and of _integer_point; a
    result is (atoms, cost), None, or BudgetExceededError."""
    out = []
    for kernel, arg in ((reference_integer_point, r), (_integer_point, plan)):
        meter = _Budget(budget)
        try:
            got = kernel(arg, f, q, meter)
        except BudgetExceededError:
            got = BudgetExceededError
        if isinstance(got, dict):
            got = (tuple(sorted(got.items())), _cost(r, got))
        out.append((got, meter.used))
    return out


def test_integer_point_matches_reference_kernel():
    grids = {
        2: list(itertools.product(range(1, 6), repeat=2)),
        3: list(itertools.combinations_with_replacement(range(1, 5), 3))
        + [(2, 1, 1), (3, 1, 2), (1, 4, 2), (4, 2, 1), (3, 3, 1), (2, 4, 3)],
    }
    cases = found = 0
    for a, fs in grids.items():
        for r, plan in zip(_minimal_blocking(a), _minimal_plans(a)):
            for f in fs:
                for q in range(9):
                    want, got = _both_kernels(r, plan, f, q, 10**9)
                    # the same point; the kernel's nodes are a subset of the walk's
                    assert got[0] == want[0] and got[1] <= want[1], (r, f, q)
                    cases += 1
                    found += want[0] is not None
                    if cases % 199 == 0:  # one node short, the kernel stops at that tick
                        nodes = got[1]
                        meter = _Budget(nodes - 1)
                        with pytest.raises(BudgetExceededError):
                            _integer_point(plan, f, q, meter)
                        assert meter.used == nodes, (r, f, q)
    assert cases > 10000 and found > 1000


def test_type2_node_counts_pinned():
    # every sorted f in [1, q+1]^3 for q = 2..8: the witnesses, hashed as
    # first recorded by the reference kernel, and the search nodes
    witnesses = hashlib.sha256()
    digest = hashlib.sha256()
    nodes = 0
    for q in range(2, 9):
        for f in itertools.combinations_with_replacement(range(1, q + 2), 3):
            meter = _Budget(10**9)
            w = type2_insufficient(f, q, budget=meter)
            nodes += meter.used
            witnesses.update(repr((f, q, w)).encode())
            digest.update(repr((f, q, w, meter.used)).encode())
    assert witnesses.hexdigest() == "6dec4b4b2f12b8def86b0c1ec42344cdee62da49704ab511fe59b4d49256c809"
    assert nodes == 233734
    assert digest.hexdigest() == "9d0e4a79be60c361ee7666f02767765e4ded4870699030f2fa4fe9fb6026d6af"


def _every_point(plan, f, q, meter):
    """The plan search over every point x >= 0, with no cut for the edges
    still to be charged: ``_integer_point`` before it took only positive
    points, kept verbatim, so it reads the first four plan fields."""
    masks, back, rows, single_edges = plan
    cap = max(f)
    m = len(back)
    x = [0] * len(masks)

    def rec(idx: int, partial: int) -> int | None:
        meter.tick()
        if idx == m:  # force the singletons, then check coverage and cost
            for need, (slots, single) in zip(f, rows):
                for k in slots:
                    need -= x[k]
                if single is not None:
                    x[single] = need if need > 0 else 0
                elif need > 0:
                    return None
            for u, v in single_edges:
                partial += x[u] * x[v]
            return partial if partial <= q else None
        s = 0
        for k in back[idx]:
            s += x[k]
        top = cap if s == 0 else min(cap, (q - partial) // s)
        for val in range(top + 1):
            x[idx] = val
            cost = rec(idx + 1, partial + s * val)
            if cost is not None:
                return cost
        return None

    try:
        cost = rec(0, 0)
    finally:
        del rec  # rec refers to itself through its closure cell
    if cost is None:
        return None
    return tuple(sorted((v, c) for v, c in zip(masks, x) if c > 0)), cost


def test_positive_points_match_every_point_scan():
    # the scan over every edge-minimal graph, each searched for every point
    # x >= 0, on every unsorted f in [1, q+1]^a
    meter = _Budget(10**9)
    grid = [(2, q) for q in range(11)] + [(3, q) for q in range(7)]
    cases = found = 0
    for a, q in grid:
        for f in itertools.product(range(1, q + 2), repeat=a):
            cases += 1
            want = None
            for r, plan in zip(_minimal_blocking(a), _minimal_plans(a)):
                point = _every_point(plan[:4], f, q, meter)
                if point is not None:
                    want = ReducedWitness(r, *point)
                    break
            assert type2_insufficient(f, q) == want, (f, q)
            found += want is not None
    assert found > 500 and cases - found > 500


def test_zero_atom_points_lie_on_an_earlier_graph():
    # the premise of the positive-point search: deleting a vertex v of R
    # either leaves an index uncovered, or leaves a blocking graph that
    # holds an edge-minimal one scanned before R (a=2 has one graph, on
    # two atoms, and no such deletion)
    graphs = _minimal_blocking(3)
    deletions = 0
    for pos, r in enumerate(graphs):
        for v in r.vertices:
            rest = tuple(u for u in r.vertices if u != v)
            if functools.reduce(operator.or_, rest) != 0b111:
                continue
            deletions += 1
            kept = {e for e in r.edges if v not in e}
            assert is_blocking(ReducedGraph(rest, tuple(sorted(kept))), 3)
            assert any(
                earlier.vertices == rest and set(earlier.edges) <= kept for earlier in graphs[:pos]
            ), (r, v)
    assert deletions == 171


def test_reduced_criterion_matches_oracle_a2():
    for q in range(1, 6):
        for f in itertools.product(range(1, 6), repeat=2):
            witness = type2_insufficient(f, q)
            oracle = bipartite_is_sufficient(f, (2,) * q)
            assert (witness is None) == (oracle.status == "sufficient"), (f, q)


def test_reduced_criterion_matches_oracle_a3_spot():
    for f, q in [((1, 1, 1), 1), ((2, 2, 2), 4), ((2, 2, 2), 1), ((1, 2, 3), 3), ((3, 3, 3), 8)]:
        witness = type2_insufficient(f, q)
        oracle = bipartite_is_sufficient(f, (2,) * q)
        assert (witness is None) == (oracle.status == "sufficient"), (f, q)


def test_materialized_witnesses_fail_coloring():
    for q in range(1, 5):
        for f in itertools.product(range(1, 5), repeat=2):
            w = type2_insufficient(f, q)
            if w is None:
                continue
            g, lists = materialize_reduced_witness(w, f, q)
            assert tuple(len(L) for L in lists) == f + (2,) * q
            assert color_from_lists(g, lists) is None


def test_chi_sc2_reduced_values():
    assert chi_sc2_reduced(2, 6) == 18
    assert chi_sc2_reduced(2, 2) == 8
    # a=1: no loopless reduced graph blocks a single list, so pairs on Q
    # never bite and the star value 2q+1 drops out
    assert chi_sc2_reduced(1, 3) == 7


def test_chi_sc2_reduced_one_budget_for_all_profiles():
    a, q = 3, 4
    value = chi_sc2_reduced(a, q)
    calls = []  # (total, f_A, nodes) for each type2_insufficient call of the search
    for s in range(a, value - 2 * q + 1):
        for fa in sorted_profiles(s, a, q + 1):
            meter = _Budget(10**9)
            witness = type2_insufficient(fa, q, budget=meter)
            calls.append((s, fa, meter.used))
            if witness is None:
                break
    budget = max(used for _, _, used in calls)
    for _, fa, _ in calls:
        type2_insufficient(fa, q, budget=budget)  # each call alone fits
    spent = 0
    for s, _, used in calls:
        spent += used
        if spent > budget:
            break
    assert spent > budget
    with pytest.raises(BudgetExceededError) as err:
        chi_sc2_reduced(a, q, budget=budget)
    assert err.value.bracket == (2 * q + s, 2 * q + a * (q + 1))
    assert chi_sc2_reduced(a, q, budget=sum(used for _, _, used in calls)) == value


def test_chi_sc2_matches_exact():
    for q in range(1, 7):
        assert chi_sc2_reduced(2, q) == sum_choice_type2_exact(2, q)


def test_chi_sc2_a3_matches_exact_beyond_bench():
    for q in (11, 12):
        assert chi_sc2_reduced(3, q) == sum_choice_type2_exact(3, q)


def test_chi_sc2_a3_values_pinned():
    # recorded with the reference kernel; they equal closed_form(3, q) here
    # and up to q = 60, an observation rather than a theorem
    want = [34, 37, 39, 42, 44, 47, 49, 51, 54, 56, 59, 61, 63, 66, 68]
    want += [70, 73, 75, 77, 80, 82, 84, 87, 89, 91, 93, 96, 98, 100, 103]
    assert [chi_sc2_reduced(3, q) for q in range(11, 41)] == want


def test_chi_sc2_touches_closed_form_at_special_q():
    for q in (2, 3, 6):
        assert chi_sc2_reduced(2, q) - 2 * q == closed_form(2, q) - 2 * q


def test_chi_sc2_excess_nondecreasing_in_q():
    excesses = [chi_sc2_reduced(2, q) - 2 * q for q in range(1, 9)]
    assert excesses == sorted(excesses)


def test_deletion_consistency_with_exact_values():
    # removing d vertices from Q costs at most 2d in the type-II optimum
    for q in range(3, 9):
        for d in range(0, 3):
            assert closed_form(2, q) >= chi_sc2_reduced(2, q - d) - 2 * d


def test_reduced_witness_json_shape():
    w = type2_insufficient((2, 2), 4)
    doc = reduced_witness_to_json(w)
    assert doc["cost"] == 4
    assert doc["x"] == {"1": 2, "2": 2}
    assert doc["R"]["edges"] == [["1", "2"]]


# ---------------------------------------------------------------------------
# beta


def test_beta_a2_exact():
    assert beta(2, 1e-6) == pytest.approx(2.0, abs=1e-6)


def test_beta_a3_close_to_limit():
    assert beta(3, 1e-3) == pytest.approx(2 * math.sqrt(3), abs=0.05)


def test_beta_grid_refinement_monotone():
    values = [beta(3, 1e-3, grid=n, refine=False) for n in (8, 16, 32)]
    assert values == sorted(values, reverse=True)


def test_beta_unsupported_a():
    with pytest.raises(ValueError):
        beta(4, 1e-3)
    with pytest.raises(ValueError):
        beta(2, -1.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
def test_beta_rejects_non_finite_tolerance(tol):
    with pytest.raises(ValueError, match="finite"):
        beta(2, tol)


def test_beta_too_coarse_grid():
    with pytest.raises(ValueError, match="too coarse"):
        beta(3, grid=2)
    assert repr(beta(3, 1e-3, grid=3)) == "3.464101615137755"


def test_beta_goldens():
    # Values of the scan with every face point evaluated in full.
    assert repr(beta(2, 1e-6)) == "2.0"
    assert repr(beta(3, 1e-3)) == "3.464207335968968"
    assert repr(beta(3, 1e-4)) == "3.4641280444381324"
    assert [repr(beta(3, 1e-3, grid=n, refine=False)) for n in (8, 16, 32)] == [
        "3.5777087639996634",
        "3.4914862437758782",
        "3.4708873250984986",
    ]


def test_min_bilinear_reaches_pinned_minimum():
    # x = (1/4, 0, 0, 1/2, 1/8) on atoms {1},{2},{1,2},{3},{2,3} is feasible
    # and costs 1/32; coordinate descent stopped at 0.0768 here.
    (rel,) = [
        rel
        for rel in _prep_relaxations(3)
        if rel.verts == (1, 2, 3, 4, 6)
        and [(rel.verts[u], rel.verts[v]) for u, v in rel.edges] == [(1, 6), (2, 4), (3, 4), (3, 6)]
    ]
    assert abs(_min_bilinear(rel, (0.25, 0.125, 0.625)) - 1 / 32) <= 1e-15


def _fraction_solve(m, rhs):
    """Exact solution of m x = rhs over the rationals, or None if m is
    singular."""
    n = len(m)
    aug = [list(row) + [b] for row, b in zip(m, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col] / aug[col][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [aug[r][n] / aug[r][r] for r in range(n)]


def _fraction_min_bilinear(r, f):
    """The bilinear minimum of one blocking graph in exact arithmetic: the
    stationary point of every (support, tight row set) pair with a
    nonsingular KKT system, nothing pruned, cached or cut."""
    verts, a = r.vertices, len(f)
    best = None
    for s in range(1, 1 << len(verts)):
        support = [v for j, v in enumerate(verts) if s >> j & 1]
        for t in range(1 << a):
            tight = [i for i in range(a) if t >> i & 1]
            m = [
                [Fraction(int((u, v) in r.edges or (v, u) in r.edges)) for v in support]
                + [Fraction(u >> i & 1) for i in tight]
                for u in support
            ] + [[Fraction(v >> i & 1) for v in support] + [Fraction(0)] * len(tight) for i in tight]
            sol = _fraction_solve(m, [Fraction(0)] * len(support) + [f[i] for i in tight])
            if sol is None:
                continue
            x = dict(zip(support, sol))
            if min(x.values()) < 0 or any(
                sum(c for v, c in x.items() if v >> i & 1) < f[i] for i in range(a)
            ):
                continue
            cost = sum(x.get(u, 0) * x.get(v, 0) for u, v in r.edges)
            best = cost if best is None else min(best, cost)
    return best


@pytest.mark.parametrize(
    "f",
    [
        (Fraction(1, 4), Fraction(1, 8), Fraction(5, 8)),
        (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
        (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)),
    ],
)
def test_min_bilinear_matches_exact_kkt_enumeration(f):
    # Per relaxation, and so also the full minimum over all 61.
    rels = {
        (rel.verts, tuple((rel.verts[u], rel.verts[v]) for u, v in rel.edges)): rel
        for rel in _prep_relaxations(3)
    }
    for r in _minimal_blocking(3):
        got = _min_bilinear(rels[r.vertices, r.edges], tuple(map(float, f)))
        assert abs(got - _fraction_min_bilinear(r, f)) <= 1e-12, r


def test_face_cost_cutoffs_agree_with_full_minimum():
    rng = derive_rng(0, "face-cost-test")
    cost = _FaceCost(3)  # shared, so the memo and the relaxation order carry over
    for _ in range(6):
        w = [rng.random() for _ in range(3)]
        f = tuple(x / sum(w) for x in w)
        full = min(_min_bilinear(rel, f) for rel in _prep_relaxations(3))
        cutoffs = [full * rng.uniform(0.5, 1.5) for _ in range(4)]
        cutoffs += [math.nextafter(full, -math.inf), full, -math.inf]
        for cutoff in cutoffs:
            got = cost(f, cutoff)
            if got > cutoff:
                assert got == full
            else:
                assert full <= got <= cutoff


def test_normalized_excess_brackets_beta():
    b2 = beta(2, 1e-6)
    for q in (16, 64):
        excess = (chi_sc2_reduced(2, q) - 2 * q) / math.sqrt(q)
        assert abs(excess - b2) <= 0.5
    b3 = beta(3, 1e-3)
    excess = (chi_sc2_reduced(3, 16) - 32) / 4.0
    assert abs(excess - b3) <= 0.5
