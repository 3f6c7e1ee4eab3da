"""Turán counts, the greedy independent SDR, and split-graph machinery."""

import itertools
import math

import pytest

from sumchoice.acceptance import _has_independent_sdr, _min_clique_edges
from sumchoice.choosability import color_from_lists, split_is_sufficient
from sumchoice.graphs import complete_split, generate, make_graph, random_graph
from sumchoice.rng import derive_rng
from sumchoice.turan import (
    balanced_parts,
    independent_sdr,
    sharp_family,
    split_bounds,
    split_witness,
    t_balanced,
)


def brute_t(s, k):
    best = None

    def rec(rem, slots, acc):
        nonlocal best
        if slots == 0:
            if rem == 0 and (best is None or acc < best):
                best = acc
            return
        for d in range(rem + 1):
            rec(rem - d, slots - 1, acc + math.comb(d, 2))

    rec(s, k, 0)
    return best


def has_independent_sdr_brute(g, lists):
    for picks in itertools.product(*[sorted(L) for L in lists]):
        if len(set(picks)) != len(lists):
            continue
        if not any(g.has_edge(u, v) for u, v in itertools.combinations(picks, 2)):
            return True
    return False


def test_t_balanced_examples():
    assert t_balanced(5, 1) == 10
    assert t_balanced(5, 2) == brute_t(5, 2) == 4
    assert t_balanced(6, 3) == brute_t(6, 3) == 3


def test_t_balanced_matches_brute_force_small():
    for s in range(0, 13):
        for k in range(1, 6):
            assert t_balanced(s, k) == brute_t(s, k)


def test_balanced_parts():
    assert balanced_parts(7, 3) == (3, 2, 2)
    assert balanced_parts(4, 2) == (2, 2)


def test_sdr_forced():
    g = make_graph(3, [])
    res = independent_sdr(g, [{0}, {1}, {2}])
    assert res.representatives == (0, 1, 2)


def test_sdr_absent_on_sharp_instance():
    g = generate("disjoint_cliques", [2, 2])
    lists = [frozenset(range(4))] * 3
    assert independent_sdr(g, lists) is None
    assert not has_independent_sdr_brute(g, lists)


def test_sdr_succeeds_below_threshold():
    # one edge < t(4,2) = 2
    g = make_graph(4, [(0, 1)])
    lists = [frozenset(range(4))] * 3
    res = independent_sdr(g, lists)
    assert res is not None
    assert has_independent_sdr_brute(g, lists)


def test_sdr_validates_sizes():
    g = make_graph(3, [])
    with pytest.raises(ValueError):
        independent_sdr(g, [{0, 1}, {2}])


@pytest.mark.parametrize("bad", [0.5, 1.0, "1"])
def test_sdr_entries_must_be_integers(bad):
    g = make_graph(3, [])
    with pytest.raises(ValueError, match=f"list entries must be integers, got {bad!r}"):
        independent_sdr(g, [[0, bad]])
    assert independent_sdr(g, [[False, True]]) == independent_sdr(g, [[0, 1]])


def test_sdr_trace_invariants():
    for i in range(60):
        rng = derive_rng(21, "turan-test", i)
        a = rng.randint(2, 4)
        s = rng.randint(a, 7)
        n = rng.randint(s, 10)
        m = rng.randint(0, min(n * (n - 1) // 2, t_balanced(s, a - 1) - 1))
        g = random_graph(n, m, seed=999 + i)
        lists = [frozenset(rng.sample(range(n), s)) for _ in range(a)]
        res = independent_sdr(g, lists)
        assert res is not None, (a, s, n, m)
        reps = res.representatives
        assert len(set(reps)) == a
        assert all(reps[k] in lists[res.list_indices[k]] for k in range(a))
        assert sorted(res.list_indices) == sorted(set(res.list_indices))
        assert not any(g.has_edge(u, v) for u, v in itertools.combinations(reps, 2))
        claimed = [set(step.closed_neighborhood) for step in res.steps]
        for b1, b2 in itertools.combinations(claimed, 2):
            assert not (b1 & b2)


def test_sharp_family_values():
    g, lists = sharp_family(4, 3)
    assert g.m == 2 and g.n == 4
    g, lists = sharp_family(5, 3)
    assert g.m == 4 == t_balanced(5, 2)
    g, lists = sharp_family(3, 2)
    assert g.m == 3 == t_balanced(3, 1)


def test_sharp_family_has_no_independent_sdr():
    for s, a in [(3, 2), (4, 3), (5, 3), (6, 4)]:
        g, lists = sharp_family(s, a)
        assert independent_sdr(g, lists) is None
        assert not has_independent_sdr_brute(g, lists)
    # the rest of acceptance row 7's families; too large for the brute force
    for s, a in [(8, 4), (10, 6)]:
        g, lists = sharp_family(s, a)
        assert independent_sdr(g, lists) is None


def test_min_clique_edges_is_the_composition_minimum():
    # acceptance row 7's full range against the literal enumeration
    table = _min_clique_edges(20, 6)
    for s in range(0, 21):
        for k in range(1, 7):
            assert table[k][s] == brute_t(s, k), (s, k)


def test_acceptance_sdr_search_matches_brute_force():
    outcomes = {True: 0, False: 0}
    for i in range(300):
        rng = derive_rng(17, "acceptance-sdr", i)
        n = rng.randint(2, 9)
        a = rng.randint(1, min(4, n))
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), seed=i)
        lists = [frozenset(rng.sample(range(n), rng.randint(1, n))) for _ in range(a)]
        want = has_independent_sdr_brute(g, lists)
        assert _has_independent_sdr(g, lists) == want, (i, lists)
        outcomes[want] += 1
    assert outcomes[True] >= 50 and outcomes[False] >= 50, outcomes
    for s, a in [(3, 2), (4, 3), (5, 3), (6, 4), (8, 4)]:
        g, lists = sharp_family(s, a)
        assert _has_independent_sdr(g, lists) == has_independent_sdr_brute(g, lists)
    assert not _has_independent_sdr(*sharp_family(10, 6))


# ---------------------------------------------------------------------------
# split graphs


def test_split_bounds_values():
    sb = split_bounds(3, 10)
    assert sb.s == 13 and sb.upper == 59
    assert sb.lower == pytest.approx(20 + 1.5 * math.sqrt(20))
    sb = split_bounds(2, 5)
    assert sb.s == 6 and sb.upper == 22
    assert sb.upper_f == (6, 6, 2, 2, 2, 2, 2)


def test_split_bounds_preconditions():
    with pytest.raises(ValueError):
        split_bounds(2, 2)
    with pytest.raises(ValueError):
        split_bounds(1, 5)


def test_split_bounds_side_conditions_hold_in_range():
    for a in (2, 3, 4):
        for q in range(a + 1, 40):
            sb = split_bounds(a, q)
            assert sb.s >= a and t_balanced(sb.s, a - 1) > q


def test_split_upper_f_sufficient_small():
    sb = split_bounds(2, 5)
    g = generate("complete_split", [2, 5])
    from sumchoice.choosability import is_sufficient

    assert is_sufficient(g, sb.upper_f).status == "sufficient"


def test_split_witness_nested_case():
    w = split_witness((2, 2), 1)  # t(2,1) = 1 <= 1
    assert w is not None
    g = complete_split(2, 1)
    assert color_from_lists(g, w) is None


def test_split_witness_clique_minus_clique_case():
    w = split_witness((2, 3), 4)
    assert w is not None
    assert tuple(len(L) for L in w) == (2, 3) + (2,) * 4
    g = complete_split(2, 4)
    assert color_from_lists(g, w) is None


def test_split_witness_absent_below_thresholds():
    # t(3,1) = 3 > 2 and C(3,2) + 0 = 3 > 2
    assert split_witness((3, 3), 2) is None


def test_split_witness_requires_sorted_input():
    with pytest.raises(ValueError):
        split_witness((3, 2), 4)


@pytest.mark.parametrize("bad", [2.5, 2.0, "2"])
def test_split_witness_sizes_must_be_integers(bad):
    with pytest.raises(ValueError, match=f"list sizes must be integers, got {bad!r}"):
        split_witness((bad, 3), 4)
    with pytest.raises(ValueError, match="A-list sizes must be positive"):
        split_witness((0, 3), 4)


def test_split_witness_always_insufficient_sweep():
    for a in (2, 3):
        for svec in itertools.combinations_with_replacement(range(1, 5), a):
            for q in range(1, 7):
                w = split_witness(svec, q)
                if w is None:
                    continue
                g = complete_split(len(svec), q)
                assert color_from_lists(g, w) is None, (svec, q)
                assert tuple(len(L) for L in w) == svec + (2,) * q


def test_witness_absent_whenever_type2_sufficient():
    # the constructions are necessary conditions: a sufficient type-II f
    # cannot admit a witness
    for svec in itertools.combinations_with_replacement(range(1, 5), 2):
        for q in range(1, 6):
            if split_is_sufficient(svec, (2,) * q).status == "sufficient":
                assert split_witness(svec, q) is None, (svec, q)
