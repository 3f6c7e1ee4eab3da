"""Closed forms, bounds, the doubling construction, and the random process."""

import itertools
import math
import random

import pytest

from sumchoice.bipartite import (
    bounds_report,
    closed_form,
    constr_assignment,
    default_pick_probability,
    lb_bound,
    lb_witness,
    random_transversal,
    random_type2_assignment,
    recommended_r,
    transversal_trials,
    ub_bound,
)
from sumchoice.choosability import color_from_lists, transversal_check
from sumchoice.graphs import generate, random_graph, random_tree
from sumchoice.turan import sharp_family, split_bounds, split_witness, t_balanced
from sumchoice.type2 import ReducedGraph, beta, is_blocking, phi


def test_closed_form_values():
    assert closed_form(2, 3) == 10
    assert closed_form(3, 3) == 13
    assert closed_form(1, 5) == 11
    assert closed_form(4, 3) is None


def test_closed_form_rejects_bad_args():
    with pytest.raises(ValueError):
        closed_form(0, 3)


@pytest.mark.parametrize("bad", [2.5, "3"])
@pytest.mark.parametrize(
    "call",
    [
        lambda x: closed_form(2, x),
        lambda x: ub_bound(2, x),
        lambda x: lb_bound(2, x),
        lambda x: recommended_r(2, x),
        lambda x: default_pick_probability(x, 4),
        lambda x: constr_assignment(x, 1),
        lambda x: constr_assignment(2, x),
        lambda x: split_bounds(2, x),
        lambda x: split_witness((2, 2), x),
        lambda x: sharp_family(x, 3),
        lambda x: t_balanced(5, x),
    ],
)
def test_bound_and_construction_sizes_must_be_integers(call, bad):
    # Read through as_int: ub_bound(2, 4.5) once returned 41.0, and most of
    # the others died with a TypeError.
    with pytest.raises(ValueError, match="must be integers"):
        call(bad)


def test_ub_values():
    assert ub_bound(2, 16) == 32 + 2 * 30 == 92
    assert ub_bound(2, 2) == 4 + 2 * 11 == 26


def test_ub_matches_expression():
    for a, q in [(2, 5), (3, 9), (4, 64), (5, 100)]:
        want = 2 * q + a * math.ceil(math.sqrt(32 * q * (1 + math.log(a))))
        assert ub_bound(a, q) == want


def test_ub_precondition():
    with pytest.raises(ValueError):
        ub_bound(3, 2)
    with pytest.raises(ValueError):
        ub_bound(1, 5)


def test_lb_value():
    assert lb_bound(2, 12) == pytest.approx(24 + 0.12 * math.sqrt(12 * math.log(2)))


def test_lb_precondition_boundary():
    # 11 <= 4*4*ln 2 ~ 11.09 violates the hypothesis; 12 satisfies it
    with pytest.raises(ValueError):
        lb_bound(2, 11)
    lb_bound(2, 12)


def test_lb_log_base_flag():
    natural = lb_bound(2, 20, log_base="e")
    binary = lb_bound(2, 20, log_base="2")
    assert binary > natural  # log2(2)=1 > ln(2)


def test_ub_sandwiches_closed_form():
    assert closed_form(2, 12) == 32 <= ub_bound(2, 12)


def test_sandwich_everywhere_all_three_defined():
    for a in (2, 3):
        for q in range(a, 200):
            try:
                lower = lb_bound(a, q)
            except ValueError:
                continue
            assert lower <= closed_form(a, q) <= ub_bound(a, q), (a, q)


def test_bounds_report_fields():
    r = bounds_report(2, 12)
    assert r.closed == 32 and r.sandwich_ok is True
    r = bounds_report(1, 4)
    assert r.upper is None and r.lower is None and r.sandwich_ok is None
    r = bounds_report(5, 1000)
    assert r.closed is None and r.sandwich_ok is True  # lb <= ub still checkable


# ---------------------------------------------------------------------------
# the doubling construction


def test_constr_2_1_layout():
    c = constr_assignment(2, 1)
    assert (c.a, c.q, c.n_colors) == (4, 2, 4)
    assert [sorted(L) for L in c.a_lists] == [[0, 2], [0, 3], [1, 2], [1, 3]]
    assert [sorted(L) for L in c.q_lists] == [[0, 1], [2, 3]]


def test_constr_2_1_insufficient_exhaustively():
    c = constr_assignment(2, 1)
    # every candidate transversal either misses an A-list or contains a pair
    for size in range(c.n_colors + 1):
        for T in itertools.combinations(range(c.n_colors), size):
            T = set(T)
            hits_all = all(T & L for L in c.a_lists)
            swallows = any(L <= T for L in c.q_lists)
            assert not (hits_all and not swallows)
    assert transversal_check(c.a_lists, c.q_lists) is None


def test_constr_2_2_sizes():
    c = constr_assignment(2, 2)
    assert c.a == 4 and c.q == 8
    assert all(len(L) == 4 for L in c.a_lists)
    assert (c.t * c.ell) ** 2 == c.q * int(math.log2(c.a))
    assert transversal_check(c.a_lists, c.q_lists) is None


def test_constr_preconditions():
    with pytest.raises(ValueError):
        constr_assignment(1, 1)
    with pytest.raises(ValueError):
        constr_assignment(2, 0)


def test_constr_insufficient_for_small_parameters():
    for t, ell in [(2, 1), (2, 2)]:
        c = constr_assignment(t, ell)
        assert color_from_lists(c.graph(), c.assignment()) is None


# ---------------------------------------------------------------------------
# random transversal process


def test_random_process_forced_success():
    got = random_transversal([{0, 1, 2}], [{0, 1}], p=1.0, seed=0, max_trials=1)
    assert got is not None
    T, trace = got
    assert T == frozenset({1, 2})
    assert trace.spanned == 1 and trace.hits == (3,)


def test_random_process_p_zero_always_fails():
    assert random_transversal([{0, 1, 2}], [{0, 1}], p=0.0, seed=0, max_trials=10) is None


def test_random_process_cannot_beat_constr():
    c = constr_assignment(2, 1)
    assert random_transversal(c.a_lists, c.q_lists, p=0.5, seed=7, max_trials=200) is None


def test_random_process_successes_are_proper():
    a, q = 3, 16
    r = recommended_r(a, q)
    p = default_pick_probability(a, q)
    LA, LQ = random_type2_assignment(a, q, r, seed=5)
    successes = 0
    for trace in transversal_trials(LA, LQ, p, seed=11, max_trials=30):
        if not trace.success:
            continue
        successes += 1
        T = set(trace.transversal)
        assert all(T & L for L in LA)
        assert all(L - T for L in LQ)
    assert successes > 0


def test_one_deletion_pass_matches_the_fixed_point():
    # the process deletes Q-lists in one pass over LQ; repeating the pass
    # until nothing changes must leave the same transversal
    rng = random.Random(2024)
    for _ in range(400):
        LA = [set(rng.sample(range(12), rng.randint(1, 6))) for _ in range(rng.randint(1, 4))]
        LQ = [frozenset(rng.sample(range(12), rng.randint(1, 4))) for _ in range(rng.randint(1, 12))]
        for trace in transversal_trials(LA, LQ, rng.random(), seed=rng.randrange(100), max_trials=3):
            T = set(trace.picked)
            changed = True
            while changed:
                changed = False
                for L in LQ:
                    if L <= T:
                        T.remove(min(L))
                        changed = True
            assert trace.transversal == tuple(sorted(T))


def test_trials_are_reproducible():
    LA, LQ = random_type2_assignment(2, 8, 6, seed=3)
    runs = [list(transversal_trials(LA, LQ, 0.4, seed=9, max_trials=5)) for _ in range(2)]
    assert runs[0] == runs[1]


@pytest.mark.parametrize(
    "draw",
    [
        lambda seed: random_graph(6, 5, seed),
        lambda seed: random_tree(7, seed),
        lambda seed: random_type2_assignment(2, 4, 2, seed=seed),
        lambda seed: list(transversal_trials([{0, 1, 2}, {2, 3}], [{0, 2}, {1, 3}], 0.5, seed=seed, max_trials=4)),
    ],
)
def test_seeds_follow_the_integer_rule(draw):
    # a bool seed draws the stream of the int it equals; a float is an error
    # (both were once keyed by their string, a stream of their own)
    assert draw(True) == draw(1) and draw(False) == draw(0)
    with pytest.raises(ValueError, match="seeds must be integers, got 1.0"):
        draw(1.0)


@pytest.mark.parametrize("bad", [2.5, "3"])
@pytest.mark.parametrize(
    "call",
    [
        lambda x: transversal_trials([{0}], [{1}], 0.5, max_trials=x),
        lambda x: transversal_trials([{0}], [{1}], 0.5, seed=x),
        lambda x: random_transversal([{0}], [{1}], 0.5, max_trials=x),
        lambda x: random_type2_assignment(x, 4, 2),
        lambda x: random_type2_assignment(2, 4, 2, universe=x),
        lambda x: beta(3, grid=x),
        lambda x: is_blocking(ReducedGraph(vertices=(1, 2), edges=((1, 2),)), x),
        lambda x: phi({1: 2}, x),
        lambda x: phi({1: x}, 1),
    ],
)
def test_random_process_and_type2_entries_must_take_integers(call, bad):
    # checked at the call (the trials run lazily); these raised a TypeError,
    # and phi({1: 2.5}, 1) returned (2.5,)
    with pytest.raises(ValueError, match=f"must be integers, got {bad!r}"):
        call(bad)


def test_bad_probability_rejected():
    with pytest.raises(ValueError):
        next(transversal_trials([{0}], [{0, 1}], p=1.5))


@pytest.mark.parametrize("max_trials", [0, -1])
def test_nonpositive_trial_count_rejected_at_call(max_trials):
    # no next(): the check runs before any trial, so callers can fail first
    with pytest.raises(ValueError, match="max_trials >= 1"):
        transversal_trials([{0}], [{0, 1}], p=0.5, max_trials=max_trials)
    with pytest.raises(ValueError, match="max_trials >= 1"):
        random_transversal([{0}], [{0, 1}], p=0.5, max_trials=max_trials)


# ---------------------------------------------------------------------------
# lower-bound witness builder


def test_lb_witness_case_one():
    f_A, f_Q = (1, 5), (1, 2, 2, 2)
    w = lb_witness(f_A, f_Q, 4)
    assert w is not None
    assert tuple(len(L) for L in w) == f_A + f_Q
    g = generate("complete_bipartite", [2, 4])
    assert color_from_lists(g, w) is None


def test_lb_witness_case_two_k42():
    w = lb_witness((2, 2, 2, 2), (2, 2), 2)
    assert w is not None
    g = generate("complete_bipartite", [4, 2])
    assert color_from_lists(g, w) is None
    assert tuple(len(L) for L in w) == (2, 2, 2, 2, 2, 2)


def test_lb_witness_absent_when_sufficient():
    # sum 10 >= chi_sc(K_{2,2}) = 8 and neither case applies
    assert lb_witness((3, 3), (2, 2), 2) is None


def test_lb_witness_shrinks_lists_to_exact_sizes():
    # a=8 gives t=3 headroom; uneven f_A forces genuine shrinking
    f_A = (2, 2, 2, 2, 3, 3, 3, 3)
    f_Q = (2,) * 12
    w = lb_witness(f_A, f_Q, 12)
    assert w is not None
    assert tuple(len(L) for L in w) == f_A + f_Q
    g = generate("complete_bipartite", [8, 12])
    assert color_from_lists(g, w) is None


def test_lb_witness_validates_lengths():
    with pytest.raises(ValueError):
        lb_witness((2, 2), (2, 2), 3)


@pytest.mark.parametrize("f_A, f_Q", [((1.5, 5), (1, 2)), ((1, 5), (1, 2.0)), (("1", 5), (1, 2))])
def test_lb_witness_sizes_must_be_integers(f_A, f_Q):
    with pytest.raises(ValueError, match="list sizes must be integers"):
        lb_witness(f_A, f_Q, 2)
    with pytest.raises(ValueError, match="list sizes must be positive"):
        lb_witness((0, 5), (1, 2), 2)
