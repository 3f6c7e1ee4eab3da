"""Acceptance suite: one test per criterion, each printing its own verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` for the per-row lines,
or reproduce the same rows from the command line with
``sumchoice verify-tables``.
"""

import itertools

import pytest

from sumchoice.acceptance import CRITERIA, _tree_key, all_trees_up_to_iso
from sumchoice.graphs import random_tree
from sumchoice.rng import derive_rng


@pytest.mark.parametrize("row_id,title,runner", CRITERIA, ids=[f"criterion_{c[0]}" for c in CRITERIA])
def test_acceptance_row(row_id, title, runner):
    ok, detail = runner()
    print(f"CRITERION {row_id} {'PASS' if ok else 'FAIL'} ({title}): {detail}")
    assert ok, f"criterion {row_id} failed: {detail}"


# ---------------------------------------------------------------------------
# Tree classes


def test_tree_representatives_pinned():
    # The first tree of each class in leaf-growth order, in order of first
    # appearance.
    want = {
        1: [()],
        2: [((0, 1),)],
        3: [((0, 1), (0, 2))],
        4: [((0, 1), (0, 2), (0, 3)), ((0, 1), (0, 2), (1, 3))],
        5: [
            ((0, 1), (0, 2), (0, 3), (0, 4)),
            ((0, 1), (0, 2), (0, 3), (1, 4)),
            ((0, 1), (0, 2), (1, 3), (2, 4)),
        ],
        6: [
            ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5)),
            ((0, 1), (0, 2), (0, 3), (0, 4), (1, 5)),
            ((0, 1), (0, 2), (0, 3), (1, 4), (1, 5)),
            ((0, 1), (0, 2), (0, 3), (1, 4), (2, 5)),
            ((0, 1), (0, 2), (0, 3), (1, 4), (4, 5)),
            ((0, 1), (0, 2), (1, 3), (2, 4), (3, 5)),
        ],
    }
    for n, edges in want.items():
        trees = all_trees_up_to_iso(n)
        assert [g.edges for g in trees] == edges
        assert all(g.n == n for g in trees)


def test_tree_key_invariant_under_relabeling():
    for n in range(1, 9):
        for idx, g in enumerate(all_trees_up_to_iso(n)):
            key = _tree_key(n, g.edges)
            for trial in range(5):
                perm = list(range(n))
                derive_rng(n, "tree-relabel", idx, trial).shuffle(perm)
                assert _tree_key(n, [(perm[u], perm[v]) for u, v in g.edges]) == key


def test_tree_key_separates_exactly_the_isomorphism_classes():
    # Against the least edge set over all n! relabelings, on random trees.
    n = 7
    trees = [random_tree(n, seed) for seed in range(40)]
    keys = [_tree_key(n, g.edges) for g in trees]
    brute = [
        min(
            tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in g.edges))
            for p in itertools.permutations(range(n))
        )
        for g in trees
    ]
    assert len(set(brute)) > 5
    for i, j in itertools.combinations(range(len(trees)), 2):
        assert (keys[i] == keys[j]) == (brute[i] == brute[j])
