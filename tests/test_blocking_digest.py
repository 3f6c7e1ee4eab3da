"""The blocking-graph layer of ``type2`` on a fixed sweep, pinned by one sha256.

The sweep covers every blocking-graph list (``enumerate_blocking`` for
a = 1..3, ``blocking_orbits`` and ``_minimal_blocking`` for a = 2, 3), the
``is_blocking`` verdict on every edge set of every covering vertex set of 2 to
5 atoms at a = 3, the errors for a = 0 and a = 4, and ``symmetrize`` on a
seeded random sweep of small assignments (its result, or the type and message
of what it raised).  Each output is written as one line, so the digest changes
exactly when some list, order, verdict, result or message does.
"""

import functools
import hashlib
import itertools
import operator

from sumchoice.graphs import make_graph
from sumchoice.rng import derive_rng
from sumchoice.type2 import (
    ReducedGraph,
    _minimal_blocking,
    blocking_orbits,
    enumerate_blocking,
    is_blocking,
    symmetrize,
)

BLOCKING_DIGEST = "3d7252f81ee20ad7aa09e62dfcbf660c966ad198d53861fb20f611e89fdc026c"


def outcome(run, *args):
    try:
        return ("value", run(*args))
    except Exception as err:  # the type and message are part of the output
        return ("raised", type(err).__name__, str(err))


def random_assignment(rng):
    a = rng.randint(1, 3)
    n_colors = rng.randint(1, 6)
    lists = [rng.sample(range(n_colors), rng.randint(1, min(3, n_colors))) for _ in range(a)]
    density = rng.choice((0.3, 0.6, 0.9, 1.0))
    edges = [p for p in itertools.combinations(range(n_colors), 2) if rng.random() < density]
    return lists, make_graph(n_colors, edges)


def sweep():
    for a in (1, 2, 3):
        yield "enumerate_blocking", a, enumerate_blocking(a)
    for a in (2, 3):
        yield "blocking_orbits", a, blocking_orbits(a)
        yield "_minimal_blocking", a, _minimal_blocking(a)
    for size in range(2, 6):
        for verts in itertools.combinations(range(1, 8), size):
            if functools.reduce(operator.or_, verts) != 0b111:
                continue
            pairs = list(itertools.combinations(verts, 2))
            for emask in range(1 << len(pairs)):
                edges = tuple(p for k, p in enumerate(pairs) if emask >> k & 1)
                yield "is_blocking", verts, edges, is_blocking(ReducedGraph(verts, edges), 3)
    for run in (enumerate_blocking, blocking_orbits, _minimal_blocking):
        for a in (0, 4):
            yield run.__name__, a, outcome(run, a)
    for lists in ([], [[]], [[0], [1]], [[0, 1], [0, 1]]):
        yield "symmetrize", lists, outcome(symmetrize, lists, make_graph(2, [(0, 1)]))
    for i in range(2000):
        lists, conflict = random_assignment(derive_rng(0, "blocking-digest", i))
        yield "symmetrize", lists, conflict.edges, outcome(symmetrize, lists, conflict)


def test_blocking_layer_digest():
    h = hashlib.sha256()
    for line in sweep():
        h.update(repr(line).encode())
        h.update(b"\n")
    assert h.hexdigest() == BLOCKING_DIGEST
