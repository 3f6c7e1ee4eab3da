"""Every witness builder's output on a fixed sweep, pinned by one sha256.

The sweep covers both transversal oracles, ``is_sufficient`` on labeled and
unlabeled graphs, ``lb_witness``, ``split_witness``, the materialized type-II
witnesses, both type-II drivers (values, and the message and bracket when the
budget runs out) and the exact driver's recorded witnesses.  Each output is
written as one canonical line (sets as sorted lists), so the digest changes
exactly when some verdict, witness, budget count or bracket does.
"""

import hashlib
import itertools

from sumchoice.bipartite import lb_witness
from sumchoice.choosability import (
    BudgetExceededError,
    bipartite_is_sufficient,
    is_sufficient,
    split_is_sufficient,
)
from sumchoice.exact import sorted_profiles, sum_choice_exact, sum_choice_type2_exact
from sumchoice.graphs import complete_bipartite, complete_split, cycle, make_graph, random_graph
from sumchoice.rng import derive_rng
from sumchoice.turan import split_witness
from sumchoice.type2 import chi_sc2_reduced, materialize_reduced_witness, type2_insufficient

# Re-pinned when every generic search call began to tick: only the generic
# verdicts' ``checked`` moved; with ``checked`` left out of each line, the
# sweep hashes the same before and after.  Re-pinned again when a memo hit
# stopped ticking the units of its first run: ``checked`` and
# ``budget_used`` fell, and with both left out the sweep differs in two
# budget-10 ``sum_choice_type2_exact`` lines, which now reach further:
# K_{2,2} returns 8, and K_{2,5}'s bracket moves from (13, 22) to (14, 22).
WITNESS_DIGEST = "ee9143c2bda0ae6a9ecf3484a6dc99f2c0a6651a3921377b254d77e027f51390"


def canon(obj):
    if isinstance(obj, frozenset):
        return sorted(obj)
    if isinstance(obj, (tuple, list)):
        return [canon(x) for x in obj]
    if isinstance(obj, dict):
        return sorted((canon(k), canon(v)) for k, v in obj.items())
    return obj


def relabeled(g, perm):
    parts = tuple(tuple(perm[v] for v in side) for side in g.parts)
    return make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges], parts=parts)


def verdict_line(v):
    return (v.status, canon(v.witness), v.checked)


def driver_line(run, *args, **kwargs):
    try:
        return ("value", run(*args, **kwargs))
    except BudgetExceededError as err:
        return ("undecided", str(err), err.bracket)


def sweep():
    for a, q in itertools.product(range(1, 4), repeat=2):
        for fa in itertools.product(range(1, 4), repeat=a):
            for fq in itertools.product(range(1, 4), repeat=q):
                for oracle in (bipartite_is_sufficient, split_is_sufficient):
                    yield oracle.__name__, fa, fq, verdict_line(oracle(fa, fq))
    for oracle in (bipartite_is_sufficient, split_is_sufficient):
        yield oracle.__name__, "budget", verdict_line(oracle((3, 3, 3), (2,) * 4, budget=50))

    graphs = [
        complete_bipartite(2, 3),
        complete_split(2, 3),
        relabeled(complete_bipartite(2, 5), [2, 3, 1, 4, 5, 0, 6]),
        cycle(5),
        random_graph(6, 8, 1),
    ]
    for gi, g in enumerate(graphs):
        for f in itertools.product(range(3), repeat=g.n):
            yield "is_sufficient", gi, f, verdict_line(is_sufficient(g, f))

    for a, q in itertools.product(range(1, 5), repeat=2):
        for fa in itertools.product(range(1, 4), repeat=a):
            for fq in itertools.product(range(1, 4), repeat=q):
                yield "lb_witness", fa, fq, canon(lb_witness(fa, fq, q))
    for trial in range(200):
        rng = derive_rng(0, "witness-digest-lb", trial)
        a, q = rng.randint(4, 9), rng.randint(2, 24)
        fa = [rng.randint(1, 7) for _ in range(a)]
        fq = [rng.choice((1, 2, 2, 2, 3)) for _ in range(q)]
        yield "lb_witness", fa, fq, canon(lb_witness(fa, fq, q))

    for a in range(1, 5):
        for s_vec in itertools.combinations_with_replacement(range(1, 7), a):
            for q in range(1, 13):
                yield "split_witness", s_vec, q, canon(split_witness(s_vec, q))

    for a in (2, 3):
        for q in range(1, 7):
            for total in range(a, 4 * a + 1):
                for fa in sorted_profiles(total, a, 4):
                    w = type2_insufficient(fa, q)
                    lists = None if w is None else materialize_reduced_witness(w, fa, q)[1]
                    yield "type2", fa, q, canon(w and (w.reduced.vertices, w.reduced.edges, w.atoms, w.cost)), canon(lists)

    for a, q in [(1, 3), (2, 2), (2, 5), (3, 2), (3, 4)]:
        for budget in (10, 100, 1000):
            for run in (sum_choice_type2_exact, chi_sc2_reduced):
                yield run.__name__, a, q, budget, driver_line(run, a, q, budget=budget)

    for g in [
        complete_bipartite(2, 3),
        complete_split(2, 3),
        relabeled(complete_bipartite(2, 4), [4, 1, 0, 2, 5, 3]),
        relabeled(complete_split(2, 3), [3, 0, 4, 1, 2]),
    ]:
        res = sum_choice_exact(g, record_witnesses=True)
        yield "sum_choice_exact", g.parts, res.value, res.optimal_f, res.budget_used, canon(res.witnesses)


def test_witness_outputs_pinned():
    h = hashlib.sha256()
    for line in sweep():
        h.update(repr(line).encode() + b"\n")
    assert h.hexdigest() == WITNESS_DIGEST
