"""Type-II insufficiency via reduced graphs, and the limit constant beta.

On K_{a,q} with every Q-list of size 2, an insufficient assignment can be
symmetrized: colors sharing the same A-list membership pattern form atoms,
conflict edges inside an atom can be dropped, and between atoms the conflict
block can be made complete or empty.  What survives is a reduced graph R on
atom patterns plus an atom-count vector x.  Insufficiency of a size vector f
is then an integer-point question: some blocking R must admit x >= 0 with
list sums covering f and pair cost sum x_I x_J over E(R) at most q.  Extra
edges only raise that cost, so only the edge-minimal blocking graphs of
each vertex set are searched (61 of the 1158 for a=3).

The integer point is searched atom by atom on a plan of index lists built
once per edge-minimal graph, on the first query for a: the multi-index
atoms in branch order with the slots of their earlier neighbours, the
atoms of each index, the edges touching a singleton, and the edges still
to be charged after each slot.  The scan puts fewer vertices first, so a
point with a zero atom lies on a graph already tried, and only points with
every atom positive are searched: each edge then costs at least 1, a graph
with more than q edges is skipped, and every edge still to be charged
counts 1 against q.  The pair cost of the atoms fixed so far is carried
down as an integer, and fixing one more atom adds its value times the sum
of its earlier neighbours, so each branch's range of values is one
division; singletons are forced to the residual demand, at least 1, at the
leaf.  The witness is the one a search of every point x >= 0 finds, in
fewer nodes.

R blocks exactly when every minimal cover of its pattern hypergraph holds
an edge.  ``is_blocking`` and one walk over labeled vertex sets take those
covers from the cached ``choosability._minimal_covers``, the routine behind
the K_{a,q} oracle's minimal transversals.  The walk asks the same routine
for the edge-minimal blocking graphs, the minimal edge sets meeting every
cover; every other blocking graph adds edges to one of them, and the
canonical representatives are a view of that list.  ``symmetrize`` groups
colors into atoms with the oracle's ``_atoms``.

Normalizing by sqrt(q) turns the same geometry into a real coverage problem
whose critical simplex size is the limit of (chi_sc2 - 2q)/sqrt(q); ``beta``
computes it by grid search over the unit face with local refinement.  Each
bilinear minimum is exact: a minimizer on a face of least dimension is the
unique stationary point of the face's affine hull, a fixed linear map of f
read from a table built once per a, so the minimum is the least cost among
the table's feasible points.

A face point matters only when it beats the best point so far, so ``beta``
abandons it as soon as one feasible table point of one relaxation gets to
or below that best, or, while the best is still lower, below the value of
the most balanced grid point, which is evaluated in full first.  The
cutoffs are exact: a value above the cutoff is the full minimum, the first
maximizer in scan order is never below that floor, and so every grid
value, refined point and ``beta`` itself is the one a full evaluation of
every point gives.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .choosability import (
    DEFAULT_BUDGET,
    ListAssignment,
    _atoms,
    _Budget,
    _meter,
    _minimal_covers,
    _ranked,
    normalize_lists,
    pad_witness,
    transversal_check,
    validate_sizes,
)
from .exact import type2_profile_search
from .graphs import Graph, as_int, as_real, bits_of, complete_bipartite


@dataclass(frozen=True)
class ReducedGraph:
    """Graph on atom patterns; a vertex is a nonempty subset of [a] encoded
    as a bitmask, an edge marks a complete conflict block between atoms."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ReducedWitness:
    reduced: ReducedGraph
    atoms: tuple[tuple[int, int], ...]  # (pattern mask, count), sorted
    cost: int


def atom_label(mask: int) -> str:
    return ",".join(str(i + 1) for i in bits_of(mask))


def phi(x: Mapping[int, int], a: int) -> tuple[int, ...]:
    """List sizes induced by atom counts: f_i = sum of x_I over patterns I
    containing i."""
    a = as_int(a, "values of a", ValueError)
    x = {as_int(I, "atom masks", ValueError): as_int(c, "atom counts", ValueError) for I, c in x.items()}
    full = (1 << a) - 1
    for mask, count in x.items():
        if not 0 < mask <= full:
            raise ValueError(f"atom mask {mask} out of range for a={a}")
        if count < 0:
            raise ValueError(f"atom count must be nonnegative, got {count}")
    return tuple(sum(c for I, c in x.items() if I >> i & 1) for i in range(a))


def _validate_reduced(r: ReducedGraph, a: int) -> None:
    full = (1 << a) - 1
    if len(set(r.vertices)) != len(r.vertices):
        raise ValueError("duplicate reduced-graph vertices")
    for v in r.vertices:
        if not 0 < as_int(v, "vertex masks", ValueError) <= full:
            raise ValueError(f"vertex mask {v} out of range for a={a}")
    vs = set(r.vertices)
    for u, v in r.edges:
        if u == v or u not in vs or v not in vs:
            raise ValueError(f"bad reduced edge ({u},{v})")
    covered = 0
    for v in r.vertices:
        covered |= v
    if covered != full:
        missing = [i + 1 for i in range(a) if not covered >> i & 1]
        raise ValueError(f"indices {missing} uncovered: their lists would be empty")


def is_blocking(r: ReducedGraph, a: int) -> bool:
    """True iff every vertex cover of the pattern hypergraph (S_i = atoms
    containing i) contains both endpoints of some edge of r.  Every cover
    contains a minimal one, so only the minimal covers are checked."""
    a = as_int(a, "values of a", ValueError)
    _validate_reduced(r, a)
    index = {v: j for j, v in enumerate(r.vertices)}
    edge_masks = [(1 << index[u]) | (1 << index[v]) for u, v in r.edges]
    return all(
        any(c & em == em for em in edge_masks) for c in _minimal_covers(tuple(r.vertices), a)
    )


def _canonical_key(
    r: ReducedGraph, a: int
) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The least (vertices, edges) key of r over all renamings of the
    indices, each sorted (an edge as its smaller mask first)."""
    keys = []
    for perm in itertools.permutations(range(a)):
        new = {v: sum(1 << perm[i] for i in bits_of(v)) for v in r.vertices}
        edges = (tuple(sorted((new[u], new[v]))) for u, v in r.edges)
        keys.append((tuple(sorted(new.values())), tuple(sorted(edges))))
    return min(keys)


def _in_scan_order(keys: Iterable[tuple]) -> tuple[ReducedGraph, ...]:
    """Reduced graphs from (vertices, edges) keys, fewest vertices first,
    then by vertices, edge count and edges."""
    return tuple(
        ReducedGraph(vertices=v, edges=e)
        for v, e in sorted(keys, key=lambda k: (len(k[0]), k[0], len(k[1]), k[1]))
    )


def _blocking_edge_sets(a: int) -> Iterator[tuple[tuple[int, ...], list[tuple[int, int]], tuple[int, ...]]]:
    """(vertices, atom pairs, edge-minimal blocking edge sets as masks over
    the pairs) for each labeled vertex set carrying a blocking graph.

    An edge set blocks iff every minimal cover holds one of its pairs, so
    the edge-minimal ones are the minimal covers of the hypergraph whose
    row c holds the pairs inside cover c.  A vertex set leaving an index
    uncovered has no covers and is skipped; a single-atom cover holds no
    pair, so nothing blocks on its vertex set, and a=1 yields nothing.
    a=4 would mean walking every graph on up to 14 atoms, beyond any
    budget, so a > 3 is a ValueError, as in ``beta``.
    """
    a = as_int(a, "values of a", ValueError)
    if a < 1:
        raise ValueError(f"need a >= 1, got {a}")
    if a > 3:
        raise ValueError(
            f"blocking graphs are enumerated for a <= 3, got {a} "
            f"(a universe of {(1 << a) - 1} atom patterns)"
        )
    for pick in range(1, 1 << ((1 << a) - 1)):
        verts = tuple(j + 1 for j in bits_of(pick))
        covers = _minimal_covers(verts, a)
        if not covers:
            continue
        pairs = list(itertools.combinations(range(len(verts)), 2))
        held = tuple(sum(1 << i for i, c in enumerate(covers) if c >> x & 1 and c >> y & 1) for x, y in pairs)
        minimal = _minimal_covers(held, len(covers))
        if minimal:
            yield verts, [(verts[x], verts[y]) for x, y in pairs], minimal


@functools.cache
def blocking_orbits(a: int) -> tuple[ReducedGraph, ...]:
    """Every blocking reduced graph for a, labeled, in scan order: on each
    vertex set of ``_blocking_edge_sets``, every edge set holding one of its
    edge-minimal ones (blocking is closed upward in edges)."""
    return _in_scan_order(
        (verts, tuple(pairs[k] for k in bits_of(emask)))
        for verts, pairs, minimal in _blocking_edge_sets(a)
        for emask in range(1, 1 << len(pairs))
        if any(emask & m == m for m in minimal)
    )


def enumerate_blocking(a: int) -> tuple[ReducedGraph, ...]:
    """All blocking reduced graphs for a, one canonical representative per
    orbit of index permutations, in scan order."""
    return _in_scan_order({_canonical_key(r, a) for r in blocking_orbits(a)})


@functools.cache
def _minimal_blocking(a: int) -> tuple[ReducedGraph, ...]:
    """The edge-minimal blocking graphs of ``_blocking_edge_sets`` for a,
    labeled, in scan order (their order in blocking_orbits(a)).  Deleting an
    edge only lowers the pair cost, so these decide every type-II question;
    61 of the 1158 graphs for a=3."""
    return _in_scan_order(
        (verts, tuple(pairs[k] for k in bits_of(m)))
        for verts, pairs, minimal in _blocking_edge_sets(a)
        for m in minimal
    )


# ---------------------------------------------------------------------------
# Symmetrization of an insufficient type-II assignment


def _assignment_insufficient(LA: Sequence[frozenset[int]], adj: Mapping[int, set[int]]) -> bool:
    """No transversal of LA avoids every conflict edge."""
    return transversal_check(LA, [frozenset((u, v)) for u in adj for v in adj[u] if u < v]) is None


def symmetrize(
    LA: Iterable[Iterable[int]], conflict: Graph
) -> tuple[dict[int, int], ReducedGraph]:
    """Symmetrize an insufficient type-II assignment; returns atom counts and
    the reduced graph.

    Within an atom no minimal transversal uses two colors, so in-atom edges
    go; copying the smallest neighborhood across each atom keeps every
    transversal conflicted while making blocks complete or empty.  Edge
    count never grows.  Raises if an A-list is empty or the input
    assignment is colorable, and re-verifies insufficiency of the symmetric
    result.
    """
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

    for members in atoms.values():
        for u, v in itertools.combinations(members, 2):
            adj[u].discard(v)
            adj[v].discard(u)
    # One pass suffices: copying across an atom adds no edge inside it, and
    # the source sees each earlier atom whole or not at all, so every atom
    # copied before stays uniform.
    for mask in sorted(atoms):
        members = atoms[mask]
        source = min(members, key=lambda c: (len(adj[c]), c))
        target = set(adj[source])
        for c in members:
            for w in adj[c] - target:
                adj[w].discard(c)
            for w in target - adj[c]:
                adj[w].add(c)
            adj[c] = set(target)

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


# ---------------------------------------------------------------------------
# Integer witness search


class _Plan(NamedTuple):
    """Index lists of one blocking graph for ``_integer_point``.  Slot k < m
    holds the k-th multi-index atom in branch order (-popcount, mask); the
    singleton atoms follow in mask order.  ``later[k]`` counts the edges
    charged after multi slot k, to later multi slots or at the leaf: with
    every atom at least 1, each adds at least 1 to the cost."""

    masks: tuple[int, ...]  # the atom in each slot
    back: tuple[tuple[int, ...], ...]  # per multi slot: the slots of its earlier multi neighbours
    rows: tuple[tuple[tuple[int, ...], int | None], ...]  # per index: its multi slots, its singleton slot
    single_edges: tuple[tuple[int, int], ...]  # slot pairs of the edges touching a singleton
    later: tuple[int, ...]  # per multi slot: the edges charged after it


def _plan(r: ReducedGraph, a: int) -> _Plan:
    multi = sorted((v for v in r.vertices if v.bit_count() >= 2), key=lambda v: (-v.bit_count(), v))
    masks = tuple(multi + sorted(v for v in r.vertices if v.bit_count() == 1))
    slot = {v: k for k, v in enumerate(masks)}
    nbrs: list[list[int]] = [[] for _ in masks]
    for u, v in r.edges:
        nbrs[slot[u]].append(slot[v])
        nbrs[slot[v]].append(slot[u])
    back = tuple(tuple(sorted(j for j in nbrs[k] if j < k)) for k in range(len(multi)))
    rows = tuple(
        (tuple(k for k, v in enumerate(multi) if v >> i & 1), slot.get(1 << i)) for i in range(a)
    )
    single_edges = tuple(
        (slot[u], slot[v]) for u, v in r.edges if u.bit_count() == 1 or v.bit_count() == 1
    )
    later = tuple(len(r.edges) - sum(map(len, back[: k + 1])) for k in range(len(multi)))
    return _Plan(masks, back, rows, single_edges, later)


@functools.cache
def _minimal_plans(a: int) -> tuple[_Plan, ...]:
    """The plan of each graph of _minimal_blocking(a), in its order; built on
    the first type-II query for a."""
    return tuple(_plan(r, a) for r in _minimal_blocking(a))


def _integer_point(
    plan: _Plan, f: Sequence[int], q: int, meter: _Budget
) -> tuple[tuple[tuple[int, int], ...], int] | None:
    """(atoms, cost) of the first integer x >= 1 on the plan's graph with
    phi(x) >= f and pair cost sum x_I x_J over its edges at most q; None if
    there is none.

    Only points with every atom positive are searched, which is sound only
    in ``type2_insufficient``'s scan: a point of R with some x_v = 0 is
    infeasible when v alone holds an index, and otherwise lies on R
    restricted to V(R) - v, which blocks on that vertex set and so holds an
    edge-minimal blocking graph the scan has already tried, as it puts
    fewer vertices first.

    Branches only over atoms of two or more indices, each from 1 up;
    singleton atoms are forced to the residual demand, at least 1,
    afterwards.  Coordinates are capped at max(f): any larger coordinate
    alone already covers its rows, so truncating it keeps phi(x) >= f and
    can only lower the cost.  The cost of the edges among the atoms fixed
    so far is carried down the search: fixing the next atom to val adds
    val * s, with s the sum of its earlier neighbours' values, and each of
    the ``later`` edges still to be charged adds at least 1, so the values
    tried stop at the last one keeping that total at most q, and a branch
    with no such value is cut.  The singleton edges are added once the
    singletons are forced.  Each search node ticks the meter.
    """
    masks, back, rows, single_edges, later = plan
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
                    x[single] = need if need > 1 else 1
                elif need > 0:
                    return None
            for u, v in single_edges:
                partial += x[u] * x[v]
            return partial if partial <= q else None
        s = 0
        for k in back[idx]:
            s += x[k]
        room = q - partial - later[idx]
        if room < s:
            return None
        top = cap if s == 0 else min(cap, room // s)
        for val in range(1, top + 1):
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
    return tuple(sorted(zip(masks, x))), cost


def type2_insufficient(
    f_A: Sequence[int], q: int, *, budget: int | _Budget = DEFAULT_BUDGET
) -> ReducedWitness | None:
    """Reduced witness (blocking R, atom counts, cost <= q) certifying that
    the type-II function (f_A on A, 2 on Q) is insufficient on K_{a,q};
    None exactly when the function is sufficient.

    Uses the downward-closed criterion phi(x) >= f: materializing the atoms
    and shrinking the A-lists to the exact sizes keeps the assignment
    insufficient, so the relaxation is still sound and complete.

    Scans only the edge-minimal blocking graphs, in blocking_orbits order.
    The witness is the one a scan of every blocking graph would return: a
    graph with a witness and a blocking proper edge-subset on its vertex
    set sorts after that subset, which admits the same x at no greater
    cost, so the first graph with a witness is edge-minimal.

    The scan puts fewer vertices first, so when it reaches R every graph on
    a smaller vertex set has failed, and with it every point of R with a
    zero atom (see ``_integer_point``).  So each graph is searched for
    points with every atom positive only; they cost at least one per edge,
    and a graph with more than q edges is skipped unsearched.

    ``budget`` caps the search nodes; a meter shared by several calls may
    be passed instead, and each call draws it down.
    """
    f = validate_sizes(f_A)
    q = as_int(q, "values of q", ValueError)
    if q < 0:
        raise ValueError(f"need q >= 0, got {q}")
    meter = _meter(budget)
    for r, plan in zip(_minimal_blocking(len(f)), _minimal_plans(len(f))):
        if len(r.edges) <= q:
            found = _integer_point(plan, f, q, meter)
            if found is not None:
                return ReducedWitness(r, *found)
    return None


def materialize_reduced_witness(
    witness: ReducedWitness, f_A: Sequence[int], q: int
) -> tuple[Graph, ListAssignment]:
    """Expand a reduced witness into a concrete insufficient assignment on
    K_{a,q}: atoms become color blocks, each reduced edge becomes the full
    set of cross pairs as Q-lists, A-lists shrink to the exact sizes, and
    surplus Q-vertices get fresh pairs."""
    f, q = validate_sizes(f_A), as_int(q, "values of q", ValueError)
    a = len(f)
    counts = dict(witness.atoms)
    start: dict[int, int] = {}
    base = 0
    for mask in sorted(counts):
        start[mask] = base
        base += counts[mask]
    a_lists = []
    for i in range(a):
        pool: list[int] = []
        for mask in sorted(counts):
            if mask >> i & 1:
                pool.extend(range(start[mask], start[mask] + counts[mask]))
        if len(pool) < f[i]:
            raise ValueError(f"witness does not cover f[{i}]={f[i]}")
        a_lists.append(frozenset(sorted(pool)[: f[i]]))
    q_lists: list[frozenset[int]] = []
    for u, v in sorted(witness.reduced.edges):
        cu, cv = counts.get(u, 0), counts.get(v, 0)
        for x in range(start.get(u, 0), start.get(u, 0) + cu):
            for y in range(start.get(v, 0), start.get(v, 0) + cv):
                q_lists.append(frozenset((x, y)))
    if len(q_lists) > q:
        raise ValueError(f"witness cost {len(q_lists)} exceeds q={q}")
    lists = dict(enumerate(a_lists + q_lists))
    return complete_bipartite(a, q), pad_witness(lists, f + (2,) * q, base)


def chi_sc2_reduced(a: int, q: int, *, budget: int = DEFAULT_BUDGET) -> int:
    """Type-II sum choice number via the reduced-graph criterion: 2q plus
    the least A-total whose size vector admits no reduced witness.

    One budget of search nodes covers every profile; when it runs out,
    BudgetExceededError carries the bracket of totals still open."""
    meter = _Budget(budget)
    return type2_profile_search(a, q, lambda fa: type2_insufficient(fa, q, budget=meter) is not None)


# ---------------------------------------------------------------------------
# The limit constant beta


_Entry = tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[float, ...], ...]]  # (S, T, B)


@dataclass(frozen=True)
class _Relaxation:
    """A blocking graph prepped for the continuous problem, by vertex index:
    edges, rows (row i holds the vertices containing i), and the face table
    of (support S, tight rows T, map B) entries, one per nonsingular KKT
    system, each giving the stationary point x_S = B f_T of its face."""

    verts: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    rows: tuple[tuple[int, ...], ...]
    table: tuple[_Entry, ...]


def _solve(aug: list[list[float]]) -> list[list[float]] | None:
    """Gauss-Jordan elimination with partial pivoting on an augmented n x
    (n + k) matrix [m | rhs]; the k solution columns, or None when m is
    singular.  The entries of m are 0/1 and it has at most 9 rows, so each
    nonzero pivot, a ratio of integer minors, is at least 1/56, and a pivot
    below 1e-9 means singular."""
    n = len(aug)
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if abs(aug[pivot][col]) < 1e-9:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _face_table(
    nv: int, edges: Sequence[tuple[int, int]], rows: Sequence[Sequence[int]]
) -> list[_Entry]:
    """Every (S, T, B) whose KKT matrix [[A_SS, M_TS^T], [M_TS, 0]] is
    nonsingular, where A is the adjacency matrix and M_TS the rows T
    restricted to the support S; then x_S = B f_T solves it."""
    adj = [[float((u, v) in edges or (v, u) in edges) for v in range(nv)] for u in range(nv)]
    row_masks = [sum(1 << j for j in row) for row in rows]
    table = []
    for tmask in range(1, 1 << len(rows)):
        tight = bits_of(tmask)
        cover = 0
        for i in tight:
            cover |= row_masks[i]
        for smask in range(1, 1 << nv):
            # A row of T missing S is a zero row of the KKT matrix.  And at a
            # least-dimension minimizer every support atom lies in a tight
            # row, or it could be lowered; any maximal independent subset of
            # the tight rows spans each tight row, so it covers the same atoms.
            if smask & ~cover or any(not row_masks[i] & smask for i in tight):
                continue
            support = bits_of(smask)
            pad = [0.0] * len(tight)
            kkt = [
                [adj[j][k] for k in support] + [float(row_masks[i] >> j & 1) for i in tight] + pad
                for j in support
            ] + [
                [float(row_masks[i] >> k & 1) for k in support] + pad + [float(i == u) for u in tight]
                for i in tight
            ]
            solved = _solve(kkt)
            if solved is not None:
                table.append((tuple(support), tuple(tight), tuple(map(tuple, solved[: len(support)]))))
    return table


@functools.cache
def _prep_relaxations(a: int) -> tuple[_Relaxation, ...]:
    """The edge-minimal blocking graphs (removing edges can only lower the
    bilinear cost) prepped for the continuous problem, ordered
    cheapest-looking first."""
    keep = sorted(
        _minimal_blocking(a),
        key=lambda r: (len(r.edges), len(r.vertices), r.vertices, r.edges),
    )
    prepped = []
    for r in keep:
        index = {v: j for j, v in enumerate(r.vertices)}
        edges = tuple((index[u], index[v]) for u, v in r.edges)
        rows = tuple(tuple(j for j, v in enumerate(r.vertices) if v >> i & 1) for i in range(a))
        table = tuple(_face_table(len(r.vertices), edges, rows))
        prepped.append(_Relaxation(r.vertices, edges, rows, table))
    return tuple(prepped)


def _min_bilinear(rel: _Relaxation, f: Sequence[float], cutoff: float = -math.inf) -> float:
    """min over x >= 0 (supported on V(R)) of sum_{IJ in E(R)} x_I x_J
    subject to every row sum covering f, read from the face table.

    The cost is bounded below on the feasible polyhedron, so it attains its
    minimum; on a face of least dimension holding a minimizer, that
    minimizer is the unique stationary point of the face's affine hull, the
    x_S = B f_T of some entry.  So the least cost over the feasible entries
    (x >= 0 and every row covered, up to a float slack of 1e-12) is the
    exact minimum.

    The first entry whose cost is <= ``cutoff`` is returned at once: the
    minimum is then known to be that low, which is all a caller with that
    cutoff asks.  A value above ``cutoff`` is the minimum.
    """
    best = math.inf
    for support, tight, b in rel.table:
        x = [0.0] * len(rel.verts)
        for j, coefs in zip(support, b):
            x[j] = sum([c * f[i] for c, i in zip(coefs, tight)])
        if min(x) < -1e-12 or any(sum([x[j] for j in row]) < fi - 1e-12 for fi, row in zip(f, rel.rows)):
            continue
        cost = max(0.0, sum([x[u] * x[v] for u, v in rel.edges]))  # slack-negative x: cost stays >= 0
        if cost <= cutoff:
            return cost
        if cost < best:
            best = cost
    return best


class _FaceCost:
    """The min over blocking relaxations of the exact bilinear minimum at
    points of the face, for one ``beta`` call.  Complete relaxation values
    are memoized, and the relaxation that last cut a point is tried first."""

    def __init__(self, a: int) -> None:
        self.relaxations = _prep_relaxations(a)
        self.order = list(range(len(self.relaxations)))
        self.memo: dict[tuple[int, tuple[float, ...]], float] = {}

    def __call__(self, f: Sequence[float], cutoff: float = -math.inf) -> float:
        """The minimum at f; or, once some relaxation is known to reach
        ``cutoff`` or below, a value <= cutoff at once.  A value above
        ``cutoff`` is always the exact minimum, whatever the order."""
        key = tuple(f)
        best = math.inf
        for pos, r in enumerate(self.order):
            value = self.memo.get((r, key))
            if value is None:
                value = _min_bilinear(self.relaxations[r], f, cutoff)
                if value > cutoff:
                    self.memo[r, key] = value
            if value <= cutoff:
                self.order.insert(0, self.order.pop(pos))
                return value
            if value < best:
                best = value
        return best


def _face_grid(a: int, n: int) -> list[tuple[float, ...]]:
    pts = []
    for combo in itertools.combinations_with_replacement(range(a), n):
        counts = [0] * a
        for i in combo:
            counts[i] += 1
        pts.append(tuple(c / n for c in counts))
    return pts


def beta(a: int, tolerance: float = 1e-4, *, grid: int = 32, refine: bool = True) -> float:
    """Largest k whose simplex {f >= 0, sum f <= k} lies inside the union of
    the normalized insufficiency regions; equals the limit of
    (chi_sc2(K_{a,q}) - 2q)/sqrt(q).

    Cost scales quadratically along rays, so coverage of the whole simplex
    reduces to the worst point of the unit face: beta = M^{-1/2} where M is
    the max over the face of the min over blocking R of the bilinear
    minimum.  The face is scanned on a grid and the maximum refined locally;
    coarser grids can only report a larger k (fewer points to cover).

    A point only matters if it beats the best so far, so each one is
    evaluated with that best as a cutoff and abandoned once some feasible
    table point of some relaxation gets to or below it.  Before the scan, the most
    balanced grid point is evaluated in full as a floor, and points below
    the floor are abandoned too: the first maximizer in scan order is never
    below it.  Refinement cuts at best + 1e-15, its own update threshold.
    Every cut is exact: the result is the one a full evaluation of every
    point would give.
    """
    a, grid = as_int(a, "values of a", ValueError), as_int(grid, "grid sizes", ValueError)
    if a not in (2, 3):
        raise ValueError(f"beta is computed for a in {{2, 3}}, got {a}")
    tolerance = as_real(tolerance, "tolerances")
    if not math.isfinite(tolerance) or tolerance <= 0:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    if grid < 2:
        raise ValueError(f"grid must have at least 2 points per dimension, got {grid}")
    cost = _FaceCost(a)
    points = _face_grid(a, grid)
    below_floor = math.nextafter(cost(min(points, key=lambda f: max(f) - min(f))), -math.inf)
    best_val = -math.inf
    best_f: tuple[float, ...] = ()
    for f in points:
        cutoff = max(best_val, below_floor)
        val = cost(f, cutoff)
        if val > cutoff:
            best_val = val
            best_f = f
    if best_val == 0.0:
        raise ValueError(f"grid {grid} is too coarse for a={a}: every face point costs 0")
    if refine:
        h = 1.0 / grid
        prev_beta = best_val ** -0.5
        for _ in range(80):
            improved = False
            for i in range(a):
                for j in range(a):
                    if i == j:
                        continue
                    cand = list(best_f)
                    cand[i] += h
                    cand[j] -= h
                    if cand[j] < -1e-12:
                        continue
                    cand[j] = max(cand[j], 0.0)
                    threshold = best_val + 1e-15
                    val = cost(cand, threshold)
                    if val > threshold:
                        best_val = val
                        best_f = tuple(cand)
                        improved = True
            if not improved:
                new_beta = best_val ** -0.5
                if abs(new_beta - prev_beta) < tolerance and h < 1.0 / grid:
                    break
                prev_beta = new_beta
                h /= 2.0
                if h < tolerance / 16.0 and h < 1e-7:
                    break
    return best_val ** -0.5


# ---------------------------------------------------------------------------
# Serialization for the CLI


def reduced_witness_to_json(w: ReducedWitness) -> dict:
    return {
        "R": {
            "vertices": [atom_label(v) for v in w.reduced.vertices],
            "edges": [[atom_label(u), atom_label(v)] for u, v in w.reduced.edges],
        },
        "x": {atom_label(mask): count for mask, count in w.atoms},
        "cost": w.cost,
    }
