"""Choosability oracle: list-coloring search and exhaustive sufficiency tests.

``is_sufficient`` is the ground truth the rest of the package leans on.  The
generic path enumerates list assignments up to color relabeling (each class
is a multiset of membership patterns, walked as submasks of the vertices
still needing colors) and backtracks a coloring for each, both on bitmasks:
a list is an int with bit c set for color c.  Before that it takes one
vertex-deletion step on the peeled core, recursively and memoized within
the call.  If a core vertex v has f(v) = 1, only the first such v is
deleted, with f one less on N(v), and that answer is final: f is sufficient
on the core iff the lowered f is on core-v (color v first and drop its
color from the neighbors' lists), and a neighbor left at 0 makes f
insufficient at once.  Otherwise every v is tried with f unchanged: f
sufficient on the core implies it on core-v.  A failing assignment of
core-v lifts the same way in both cases, by fresh colors c, c+1, ... in
L(v) and, when f(v) = 1, c in every neighbor's list.  Once every core-v is
sufficient, a class in which some color lies in one list L(v) only is
colorable (color core-v, then give v that color), so only classes whose
patterns all have two or more vertices are enumerated.  For labeled
complete bipartite / complete split graphs it switches to a transversal
formulation.  The same peel first drops every vertex with more colors than
live neighbors, part by part, which leaves a smaller K_{a',q'} or G_{a',q'}
(or nothing: sufficient at no cost).  On that core it enumerates the shapes
of the A-side lists, computes the candidate A-color sets (minimal
transversals on K_{a,q}, SDR images on G_{a,q}; the search is otherwise one
and the same), and searches for Q-side lists that block them all; the core
A-lists and the blockers become a witness by fresh colors everywhere else.
The minimal transversals are picks from the minimal covers of the atom
patterns, the one cover routine ``type2`` uses too.
Both paths report an explicit ``undecided`` verdict when the budget runs out.

Every witness in the package, here and in the constructions of the other
modules, gives its free vertices fresh colors through one ``pad_witness``
call.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .graphs import Graph, bits_of

SizeFunction = tuple[int, ...]
ListAssignment = tuple[frozenset[int], ...]
ColoringWitness = tuple[int, ...]

DEFAULT_BUDGET = 100_000_000


class BudgetExceededError(RuntimeError):
    """Search budget ran out; carries a bracketing interval when known."""

    def __init__(self, message: str, bracket: tuple[int, int | None] | None = None):
        super().__init__(message)
        self.bracket = bracket


@dataclass(frozen=True)
class Verdict:
    """Outcome of a sufficiency test.

    ``status`` is one of ``sufficient``, ``insufficient``, ``undecided``;
    a witness (an f-assignment with no proper coloring) accompanies every
    insufficient verdict.  ``checked`` counts the work that ticks the
    budget: enumerated classes on the generic path (the exact removal of
    f = 1 vertices ticks none), A-side shapes and blocker-search nodes on
    the transversal path.  The peel ticks none on either path.
    """

    status: str
    witness: ListAssignment | None = None
    checked: int = 0

    def __post_init__(self):
        if self.status not in ("sufficient", "insufficient", "undecided"):
            raise ValueError(f"bad verdict status {self.status!r}")


def normalize_lists(lists: Iterable[Iterable[int]], n: int | None = None) -> ListAssignment:
    out = tuple(frozenset(int(c) for c in L) for L in lists)
    if n is not None and len(out) != n:
        raise ValueError(f"expected {n} lists, got {len(out)}")
    return out


def validate_sizes(f: Sequence[int], n: int | None = None, minimum: int = 1) -> SizeFunction:
    out = tuple(int(s) for s in f)
    if n is not None and len(out) != n:
        raise ValueError(f"expected {n} list sizes, got {len(out)}")
    if any(s < minimum for s in out):
        raise ValueError(f"list sizes must be >= {minimum}: {out}")
    return out


# ---------------------------------------------------------------------------
# Coloring from concrete lists


def color_from_lists(g: Graph, lists: Iterable[Iterable[int]]) -> ColoringWitness | None:
    """Proper coloring choosing each vertex's color from its list, or None.

    Colors are ranked in ascending order into bit positions and searched by
    ``_color_masks``, so they are tried in ascending order.
    """
    lists = normalize_lists(lists, g.n)
    palette = sorted(set().union(*lists))
    rank = {c: i for i, c in enumerate(palette)}
    found = _color_masks(g.adj, [sum(1 << rank[c] for c in L) for L in lists])
    return None if found is None else tuple(palette[m.bit_length() - 1] for m in found)


def _color_masks(adj: Sequence[int], lists: Sequence[int]) -> list[int] | None:
    """A proper coloring as one-bit masks, each inside its vertex's list mask,
    or None.  Backtracking on the vertex with fewest options (list less its
    colored neighbors' colors; ties to the lowest index), lowest bit first."""
    color = [0] * len(lists)

    def walk(left: int, opts: list[int]) -> bool:
        if not left:
            return True
        pick, fewest = -1, None
        for v in bits_of(left):
            k = opts[v].bit_count()
            if fewest is None or k < fewest:
                if not k:
                    return False
                pick, fewest = v, k
        rest = left ^ (1 << pick)
        near = bits_of(adj[pick] & rest)
        untried = opts[pick]
        while untried:
            c = untried & -untried
            untried ^= c
            color[pick] = c
            nxt = opts[:]
            for u in near:
                nxt[u] &= ~c
            if walk(rest, nxt):
                return True
        return False

    return color if walk((1 << len(lists)) - 1, list(lists)) else None


# ---------------------------------------------------------------------------
# Canonical enumeration of f-assignments
#
# A class of f-assignments modulo color relabeling is exactly a multiset of
# nonempty membership patterns (pattern = the set of vertices whose lists
# share that color), with each vertex v appearing in f(v) patterns.  At most
# sum(f) colors ever occur, so the enumeration below is complete.


def enumerate_canonical_assignments(
    f: Sequence[int], *, min_pattern_size: int = 1
) -> Iterator[ListAssignment]:
    """One representative per color-relabeling class of f-assignments.

    Patterns are emitted in decreasing bitmask order with multiplicities
    tried high-to-low; colors are numbered in order of first appearance.
    The stream order is deterministic.

    Only patterns of at least ``min_pattern_size`` vertices are used, so
    ``min_pattern_size=2`` yields, in the same order, exactly the classes in
    which no color lies in a single list.
    """
    for masks in _class_masks(validate_sizes(f), min_pattern_size):
        yield tuple(frozenset(bits_of(m)) for m in masks)


def _class_masks(f: SizeFunction, min_pattern_size: int) -> Iterator[tuple[int, ...]]:
    """The classes of ``enumerate_canonical_assignments``, in its order, as
    one list mask per vertex: bit c is color c."""
    n = len(f)
    rem = list(f)
    lists = [0] * n

    def rec(live: int, below: int, color: int) -> Iterator[tuple[int, ...]]:
        # The next pattern is a submask of the vertices still needing colors
        # (``live``), smaller than the last one, and holds the highest live
        # vertex: every later pattern is smaller still, so none could.
        if not live:
            yield tuple(lists)
            return
        top = 1 << (live.bit_length() - 1)
        pattern = live
        while pattern >= top:
            if pattern < below and pattern.bit_count() >= min_pattern_size:
                members = bits_of(pattern)
                for k in range(min(rem[v] for v in members), 0, -1):
                    block = ((1 << k) - 1) << color
                    done = 0
                    for v in members:
                        lists[v] |= block
                        rem[v] -= k
                        if not rem[v]:
                            done |= 1 << v
                    yield from rec(live & ~done, pattern, color + k)
                    for v in members:
                        lists[v] ^= block
                        rem[v] += k
            pattern = (pattern - 1) & live

    yield from rec((1 << n) - 1, 1 << n, 0)


# ---------------------------------------------------------------------------
# Transversal check (complete bipartite semantics)


def transversal_check(
    LA: Iterable[Iterable[int]], LQ: Iterable[Iterable[int]]
) -> frozenset[int] | None:
    """A set T hitting every A-list with no Q-list fully inside T, or None.

    On K_{a,q} such a T exists iff the assignment is colorable: color A from
    T and each Q-vertex from its list's leftover.  Q-lists of any size are
    allowed; T must merely avoid containing one whole.
    """
    LA = [frozenset(L) for L in LA]
    LQ = [frozenset(L) for L in LQ]
    if any(not L for L in LA) or any(not L for L in LQ):
        return None  # an empty list can never be satisfied
    order = sorted(range(len(LA)), key=lambda i: (len(LA[i]), i))

    def rec(idx: int, T: set[int]) -> frozenset[int] | None:
        if idx == len(order):
            return frozenset(T)
        L = LA[order[idx]]
        if T & L:
            return rec(idx + 1, T)
        for c in sorted(L):
            T.add(c)
            if not any(Lq <= T for Lq in LQ):
                got = rec(idx + 1, T)
                if got is not None:
                    return got
            T.remove(c)
        return None

    return rec(0, set())


# ---------------------------------------------------------------------------
# Candidate transversal sets


def _atoms(LA: Sequence[frozenset[int]]) -> dict[int, list[int]]:
    """The colors of LA grouped by membership pattern (bit i set when the
    color lies in LA[i]): pattern -> ascending colors, patterns in order of
    their first color."""
    pattern: dict[int, int] = {}
    for i, L in enumerate(LA):
        for c in L:
            pattern[c] = pattern.get(c, 0) | 1 << i
    atoms: dict[int, list[int]] = {}
    for c in sorted(pattern):
        atoms.setdefault(pattern[c], []).append(c)
    return atoms


@functools.cache
def _minimal_covers(verts: tuple[int, ...], a: int) -> tuple[int, ...]:
    """The minimal vertex covers of the pattern hypergraph on verts (row i
    holds the atoms containing i), ascending, as masks over positions in
    verts: none when verts leave an index uncovered, the empty cover alone
    when a = 0.  Every minimal cover takes one atom of each row that the
    atoms taken before it miss, and is minimal when no one-atom deletion
    still covers (covers are closed upward)."""
    rows = [sum(1 << j for j, v in enumerate(verts) if v >> i & 1) for i in range(a)]
    found = {0}
    for row in rows:
        found = {c if c & row else c | 1 << j for c in found for j in bits_of(row)}
    return tuple(
        sorted(c for c in found if not any(all(c & ~(1 << j) & row for row in rows) for j in bits_of(c)))
    )


def minimal_transversal_sets(LA: Sequence[frozenset[int]]) -> list[frozenset[int]]:
    """The minimal sets hitting every list of LA, by size, then colors: one
    color of each atom of a minimal cover of the atom patterns (a minimal
    transversal never holds two colors of one atom)."""
    atoms = _atoms(LA)
    groups = list(atoms.values())
    found = [
        frozenset(pick)
        for c in _minimal_covers(tuple(atoms), len(LA))
        for pick in itertools.product(*(groups[j] for j in bits_of(c)))
    ]
    return sorted(found, key=lambda T: (len(T), sorted(T)))


def sdr_image_sets(LA: Sequence[frozenset[int]]) -> list[frozenset[int]]:
    """Images of systems of distinct representatives (one per list, all
    distinct); these are the candidate A-color sets on a complete split
    graph, where the A-side is a clique."""
    found = {T for pick in itertools.product(*LA) if len(T := frozenset(pick)) == len(LA)}
    return sorted(found, key=lambda T: (len(T), sorted(T)))


# ---------------------------------------------------------------------------
# Adversarial Q-side search: can q lists of the given sizes block every
# candidate transversal?  (A list blocks T when it lies fully inside T.)


class _Budget:
    __slots__ = ("left", "used")

    def __init__(self, cap: int):
        self.left = cap
        self.used = 0

    def tick(self, amount: int = 1) -> None:
        self.left -= amount
        self.used += amount
        if self.left < 0:
            raise BudgetExceededError("sufficiency search budget exceeded")


def _blocking_family(
    targets: list[frozenset[int]], size_counts: Counter, budget: _Budget
) -> list[frozenset[int]] | None:
    """Distinct blocker sets, at most size_counts[s] of each size s, covering
    every target (each target must contain some blocker); None if impossible."""
    counts = Counter(size_counts)

    def rec(uncovered: list[frozenset[int]], chosen: list[frozenset[int]]):
        budget.tick()
        if not uncovered:
            return chosen
        if not counts:
            return None
        T = uncovered[0]
        for size in sorted(counts):
            if counts[size] <= 0 or size > len(T):
                continue
            for combo in itertools.combinations(sorted(T), size):
                e = frozenset(combo)
                counts[size] -= 1
                if counts[size] == 0:
                    del counts[size]
                got = rec([U for U in uncovered if not e <= U], chosen + [e])
                counts[size] += 1
                if got is not None:
                    return got
        return None

    return rec(targets, [])


def bipartite_is_sufficient(
    a_sizes: Sequence[int], q_sizes: Sequence[int], *, budget: int = DEFAULT_BUDGET
) -> Verdict:
    """Exhaustive sufficiency decision on K_{a,q} via the transversal view.

    First peels: a Q-vertex with more colors than live A-vertices, and an
    A-vertex with more colors than live Q-vertices, can be colored last, so
    both drop until none is left (such a Q-list could never sit inside a
    minimal transversal either).  Then enumerates the core's A-side list
    shapes up to color relabeling; for each, searches for Q-lists (inside
    the A universe, the core's sizes) blocking every minimal transversal.
    """
    return _transversal_is_sufficient(a_sizes, q_sizes, budget, minimal_transversal_sets)


def split_is_sufficient(
    a_sizes: Sequence[int], q_sizes: Sequence[int], *, budget: int = DEFAULT_BUDGET
) -> Verdict:
    """Same adversarial search on the complete split graph G_{a,q}: the
    A-side is a clique, so candidate color sets are SDR images instead of
    minimal transversals."""
    return _transversal_is_sufficient(a_sizes, q_sizes, budget, sdr_image_sets)


def _transversal_is_sufficient(
    a_sizes: Sequence[int],
    q_sizes: Sequence[int],
    budget: int,
    targets_of: Callable[[ListAssignment], list[frozenset[int]]],
) -> Verdict:
    """The shared search: ``targets_of(LA)`` gives the candidate A-color
    sets that the Q-lists must all block.

    First the peel of ``peel_order``, by part: a Q-vertex with f > |A alive|
    and an A-vertex with f > |Q alive| (plus |A alive| - 1 when A is a
    clique, ``targets_of is sdr_image_sets``) color last, so they drop until
    none is left.  The core is again a K_{a',q'} or G_{a',q'}, searched on
    its sizes; an empty A-side makes f sufficient with no work, and a
    failing core assignment lifts by fresh colors at the peeled vertices.
    """
    a_sizes = validate_sizes(a_sizes)
    q_sizes = validate_sizes(q_sizes)
    clique = targets_of is sdr_image_sets
    # Each round keeps the vertices under a threshold that only falls, so
    # the core is A up to deg and Q up to |A core|.
    core_a = a_sizes
    while True:
        if not core_a:
            return Verdict("sufficient", None, 0)
        q_live = [s for s in q_sizes if s <= len(core_a)]
        deg = len(q_live) + (len(core_a) - 1 if clique else 0)
        if max(core_a) <= deg:
            break
        core_a = [s for s in a_sizes if s <= deg]
    counts = Counter(q_live)
    meter = _Budget(budget)
    try:
        for LA in enumerate_canonical_assignments(core_a):
            meter.tick()
            blockers = _blocking_family(targets_of(LA), counts, meter)
            if blockers is not None:
                break
        else:
            return Verdict("sufficient", None, meter.used)
    except BudgetExceededError:
        return Verdict("undecided", None, meter.used)
    # The core A-lists, then each blocker at the first free Q-vertex of its
    # size (a blocker lies inside a core A-color set, so no peeled Q-vertex
    # takes one), and fresh colors everywhere else: canonical LA colors, and
    # so the blockers' too, are below sum(core_a).
    sizes = a_sizes + q_sizes
    fixed = dict(zip((i for i, s in enumerate(a_sizes) if s <= deg), LA))
    for e in blockers:
        for j in range(len(a_sizes), len(sizes)):
            if sizes[j] == len(e) and j not in fixed:
                fixed[j] = e
                break
        else:
            raise AssertionError("unplaced blockers")
    return Verdict("insufficient", pad_witness(fixed, sizes, sum(core_a)), meter.used)


# ---------------------------------------------------------------------------
# Structure detection and the peel reduction


def detect_structure(g: Graph) -> str | None:
    """"complete_bipartite" / "complete_split" when the part labels match the
    edge set exactly, else None (no guessing on unlabeled graphs).  Computed
    once per graph and cached on it (``Graph.structure``)."""
    return g.structure


def peel_order(g: Graph, f: Sequence[int]) -> list[int]:
    """Vertices removable because f(v) exceeds their remaining degree.

    A vertex with f(v) >= deg(v)+1 can always be colored last, so sufficiency
    of f on g is equivalent to sufficiency of the restriction to the core
    that survives repeated removal.  Returns the surviving core, sorted.
    """
    alive = (1 << g.n) - 1
    while True:
        drop = sum(1 << v for v in bits_of(alive) if f[v] > (g.adj[v] & alive).bit_count())
        if not drop:
            return bits_of(alive)
        alive &= ~drop


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> Graph:
    index = {v: i for i, v in enumerate(vertices)}
    edges = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
    return Graph(n=len(vertices), edges=tuple(sorted(edges)))


# ---------------------------------------------------------------------------
# The sufficiency oracle


def is_sufficient(
    g: Graph,
    f: Sequence[int],
    *,
    budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """Decide whether every f-assignment of g is colorable.

    Returns a sufficient / insufficient / undecided verdict; insufficiency
    always comes with a concrete failing assignment.  f(v)=0 is answered as
    trivially insufficient (the empty list at v).  Labeled complete
    bipartite and complete split graphs take the transversal fast path; an
    unlabeled copy, ``make_graph(g.n, g.edges)``, takes the generic one.
    Both paths first peel the vertices with f(v) > deg(v) (see
    ``peel_order``), so neither spends budget on them.
    """
    f = validate_sizes(f, g.n, minimum=0)
    if any(s == 0 for s in f):
        return Verdict("insufficient", pad_witness({}, f, 0), 0)

    structure = detect_structure(g)
    if structure in ("complete_bipartite", "complete_split"):
        a_side, q_side = g.parts  # type: ignore[misc]
        a_sizes = tuple(f[v] for v in a_side)
        q_sizes = tuple(f[v] for v in q_side)
        decide = bipartite_is_sufficient if structure == "complete_bipartite" else split_is_sufficient
        verdict = decide(a_sizes, q_sizes, budget=budget)
        if verdict.witness is None:
            return verdict
        per_vertex = dict(zip(a_side + q_side, verdict.witness))
        return Verdict(verdict.status, tuple(per_vertex[v] for v in range(g.n)), verdict.checked)

    meter = _Budget(budget)
    try:
        witness = _generic_witness(g, f, meter, set())
    except BudgetExceededError:
        return Verdict("undecided", None, meter.used)
    if witness is None:
        return Verdict("sufficient", None, meter.used)
    return Verdict("insufficient", witness, meter.used)


def _generic_witness(
    g: Graph, f: SizeFunction, meter: _Budget, settled: set[tuple]
) -> ListAssignment | None:
    """A failing f-assignment of g (all f >= 1), or None when f is sufficient.

    One deletion step on the peeled core (see the module docstring): the
    first vertex i with f(i) = 1 alone, f lowered by one on N(i), and its
    answer is final; with no such vertex, every i with f unchanged.  The
    witness of core-i lifts by L(i) = range(c, c + f(i)), c = sum(rest_f),
    plus c on each neighbor's list when f(i) = 1, in one ``pad_witness``
    call.  ``settled`` holds the cores found sufficient so far in this
    top-level call; each enumerated class ticks ``meter``, the deletion
    step does not.
    """
    core = peel_order(g, f)
    if not core:
        return None
    sub = induced_subgraph(g, core)
    core_f = tuple(f[v] for v in core)
    key = (sub.n, sub.edges, core_f)
    if key in settled:
        return None
    exact = 1 in core_f
    for i in [core_f.index(1)] if exact else range(sub.n):
        rest = [u for u in range(sub.n) if u != i]
        near = sub.adj[i] if exact else 0
        rest_f = tuple(core_f[u] - (near >> u & 1) for u in rest)
        if 0 in rest_f:  # a neighbor also has f = 1: both get the same color
            lists = pad_witness({}, rest_f, 0)
        else:
            lists = _generic_witness(induced_subgraph(sub, rest), rest_f, meter, settled)
        if lists is not None:
            # the witness of (core-i, rest_f) keeps its colors below sum(rest_f)
            c = sum(rest_f)
            fixed = {core[u]: L | {c} if near >> u & 1 else L for u, L in zip(rest, lists)}
            fixed[core[i]] = frozenset(range(c, c + core_f[i]))
            return pad_witness(fixed, f, sum(core_f))
    if not exact:
        for masks in _class_masks(core_f, 2):
            meter.tick()
            if _color_masks(sub.adj, masks) is None:
                lists = (frozenset(bits_of(m)) for m in masks)
                return pad_witness(dict(zip(core, lists)), f, sum(core_f))
    settled.add(key)
    return None


def pad_witness(fixed: Mapping[int, frozenset[int]], f: SizeFunction, fresh: int) -> ListAssignment:
    """An f-assignment with ``fixed[v]`` at each vertex v it names and fresh
    colors, counted up from ``fresh`` in vertex order, at every other vertex.
    The fixed lists must use only colors below ``fresh``, so the fresh ones
    meet nothing: every witness builder pads its free vertices this way."""
    out = []
    for v, size in enumerate(f):
        L = fixed.get(v)
        if L is None:
            L = frozenset(range(fresh, fresh + size))
            fresh += size
        out.append(L)
    return tuple(out)


# ---------------------------------------------------------------------------
# Witness serialization: {"lists": [[colors...], ...]} in vertex order


def lists_to_json(lists: Iterable[Iterable[int]]) -> dict:
    return {"lists": [sorted(L) for L in lists]}


def lists_from_json(doc: object) -> ListAssignment:
    """Parse a list assignment; ValueError for any other document shape."""
    lists = doc.get("lists") if isinstance(doc, dict) else None
    if not isinstance(lists, list) or not all(isinstance(L, list) for L in lists):
        raise ValueError('list-assignment JSON must be {"lists": [[colors...], ...]}')
    if any(type(c) is not int for L in lists for c in L):
        raise ValueError("list-assignment colors must be integers")
    return normalize_lists(lists)
