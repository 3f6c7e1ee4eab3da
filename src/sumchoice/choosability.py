"""Choosability oracle: list-coloring search and exhaustive sufficiency tests.

``is_sufficient`` is the ground truth the rest of the package leans on.  The
generic path enumerates list assignments up to color relabeling (each class
is a multiset of membership patterns, walked as submasks of the vertices
still needing colors) and backtracks a coloring for each, both on bitmasks:
a list is an int with bit c set for color c.  Before that it takes one
vertex-deletion step on the peeled core, recursively, with both verdicts of
each core memoized on the search's meter; each subproblem is a tuple of
neighbour masks (entry v: v's neighbours among 0..k-1) with its f.  The peel
runs from a worklist (degrees counted once, then lowered as vertices drop),
a core the peel leaves whole is its graph as given, and core-v comes from
the core by deleting bit v from every other mask.  If a core vertex v has
f(v) = 1, only the first such v is deleted, with f one less on N(v), and
that answer is final: f is sufficient on the core iff the lowered f is on
core-v (color v first and drop its color from the neighbors' lists), and a
neighbor left at 0 makes f insufficient at once.  Otherwise every v is tried
with f unchanged: f sufficient on the core implies it on core-v.  The search
returns only a raw failure, one small tuple per deletion step; a failing
assignment of core-v lifts from it the same way in both cases, by fresh
colors c, c+1, ... in L(v) and, when f(v) = 1, c in every neighbor's list
(``_generic_lift``).  Once every core-v is sufficient, call the pattern P of
a color c (the vertices whose lists hold c) safe when some v in P can take
c: N(v) and P are disjoint, so core-v is sufficient as it stands, or f one
less on N(v) & P is sufficient on core-v, by a sub-search on the same meter.
Then v takes c, no neighbour of v can, and core-v colors from what is left,
so a class with a safe pattern is colorable.  Only the classes whose every
pattern is unsafe are enumerated and colored, so the first failing class is
the one the full stream meets first; each pattern is tested when the walk
first meets it, once per walk, and a safety sub-search that is insufficient
only leaves its pattern unsafe.  For labeled complete bipartite / complete
split graphs it switches to a transversal formulation.
The same peel first drops every vertex with more colors than live neighbors,
part by part, which leaves a smaller K_{a',q'} or G_{a',q'} (or nothing:
sufficient at no cost).  On that core it walks the shapes of the A-side
lists, computes the candidate A-color sets (minimal transversals on K_{a,q},
SDR images on G_{a,q}; the search is otherwise one and the same), and
searches for Q-side lists that block them all.  The search itself returns
only the raw failure: the sizes and parts searched, the core A-list masks,
the blockers and the peel threshold.  Those become a witness, by fresh
colors everywhere else, in one builder (``_transversal_witness``).  A
labeled graph reaches the search through one entry, ``_labeled_search``,
which lays f over its parts.  On both paths an insufficient
``Verdict`` keeps the raw failure, and its ``witness``, a
``cached_property``, builds the witness from it on first read; the exact
driver reads one only when asked to record it: a candidate found
insufficient costs no witness.  The minimal transversals are picks from the
minimal covers of the atom patterns, the one cover routine ``type2`` uses
too.  Shapes, targets and blockers are int masks; the shapes are read once
per search from ``enumerate_canonical_assignments``, so a trace of it counts
them, and otherwise frozensets are built only for a witness.  One meter
(``_Budget``) lives for one top-level search: ``sum_choice_exact``,
``sum_choice_type2_exact``, ``chi_sc2_reduced``, or one bare public oracle
call.  A budget unit is one step the search runs: a generic search call
(sub-searches and memo hits included), a class walked, an A-shape walked or
a blocker-search node (and, in ``type2``, an integer-point node).  The meter
keeps one lazy stream of shapes per core A-sizes, each shape with its target
family, that every walk ``tee``s; the result of each blocker search per
(family, live Q-sizes); and the generic verdict, None or the failing step,
per (core masks, core f).  A memo hit runs no step, so it costs nothing
beyond the tick of the call that finds it.  The target families are
computed outside the budget, once per distinct shape per search.

A budget runs out in one way.  Every private search (``_generic_search``,
``_transversal_search``, ``_labeled_search``, ``_blocking_family`` and
``type2._integer_point``) returns its raw result or None, and the
``BudgetExceededError`` of ``_Budget.tick`` passes through it.  Only the
public entries report it: ``is_sufficient``, ``bipartite_is_sufficient``
and ``split_is_sufficient`` as an ``undecided`` verdict,
``sum_choice_exact`` and ``type2_profile_search`` with the bracket of totals
still open.  The three oracles turn every search into a verdict through
one constructor, ``Verdict._of``: it counts the units the search ticked,
catches the meter's error, and gives an insufficient verdict the raw
failure with the builder of its witness.

Every witness in the package, here and in the constructions of the other
modules, gives its free vertices fresh colors through one ``pad_witness``
call.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import FrozenInstanceError
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .graphs import Graph, as_int, bits_of

SizeFunction = tuple[int, ...]
ListAssignment = tuple[frozenset[int], ...]
ColoringWitness = tuple[int, ...]

DEFAULT_BUDGET = 100_000_000


class BudgetExceededError(RuntimeError):
    """Search budget ran out; carries a bracketing interval when known."""

    def __init__(self, message: str, bracket: tuple[int, int | None] | None = None):
        super().__init__(message)
        self.bracket = bracket


class Verdict:
    """Outcome of a sufficiency test, immutable: ``Verdict(status, witness,
    checked)``.

    ``status`` is one of ``sufficient``, ``insufficient``, ``undecided``;
    a witness (an f-assignment with no proper coloring) accompanies every
    insufficient verdict.  The oracles' insufficient verdicts (``_of``) carry
    their search's raw failure instead, and ``witness``, a ``cached_property``,
    builds the witness from it on first read and keeps it: a caller that
    reads only ``status`` builds none.  A witness given to the constructor
    sits where the property keeps its result, so it is returned as is.  The
    raw failure is plain data, so the witness does not depend on when it is
    read.  Equality, hash and ``repr`` go by (status, witness, checked).

    ``checked`` is the units the call ticked on its meter (``_Budget``),
    one per step it ran (see the module docstring).  On a meter shared with
    earlier calls, what they left in its memos is not run again, so
    ``checked`` is at most that of the same call on a fresh meter.
    """

    def __init__(self, status: str, witness: ListAssignment | None = None, checked: int = 0):
        if status not in ("sufficient", "insufficient", "undecided"):
            raise ValueError(f"bad verdict status {status!r}")
        vars(self).update(status=status, witness=witness, checked=checked)

    @classmethod
    def _of(
        cls, meter: _Budget, search: Callable[..., tuple | None], build: Callable[[tuple], ListAssignment], *args
    ) -> Verdict:
        """``search(*args, meter)`` as a public oracle returns it, the one
        place a search becomes a verdict: undecided when the meter runs out,
        sufficient when the search returns None, else insufficient with the
        witness ``build(failure)``, built on first read.  ``checked`` is
        what the search ticked."""
        start = meter.used
        try:
            failure = search(*args, meter)
        except BudgetExceededError:
            return cls("undecided", None, meter.used - start)
        if failure is None:
            return cls("sufficient", None, meter.used - start)
        verdict = cls.__new__(cls)
        vars(verdict).update(status="insufficient", checked=meter.used - start, _build=(build, failure))
        return verdict

    @functools.cached_property
    def witness(self) -> ListAssignment | None:
        builder, failure = vars(self).pop("_build")
        return builder(failure)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return self.status, self.witness, self.checked

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return f"Verdict(status={self.status!r}, witness={self.witness!r}, checked={self.checked!r})"


def normalize_lists(lists: Iterable[Iterable[int]], n: int | None = None) -> ListAssignment:
    out = tuple(frozenset(as_int(c, "colors", ValueError) for c in L) for L in lists)
    if n is not None and len(out) != n:
        raise ValueError(f"expected {n} lists, got {len(out)}")
    return out


def validate_sizes(f: Sequence[int], n: int | None = None, minimum: int = 1) -> SizeFunction:
    vals = tuple(f)
    try:
        out = tuple(map(operator.index, vals))
    except TypeError:  # name the first bad entry: a float or a string is never truncated
        out = tuple(as_int(s, "list sizes", ValueError) for s in vals)
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
    palette, masks = _ranked(normalize_lists(lists, g.n))
    found = _color_masks(g.adj, masks)
    return None if found is None else tuple(palette[m.bit_length() - 1] for m in found)


def _ranked(lists: Sequence[frozenset[int]]) -> tuple[list[int], list[int]]:
    """The colors of lists in ascending order, and each list as a mask over
    their positions: a mask kernel run on these keeps the order of colors."""
    palette = sorted(set().union(*lists))
    rank = {c: i for i, c in enumerate(palette)}
    return palette, [sum(1 << rank[c] for c in L) for L in lists]


def _color_masks(adj: Sequence[int], lists: Sequence[int]) -> list[int] | None:
    """A proper coloring as one-bit masks, each inside its vertex's list mask,
    or None.  Backtracking on the vertex with fewest options (list less its
    colored neighbors' colors; ties to the lowest index), lowest bit first."""
    color = [0] * len(lists)

    def walk(left: int, opts: list[int]) -> bool:
        if not left:
            return True
        pick, fewest = -1, None
        m = left
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            k = opts[v].bit_count()
            if fewest is None or k < fewest:
                if not k:
                    return False
                pick, fewest = v, k
        rest = left ^ (1 << pick)
        near = adj[pick] & rest
        untried = opts[pick]
        while untried:
            c = untried & -untried
            untried ^= c
            color[pick] = c
            nxt = opts[:]
            m = near
            while m:
                low = m & -m
                m ^= low
                nxt[low.bit_length() - 1] &= ~c
            if walk(rest, nxt):
                return True
        return False

    try:
        return color if walk((1 << len(lists)) - 1, list(lists)) else None
    finally:
        del walk  # walk refers to itself through its closure cell


# ---------------------------------------------------------------------------
# Canonical enumeration of f-assignments
#
# A class of f-assignments modulo color relabeling is exactly a multiset of
# nonempty membership patterns (pattern = the set of vertices whose lists
# share that color), with each vertex v appearing in f(v) patterns.  At most
# sum(f) colors ever occur, so the enumeration below is complete.


def enumerate_canonical_assignments(f: Sequence[int]) -> Iterator[ListAssignment]:
    """One representative per color-relabeling class of f-assignments.

    Patterns are emitted in decreasing bitmask order with multiplicities
    tried high-to-low; colors are numbered in order of first appearance.
    The stream order is deterministic.
    """
    for masks in _class_masks(validate_sizes(f), None):
        yield tuple(frozenset(bits_of(m)) for m in masks)


def _class_masks(f: SizeFunction, allowed: Callable[[int], bool] | None) -> Iterator[tuple[int, ...]]:
    """The classes of ``enumerate_canonical_assignments``, in its order, as
    one list mask per vertex: bit c is color c.  Only patterns that pass
    ``allowed`` are used (every pattern when it is None), so the classes are
    exactly those of the full stream whose every pattern passes, in the same
    order."""
    n = len(f)
    rem = list(f)
    lists = [0] * n
    members_of = functools.cache(bits_of)  # read-only lists, one per pattern

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
            if pattern < below and (allowed is None or allowed(pattern)):
                members = members_of(pattern)
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

    try:
        yield from rec((1 << n) - 1, 1 << n, 0)
    finally:
        del rec  # rec refers to itself through its closure cell


# ---------------------------------------------------------------------------
# Transversal check (complete bipartite semantics)


def transversal_check(
    LA: Iterable[Iterable[int]], LQ: Iterable[Iterable[int]]
) -> frozenset[int] | None:
    """A set T hitting every A-list with no Q-list fully inside T, or None.

    On K_{a,q} such a T exists iff the assignment is colorable: color A from
    T and each Q-vertex from its list's leftover.  Any such T holds a minimal
    transversal of LA.  They are walked lazily, in the order of
    ``_minimal_transversal_stream`` (not by size), and the first holding no
    Q-list is T, so a T found early costs no walk over the rest.
    """
    LA, LQ = normalize_lists(LA), normalize_lists(LQ)
    palette, masks = _ranked(LA + LQ)
    for T in _minimal_transversal_stream(masks[: len(LA)]):
        if all(L & T != L for L in masks[len(LA):]):
            return frozenset(palette[c] for c in bits_of(T))
    return None


# ---------------------------------------------------------------------------
# Candidate transversal sets
#
# Both families are computed on list masks (bit c is color c) and ordered by
# size, then colors; the public functions rank their colors into bits, the
# way ``color_from_lists`` does, and read the masks back as frozensets.


def _atoms(LA: Sequence[int]) -> dict[int, list[int]]:
    """The colors of the list masks LA grouped by membership pattern (bit i
    set when the color lies in LA[i]): pattern -> ascending colors, patterns
    in order of their first color."""
    atoms: dict[int, list[int]] = {}
    for c in bits_of(functools.reduce(operator.or_, LA, 0)):
        atoms.setdefault(sum(1 << i for i, L in enumerate(LA) if L >> c & 1), []).append(c)
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


def _by_size_then_colors(masks: Iterable[int]) -> tuple[int, ...]:
    """The masks by size, then by their ascending colors compared as lists:
    of two masks of one size, the one holding the lowest color that they do
    not share comes first."""
    return tuple(sorted(masks, key=lambda T: (T.bit_count(), bits_of(T))))


def _minimal_transversal_stream(LA: Sequence[int]) -> Iterator[int]:
    """The minimal sets hitting every list mask of LA, lazily: one color of
    each atom of a minimal cover of the atom patterns (a minimal transversal
    never holds two colors of one atom), cover by cover."""
    atoms = _atoms(LA)
    groups = [[1 << c for c in colors] for colors in atoms.values()]
    for cover in _minimal_covers(tuple(atoms), len(LA)):
        for pick in itertools.product(*(groups[j] for j in bits_of(cover))):
            yield sum(pick)


def _minimal_transversal_masks(LA: Sequence[int]) -> tuple[int, ...]:
    """``_minimal_transversal_stream(LA)`` by size, then colors."""
    return _by_size_then_colors(_minimal_transversal_stream(LA))


def _sdr_image_masks(LA: Sequence[int]) -> tuple[int, ...]:
    """The images of the systems of distinct representatives of the list
    masks LA, grown one list at a time: an image of the first k + 1 lists is
    an image of the first k plus a color of list k + 1 outside it."""
    images = {0}
    for L in LA:
        images = {T | 1 << c for T in images for c in bits_of(L & ~T)}
    return _by_size_then_colors(images)


def minimal_transversal_sets(LA: Sequence[frozenset[int]]) -> list[frozenset[int]]:
    """The minimal sets hitting every list of LA, by size, then colors."""
    return _frozenset_view(_minimal_transversal_masks, LA)


def sdr_image_sets(LA: Sequence[frozenset[int]]) -> list[frozenset[int]]:
    """Images of systems of distinct representatives (one per list, all
    distinct), by size, then colors; these are the candidate A-color sets on
    a complete split graph, where the A-side is a clique."""
    return _frozenset_view(_sdr_image_masks, LA)


def _frozenset_view(
    kernel: Callable[[Sequence[int]], tuple[int, ...]], LA: Sequence[frozenset[int]]
) -> list[frozenset[int]]:
    palette, masks = _ranked(LA)
    return [frozenset(palette[c] for c in bits_of(T)) for T in kernel(masks)]


# ---------------------------------------------------------------------------
# Adversarial Q-side search: can q lists of the given sizes block every
# candidate transversal?  (A list blocks T when it lies fully inside T.)


class _Budget:
    """The meter of one top-level search: its units left and used, and the
    work that its oracle calls share.

    Per (core A-sizes, clique): one stream of the A-shapes, as list masks,
    each with its target family, holding every shape walked so far.  Per
    (family, sorted live Q-sizes): the blocker search's result.  Per (core
    masks, core f) of the generic path: the core's failing step, or None
    when it is sufficient.  The cap is a nonnegative int: a float or a
    string is a ValueError, never truncated.
    """

    __slots__ = ("left", "used", "shapes", "searches", "settled")

    def __init__(self, cap: int):
        cap = as_int(cap, "budgets", ValueError)
        if cap < 0:
            raise ValueError(f"budget must be >= 0, got {cap}")
        self.left = cap
        self.used = 0
        self.shapes: dict[tuple[SizeFunction, bool], Iterator[tuple[tuple[int, ...], tuple[int, ...]]]] = {}
        self.searches: dict[tuple[tuple[int, ...], SizeFunction], tuple[int, ...] | None] = {}
        self.settled: dict[tuple[tuple[int, ...], SizeFunction], tuple | None] = {}

    def tick(self) -> None:
        self.left -= 1
        self.used += 1
        if self.left < 0:
            raise BudgetExceededError("sufficiency search budget exceeded")

    def a_shapes(self, core_a: SizeFunction, clique: bool) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        """(A-list masks, target family) for each class of
        ``enumerate_canonical_assignments(core_a)`` in its order; the target
        family (SDR images when ``clique``, else minimal transversals) is
        computed once per shape.  One lazy stream per (core_a, clique) is
        kept, and each walk is a ``tee`` of it: the kept copy never advances,
        so it holds every shape built so far, and a walk past them pulls the
        next one.  The classes come through the public enumerator, once per
        shape per search, so a trace of it still counts this path's shapes."""
        key = (core_a, clique)
        if key not in self.shapes:
            family = _sdr_image_masks if clique else _minimal_transversal_masks
            classes = enumerate_canonical_assignments(core_a)
            masks = (tuple(sum(1 << c for c in L) for L in lists) for lists in classes)
            self.shapes[key] = ((LA, family(LA)) for LA in masks)
        self.shapes[key], walk = itertools.tee(self.shapes[key])
        return walk


def _meter(budget: int | _Budget) -> _Budget:
    """The caller's meter, shared with its other calls, or a fresh one."""
    return budget if isinstance(budget, _Budget) else _Budget(budget)


def _blocking_family(
    targets: Sequence[int], q_live: SizeFunction, meter: _Budget
) -> tuple[int, ...] | None:
    """Distinct blocker masks, at most as many of each size as q_live holds,
    covering every target mask (each target must contain some blocker); None
    if impossible.  The targets left to cover are one mask over their
    positions, so a blocker clears every target containing it at once.  Each
    search node ticks ``meter``."""
    sizes = sorted(set(q_live))
    counts = [q_live.count(s) for s in sizes]
    colors = [[1 << c for c in bits_of(T)] for T in targets]
    inside: dict[int, int] = {}  # blocker -> positions of the targets holding it

    def rec(uncovered: int, chosen: tuple[int, ...]) -> tuple[int, ...] | None:
        meter.tick()
        if not uncovered:
            return chosen
        if len(chosen) == len(q_live):
            return None
        first = colors[(uncovered & -uncovered).bit_length() - 1]
        for k, size in enumerate(sizes):
            if size > len(first):
                break
            if not counts[k]:
                continue
            counts[k] -= 1
            for combo in itertools.combinations(first, size):
                e = sum(combo)
                hit = inside.get(e)
                if hit is None:
                    hit = inside[e] = sum(1 << i for i, T in enumerate(targets) if T & e == e)
                got = rec(uncovered & ~hit, chosen + (e,))
                if got is not None:
                    return got
            counts[k] += 1
        return None

    try:
        return rec((1 << len(targets)) - 1, ())
    finally:
        del rec  # rec refers to itself through its closure cell


def bipartite_is_sufficient(
    a_sizes: Sequence[int], q_sizes: Sequence[int], *, budget: int | _Budget = DEFAULT_BUDGET
) -> Verdict:
    """Exhaustive sufficiency decision on K_{a,q} via the transversal view.

    First peels: a Q-vertex with more colors than live A-vertices, and an
    A-vertex with more colors than live Q-vertices, can be colored last, so
    both drop until none is left (such a Q-list could never sit inside a
    minimal transversal either).  Then enumerates the core's A-side list
    shapes up to color relabeling; for each, searches for Q-lists (inside
    the A universe, the core's sizes) blocking every minimal transversal.
    """
    a_sizes, q_sizes = validate_sizes(a_sizes), validate_sizes(q_sizes)
    return Verdict._of(_meter(budget), _transversal_search, _transversal_witness, a_sizes, q_sizes, False)


def split_is_sufficient(
    a_sizes: Sequence[int], q_sizes: Sequence[int], *, budget: int | _Budget = DEFAULT_BUDGET
) -> Verdict:
    """Same adversarial search on the complete split graph G_{a,q}: the
    A-side is a clique, so candidate color sets are SDR images instead of
    minimal transversals."""
    a_sizes, q_sizes = validate_sizes(a_sizes), validate_sizes(q_sizes)
    return Verdict._of(_meter(budget), _transversal_search, _transversal_witness, a_sizes, q_sizes, True)


# The raw failure of an insufficient transversal search: the A- and Q-sizes
# searched, the parts of a labeled graph (None when the sizes are in A-then-Q
# order), the core A-list masks, the blocker masks and the peel threshold on
# A-sizes.  It is all ``_transversal_witness`` reads.
_Failure = tuple


def _transversal_search(
    a_sizes: SizeFunction,
    q_sizes: SizeFunction,
    clique: bool,
    meter: _Budget,
    parts: tuple[tuple[int, ...], tuple[int, ...]] | None = None,
) -> _Failure | None:
    """The shared search: the Q-lists must block every candidate A-color
    set of the A-shape (SDR images when A is a ``clique``, else minimal
    transversals).  Returns the raw failure, which ``_transversal_witness``
    turns into a witness (``parts`` is kept in it for that), or None when
    the sizes are sufficient.

    First the peel of ``peel_order``, by part: a Q-vertex with f > |A alive|
    and an A-vertex with f > |Q alive| (plus |A alive| - 1 when A is a
    clique) color last, so they drop until none is left.  The core is again
    a K_{a',q'} or G_{a',q'}, searched on its sizes with the shapes and
    blocker searches of ``meter``; an empty A-side makes f sufficient with no
    work.  Each A-shape walked ticks ``meter``.
    """
    # Each round keeps the vertices under a threshold that only falls, so
    # the core is A up to deg and Q up to |A core|.
    core_a = a_sizes
    while True:
        if not core_a:
            return None
        q_live = tuple(sorted(s for s in q_sizes if s <= len(core_a)))
        deg = len(q_live) + (len(core_a) - 1 if clique else 0)
        if max(core_a) <= deg:
            break
        core_a = tuple(s for s in a_sizes if s <= deg)
    for LA, targets in meter.a_shapes(core_a, clique):
        meter.tick()
        key = (targets, q_live)
        if key not in meter.searches:
            meter.searches[key] = _blocking_family(targets, q_live, meter)
        blockers = meter.searches[key]
        if blockers is not None:
            return a_sizes, q_sizes, parts, LA, blockers, deg
    return None


def _labeled_search(g: Graph, f: SizeFunction, meter: _Budget) -> _Failure | None:
    """The transversal search of f on a labeled K_{a,q} or G_{a,q}: f laid
    over its parts, A a clique on G_{a,q}."""
    a_side, q_side = g.parts  # type: ignore[misc]
    a_sizes, q_sizes = tuple(f[v] for v in a_side), tuple(f[v] for v in q_side)
    return _transversal_search(a_sizes, q_sizes, g.structure == "complete_split", meter, g.parts)


def _transversal_witness(failure: _Failure) -> ListAssignment:
    """The witness of a failing transversal search: the core A-lists, then
    each blocker at the first free Q-vertex of its size (a blocker lies
    inside a core A-color set, so no peeled Q-vertex takes one), and fresh
    colors everywhere else, in A-then-Q order: canonical LA colors, and so
    the blockers' too, are below sum(core A-sizes).  The ``parts`` of a
    labeled graph, its A and Q vertices, put it back in vertex order."""
    a_sizes, q_sizes, parts, LA, blockers, deg = failure
    sizes = a_sizes + q_sizes
    core = [i for i, s in enumerate(a_sizes) if s <= deg]
    fixed = {i: frozenset(bits_of(L)) for i, L in zip(core, LA)}
    for e in blockers:
        for j in range(len(a_sizes), len(sizes)):
            if sizes[j] == e.bit_count() and j not in fixed:
                fixed[j] = frozenset(bits_of(e))
                break
        else:
            raise AssertionError("unplaced blockers")
    witness = pad_witness(fixed, sizes, sum(a_sizes[i] for i in core))
    if parts is None:
        return witness
    per_vertex = dict(zip(parts[0] + parts[1], witness))
    return tuple(per_vertex[v] for v in range(len(witness)))


# ---------------------------------------------------------------------------
# Structure detection and the peel reduction


def detect_structure(g: Graph) -> str | None:
    """"complete_bipartite" / "complete_split" when the part labels match the
    edge set exactly, else None (no guessing on unlabeled graphs).  Computed
    once per graph and cached on it (``Graph.structure``)."""
    return g.structure


def peel_order(adj: Sequence[int], f: Sequence[int]) -> list[int]:
    """The core, sorted: the vertices left after repeatedly removing every
    vertex v with f(v) above its live degree (adj[v] is v's neighbour mask).

    A vertex with f(v) >= deg(v)+1 can always be colored last, so f is
    sufficient on the graph iff its restriction is sufficient on the core.
    The peel runs from a worklist: degrees are counted once, and dropping a
    vertex pushes each live neighbour whose f it makes exceed its degree.
    Dropping only lowers degrees, so the core is the same whatever the
    order of removal.
    """
    deg = [m.bit_count() for m in adj]
    todo = [v for v, d in enumerate(deg) if f[v] > d]
    alive = (1 << len(adj)) - 1
    while todo:
        v = todo.pop()
        alive ^= 1 << v
        for u in bits_of(adj[v] & alive):
            deg[u] -= 1
            if deg[u] == f[u] - 1:  # f(u) has just passed deg(u)
                todo.append(u)
    return bits_of(alive)


def _induced(adj: Sequence[int], vertices: Sequence[int]) -> tuple[int, ...]:
    """The neighbour masks of the subgraph induced on vertices, each vertex
    renumbered by its position in vertices."""
    return tuple(sum(1 << j for j, u in enumerate(vertices) if adj[v] >> u & 1) for v in vertices)


def _without(adj: Sequence[int], i: int) -> tuple[int, ...]:
    """``_induced(adj, every vertex but i)`` by one bit deletion per mask:
    bit i dropped, the bits above it moved one down."""
    low = (1 << i) - 1
    return tuple((m & low) | (m >> (i + 1) << i) for u, m in enumerate(adj) if u != i)


# ---------------------------------------------------------------------------
# The sufficiency oracle


def is_sufficient(
    g: Graph,
    f: Sequence[int],
    *,
    budget: int | _Budget = DEFAULT_BUDGET,
) -> Verdict:
    """Decide whether every f-assignment of g is colorable.

    Returns a sufficient / insufficient / undecided verdict; insufficiency
    always comes with a concrete failing assignment.  f(v)=0 is answered as
    trivially insufficient (the empty list at v).  Labeled complete
    bipartite and complete split graphs take the transversal fast path; an
    unlabeled copy, ``make_graph(g.n, g.edges)``, takes the generic one.
    Both paths first peel the vertices with f(v) > deg(v) (see
    ``peel_order``), and neither ticks a unit per vertex peeled, though a
    generic search call ticks one whatever its peel leaves.  ``budget`` may
    be a meter (``_Budget``) that the calls of one search share, with its
    memos, so a step that an earlier call ran is not run or ticked again;
    a nonnegative int starts a fresh meter, so the memos live for this call
    alone.
    """
    f = validate_sizes(f, g.n, minimum=0)
    meter = _meter(budget)
    if 0 in f:
        return Verdict("insufficient", pad_witness({}, f, 0), 0)
    if detect_structure(g) is not None:
        return Verdict._of(meter, _labeled_search, _transversal_witness, g, f)
    return Verdict._of(meter, _generic_search, _generic_lift, g.adj, f)


# The raw failure of the generic search on (adj, f), one tuple per deletion
# step: (core, core_f, f, i, near, below).  Below a lift of core vertex i
# (near: its neighbours when f(i) = 1, else 0) is the failure of core-i at
# the lowered f, or None when that f is 0 at a neighbour of i; at the end of
# the chain i is None and below is the failing class, as list masks on the core.
_GenericFailure = tuple


def _generic_search(adj: tuple[int, ...], f: SizeFunction, meter: _Budget) -> _GenericFailure | None:
    """The raw failure of f (all f >= 1) on the graph with neighbour masks
    adj, or None when f is sufficient; ``_generic_lift`` turns it into a
    witness, and nothing else builds one.

    Every call ticks ``meter`` once, then peels.  The core's masks are adj
    itself when the peel drops nothing.  Both verdicts of a core are kept in
    ``meter.settled``, and a later hit on it in the same search runs nothing
    again.
    """
    meter.tick()
    core = peel_order(adj, f)
    if not core:
        return None
    if len(core) == len(adj):  # the peel dropped nothing
        sub, core_f = adj, f
    else:
        sub, core_f = _induced(adj, core), tuple(f[v] for v in core)
    key = (sub, core_f)
    if key not in meter.settled:
        meter.settled[key] = _core_search(sub, core_f, meter)
    step = meter.settled[key]
    return None if step is None else (core, core_f, f, *step)


def _core_search(sub: tuple[int, ...], core_f: SizeFunction, meter: _Budget) -> tuple | None:
    """The failing step (i, near, below) of the peeled core ``sub`` at
    ``core_f``, or None when core_f is sufficient on it.

    One deletion step (see the module docstring): the first vertex i with
    f(i) = 1 alone, f lowered by one on N(i), and its answer is final; with
    no such vertex, every i with f unchanged.  core-i's masks are the core's
    with bit i deleted (``_without``): no subproblem is rebuilt by a scan
    over vertex pairs.  Then the walk over the classes whose every pattern
    is unsafe (``_unsafe_patterns``), each class ticking ``meter``.
    """
    exact = 1 in core_f
    for i in [core_f.index(1)] if exact else range(len(sub)):
        near = sub[i] if exact else 0
        rest_f = _lowered(core_f, i, near)
        if 0 in rest_f:  # a neighbor also has f = 1: both get the same color
            return i, near, None
        below = _generic_search(_without(sub, i), rest_f, meter)
        if below is not None:
            return i, near, below
    if not exact:
        for masks in _class_masks(core_f, _unsafe_patterns(sub, core_f, meter)):
            meter.tick()
            if _color_masks(sub, masks) is None:
                return None, 0, masks
    return None


def _lowered(core_f: SizeFunction, i: int, near: int) -> SizeFunction:
    """f on core-i: core_f without entry i, one less on each vertex of the
    mask near."""
    return tuple(s - (near >> u & 1) for u, s in enumerate(core_f) if u != i)


def _unsafe_patterns(sub: tuple[int, ...], core_f: SizeFunction, meter: _Budget) -> Callable[[int], bool]:
    """The pattern test of a class walk on a core whose every core-v is
    sufficient, cached for that walk, so it runs when the walk first meets
    a pattern P.  P is safe when some v in P can take its color: N(v) and P
    are disjoint (core-v is sufficient), or f one less on N(v) & P is
    sufficient on core-v.  Either way v takes the color, no neighbour of v
    can, and core-v colors from what is left, so a class with a safe
    pattern is colorable.  Every sub-search ticks ``meter``; an
    insufficient one only leaves P unsafe."""

    def unsafe(pattern: int) -> bool:
        members = bits_of(pattern)
        if any(not sub[v] & pattern for v in members):
            return False
        return all(
            _generic_search(_without(sub, v), _lowered(core_f, v, sub[v] & pattern), meter) is not None
            for v in members
        )

    return functools.cache(unsafe)


def _generic_lift(failure: _GenericFailure) -> ListAssignment:
    """The witness of a failing generic search, unwound from its raw failure.

    At the end, the failing class's lists on the core.  At a lift of core
    vertex i, the witness of (core-i, rest_f) keeps its colors below
    c = sum(rest_f) = sum(core_f) - f(i) - |near|, so L(i) = range(c, c + f(i)),
    plus c on each neighbour's list when f(i) = 1.  Either way the vertices
    off the core get fresh colors from sum(core_f) on, in one ``pad_witness``
    call per step.
    """
    core, core_f, f, i, near, below = failure
    if i is None:
        lists = (frozenset(bits_of(m)) for m in below)
        return pad_witness(dict(zip(core, lists)), f, sum(core_f))
    rest = [u for u in range(len(core)) if u != i]
    if below is None:
        lists = pad_witness({}, tuple(core_f[u] - (near >> u & 1) for u in rest), 0)
    else:
        lists = _generic_lift(below)
    c = sum(core_f) - core_f[i] - near.bit_count()
    fixed = {core[u]: L | {c} if near >> u & 1 else L for u, L in zip(rest, lists)}
    fixed[core[i]] = frozenset(range(c, c + core_f[i]))
    return pad_witness(fixed, f, sum(core_f))


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
