"""Generalized Turán counts, greedy independent SDRs, and split-graph bounds.

t(s,k) is the least edge count of k disjoint cliques spanning s vertices;
below that threshold every family of a equal-size vertex lists admits a
system of distinct representatives that is independent in the host graph.
The greedy witness algorithm peels minimum-degree vertices and their closed
neighborhoods.  G_{a,q} (complete split graph) bounds and both known
insufficiency constructions for it live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .choosability import ListAssignment, _int_size, pad_witness
from .graphs import Graph, as_int, bits_of, disjoint_cliques


def balanced_parts(s: int, k: int) -> tuple[int, ...]:
    """k nonnegative part sizes summing to s, as equal as possible,
    larger parts first."""
    s, k = as_int(s, "values of s", ValueError), as_int(k, "values of k", ValueError)
    if k < 1:
        raise ValueError(f"need at least one part, got k={k}")
    if s < 0:
        raise ValueError(f"total must be nonnegative, got {s}")
    m, r = divmod(s, k)
    return (m + 1,) * r + (m,) * (k - r)


def t_balanced(s: int, k: int) -> int:
    """min sum of C(d_i, 2) over k nonnegative parts summing to s.

    Convexity of C(d,2) makes the balanced split optimal, so this closed
    form equals the brute-force minimum over all compositions.
    """
    return sum(math.comb(d, 2) for d in balanced_parts(s, k))


@dataclass(frozen=True)
class SdrStep:
    vertex: int
    list_index: int
    closed_neighborhood: tuple[int, ...]
    d: int


@dataclass(frozen=True)
class SdrResult:
    representatives: tuple[int, ...]
    list_indices: tuple[int, ...]
    steps: tuple[SdrStep, ...]


def independent_sdr(g: Graph, lists: Sequence[Iterable[int]]) -> SdrResult | None:
    """Greedy independent system of distinct representatives, or None.

    Repeatedly: restrict to vertices of still-unrepresented lists minus the
    closed neighborhoods already claimed, take a minimum-degree vertex there
    (ties to the lowest index), claim its closed neighborhood, and charge it
    to the lowest-index unused list containing it.  Guaranteed to finish
    whenever |E(g)| < t(s, a-1) for lists of common size s.
    """
    lists = [frozenset(as_int(v, "list entries", ValueError) for v in L) for L in lists]
    if not lists:
        raise ValueError("need at least one list")
    sizes = {len(L) for L in lists}
    if len(sizes) != 1:
        raise ValueError(f"lists must share one size, got sizes {sorted(sizes)}")
    for L in lists:
        if any(not 0 <= v < g.n for v in L):
            raise ValueError("lists must be subsets of the vertex set")

    unused = set(range(len(lists)))
    blocked: set[int] = set()
    reps: list[int] = []
    indices: list[int] = []
    steps: list[SdrStep] = []
    while unused:
        active = set().union(*(lists[i] for i in unused)) - blocked
        if not active:
            return None
        degree = {v: sum(1 for u in bits_of(g.adj[v]) if u in active) for v in active}
        u = min(active, key=lambda v: (degree[v], v))
        closed = {u} | {w for w in bits_of(g.adj[u]) if w in active}
        i = min(i for i in unused if u in lists[i])
        reps.append(u)
        indices.append(i)
        steps.append(SdrStep(u, i, tuple(sorted(closed)), len(closed)))
        blocked |= closed
        unused.remove(i)
    return SdrResult(tuple(reps), tuple(indices), tuple(steps))


def sharp_family(s: int, a: int) -> tuple[Graph, tuple[frozenset[int], ...]]:
    """Tight example: a-1 near-equal cliques on s vertices with all a lists
    equal to the whole vertex set; it has exactly t(s, a-1) edges and no
    independent set of size a, hence no independent SDR."""
    s, a = as_int(s, "values of s", ValueError), as_int(a, "values of a", ValueError)
    if not s >= a - 1 >= 1:
        raise ValueError(f"need s >= a-1 >= 1, got s={s}, a={a}")
    g = disjoint_cliques(*balanced_parts(s, a - 1))
    lists = tuple(frozenset(range(s)) for _ in range(a))
    return g, lists


# ---------------------------------------------------------------------------
# Complete split graphs G_{a,q}


class SideConditionError(ValueError):
    """The certified size s failed a side condition of the upper bound."""


@dataclass(frozen=True)
class SplitBounds:
    a: int
    q: int
    s: int
    lower: float
    upper: int
    upper_f: tuple[int, ...]


def split_bounds(a: int, q: int) -> SplitBounds:
    """Bounds 2q + (1/2) a sqrt((a-1)q) <= chi_sc(G_{a,q}) <= 2q + a*s with
    s = floor(3 sqrt((a-1)q)); the returned upper_f = (s on A, 2 on Q) is a
    sufficient function because s lists of that size always admit an
    independent SDR against q < t(s, a-1) conflict pairs."""
    a, q = as_int(a, "values of a", ValueError), as_int(q, "values of q", ValueError)
    if not q > a >= 2:
        raise ValueError(f"need q > a >= 2, got a={a}, q={q}")
    s = math.isqrt(9 * (a - 1) * q)
    if s < a:
        raise SideConditionError(f"s={s} < a={a}")
    if t_balanced(s, a - 1) <= q:
        raise SideConditionError(f"t({s},{a - 1}) = {t_balanced(s, a - 1)} <= q = {q}")
    lower = 2 * q + 0.5 * a * math.sqrt((a - 1) * q)
    upper = 2 * q + a * s
    upper_f = (s,) * a + (2,) * q
    return SplitBounds(a, q, s, lower, upper, upper_f)


def split_witness(s_vec: Sequence[int], q: int) -> ListAssignment | None:
    """Insufficient type-II assignment for G_{a,q} with sorted A-sizes s_vec,
    when one of the two known constructions applies; None otherwise.

    Nested cliques: if q >= t(s_i, i-1) for some i >= 2, lay i-1 near-equal
    cliques on s_i colors, nest the first i A-lists as prefixes, and assign
    the clique edges as Q-lists: any i distinct representatives collide
    inside one clique.  Otherwise, clique-minus-clique: if
    q >= C(s_1,2) + s_1 (s_2 - s_1), the first color block dominates the
    rest, pinning the first two A-vertices against each other.
    """
    s_vec = tuple(map(_int_size, s_vec))
    if any(s < 1 for s in s_vec):
        raise ValueError("A-list sizes must be positive")
    if list(s_vec) != sorted(s_vec):
        raise ValueError(f"s_vec must be sorted ascending, got {s_vec}")
    q = as_int(q, "values of q", ValueError)
    if q < 1:
        raise ValueError(f"need q >= 1, got {q}")
    a = len(s_vec)

    for i in range(2, a + 1):
        si = s_vec[i - 1]
        if q >= t_balanced(si, i - 1):
            parts = balanced_parts(si, i - 1)
            edges: list[frozenset[int]] = []
            base = 0
            for size in parts:
                edges += [
                    frozenset((base + x, base + y))
                    for x in range(size)
                    for y in range(x + 1, size)
                ]
                base += size
            return _assemble_split_witness(s_vec, q, nested_upto=i, ncolors=si, edges=edges)

    if a >= 2:
        s1, s2 = s_vec[0], s_vec[1]
        if q >= math.comb(s1, 2) + s1 * (s2 - s1):
            edges = [
                frozenset((x, y))
                for x in range(s2)
                for y in range(x + 1, s2)
                if not (x >= s1 and y >= s1)
            ]
            return _assemble_split_witness(s_vec, q, nested_upto=2, ncolors=s2, edges=edges)

    return None


def _assemble_split_witness(
    s_vec: tuple[int, ...],
    q: int,
    nested_upto: int,
    ncolors: int,
    edges: list[frozenset[int]],
) -> ListAssignment:
    a = len(s_vec)
    if len(edges) > q:
        raise AssertionError("construction produced more conflict pairs than q")
    lists = {j: frozenset(range(s_vec[j])) for j in range(nested_upto)}
    lists.update((a + k, e) for k, e in enumerate(edges))
    return pad_witness(lists, s_vec + (2,) * q, ncolors)
