"""Graph representation, named-family generators, and degeneracy orderings.

Graphs are immutable: a vertex count, a sorted tuple of edges, and optional
part labels for bipartite-structured families (the small side A first, the
large side Q after, so list assignments and witnesses serialize stably).
Adjacency is kept as one bitmask per vertex; everything here is desk scale.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .rng import derive_rng

Edge = tuple[int, int]


class GraphError(ValueError):
    """Malformed graph data or generator parameters."""


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[Edge, ...]
    parts: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    @cached_property
    def adj(self) -> tuple[int, ...]:
        """Neighbor bitmask per vertex."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def structure(self) -> str | None:
        """"complete_bipartite" / "complete_split" when the part labels match
        the edge set exactly, else None (no guessing on unlabeled graphs)."""
        if self.parts is None:
            return None
        a_side, q_side = self.parts
        if len(a_side) + len(q_side) != self.n or not a_side or not q_side:
            return None
        cross = {(min(u, v), max(u, v)) for u in a_side for v in q_side}
        inner = {(min(u, v), max(u, v)) for i, u in enumerate(a_side) for v in a_side[i + 1:]}
        edges = set(self.edges)
        if edges == cross:
            return "complete_bipartite"
        if edges == cross | inner:
            return "complete_split"
        return None

    @cached_property
    def twin_classes(self) -> tuple[tuple[int, ...], ...]:
        """The classes, ascending, of two or more vertices with equal open
        (``adj[v]``) or closed (``adj[v] | 1 << v``) neighbour masks: swapping
        two twins is an automorphism.  No vertex is in both kinds of class."""
        classes: dict[tuple[bool, int], list[int]] = {}
        for v, mask in enumerate(self.adj):
            classes.setdefault((False, mask), []).append(v)
            classes.setdefault((True, mask | 1 << v), []).append(v)
        return tuple(tuple(c) for c in classes.values() if len(c) > 1)

    def twin_quotient_lifts(self) -> Iterator[tuple[int, ...]]:
        """Yield one vertex permutation ``p`` per non-identity automorphism
        of the twin quotient, lazily, so a caller can stop early on a large
        group.

        The quotient has one vertex per twin class and per vertex in none,
        coloured by (size, closed twins), and an edge where two classes are
        joined.  ``p`` sends the j-th vertex of a class, ascending, to the
        j-th vertex of its image.  Every automorphism of the graph is a swap
        of twins followed by one of these lifts or the identity.  So the
        images of an f sorted along the twin classes, each sorted along the
        classes again, are f and the ``(f[p[0]], f[p[1]], ...)`` over the
        lifts."""
        paired = {v: c for c in self.twin_classes for v in c}
        classes = [c for v in range(self.n) if (c := paired.get(v, (v,)))[0] == v]
        index = {v: i for i, c in enumerate(classes) for v in c}
        qadj = []
        for i, c in enumerate(classes):
            mask = 0
            for u in bits_of(self.adj[c[0]]):
                mask |= 1 << index[u]  # OR: a class met through two vertices is one edge
            qadj.append(mask & ~(1 << i))
        key = [(len(c), len(c) > 1 and self.has_edge(*c[:2]), q.bit_count()) for c, q in zip(classes, qadj)]
        identity = list(range(len(classes)))
        for image in _automorphisms(qadj, key, [], 0):
            if image != identity:
                lift = [0] * self.n
                for c, i in zip(classes, image):
                    for v, w in zip(c, classes[i]):
                        lift[v] = w
                yield tuple(lift)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)


@dataclass(frozen=True)
class VertexOrder:
    """A vertex ordering with per-vertex back-degrees (earlier neighbors).

    ``order`` is the ordering itself; ``back_degree[v]`` counts neighbors of
    ``v`` that precede it in ``order`` (indexed by vertex, not by position).
    """

    order: tuple[int, ...]
    back_degree: tuple[int, ...]

    @property
    def max_back_degree(self) -> int:
        return max(self.back_degree, default=0)

    def back_degrees_along_order(self) -> tuple[int, ...]:
        return tuple(self.back_degree[v] for v in self.order)


def _automorphisms(
    qadj: Sequence[int], key: Sequence[object], image: list[int], used: int
) -> Iterator[list[int]]:
    """Every extension of ``image`` (the images of vertices 0..len-1, the
    mask ``used``) to a permutation that keeps ``key`` and adjacency in the
    graph with neighbour masks qadj, by backtracking, images ascending.  The
    yielded list is ``image`` itself, changed by later steps."""
    i = len(image)
    if i == len(qadj):
        yield image
        return
    want = 0  # the images of i's earlier neighbours
    for k in bits_of(qadj[i] & ((1 << i) - 1)):
        want |= 1 << image[k]
    for j, kj in enumerate(key):
        if kj == key[i] and not used >> j & 1 and qadj[j] & used == want:
            image.append(j)
            yield from _automorphisms(qadj, key, image, used | 1 << j)
            image.pop()


def bits_of(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def as_int(value: object, what: str, error: type[ValueError] = GraphError) -> int:
    """value by ``operator.index``: ints and bools pass, anything else is ``error``."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} must be integers, got {value!r}") from None


def make_graph(
    n: int,
    edges: Iterable[Sequence[int]],
    parts: tuple[Sequence[int], Sequence[int]] | None = None,
) -> Graph:
    """Validate and normalize into a ``Graph`` (sorted, deduplicated edges)."""
    if not isinstance(n, int) or n < 0:
        raise GraphError(f"vertex count must be a nonnegative integer, got {n!r}")
    n = operator.index(n)  # a plain int, so True is stored (and written as JSON) as 1
    norm: set[Edge] = set()
    for e in edges:
        u, v = as_int(e[0], "edge ends"), as_int(e[1], "edge ends")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range for n={n}")
        norm.add((min(u, v), max(u, v)))
    norm_parts = None
    if parts is not None:
        a_side, q_side = (tuple(as_int(v, "part labels") for v in side) for side in parts)
        seen = set(a_side) | set(q_side)
        if len(seen) != len(a_side) + len(q_side) or any(not 0 <= v < n for v in seen):
            raise GraphError("part labels must be disjoint vertex sets within range")
        norm_parts = (a_side, q_side)
    return Graph(n=n, edges=tuple(sorted(norm)), parts=norm_parts)


# ---------------------------------------------------------------------------
# Named families


def complete_bipartite(a: int, q: int) -> Graph:
    a, q = _positive(a, "a"), _positive(q, "q")
    edges = [(u, a + v) for u in range(a) for v in range(q)]
    return make_graph(a + q, edges, parts=(range(a), range(a, a + q)))


def complete_split(a: int, q: int) -> Graph:
    """K_{a,q} plus all edges inside the small part A."""
    a, q = _positive(a, "a"), _positive(q, "q")
    edges = [(u, a + v) for u in range(a) for v in range(q)]
    edges += [(u, w) for u in range(a) for w in range(u + 1, a)]
    return make_graph(a + q, edges, parts=(range(a), range(a, a + q)))


def path(n: int) -> Graph:
    n = _positive(n, "n")
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    n = as_int(n, "family parameters")
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    n = _positive(n, "n")
    return make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star(q: int) -> Graph:
    """Center 0 joined to q leaves; this is K_{1,q} with parts labeled."""
    return complete_bipartite(1, q)


def prufer_edges(seq: Sequence[int], n: int) -> list[Edge]:
    """Edges of the tree on n >= 2 vertices with Pruefer sequence seq (length
    n - 2), in decoding order: each entry is joined to the smallest leaf
    left, and the last edge joins the final leaf to n - 1.  Linear time:
    the smallest leaf is either the entry just freed, if it is below the
    scan pointer, or the next leaf past the pointer."""
    deg = [1] * n
    for v in seq:
        deg[v] += 1
    edges = []
    ptr = leaf = deg.index(1)
    for v in seq:
        edges.append((leaf, v))
        deg[v] -= 1
        if v < ptr and deg[v] == 1:
            leaf = v
        else:
            ptr = deg.index(1, ptr + 1)
            leaf = ptr
    edges.append((leaf, n - 1))
    return edges


def random_tree(n: int, seed: int) -> Graph:
    n = _positive(n, "n")
    rng = derive_rng(seed, "random_tree", n)
    if n == 1:
        return make_graph(1, [])
    return make_graph(n, prufer_edges([rng.randrange(n) for _ in range(n - 2)], n))


def random_graph(n: int, m: int, seed: int) -> Graph:
    """Uniform graph with exactly m edges (m may be 0: the empty graph)."""
    n, m = _positive(n, "n"), as_int(m, "family parameters")
    if m < 0:
        raise GraphError(f"edge count must be nonnegative, got {m}")
    all_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if m > len(all_edges):
        raise GraphError(f"m={m} exceeds the {len(all_edges)} possible edges")
    rng = derive_rng(seed, "random_graph", n, m)
    return make_graph(n, rng.sample(all_edges, m))


def disjoint_cliques(*sizes: int) -> Graph:
    if not sizes:
        raise GraphError("need at least one clique size")
    sizes = tuple(_positive(s, f"size{i}") for i, s in enumerate(sizes))
    edges = []
    base = 0
    for s in sizes:
        edges += [(base + u, base + v) for u in range(s) for v in range(u + 1, s)]
        base += s
    return make_graph(base, edges)


# name -> (builder, its parameters named as the CLI flags that give them;
# None for one or more, given only by --params)
_FAMILIES = {
    "complete_bipartite": (complete_bipartite, ("a", "q")),
    "complete_split": (complete_split, ("a", "q")),
    "path": (path, ("n",)),
    "cycle": (cycle, ("n",)),
    "complete": (complete, ("n",)),
    "star": (star, ("n",)),
    "random_tree": (random_tree, ("n", "seed")),
    "random_graph": (random_graph, ("n", "m", "seed")),
    "disjoint_cliques": (disjoint_cliques, None),
}


def generate(kind: str, params: Sequence[int]) -> Graph:
    """Build a named-family graph; deterministic given the same parameters.
    A parameter count the family does not take is a GraphError."""
    if kind not in _FAMILIES:
        raise GraphError(f"unknown family {kind!r}; known: {sorted(_FAMILIES)}")
    build, names = _FAMILIES[kind]
    params = [as_int(p, "family parameters") for p in params]
    if len(params) < (len(names) if names else 1):
        raise GraphError(f"family {kind!r} got too few parameters: {params}")
    if names is not None and len(params) > len(names):
        raise GraphError(f"family {kind!r} got too many parameters: {params} (takes {len(names)})")
    return build(*params)


def family_names() -> tuple[str, ...]:
    return tuple(sorted(_FAMILIES))


# ---------------------------------------------------------------------------
# Degeneracy ordering


def degeneracy_order(g: Graph) -> VertexOrder:
    """Reverse min-degree peeling order; ties peel the lowest index.

    In the returned order every vertex has at most degeneracy(g) earlier
    neighbors, and the back-degrees sum to |E|.
    """
    alive = set(range(g.n))
    degree = [g.degree(v) for v in range(g.n)]
    removal: list[int] = []
    for _ in range(g.n):
        v = min(alive, key=lambda u: (degree[u], u))
        removal.append(v)
        alive.remove(v)
        for u in bits_of(g.adj[v]):
            if u in alive:
                degree[u] -= 1
    order = tuple(reversed(removal))
    position = {v: i for i, v in enumerate(order)}
    back = [0] * g.n
    for u, v in g.edges:
        later = u if position[u] > position[v] else v
        back[later] += 1
    return VertexOrder(order=order, back_degree=tuple(back))


# ---------------------------------------------------------------------------
# JSON serialization: {n, edges: [[u,v],...], parts: {"A": [...], "Q": [...]}?}


def graph_to_json(g: Graph) -> dict:
    doc: dict = {"n": g.n, "edges": [list(e) for e in g.edges]}
    if g.parts is not None:
        doc["parts"] = {"A": list(g.parts[0]), "Q": list(g.parts[1])}
    return doc


def graph_from_json(doc: dict) -> Graph:
    """Parse outside input strictly: ``n``, every edge end and every part
    label must be a JSON integer (not a bool or a float), and every edge a
    pair; anything else is a GraphError."""
    if not isinstance(doc, dict):
        raise GraphError(f"graph JSON must be an object, got {type(doc).__name__}")
    missing = [key for key in ("n", "edges") if key not in doc]
    if missing:
        raise GraphError(f"graph JSON lacks {', '.join(map(repr, missing))}")
    n, edges, parts = doc["n"], doc["edges"], doc.get("parts")
    if parts is not None:
        if not isinstance(parts, dict) or not {"A", "Q"} <= parts.keys():
            raise GraphError('graph JSON "parts" must be an object with "A" and "Q"')
        parts = (parts["A"], parts["Q"])
        if not all(isinstance(side, list) for side in parts):
            raise GraphError('graph JSON parts "A" and "Q" must be lists')
    if type(n) is not int:
        raise GraphError(f'graph JSON "n" must be an integer, got {n!r}')
    if not isinstance(edges, list) or not all(isinstance(e, list) and len(e) == 2 for e in edges):
        raise GraphError('graph JSON "edges" must be a list of [u, v] pairs')
    labels = [v for e in edges for v in e] + [v for side in parts or () for v in side]
    bad = [v for v in labels if type(v) is not int]
    if bad:
        raise GraphError(f"graph JSON vertices must be integers, got {bad[0]!r}")
    return make_graph(n, edges, parts=parts)


def load_graph(path_or_text: str) -> Graph:
    """Parse a graph from a JSON string or a path to a JSON file."""
    text = path_or_text
    if not path_or_text.lstrip().startswith("{"):
        with open(path_or_text, "r", encoding="utf-8") as fh:
            text = fh.read()
    return graph_from_json(json.loads(text))


def _positive(value: object, name: str) -> int:
    """A family size by ``as_int``, which must be positive."""
    value = as_int(value, "family parameters")
    if value <= 0:
        raise GraphError(f"parameter {name} must be positive, got {value}")
    return value
