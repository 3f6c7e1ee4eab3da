"""Complete bipartite graphs K_{a,q}: closed forms, bounds, and witnesses.

Exact values exist in closed form for a <= 3.  For larger a the module
provides the general upper bound (backed by a reproducible two-step random
transversal process), the 0.06-constant lower bound, and an explicit
insufficient-assignment builder covering both cases of the lower-bound
argument.  Logarithms are natural unless a formula is inherently binary
(the recursive doubling construction); the lower bound exposes the base as
a flag since the stated form does not pin it down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .choosability import ListAssignment, _int_size, normalize_lists, pad_witness
from .graphs import Graph, as_int, complete_bipartite
from .rng import derive_rng

_LOG = {"e": math.log, "2": math.log2}


def _log(value: float, base: str) -> float:
    try:
        return _LOG[base](value)
    except KeyError:
        raise ValueError(f"log base must be 'e' or '2', got {base!r}") from None


def closed_form(a: int, q: int) -> int | None:
    """Exact sum choice number of K_{a,q} for a in {1,2,3}; None otherwise.

    a=1: 2q+1 (any tree on q+1 vertices); a=2: 2q+1+floor(sqrt(4q+1));
    a=3: 2q+1+floor(sqrt(12q+4)).
    """
    a, q = as_int(a, "values of a", ValueError), as_int(q, "values of q", ValueError)
    if a < 1 or q < 1:
        raise ValueError("need a >= 1 and q >= 1")
    if a == 1:
        return 2 * q + 1
    if a == 2:
        return 2 * q + 1 + math.isqrt(4 * q + 1)
    if a == 3:
        return 2 * q + 1 + math.isqrt(12 * q + 4)
    return None


def ub_bound(a: int, q: int) -> int:
    """2q + a * ceil(sqrt(32 q (1 + ln a))).

    Achieved by f = (r on A, 2 on Q) for any integer r at least
    sqrt(32 q (1+ln a)); the ceiling realizes the smallest such r.
    """
    a, q = as_int(a, "values of a", ValueError), as_int(q, "values of q", ValueError)
    if not q >= a >= 2:
        raise ValueError(f"upper bound needs q >= a >= 2, got a={a}, q={q}")
    return 2 * q + a * recommended_r(a, q)


def lb_bound(a: int, q: int, log_base: str = "e") -> float:
    """2q + 0.06 a sqrt(q log a), valid for q > 4 a^2 log a."""
    a, q = as_int(a, "values of a", ValueError), as_int(q, "values of q", ValueError)
    if a < 2:
        raise ValueError(f"lower bound needs a >= 2, got a={a}")
    la = _log(a, log_base)
    if not q > 4 * a * a * la:
        raise ValueError(
            f"lower bound needs q > 4 a^2 log a = {4 * a * a * la:.4f}, got q={q}"
        )
    return 2 * q + 0.06 * a * math.sqrt(q * la)


def recommended_r(a: int, q: int) -> int:
    """Smallest integer list size for A in the randomized upper bound."""
    a, q = as_int(a, "values of a", ValueError), as_int(q, "values of q", ValueError)
    if a < 1 or q < 1:
        raise ValueError(f"need a >= 1 and q >= 1, got a={a}, q={q}")
    return math.ceil(math.sqrt(32.0 * q * (1.0 + math.log(a))))


def default_pick_probability(a: int, q: int) -> float:
    """Pick probability sqrt(2 (1 + ln a) / q) used by the random process."""
    a, q = as_int(a, "values of a", ValueError), as_int(q, "values of q", ValueError)
    if a < 1 or q < 1:
        raise ValueError(f"need a >= 1 and q >= 1, got a={a}, q={q}")
    return min(1.0, math.sqrt(2.0 * (1.0 + math.log(a)) / q))


@dataclass(frozen=True)
class BoundsReport:
    a: int
    q: int
    closed: int | None
    upper: int | None
    lower: float | None
    sandwich_ok: bool | None


def bounds_report(a: int, q: int, log_base: str = "e") -> BoundsReport:
    """Closed form and both bounds, with preconditions mapped to None."""
    closed = closed_form(a, q)
    upper = lower = None
    try:
        upper = ub_bound(a, q)
    except ValueError:
        pass
    try:
        lower = lb_bound(a, q, log_base=log_base)
    except ValueError:
        pass
    values = [v for v in (lower, closed, upper) if v is not None]
    sandwich = None
    if len(values) >= 2:
        sandwich = all(x <= y for x, y in zip(values, values[1:]))
    return BoundsReport(a, q, closed, upper, lower, sandwich)


def bounds_report_to_json(report: BoundsReport) -> dict:
    """The report under the keys the CLI and `scripts/bounds_table.py` print."""
    return {
        "a": report.a,
        "q": report.q,
        "closed_form": report.closed,
        "ub": report.upper,
        "lb": report.lower,
        "sandwich_ok": report.sandwich_ok,
    }


# ---------------------------------------------------------------------------
# The doubling construction: an explicit insufficient assignment for
# a = 2^t, q = t l^2, with |L| = t*l on A and 2 on Q.


@dataclass(frozen=True)
class ConstrAssignment:
    t: int
    ell: int
    a: int
    q: int
    n_colors: int
    a_lists: tuple[frozenset[int], ...]
    q_lists: tuple[frozenset[int], ...]

    def graph(self) -> Graph:
        return complete_bipartite(self.a, self.q)

    def assignment(self) -> ListAssignment:
        return self.a_lists + self.q_lists


def constr_assignment(t: int, ell: int) -> ConstrAssignment:
    """Build the 2t-block construction: disjoint color blocks X_i, Y_i of
    size ell; the A-list for a sign vector takes X_i where the bit is 1 and
    Y_i where it is 0; the Q-lists are all X_i-to-Y_i pairs.

    Any transversal uses at most one color per X_i u Y_i (the pairs forbid
    more), so some A-list is missed: the assignment is insufficient.
    A-list sizes satisfy (t*ell)^2 = q * log2(a).
    """
    t, ell = as_int(t, "values of t", ValueError), as_int(ell, "values of ell", ValueError)
    if t < 2:
        raise ValueError(f"construction needs t >= 2, got {t}")
    if ell < 1:
        raise ValueError(f"construction needs ell >= 1, got {ell}")
    a = 1 << t
    q = t * ell * ell
    blocks_x = [range(2 * ell * i, 2 * ell * i + ell) for i in range(t)]
    blocks_y = [range(2 * ell * i + ell, 2 * ell * (i + 1)) for i in range(t)]
    a_lists = []
    for idx in range(a):
        word = a - 1 - idx  # sign vectors in decreasing binary order
        colors: list[int] = []
        for i in range(t):
            bit = word >> (t - 1 - i) & 1
            colors.extend(blocks_x[i] if bit else blocks_y[i])
        a_lists.append(frozenset(colors))
    q_lists = [
        frozenset((x, y)) for i in range(t) for x in blocks_x[i] for y in blocks_y[i]
    ]
    return ConstrAssignment(t, ell, a, q, 2 * t * ell, tuple(a_lists), tuple(q_lists))


# ---------------------------------------------------------------------------
# Two-step random transversal process


@dataclass(frozen=True)
class RandomProcessTrace:
    """One trial of the process: B is the random color pick, hits the
    per-A-list intersection counts with B, spanned the number of Q-lists
    inside B, and transversal the final set after deletions."""

    trial: int
    p: float
    picked: tuple[int, ...]
    hits: tuple[int, ...]
    spanned: int
    transversal: tuple[int, ...]
    success: bool


def transversal_trials(
    LA: Iterable[Iterable[int]],
    LQ: Iterable[Iterable[int]],
    p: float,
    seed: int = 0,
    max_trials: int = 50,
) -> Iterator[RandomProcessTrace]:
    """Run independent trials of the two-step process and yield each trace.

    Per trial: put each color into B independently with probability p; while
    some Q-list lies inside the working set, delete that list's lowest
    color; succeed when the remainder still meets every A-list.  Trials are
    seeded individually, so traces are reproducible and order-independent.
    Bad arguments (p outside [0,1], max_trials < 1) raise ValueError at the
    call, before any trial runs.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability p must lie in [0,1], got {p}")
    # the trials run lazily, so the seed is read here, not at the first draw
    seed, max_trials = as_int(seed, "seeds", ValueError), as_int(max_trials, "trial counts", ValueError)
    if max_trials < 1:
        raise ValueError(f"need max_trials >= 1, got {max_trials}")
    return _trials(normalize_lists(LA), normalize_lists(LQ), p, seed, max_trials)


def _trials(
    LA: ListAssignment, LQ: ListAssignment, p: float, seed: int, max_trials: int
) -> Iterator[RandomProcessTrace]:
    colors = sorted(set().union(*LA, *LQ)) if (LA or LQ) else []
    for trial in range(max_trials):
        rng = derive_rng(seed, "rt", trial)
        picked = {c for c in colors if rng.random() < p}
        hits = tuple(len(L & picked) for L in LA)
        spanned = sum(1 for L in LQ if L <= picked)
        # one pass: deletions only shrink T, so a Q-list passed over while
        # outside T never lies inside it later
        T = set(picked)
        for L in LQ:
            if L <= T:
                T.remove(min(L))
        success = all(T & L for L in LA)
        if success:
            # the induced coloring is proper by construction; keep it honest
            assert not any(L <= T for L in LQ)
        yield RandomProcessTrace(
            trial, p, tuple(sorted(picked)), hits, spanned, tuple(sorted(T)), success
        )


def random_transversal(
    LA: Iterable[Iterable[int]],
    LQ: Iterable[Iterable[int]],
    p: float,
    seed: int = 0,
    max_trials: int = 50,
) -> tuple[frozenset[int], RandomProcessTrace] | None:
    """First successful trial of the random process, or None if all fail."""
    for trace in transversal_trials(LA, LQ, p, seed=seed, max_trials=max_trials):
        if trace.success:
            return frozenset(trace.transversal), trace
    return None


def random_type2_assignment(
    a: int, q: int, r: int, seed: int = 0, universe: int | None = None
) -> tuple[ListAssignment, ListAssignment]:
    """Random type-II assignment: a lists of size r, q pairs, over a color
    universe of the given size (default 2q, widened to hold the lists)."""
    a, q = as_int(a, "values of a", ValueError), as_int(q, "values of q", ValueError)
    r = as_int(r, "values of r", ValueError)
    if a < 1 or q < 1 or r < 1:
        raise ValueError(f"need a, q and r >= 1, got a={a}, q={q}, r={r}")
    universe = max(2 * q, r) if universe is None else as_int(universe, "universe sizes", ValueError)
    if r > universe or universe < 2:
        raise ValueError(f"universe of {universe} colors cannot host lists of size {r}")
    rng = derive_rng(seed, "type2-assignment", a, q, r, universe)
    LA = tuple(frozenset(rng.sample(range(universe), r)) for _ in range(a))
    LQ = tuple(frozenset(rng.sample(range(universe), 2)) for _ in range(q))
    return LA, LQ


# ---------------------------------------------------------------------------
# Lower-bound witness builder


def lb_witness(
    f_A: Sequence[int], f_Q: Sequence[int], q: int
) -> ListAssignment | None:
    """Insufficient f-assignment for K_{a,q} when either lower-bound case
    applies, else None.

    Case (i): some A-list is no larger than the number of singleton
    Q-lists; give those Q-vertices distinct forced colors and fill that
    A-list with them.  Case (ii): enough A-vertices have small lists; embed
    the doubling construction on the size-2 Q-vertices, shrink its lists to
    the exact sizes (shrinking keeps an assignment insufficient), and pad
    everything else with fresh colors.
    """
    f_A, f_Q = tuple(map(_int_size, f_A)), tuple(map(_int_size, f_Q))
    if len(f_Q) != q:
        raise ValueError(f"f_Q has {len(f_Q)} entries but q={q}")
    if any(s < 1 for s in f_A + f_Q):
        raise ValueError("list sizes must be positive")
    a = len(f_A)

    singleton_q = [i for i, s in enumerate(f_Q) if s == 1]
    u = min(range(a), key=lambda i: (f_A[i], i))
    if f_A[u] <= len(singleton_q):
        lists = {a + v: frozenset({rank}) for rank, v in enumerate(singleton_q)}
        lists[u] = frozenset(range(f_A[u]))
        return pad_witness(lists, f_A + f_Q, len(singleton_q))

    pair_q = [i for i, s in enumerate(f_Q) if s == 2]
    for t in range(a.bit_length() - 1, 1, -1):
        ell = math.isqrt(len(pair_q) // t)
        if ell < 1:
            continue
        size = t * ell
        small = [i for i in range(a) if f_A[i] <= size]
        if len(small) < (1 << t):
            continue
        core = constr_assignment(t, ell)
        lists = {}
        for rank, v in enumerate(small[: core.a]):
            lists[v] = frozenset(sorted(core.a_lists[rank])[: f_A[v]])
        for rank, v in enumerate(pair_q[: core.q]):
            lists[a + v] = core.q_lists[rank]
        return pad_witness(lists, f_A + f_Q, core.n_colors)

    return None
