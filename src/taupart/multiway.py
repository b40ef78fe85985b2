"""Multiway detour partitions and detour colourings.

A tuple target (a_1, ..., a_t) summing to tau(g) is realised by peeling the
first part with a two-part partition against the rest, then peeling the
remainder in turn.  The remainder's detour order can drop below the residual
sum, in which case the residual tuple is shrunk greedily from its last
entry; entries can reach zero (that position becomes an empty part) but
never grow.

The remainders of one chain are vertex masks of one graph, and their subset
queries read that graph's `detour.subset_queries`: below NUMPY_DP_MIN_K
vertices, one subset table.  A remainder that is not 2-connected (checked on
the mask, `ears.induces_two_connected`) is partitioned in place by
`partition.brute_force_parts`, with no graph, graph facts, graph6 or table
of its own.  Two kinds of remainder still get a graph of their own: a
2-connected one, for the ear construction of `tau_partition`, and the first
remainder below NUMPY_DP_MIN_K vertices of a larger graph, so that it and
the remainders cut from it read a table.  Each step checks its two part
taus against its target, and the tau of its part B is the next remainder's,
so no remainder runs a DP for its own tau, and no part is checked twice.

A colouring whose every colour class has detour order at most n is built from
the tuple (n, ..., n, tau mod n) of `class_partition`, which the star route
shares at n = 2: one colour per part, ceil(tau/n) colours in total.  n = 1
is ordinary proper colouring (a class with an edge has a 2-vertex path), so
the classical bound chi(g) <= tau(g) is the bottom row of the same
machinery.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

from .detour import NUMPY_DP_MIN_K, check_capacity, subset_queries, subset_tau_at_most
from .ears import induces_two_connected
from .errors import GraphError, InternalCheckError, TargetError
from .graphs import Graph, check_graph, induced_subgraph, is_int, iter_bits, lift
from .partition import PartitionTarget, brute_force_parts, graph_facts, sum_mismatch, tau_partition

EXACT_SEARCH_MAX_N = 14


@dataclass
class ColoringCertificate:
    """A verified vertex colouring with the bound it was built against.

    `property` names what was verified ("n-detour" with the class bound in
    `n`, or "star").  `witness` is only present on a star colouring with a
    component on which the search for a paired star colouring found none:
    one dict per such component, in component order, giving its vertices,
    the paired colouring the search was given, that colouring's bicoloured
    P4s and the note saying why the search found none.
    """

    graph6: str
    colors: tuple[int, ...]
    colors_used: int
    bound: int
    property: str
    verified: bool
    n: int | None = None
    witness: list[dict] | None = None

    def to_json_dict(self) -> dict:
        out = {
            "graph6": self.graph6,
            "n": self.n,
            "colors": list(self.colors),
            "colors_used": self.colors_used,
            "bound": self.bound,
            "property": self.property,
            "verified": self.verified,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _rebalance(rest: list[int], tau_rem: int) -> list[int]:
    """Shrink the residual tuple to sum tau_rem, from the last entry down.

    tau_rem never exceeds sum(rest): it is the tau of a step's part B,
    which that step has checked against b = sum(rest).
    """
    delta = sum(rest) - tau_rem
    new = list(rest)
    for i in range(len(new) - 1, -1, -1):
        cut = min(new[i], delta)
        new[i] -= cut
        delta -= cut
        if not delta:
            break
    return new


def _split(g: Graph, parts: list[int], max_n: int | None) -> list[int]:
    """One mask of g per entry of parts, peeled off one at a time.

    sum(parts) == tau(g), and each step cuts part A with tau <= parts[0]
    off the remainder, leaving part B with tau <= the rest; parts may end
    in zeros (empty parts), but a remainder is never empty while its
    budget is positive, as `_rebalance` zeroes entries from the last one
    down.  Each remainder is a vertex mask of `host`: g, or the first
    remainder below NUMPY_DP_MIN_K of a larger g, made a graph of its own
    so that its subset queries read one table.  The first step goes to
    `tau_partition` on g.  A later remainder that is not 2-connected is
    partitioned in place by brute force on host's queries; a 2-connected
    one gets its own graph for the ear construction, and its parts are
    lifted back to host's ids.  Either way the step's part taus are
    checked against its target, and the tau of part B is the next
    remainder's, so no remainder needs a DP of its own.  That check is
    each part's one check: the last remainder's tau is the checked tau of
    the previous step's part B, which `_rebalance` leaves as its budget,
    and every step splits its remainder into A and the rest, so the masks
    are disjoint and cover V(g).
    """
    host, order, mask = g, range(g.n), g.full_mask
    out: list[int] = []
    while parts:
        total = sum(parts)
        if parts[0] == total:
            return out + [lift(mask, order)] + [0] * (len(parts) - 1)
        t = PartitionTarget(parts[0], total - parts[0])
        if host.n >= NUMPY_DP_MIN_K > mask.bit_count():
            host, local = induced_subgraph(host, mask)
            order, mask = [order[v] for v in local], host.full_mask
        # the first step: t_partition has read g's route in its graph facts
        if host is g and mask == g.full_mask or induces_two_connected(host, mask):
            sub, local = induced_subgraph(host, mask)
            cert = tau_partition(sub, t, max_n=max_n)
            part_a, part_b, tau_b = lift(cert.part_a, local), lift(cert.part_b, local), cert.tau_b
        else:
            part_a, part_b, _, tau_b = brute_force_parts(host, t, max_n, tau_g=total, within=mask)
        out.append(lift(part_a, order))
        mask, parts = part_b, _rebalance(parts[1:], tau_b)
    return out


def t_partition(g: Graph, parts: tuple[int, ...] | list[int], max_n: int | None = None) -> list[int]:
    """Partition V(g) into parts with tau(<part_i>) <= parts[i].

    `parts` must be positive integers summing to tau(g), so the empty graph
    takes only the empty tuple.  Returns one vertex mask per entry (possibly
    empty where re-balancing zeroed an entry's budget), each checked by the
    step of `_split` that cut it off.  GraphError unless g is a Graph.
    """
    check_graph(g)
    try:
        parts = list(parts)
    except TypeError:  # not iterable, such as a bare number
        raise TargetError(f"tuple target {parts!r} must hold integers") from None
    if not all(is_int(p) for p in parts):
        raise TargetError(f"tuple target {parts} must hold integers")
    if any(p < 1 for p in parts):
        raise TargetError(f"tuple target {parts} must be positive throughout")
    tau_g = graph_facts(g, max_n).tau
    if sum(parts) != tau_g:
        raise TargetError(sum_mismatch(f"tuple target {parts}", sum(parts), tau_g))
    return _split(g, parts, max_n)


def class_partition(g: Graph, n: int, max_n: int | None = None) -> tuple[list[int], list[int]]:
    """The parts of the paper's Theorem 2 for class bound n: the budgets
    (n, ..., n, tau mod n), ceil(tau/n) of them, and their masks of g,
    split as `t_partition` splits a tuple target.  `detour_coloring` gives each part a colour, and the star
    route (n = 2) a colour pair, or one colour to a part of budget 1."""
    tau_g = graph_facts(g, max_n).tau
    budgets = [n] * (tau_g // n) + ([tau_g % n] if tau_g % n else [])
    return budgets, _split(g, budgets, max_n)


def color_classes(g: Graph, colors) -> dict[int, int]:
    """The vertex mask of each colour class of a total colouring of g.

    Raises GraphError unless colors is an iterable that gives every vertex
    a non-negative integer colour (`is_int`: a float or a bool is not one),
    and each class is keyed by its colour as given.
    """
    colors = list(colors) if isinstance(colors, Iterable) else None
    if colors is None or len(colors) != g.n or not all(is_int(c) and c >= 0 for c in colors):
        raise GraphError("colouring must assign a non-negative colour to every vertex")
    classes: dict[int, int] = {}
    for v, c in enumerate(colors):
        classes[c] = classes.get(c, 0) | (1 << v)
    return classes


def _check_class_bound(n) -> None:
    """TargetError unless the class bound n is a positive int (`is_int`:
    a float or a bool is not one)."""
    if not (is_int(n) and n >= 1):
        raise TargetError(f"class bound n={n!r} must be " + ("positive" if is_int(n) else "a positive integer"))


def verify_detour_coloring(g: Graph, colors, n: int, max_n: int | None = None) -> bool:
    """Every colour class induces a subgraph of detour order at most n.

    Raises GraphError if the assignment is not total; plain False for a
    violated class bound.  g must be within the DP cap (max_n, default
    DETOUR_DP_MAX_N), else CapacityError.
    """
    check_graph(g)
    _check_class_bound(n)
    check_capacity(g.n, max_n)
    return all(subset_tau_at_most(g, m, n) for m in color_classes(g, colors).values())


def detour_coloring(g: Graph, n: int, max_n: int | None = None) -> ColoringCertificate:
    """Colour g with every class of detour order <= n, within ceil(tau/n)
    colours, verified.  The graph6 string comes from graph_facts."""
    _check_class_bound(n)
    g6 = graph_facts(g, max_n).graph6
    budgets, masks = class_partition(g, n, max_n)
    colors = [0] * g.n
    for i, m in enumerate(masks):
        for v in iter_bits(m):
            colors[v] = i
    if not verify_detour_coloring(g, colors, n, max_n):
        raise InternalCheckError(f"constructed {n}-detour colouring failed verification on {g6}")
    return ColoringCertificate(g6, tuple(colors), len(set(colors)), len(budgets), "n-detour", True, n=n)


def first_coloring(n: int, choices: Callable[[int, list[int]], Iterable[int]],
                   admissible: Callable[[int, int, list[int], dict[int, int]], bool]) -> tuple[int, ...] | None:
    """The first colouring of vertices 0..n-1 that the step test passes,
    by depth-first search; None when there is none.

    The one backtracking colour search, behind the exact n-detour and star
    chromatic numbers and the paired star colouring.  Vertices take colours
    in id order, v trying `choices(v, colors)` in turn.  After v takes
    colour c, `admissible(v, c, colors, classes)` says whether to go on:
    colors holds -1 from v + 1 on, classes[c] is the vertex mask of colour
    c with v in it.  It may reject a partial colouring only when no
    extension of it is valid.  Exponential in n.
    """
    colors = [-1] * n
    return tuple(colors) if _place(0, n, choices, admissible, colors, {}) else None


def _place(v: int, n: int, choices, admissible, colors: list[int], classes: dict[int, int]) -> bool:
    """first_coloring from vertex v on.  A module function, not a closure
    of first_coloring: a closure that calls itself is a reference cycle,
    which only the garbage collector frees."""
    if v == n:
        return True
    for c in choices(v, colors):
        colors[v] = c
        classes[c] = classes.get(c, 0) | 1 << v
        if admissible(v, c, colors, classes) and _place(v + 1, n, choices, admissible, colors, classes):
            return True
        classes[c] ^= 1 << v
    colors[v] = -1
    return False


def smallest_coloring(g: Graph,
                      admissible: Callable[[int, int, list[int], dict[int, int]], bool]) -> tuple[int, ...]:
    """The first colouring of g with the fewest colours.

    Runs first_coloring with k = 0, 1, ... colours, each vertex trying
    colours from the lowest and opening at most one new colour.  The step
    test must pass one colour per vertex, as every caller's test does;
    else InternalCheckError.  Exponential in g.n.
    """
    for k in range(g.n + 1):
        colors = first_coloring(g.n, lambda v, colors: range(min(max(colors) + 2, k)), admissible)
        if colors is not None:
            return colors
    raise InternalCheckError("the step test rejects one colour per vertex")


def exact_detour_chromatic(g: Graph, n: int, max_n: int | None = None) -> int:
    """Smallest k admitting a colouring whose classes have detour order <= n.

    Runs smallest_coloring, checking the detour order of each grown class.
    Exponential; capped at EXACT_SEARCH_MAX_N vertices (override with max_n).
    """
    check_graph(g)
    _check_class_bound(n)
    check_capacity(g.n, max_n, EXACT_SEARCH_MAX_N, "exact search")
    q = subset_queries(g)
    colors = smallest_coloring(g, lambda v, c, colors, classes: q.at_most(classes[c], n))
    return len(set(colors))
