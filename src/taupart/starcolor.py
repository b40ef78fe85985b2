"""Star colourings within detour-order many colours.

A star colouring is a proper colouring in which every path on 4 vertices
carries at least 3 colours (equivalently, the union of any two colour
classes induces a star forest).  The constructive route pairs colours up:
partition the graph into parts of detour order at most 2 (so each part is a
perfect matching plus isolated vertices), give part i the colour pair
(2i, 2i+1) with matched endpoints split and isolated vertices on the first
colour, then repair the remaining bicoloured P4s one at a time, flipping a
degree-0 vertex of the offending pair or swapping a matching edge.  The
repair checks its input once.  In a paired colouring a bicoloured P4 always
splits 2+2 across two parts with one colour per pair, and both moves keep
the colouring paired, so a round cannot fail: a stall has one cause, the
loop cycling until its cap.  The residual P4 list is then reported as a
witness and the component is coloured by depth in a depth-first tree
instead.  That colouring needs no search: every non-tree edge joins an
ancestor to a descendant, so any two depth classes induce a star forest,
and a root-to-leaf path of the tree is a path of g, so there are at most
tau depths (the tree-depth argument of Nesetril and Ossona de Mendez).

The exact star chromatic number runs the one backtracking search,
multiway.smallest_coloring, with the star step test.  Verification and the
exact search are independent of the construction and are what the
certificates are checked against.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .detour import check_capacity
from .errors import GraphError, InternalCheckError, StarRepairError
from .graphs import (
    Graph,
    connected_components,
    dfs_tree,
    encode_graph6,
    induced_subgraph,
    is_connected,
    iter_bits,
)
from .multiway import EXACT_SEARCH_MAX_N, ColoringCertificate, color_classes, smallest_coloring, t_partition
from .partition import graph_facts


@dataclass(frozen=True)
class PairPartitionColoring:
    """Colouring derived from a detour-order-2 partition.

    parts[i] is a vertex mask with tau(<parts[i]>) <= 2, pair_colors[i] the
    one or two colours available to that part, colors the assignment.
    """

    parts: tuple[int, ...]
    pair_colors: tuple[tuple[int, ...], ...]
    colors: tuple[int, ...]


def pair_partition_coloring(g: Graph, max_n: int | None = None) -> PairPartitionColoring:
    """Initial paired colouring of a connected graph; proper but not yet
    necessarily a star colouring.

    t_partition checks that every part's detour order is within its budget,
    so a part of budget 2 has no path on 3 vertices (a matching plus
    isolated vertices) and the one part of budget 1 has no edge: its colours
    can be read off without further checks.
    """
    if g.n < 1:
        raise GraphError("pair partition colouring needs at least one vertex")
    if not is_connected(g):
        raise GraphError("pair partition colouring expects a connected graph")
    tau_g = graph_facts(g, max_n).tau
    budgets = [2] * (tau_g // 2)
    if tau_g % 2:
        budgets.append(1)
    masks = t_partition(g, budgets, max_n=max_n)
    colors = [0] * g.n
    pair_colors = []
    for i, budget in enumerate(budgets):
        pc = (2 * i, 2 * i + 1) if budget == 2 else (2 * i,)
        pair_colors.append(pc)
        for v in iter_bits(masks[i]):
            # the higher end of a matching edge takes the second colour
            colors[v] = pc[1] if g.adj[v] & masks[i] & ((1 << v) - 1) else pc[0]
    return PairPartitionColoring(tuple(masks), tuple(pair_colors), tuple(colors))


def _all_p4s(g: Graph) -> Iterator[tuple[int, int, int, int]]:
    """Every path on 4 vertices, once each, in no particular order.

    A P4 (u, v, w, z) is generated from its middle edge, which g.edges()
    yields once, and oriented so the tuple is lexicographically minimal.
    """
    for v, w in g.edges():
        for u in iter_bits(g.adj[v] & ~(1 << w)):
            for z in iter_bits(g.adj[w] & ~(1 << v) & ~(1 << u)):
                quad = (u, v, w, z)
                rev = (z, w, v, u)
                yield quad if quad <= rev else rev


def find_bicolored_p4s(g: Graph, colors) -> list[tuple[int, int, int, int]]:
    """All paths on 4 vertices using exactly 2 colours, as a sorted list of
    the canonical tuples of _all_p4s."""
    colors = list(colors)
    if len(colors) != g.n:
        raise GraphError("colouring must assign a colour to every vertex")
    return sorted(q for q in _all_p4s(g) if len({colors[v] for v in q}) == 2)


def _check_paired(g: Graph, ppc: PairPartitionColoring) -> dict[int, int]:
    """Each vertex's part, once ppc is checked to be a paired colouring of g.

    GraphError unless the parts partition V(g), each part has one or two
    colours that no other part lists (at most one part has one), and within
    each part every vertex has at most one neighbour, a colour of the part
    and, if matched, a colour other than its partner's.
    """
    parts, pairs, colors = ppc.parts, ppc.pair_colors, ppc.colors
    # masks whose bit counts add up to n sum to V(g) only if they are disjoint
    if min(parts, default=0) < 0 or sum(parts) != g.full_mask or sum(m.bit_count() for m in parts) != g.n:
        raise GraphError("parts do not partition the vertices")
    if len(pairs) != len(parts) or any(len(pc) not in (1, 2) for pc in pairs):
        raise GraphError("every part needs one or two colours")
    if len({c for pc in pairs for c in pc}) != sum(map(len, pairs)):
        raise GraphError("a colour is listed twice among the parts")
    if [len(pc) for pc in pairs].count(1) > 1:
        raise GraphError("more than one part has a single colour")
    part_of = {v: i for i, m in enumerate(parts) for v in iter_bits(m)}
    if len(colors) != g.n or any(colors[v] not in pairs[i] for v, i in part_of.items()):
        raise GraphError("every vertex needs a colour of its part's pair")
    for v, i in part_of.items():
        inside = g.adj[v] & parts[i]
        if inside & (inside - 1):
            raise GraphError(f"part {i} is not a matching plus isolated vertices")
        if inside and colors[v] == colors[inside.bit_length() - 1]:
            raise GraphError(f"matched vertex {v} has its partner's colour")
    return part_of


def repair_bicolored_p4s(g: Graph, ppc: PairPartitionColoring) -> PairPartitionColoring:
    """Remove bicoloured P4s from a paired colouring by local moves.

    The input is checked once (_check_paired, GraphError).  A bicoloured P4
    (u, v, w, z) of a paired colouring alternates its colours, so (u, w) and
    (v, z) are monochromatic pairs in two different parts, and at most one
    of those parts has a single colour.  Each round fixes the first (sorted)
    bicoloured P4 in the lower-indexed two-colour part of its pairs: a
    vertex of the pair with no neighbour inside the part flips to the part's
    other colour, else the smaller vertex swaps colours with its partner.
    Both moves keep the colouring paired, so a round cannot fail.  Raises
    StarRepairError with the residual list only when bicoloured P4s remain
    after the cap of 2 n^2 rounds.

    A round depends on the colouring alone, so once a colouring repeats the
    loop can only cycle until the cap.  A stalled repair therefore stops at
    its first repeated colouring and raises the cap error with exactly the
    colouring and residual list that running every round up to the cap
    would give.
    """
    part_of = _check_paired(g, ppc)
    parts, pair_colors = ppc.parts, ppc.pair_colors
    colors = list(ppc.colors)
    cap = 2 * g.n * g.n
    seen: dict[tuple[int, ...], int] = {}  # colouring -> round it first began; keys in round order
    for r in range(cap + 1):
        j = seen.setdefault(tuple(colors), r)
        if j < r:
            # rounds j..r-1 recur with period r - j: go to the cap's colouring
            colors = list(list(seen)[j + (cap - j) % (r - j)])
        p4s = find_bicolored_p4s(g, colors)
        if not p4s:
            return PairPartitionColoring(parts, pair_colors, tuple(colors))
        if j < r or r == cap:
            raise StarRepairError(f"iteration cap {cap} exhausted", p4s, tuple(colors))
        quad = p4s[0]
        pi, v1, v2 = min((part_of[a], *sorted((a, b))) for a, b in (quad[0::2], quad[1::2])
                         if len(pair_colors[part_of[a]]) == 2)
        pc, mask = pair_colors[pi], parts[pi]
        loose = [v for v in (v1, v2) if not g.adj[v] & mask]
        if loose:
            colors[loose[0]] = pc[1] if colors[v1] == pc[0] else pc[0]
        else:
            partner = (g.adj[v1] & mask).bit_length() - 1
            colors[v1], colors[partner] = colors[partner], colors[v1]


def verify_star_coloring(g: Graph, colors) -> bool:
    """Proper and no path on 4 vertices uses only 2 colours."""
    colors = list(colors)
    color_classes(g, colors)
    if any(colors[u] == colors[v] for u, v in g.edges()):
        return False
    return not find_bicolored_p4s(g, colors)


def _star_admissible(g: Graph):
    """The star step test for smallest_coloring: v's class stays
    independent, and every P4 whose largest vertex is v keeps at least 3
    colours."""
    by_max: list[list[tuple[int, int, int, int]]] = [[] for _ in range(g.n)]
    for quad in _all_p4s(g):
        by_max[max(quad)].append(quad)

    def admissible(v: int, c: int, colors: list[int], classes: list[int]) -> bool:
        return not g.adj[v] & classes[c] and all(
            len({colors[a], colors[b], colors[x], colors[d]}) >= 3 for a, b, x, d in by_max[v])
    return admissible


def exact_star_chromatic(g: Graph, max_n: int | None = None) -> int:
    """Smallest number of colours in any star colouring of g.

    Runs multiway.smallest_coloring with the star step test.  Exponential;
    capped at EXACT_SEARCH_MAX_N vertices (override with max_n).
    """
    check_capacity(g.n, max_n, EXACT_SEARCH_MAX_N, "exact star search")
    return len(set(smallest_coloring(g, _star_admissible(g))))


def depth_coloring(g: Graph) -> tuple[int, ...]:
    """Star colouring of a connected graph by depth in a depth-first tree.

    Every root is tried (dfs_tree's tree from it); the fewest depths win,
    ties going to the lowest root.  Uses at most tau(g) colours, with no
    search: see the module docstring.  O(n (n + m)).
    """
    best: list[int] = []
    for root in range(g.n):
        parent, preorder = dfs_tree(g, root)
        if len(preorder) != g.n:
            raise GraphError("depth colouring expects a connected graph")
        depth = [0] * g.n
        for v in preorder[1:]:
            depth[v] = depth[parent[v]] + 1
        if not best or max(depth) < max(best):
            best = depth
    return tuple(best)


def star_coloring(g: Graph, max_n: int | None = None) -> ColoringCertificate:
    """Star colouring of g within tau(g) colours, verified.

    Components are coloured independently (colour indices are reused across
    components; no P4 crosses a component boundary).  A component whose
    repair loop stalls is coloured by depth_coloring instead, and the stall
    is recorded on the certificate: one witness per stalled component, in
    component order.
    """
    g6 = encode_graph6(g)
    tau_g = graph_facts(g, max_n).tau
    colors = [0] * g.n
    witnesses: list[dict] = []
    for comp in connected_components(g, g.full_mask):
        sub, order = induced_subgraph(g, comp)
        try:
            ppc = pair_partition_coloring(sub, max_n=max_n)
            comp_colors = repair_bicolored_p4s(sub, ppc).colors
        except StarRepairError as exc:
            comp_colors = depth_coloring(sub)
            witnesses.append({"component": order,
                              "residual_p4s": [list(q) for q in exc.residual],
                              "colors_at_failure": list(exc.colors),
                              "note": str(exc)})
        for v_local, c in enumerate(comp_colors):
            colors[order[v_local]] = c
    if not verify_star_coloring(g, colors):
        raise InternalCheckError(f"assembled star colouring failed verification on {g6}")
    used = len(set(colors))
    if used > tau_g:
        raise InternalCheckError(f"star colouring used {used} colours, bound is {tau_g}")
    return ColoringCertificate(g6, tuple(colors), used, tau_g, "star", True,
                               witness=witnesses or None)
