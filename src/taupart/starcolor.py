"""Star colourings within detour-order many colours.

A star colouring is a proper colouring in which every path on 4 vertices
carries at least 3 colours (equivalently, the union of any two colour
classes induces a star forest).  The constructive route pairs colours up,
as in the proof of the paper's Theorem 1: partition the graph into parts of
detour order at most 2 (so each part is a perfect matching plus isolated
vertices), give part i the colour pair (2i, 2i+1) with matched endpoints
split and isolated vertices on the first colour, then search depth-first
for the first star colouring that keeps every vertex on its own part's
pair.  The search checks its input once and is multiway.first_coloring,
the one backtracking colour search, with the step test of
exact_star_chromatic, wrapped here to count colour tries and to stop the
search on its STAR_SEARCH_BUDGET-th.  When the partition has no paired
star colouring, or the search runs out of tries, the given colouring's
bicoloured P4s are reported as a witness and the component is coloured by
depth in a depth-first tree instead.  That colouring needs no search:
every non-tree edge joins an ancestor to a descendant, so any two depth
classes induce a star forest, and a root-to-leaf path of the tree is a
path of g, so there are at most tau depths (the tree-depth argument of
Nesetril and Ossona de Mendez).

The exact star chromatic number runs the same search through
multiway.smallest_coloring, with the star step test and no budget.
Verification and the exact search are independent of the construction and
are what the certificates are checked against.
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
    is_int,
    iter_bits,
)
from .multiway import EXACT_SEARCH_MAX_N, ColoringCertificate, class_partition, color_classes, first_coloring
from .multiway import smallest_coloring
from .partition import graph_facts

STAR_SEARCH_BUDGET = 2000  # colour tries per component; see repair_bicolored_p4s


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

    The parts are multiway.class_partition's at n = 2, each checked against
    its budget by the step that cut it off, so a part of budget 2 has no
    path on 3 vertices (a matching plus isolated vertices) and the one part
    of budget 1 has no edge: its colours can be read off without further
    checks.  `repair_bicolored_p4s` checks them again (`_check_paired`).
    """
    if g.n < 1:
        raise GraphError("pair partition colouring needs at least one vertex")
    if not is_connected(g):
        raise GraphError("pair partition colouring expects a connected graph")
    budgets, masks = class_partition(g, 2, max_n)
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


def _check_paired(g: Graph, ppc: PairPartitionColoring) -> list[tuple[int, ...]]:
    """Each vertex's part's colours, its own colour first, once ppc is
    checked to be a paired colouring of g.

    GraphError unless the parts, non-negative int masks (`is_int`),
    partition V(g), each part has one or two colours, non-negative ints
    that no other part lists (at most one part has one), and within each
    part every vertex has at most one neighbour, a colour of the part (an
    int too) and, if matched, a colour other than its partner's.
    """
    parts, pairs, colors = ppc.parts, ppc.pair_colors, ppc.colors
    # masks whose bit counts add up to n sum to V(g) only if they are disjoint
    if (not all(is_int(m) and m >= 0 for m in parts) or sum(parts) != g.full_mask
            or sum(m.bit_count() for m in parts) != g.n):
        raise GraphError("parts do not partition the vertices")
    if len(pairs) != len(parts) or any(len(pc) not in (1, 2) for pc in pairs):
        raise GraphError("every part needs one or two colours")
    if not all(is_int(c) and c >= 0 for pc in pairs for c in pc):
        raise GraphError("every part's colours must be non-negative integers")
    if len({c for pc in pairs for c in pc}) != sum(map(len, pairs)):
        raise GraphError("a colour is listed twice among the parts")
    if [len(pc) for pc in pairs].count(1) > 1:
        raise GraphError("more than one part has a single colour")
    part_of = {v: i for i, m in enumerate(parts) for v in iter_bits(m)}
    if len(colors) != g.n or any(not is_int(colors[v]) or colors[v] not in pairs[i] for v, i in part_of.items()):
        raise GraphError("every vertex needs a colour of its part's pair")
    for v, i in part_of.items():
        inside = g.adj[v] & parts[i]
        if inside & (inside - 1):
            raise GraphError(f"part {i} is not a matching plus isolated vertices")
        if inside and colors[v] == colors[inside.bit_length() - 1]:
            raise GraphError(f"matched vertex {v} has its partner's colour")
    return [(c, *(d for d in pairs[part_of[v]] if d != c)) for v, c in enumerate(colors)]


def repair_bicolored_p4s(g: Graph, ppc: PairPartitionColoring) -> PairPartitionColoring:
    """The first paired star colouring on ppc's partition, by
    multiway.first_coloring.

    The input is checked once (_check_paired, GraphError).  Vertices take
    colours in id order, each trying its own part's colours, its given
    colour first; every choice must pass _star_admissible, the step test
    of exact_star_chromatic.  So a paired colouring that is already a star
    colouring comes back unchanged.  Raises StarRepairError, with the given
    colouring and its bicoloured P4s, when the search proves that the
    partition has no paired star colouring, or when its STAR_SEARCH_BUDGET-th
    colour try does not complete one.
    """
    choices = _check_paired(g, ppc)
    admissible = _star_admissible(g)
    tries = 0

    def budgeted(v: int, c: int, colors: list[int], classes: dict[int, int]) -> bool:
        nonlocal tries
        tries += 1
        ok = admissible(v, c, colors, classes)
        if tries >= STAR_SEARCH_BUDGET and not (ok and v == g.n - 1):
            raise StarRepairError(f"search budget of {STAR_SEARCH_BUDGET} colour tries used up",
                                  find_bicolored_p4s(g, ppc.colors), ppc.colors)
        return ok

    colors = first_coloring(g.n, lambda v, _: choices[v], budgeted)
    if colors is None:
        raise StarRepairError("no paired star colouring", find_bicolored_p4s(g, ppc.colors), ppc.colors)
    return PairPartitionColoring(ppc.parts, ppc.pair_colors, colors)


def verify_star_coloring(g: Graph, colors) -> bool:
    """Proper and no path on 4 vertices uses only 2 colours."""
    colors = list(colors)
    color_classes(g, colors)
    if any(colors[u] == colors[v] for u, v in g.edges()):
        return False
    return not find_bicolored_p4s(g, colors)


def _star_admissible(g: Graph):
    """The star step test for smallest_coloring and repair_bicolored_p4s:
    v's class stays independent, and every P4 whose largest vertex is v
    keeps at least 3 colours.

    Every vertex below v passed this test when it took its colour, so once
    v's class is independent each such P4 (a, b, x, d) is properly
    coloured, and it has only 2 colours exactly when it alternates them:
    a and x share a colour, and so do b and d.
    """
    by_max: list[list[tuple[int, int, int, int]]] = [[] for _ in range(g.n)]
    for quad in _all_p4s(g):
        by_max[max(quad)].append(quad)

    def admissible(v: int, c: int, colors: list[int], classes: dict[int, int]) -> bool:
        return not g.adj[v] & classes[c] and all(
            colors[a] != colors[x] or colors[b] != colors[d] for a, b, x, d in by_max[v])
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
    components; no P4 crosses a component boundary).  A component on which
    repair_bicolored_p4s finds no paired star colouring is coloured by
    depth_coloring instead, and the failure is recorded on the certificate:
    one witness per such component, in component order.
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
