"""Star colourings within detour-order many colours.

A star colouring is a proper colouring in which every path on 4 vertices
carries at least 3 colours (equivalently, the union of any two colour
classes induces a star forest).  The constructive route pairs colours up:
partition the graph into parts of detour order at most 2 (so each part is a
perfect matching plus isolated vertices), give part i the colour pair
(2i, 2i+1) with matched endpoints split and isolated vertices on the first
colour, then repair the remaining bicoloured P4s one at a time, flipping a
degree-0 vertex of the offending pair or swapping a matching edge.  The
repair loop is capped; if it stalls, the residual P4 list is reported as a
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


def _is_proper(g: Graph, colors) -> bool:
    return all(colors[u] != colors[v] for u, v in g.edges())


def pair_partition_coloring(g: Graph, max_n: int | None = None) -> PairPartitionColoring:
    """Initial paired colouring of a connected graph; proper but not yet
    necessarily a star colouring."""
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
            inside = g.adj[v] & masks[i]
            if inside == 0:
                colors[v] = pc[0]
                continue
            if inside.bit_count() != 1 or len(pc) != 2:
                raise InternalCheckError(f"part {i} is not a matching plus isolated vertices")
            u = (inside & -inside).bit_length() - 1
            colors[v] = pc[0] if v < u else pc[1]
    if not _is_proper(g, colors):
        raise InternalCheckError("paired colouring is not proper")
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


def repair_bicolored_p4s(g: Graph, ppc: PairPartitionColoring) -> PairPartitionColoring:
    """Remove bicoloured P4s from a paired colouring by local moves.

    Each round fixes the first (sorted) bicoloured P4: its two same-coloured
    vertices in the lower-indexed two-colour part either contain one with no
    neighbour inside the part (flip it to the part's other colour) or are
    both matched (swap the colours across the smaller vertex's matching
    edge).  Raises StarRepairError with the residual list when the cap of
    2 n^2 rounds is exhausted or a P4 offers no repairable side.

    A round depends on the colouring alone, so once a colouring repeats the
    loop can only cycle until the cap.  A stalled repair therefore stops at
    its first repeated colouring and raises the cap error with exactly the
    colouring and residual list that running every round up to the cap
    would give.
    """
    colors = list(ppc.colors)
    parts = ppc.parts
    pair_colors = ppc.pair_colors
    part_of = {}
    for i, m in enumerate(parts):
        for v in iter_bits(m):
            part_of[v] = i
    cap = 2 * g.n * g.n
    seen: dict[tuple[int, ...], int] = {}  # colouring -> round it first began; keys in round order
    for r in range(cap):
        j = seen.setdefault(tuple(colors), r)
        if j < r:
            # rounds j..r-1 recur with period r - j until the cap
            colors = list(list(seen)[j + (cap - j) % (r - j)])
            break
        p4s = find_bicolored_p4s(g, colors)
        if not p4s:
            return PairPartitionColoring(parts, pair_colors, tuple(colors))
        quad = p4s[0]
        groups: dict[int, list[int]] = {}
        for v in quad:
            groups.setdefault(part_of[v], []).append(v)
        if sorted(len(vs) for vs in groups.values()) != [2, 2]:
            raise StarRepairError(f"bicoloured P4 {quad} does not split 2+2 across parts",
                                  p4s, tuple(colors))
        repaired = False
        for pi in sorted(groups):
            if len(pair_colors[pi]) != 2:
                continue  # single-colour part cannot move; try the other side
            v1, v2 = sorted(groups[pi])
            if colors[v1] != colors[v2]:
                raise StarRepairError(f"P4 {quad} pair in part {pi} is not monochromatic",
                                      p4s, tuple(colors))
            pc = pair_colors[pi]
            other = pc[1] if colors[v1] == pc[0] else pc[0]
            loose = [v for v in (v1, v2) if g.adj[v] & parts[pi] == 0]
            if loose:
                colors[min(loose)] = other
            else:
                inside = g.adj[v1] & parts[pi]
                if inside.bit_count() != 1:
                    raise StarRepairError(f"vertex {v1} has in-part degree {inside.bit_count()}",
                                          p4s, tuple(colors))
                partner = (inside & -inside).bit_length() - 1
                colors[v1], colors[partner] = colors[partner], colors[v1]
            repaired = True
            break
        if not repaired:
            raise StarRepairError(f"no repairable side for bicoloured P4 {quad}", p4s, tuple(colors))
        if not _is_proper(g, colors):
            raise InternalCheckError("repair broke properness")
    raise StarRepairError(f"iteration cap {cap} exhausted",
                          find_bicolored_p4s(g, colors), tuple(colors))


def verify_star_coloring(g: Graph, colors) -> bool:
    """Proper and no path on 4 vertices uses only 2 colours."""
    colors = list(colors)
    color_classes(g, colors)
    if not _is_proper(g, colors):
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
