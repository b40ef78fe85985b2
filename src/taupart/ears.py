"""Open ear decompositions of 2-connected graphs.

A decomposition is a base cycle plus an ordered list of ears; attaching the
ears in order rebuilds the graph, every prefix is 2-connected, and the ears
partition the edge set.  The construction is the chain decomposition
(Schmidt 2013) of the depth-first tree `graphs.dfs_tree` grows from vertex 0:
each unprocessed back edge opens a chain that runs back up tree edges until
it hits an already-covered vertex.  The first chain is the base cycle; the
rest are ears (a chain with no fresh vertices is a chord ear).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import InternalCheckError, NotTwoConnectedError
from .graphs import (Graph, add_ear, blocks, check_graph, closure, cycle_graph, dfs_tree, ids_to_mask, is_connected,
                     iter_bits, lift, pair_index)


@dataclass(frozen=True)
class Ear:
    """Path x, internals..., y with both endpoints in the already-built graph."""

    x: int
    y: int
    internals: tuple[int, ...]

    @property
    def r(self) -> int:
        return len(self.internals)


@dataclass(frozen=True)
class EarDecomposition:
    base_cycle: tuple[int, ...]
    ears: tuple[Ear, ...]


def is_two_connected(g: Graph) -> bool:
    """At least 3 vertices, all in one block (a disconnected graph has a
    block per component, an isolated vertex its own).  GraphError unless g
    is a Graph."""
    check_graph(g)
    return g.n >= 3 and len(blocks(g)[0]) == 1


def induces_two_connected(g: Graph, mask: int) -> bool:
    """is_two_connected(<mask>), read in g's own ids with no relabel: at
    least 3 vertices, and <mask - v> connected for every v in mask.  That
    also rules out a disconnected <mask>: removing a vertex from a
    component of two or more vertices, or from another component when
    every component is a single vertex, leaves it disconnected.  A vertex
    of degree below 2 in <mask>, which most multiway remainders have,
    rules it out before any closure."""
    if mask.bit_count() < 3 or any((g.adj[v] & mask).bit_count() < 2 for v in iter_bits(mask)):
        return False
    for v in iter_bits(mask):
        rest = mask & ~(1 << v)
        if closure(g.adj, rest & -rest, rest) != rest:
            return False
    return True


def require_two_connected(g: Graph) -> None:
    """Raise NotTwoConnectedError, naming a cut vertex when one exists,
    unless g is 2-connected."""
    if g.n < 3:
        raise NotTwoConnectedError(f"graph on {g.n} vertices is too small to be 2-connected")
    if not is_connected(g):
        raise NotTwoConnectedError("graph is disconnected")
    _, cut_mask = blocks(g)
    if cut_mask:
        v = (cut_mask & -cut_mask).bit_length() - 1
        raise NotTwoConnectedError(f"vertex {v} is a cut vertex", cut_vertex=v)


def ear_decompose(g: Graph) -> EarDecomposition:
    """Decompose a 2-connected graph into a base cycle plus ears: the chain
    decomposition of `dfs_tree(g, 0)`.  Output is deterministic for a given
    graph.

    Raises NotTwoConnectedError (naming a cut vertex when one exists) on
    graphs that are not 2-connected, and GraphError on a g that is not a
    Graph.
    """
    check_graph(g)
    require_two_connected(g)
    n = g.n
    parent, order = dfs_tree(g, 0)
    dfsnum = [0] * n
    for i, v in enumerate(order):
        dfsnum[v] = i

    back_at: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        for w in iter_bits(g.adj[u]):
            if dfsnum[w] < dfsnum[u] and parent[u] != w:
                back_at[w].append(u)  # u descends to ancestor w

    visited = [False] * n
    chains: list[list[int]] = []
    for v in order:
        for u in sorted(back_at[v]):
            visited[v] = True
            chain = [v]
            w = u
            while not visited[w]:
                visited[w] = True
                chain.append(w)
                w = parent[w]
            chain.append(w)
            chains.append(chain)

    if not chains:
        raise InternalCheckError("2-connected graph produced no chains")
    first = chains[0]
    if first[0] != first[-1] or len(first) < 4:
        raise InternalCheckError("first chain is not a cycle")
    base = tuple(first[:-1])
    ears = tuple(Ear(c[0], c[-1], tuple(c[1:-1])) for c in chains[1:])
    return EarDecomposition(base, ears)


def ear_diagnostics(g: Graph, d: EarDecomposition) -> list[str]:
    """All the ways `d` fails to be an ear decomposition of g (empty = valid).

    Checks: the base really is a cycle of g, ear endpoints land on already
    covered vertices, internal vertices are fresh and induce a path of g,
    and the base plus ears partition E(g) and cover V(g) exactly.
    """
    msgs: list[str] = []
    base = d.base_cycle
    seen = 0
    covered = 0

    def cover(a: int, b: int, where: str) -> None:
        nonlocal covered
        if not g.has_edge(a, b):
            msgs.append(f"{where}: ({a}, {b}) is not an edge of g")
            return
        bit = 1 << pair_index(a, b)
        if covered & bit:
            msgs.append(f"{where}: edge ({a}, {b}) covered twice")
        covered |= bit

    if len(base) < 3:
        msgs.append(f"base cycle has {len(base)} vertices, needs at least 3")
    if len(set(base)) != len(base):
        msgs.append("base cycle repeats a vertex")
    if any(not 0 <= v < g.n for v in base):
        msgs.append("base cycle vertex out of range")
        return msgs
    for i, v in enumerate(base):
        cover(v, base[(i + 1) % len(base)], "base cycle")
    seen = ids_to_mask(base)

    for idx, ear in enumerate(d.ears):
        where = f"ear {idx}"
        pts = (ear.x, *ear.internals, ear.y)
        if any(not 0 <= v < g.n for v in pts):
            msgs.append(f"{where}: vertex out of range")
            continue
        if ear.x == ear.y:
            msgs.append(f"{where}: endpoints coincide at {ear.x}")
        for v in (ear.x, ear.y):
            if not seen >> v & 1:
                msgs.append(f"{where}: endpoint {v} not in the built prefix")
        for v in ear.internals:
            if seen >> v & 1:
                msgs.append(f"{where}: internal vertex {v} is not fresh")
        if len(set(ear.internals)) != len(ear.internals):
            msgs.append(f"{where}: internal vertices repeat")
        for a, b in zip(pts, pts[1:]):
            cover(a, b, where)
        seen |= ids_to_mask(ear.internals)

    if seen != g.full_mask:
        missing = [v for v in range(g.n) if not seen >> v & 1]
        msgs.append(f"vertices {missing} not covered")
    want = 0
    for a, b in g.edges():
        want |= 1 << pair_index(a, b)
    if covered != want:
        missing_bits = (want & ~covered).bit_count()
        if missing_bits:
            msgs.append(f"{missing_bits} edge(s) of g not covered")
    return msgs


def ear_levels(d: EarDecomposition) -> Iterator[tuple[Graph, Ear | None, tuple[int, ...]]]:
    """Fold add_ear over the decomposition, yielding every level in turn.

    Each level comes as (graph, local ear, local->original ids).  Level 0 is
    the base cycle relabelled 0..c-1 in cycle order, with ear None; level
    i >= 1 is level i-1 plus ear i-1, whose fresh internal vertices take the
    next local ids.  The local ear is that ear in level i-1's ids.

    `d` is `ear_decompose`'s output, whose chains already meet every rule of
    an ear decomposition, so nothing is checked again here: the caller
    checks the top level against g with `relabels_to`, and
    `ear_diagnostics` checks any other decomposition.
    """
    base = d.base_cycle
    gg = cycle_graph(len(base))
    orig = list(base)
    pos = {v: i for i, v in enumerate(base)}
    yield gg, None, tuple(orig)
    for ear in d.ears:
        lx, ly, start = pos[ear.x], pos[ear.y], gg.n
        gg = add_ear(gg, lx, ly, ear.r)
        for off, ov in enumerate(ear.internals):
            pos[ov] = start + off
            orig.append(ov)
        yield gg, Ear(lx, ly, tuple(range(start, gg.n))), tuple(orig)


def relabels_to(h: Graph, orig_of: Sequence[int], g: Graph) -> bool:
    """Is h, with each local id i read as orig_of[i], exactly g?"""
    if h.n != g.n or sorted(orig_of) != list(range(g.n)):
        return False
    rebuilt = [0] * g.n
    for u, row in enumerate(h.adj):
        rebuilt[orig_of[u]] = lift(row, orig_of)
    return tuple(rebuilt) == g.adj
