"""The shared backtracking colour search against the searches it replaced.

The reference below is a copy of the hand-written backtrackers and the
star fallback loop that `multiway.smallest_coloring` replaced: the exact
n-detour and star searches and the loop that once searched for a star
colouring when the repair stalled.  The shared search must give
the same chromatic numbers and, for the star test, the same first colouring.
"""

from __future__ import annotations

import gc

import pytest

from taupart.detour import detour_order, subset_tau_at_most
from taupart.errors import CapacityError, InternalCheckError
from taupart.graphs import Graph, cycle_graph, from_triangle_mask, iter_bits, random_2connected
from taupart.multiway import exact_detour_chromatic, smallest_coloring
from taupart.oracle import connected_graphs_upto_iso
from taupart.starcolor import _all_p4s, _star_admissible, exact_star_chromatic


def ref_exact_detour_chromatic(g: Graph, n: int) -> int:
    if g.n == 0:
        return 0

    def colorable(k: int) -> bool:
        classes = [0] * k

        def place(v: int, used: int) -> bool:
            if v == g.n:
                return True
            for c in range(min(used + 1, k)):
                trial = classes[c] | (1 << v)
                if subset_tau_at_most(g, trial, n):
                    classes[c] = trial
                    if place(v + 1, max(used, c + 1)):
                        return True
                    classes[c] ^= 1 << v
            return False

        return place(0, 0)

    for k in range(1, g.n + 1):
        if colorable(k):
            return k
    raise AssertionError("colouring with one class per vertex must succeed")


def ref_star_colors_with(g: Graph, k: int) -> tuple[int, ...] | None:
    by_max: list[list[tuple[int, int, int, int]]] = [[] for _ in range(g.n)]
    for quad in _all_p4s(g):
        by_max[max(quad)].append(quad)
    colors = [-1] * g.n

    def place(v: int, used: int) -> bool:
        below = (1 << v) - 1
        for c in range(min(used + 1, k)):
            ok = all(colors[u] != c for u in iter_bits(g.adj[v] & below))
            if not ok:
                continue
            colors[v] = c
            if all(len({colors[a], colors[b], colors[cc], colors[d]}) >= 3
                   for a, b, cc, d in by_max[v]):
                if v + 1 == g.n or place(v + 1, max(used, c + 1)):
                    return True
            colors[v] = -1
        return False

    if g.n == 0:
        return ()
    return tuple(colors) if place(0, 0) else None


def ref_smallest_k(colors_with, g: Graph) -> int:
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        if colors_with(g, k) is not None:
            return k
    raise AssertionError("rainbow colouring is always admissible")


def ref_star_fallback(g: Graph, tau_c: int) -> tuple[int, ...] | None:
    fallback = None
    for k in range(1, tau_c + 1):
        fallback = ref_star_colors_with(g, k)
        if fallback is not None:
            break
    return fallback


def _corpus() -> list[Graph]:
    small = [from_triangle_mask(n, m) for n in range(1, 7) for m in connected_graphs_upto_iso(n)]
    return small + [random_2connected(n, extra_ears=e, seed=100 * n + e)
                    for n in range(7, 11) for e in range(5)]


CORPUS = _corpus()


@pytest.mark.parametrize("g", CORPUS, ids=lambda g: f"n{g.n}m{g.m}")
def test_shared_search_matches_the_old_backtrackers(g):
    tau = detour_order(g).tau
    for n in range(1, tau + 1):
        assert exact_detour_chromatic(g, n) == ref_exact_detour_chromatic(g, n)
    assert exact_star_chromatic(g) == ref_smallest_k(ref_star_colors_with, g)
    assert smallest_coloring(g, _star_admissible(g)) == ref_star_fallback(g, g.n)


def test_shared_search_returns_the_first_colouring_of_the_fewest_colours():
    g = cycle_graph(5)  # star chromatic number 4
    assert smallest_coloring(g, _star_admissible(g)) == ref_star_colors_with(g, 4)
    assert smallest_coloring(Graph(0, ()), _star_admissible(Graph(0, ()))) == ()
    with pytest.raises(InternalCheckError):
        smallest_coloring(g, lambda v, c, colors, classes: False)


def test_the_shared_search_leaves_no_reference_cycle():
    # a nested function that calls itself is a cycle, which only the
    # garbage collector frees: one per search would make it run more
    # often on every workload
    g = cycle_graph(5)
    gc.collect()
    assert smallest_coloring(g, _star_admissible(g))
    assert gc.collect() == 0


@pytest.mark.parametrize("search, call", [
    ("exact search", lambda g, **kw: exact_detour_chromatic(g, 2, **kw)),
    ("exact star search", exact_star_chromatic),
])
def test_exact_searches_keep_their_capacity_messages(search, call):
    with pytest.raises(CapacityError) as exc:
        call(cycle_graph(15))
    assert str(exc.value) == f"{search} over 15 vertices exceeds the cap of 14"
    with pytest.raises(CapacityError) as exc:
        call(cycle_graph(6), max_n=5)
    assert str(exc.value) == f"{search} over 6 vertices exceeds the cap of 5"
    assert call(cycle_graph(6), max_n=6) >= 2
