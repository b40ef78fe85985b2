"""Star colourings: pairing construction, paired star search, exact search.

Non-obvious chromatic values below were derived once with a separate
brute-force colourer (all assignments, all P4 quadruples) and frozen.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taupart.detour import detour_order
from taupart.errors import GraphError, StarRepairError
from taupart import starcolor
from taupart.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    encode_graph6,
    from_triangle_mask,
    ids_to_mask,
    iter_bits,
    parse_graph6,
    path_graph,
    random_2connected,
    random_graph,
)
from taupart.oracle import connected_graphs_upto_iso, two_connected_graphs_upto_iso
from taupart.starcolor import (
    PairPartitionColoring,
    depth_coloring,
    exact_star_chromatic,
    find_bicolored_p4s,
    pair_partition_coloring,
    repair_bicolored_p4s,
    star_coloring,
    verify_star_coloring,
)

BOWTIE = parse_graph6("DxK")


def test_find_bicolored_p4s_counts():
    assert find_bicolored_p4s(path_graph(4), [0, 1, 0, 1]) == [(0, 1, 2, 3)]
    assert len(find_bicolored_p4s(cycle_graph(4), [0, 1, 0, 1])) == 4
    assert len(find_bicolored_p4s(cycle_graph(6), [0, 1, 0, 1, 0, 1])) == 6
    assert find_bicolored_p4s(path_graph(4), [0, 1, 2, 0]) == []


def test_verify_star_coloring():
    assert verify_star_coloring(path_graph(4), [0, 1, 2, 0])
    assert not verify_star_coloring(path_graph(4), [0, 1, 0, 1])  # bicoloured path
    assert not verify_star_coloring(path_graph(4), [0, 0, 1, 2])  # not proper
    assert verify_star_coloring(complete_graph(4), [0, 1, 2, 3])


def test_pair_coloring_is_proper():
    for g in (cycle_graph(4), cycle_graph(7), complete_graph(5), BOWTIE, path_graph(6)):
        ppc = pair_partition_coloring(g)
        assert len(ppc.colors) == g.n
        for u, v in g.edges():
            assert ppc.colors[u] != ppc.colors[v]


def _paired_choices(ppc):
    """Each vertex's colours in the search's order: its given colour, then
    the rest of its part's pair."""
    part_of = {v: i for i, m in enumerate(ppc.parts) for v in iter_bits(m)}
    return [(c, *(d for d in ppc.pair_colors[part_of[v]] if d != c)) for v, c in enumerate(ppc.colors)]


def test_search_finds_the_first_paired_star_colouring_on_every_small_class():
    # every colour-pair assignment of the package's partition, in the
    # search's own order (itertools.product varies the last vertex fastest);
    # 12 of the 996 connected classes on 1..7 vertices have none there, and
    # fall back to the depth colouring
    fallbacks = []
    for g in [from_triangle_mask(n, m) for n in range(1, 8) for m in connected_graphs_upto_iso(n)]:
        ppc = pair_partition_coloring(g)
        first = next((cs for cs in itertools.product(*_paired_choices(ppc))
                      if verify_star_coloring(g, cs)), None)
        try:
            found = repair_bicolored_p4s(g, ppc)
        except StarRepairError as exc:
            assert first is None, encode_graph6(g)
            assert str(exc) == "no paired star colouring"
            assert (exc.residual, exc.colors) == (find_bicolored_p4s(g, ppc.colors), ppc.colors)
            fallbacks.append(encode_graph6(g))
        else:
            assert found == PairPartitionColoring(ppc.parts, ppc.pair_colors, first), encode_graph6(g)
    assert len(fallbacks) == 12
    assert fallbacks[0] == "F@~u?"


def _counting_step_test(monkeypatch):
    """Count the search's colour tries: each one asks the step test once."""
    tries = []
    real = starcolor._star_admissible

    def counting(g):
        admissible = real(g)

        def test(*args):
            tries.append(args[:2])
            return admissible(*args)
        return test

    monkeypatch.setattr(starcolor, "_star_admissible", counting)
    return tries


def test_a_star_colouring_comes_back_unchanged(monkeypatch):
    tries = _counting_step_test(monkeypatch)
    unchanged = 0
    for seed in range(60):
        n = 6 + seed % 11
        g = random_2connected(n, extra_ears=n // 3, seed=seed)
        ppc = pair_partition_coloring(g)
        if find_bicolored_p4s(g, ppc.colors):
            continue
        tries.clear()
        assert repair_bicolored_p4s(g, ppc) == ppc
        # one try per vertex, each its given colour
        assert tries == list(enumerate(ppc.colors))
        unchanged += 1
    assert unchanged >= 10


# a color-n16 graph (seed 501) whose search runs out of tries; a search
# with no budget proves after some 35,000 tries that its partition has no
# paired star colouring
BUDGET_GRAPH = parse_graph6("OhCGGC@_IO?A?@?@_AG?X")


def test_a_search_that_uses_up_its_budget_falls_back_to_the_depth_colouring(monkeypatch):
    tries = _counting_step_test(monkeypatch)
    cert = star_coloring(BUDGET_GRAPH)
    assert len(tries) == starcolor.STAR_SEARCH_BUDGET
    [witness] = cert.witness
    assert witness["note"] == f"search budget of {starcolor.STAR_SEARCH_BUDGET} colour tries used up"
    ppc = pair_partition_coloring(BUDGET_GRAPH)
    assert witness["colors_at_failure"] == list(ppc.colors)
    assert witness["residual_p4s"] == [list(q) for q in find_bicolored_p4s(BUDGET_GRAPH, ppc.colors)]
    assert cert.colors == depth_coloring(BUDGET_GRAPH)
    monkeypatch.setattr(starcolor, "STAR_SEARCH_BUDGET", 10**6)
    with pytest.raises(StarRepairError, match="^no paired star colouring$"):
        repair_bicolored_p4s(BUDGET_GRAPH, ppc)


def test_repair_of_the_empty_graph_returns_it():
    # no vertex, so no colour try
    ppc = PairPartitionColoring((), (), ())
    assert repair_bicolored_p4s(empty_graph(0), ppc) == ppc


# a paired colouring of a 6-vertex graph, with one fault each
PAIRED = {"edges": [(0, 1), (2, 3), (0, 4), (2, 4), (2, 5)], "parts": ([0, 1, 2, 3], [4, 5]),
          "pairs": ((0, 1), (2, 3)), "colors": (0, 1, 0, 1, 2, 2)}


@pytest.mark.parametrize("fault, message", [
    pytest.param({"parts": ([0, 1, 2], [4, 5])}, "parts do not partition the vertices",
                 id="uncovered-vertex"),
    pytest.param({"parts": ([0, 1, 2, 3], [3, 4, 5])}, "parts do not partition the vertices",
                 id="overlapping-parts"),
    pytest.param({"pairs": ((0, 1, 6), (2, 3))}, "every part needs one or two colours",
                 id="three-colours"),
    pytest.param({"pairs": ((0, 1), (1, 2))}, "a colour is listed twice among the parts",
                 id="shared-colour"),
    pytest.param({"parts": ([0, 1, 2, 3], [4], [5]), "pairs": ((0, 1), (2,), (3,)), "colors": (0, 1, 0, 1, 2, 3)},
                 "more than one part has a single colour", id="two-single-colour-parts"),
    pytest.param({"colors": (0, 1, 0, 1, 2, 4)}, "every vertex needs a colour of its part's pair",
                 id="colour-outside-pair"),
    # colours that are not non-negative ints: a search on them could hand
    # back a colouring that verify_star_coloring rejects
    pytest.param({"pairs": ((0.5, "x"), (2, 3)), "colors": (0.5, "x", 0.5, "x", 2, 2)},
                 "every part's colours must be non-negative integers", id="float-and-str-colours"),
    pytest.param({"pairs": ((0, 1), (-3, -4)), "colors": (0, 1, 0, 1, -3, -3)},
                 "every part's colours must be non-negative integers", id="negative-colours"),
    pytest.param({"colors": (0, 1.0, 0, 1, 2, 2)}, "every vertex needs a colour of its part's pair",
                 id="float-equal-to-a-pair-colour"),
    pytest.param({"colors": (0, True, 0, 1, 2, 2)}, "every vertex needs a colour of its part's pair",
                 id="bool-equal-to-a-pair-colour"),
    # the path 0-1-2-3 inside one part: its bicoloured P4 would not split 2+2
    pytest.param({"edges": [(0, 1), (1, 2), (2, 3)]}, "part 0 is not a matching plus isolated vertices",
                 id="p4-in-one-part"),
    pytest.param({"colors": (0, 0, 0, 1, 2, 2)}, "matched vertex 0 has its partner's colour",
                 id="matched-same-colour"),
])
def test_repair_rejects_a_colouring_that_is_not_paired(fault, message):
    case = {**PAIRED, **fault}
    ppc = PairPartitionColoring(tuple(ids_to_mask(p) for p in case["parts"]), case["pairs"], case["colors"])
    with pytest.raises(GraphError) as info:
        repair_bicolored_p4s(Graph.from_edges(6, case["edges"]), ppc)
    assert str(info.value) == message


@pytest.mark.parametrize("n, parts, colors", [(4, (3.0, 12), (0, 1, 2, 3)), (2, (True, 2), (0, 2))],
                         ids=["float-part", "bool-part"])
def test_repair_rejects_parts_that_are_not_int_masks(n, parts, colors):
    # 3.0 passed the sum test and met bit_count (AttributeError); True was read as the part {0}
    with pytest.raises(GraphError) as info:
        repair_bicolored_p4s(path_graph(n), PairPartitionColoring(parts, ((0, 1), (2, 3)), colors))
    assert str(info.value) == "parts do not partition the vertices"


def test_exact_star_chromatic_known_values():
    assert exact_star_chromatic(path_graph(4)) == 3
    assert exact_star_chromatic(cycle_graph(4)) == 3
    assert exact_star_chromatic(cycle_graph(5)) == 4
    assert exact_star_chromatic(cycle_graph(6)) == 3
    assert exact_star_chromatic(cycle_graph(7)) == 3
    for n in range(1, 6):
        assert exact_star_chromatic(complete_graph(n)) == n
    assert exact_star_chromatic(BOWTIE) == 3
    k23 = Graph.from_edges(5, [(i, j) for i in (0, 1) for j in (2, 3, 4)])
    assert exact_star_chromatic(k23) == 3


def test_star_coloring_families():
    for g in (path_graph(4), cycle_graph(5), cycle_graph(6), complete_graph(5), BOWTIE):
        cert = star_coloring(g)
        assert cert.verified
        assert cert.property == "star"
        assert cert.bound == detour_order(g).tau
        assert cert.colors_used <= cert.bound
        assert verify_star_coloring(g, cert.colors)


def test_star_coloring_disconnected():
    g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6)])
    cert = star_coloring(g)
    assert cert.verified
    assert verify_star_coloring(g, cert.colors)


# the first connected graph on <= 7 vertices whose partition has no paired
# star colouring
NO_PAIRED = parse_graph6("F@~u?")


def test_star_coloring_fallback_witness():
    # the depth colouring put in its place still fits inside tau colours
    cert = star_coloring(NO_PAIRED)
    assert cert.verified
    assert cert.witness is not None
    assert "residual_p4s" in cert.witness[0]
    assert cert.witness[0]["note"] == "no paired star colouring"
    assert cert.colors_used <= cert.bound
    assert "witness" in cert.to_json_dict()


@pytest.mark.parametrize("budget, note", [
    (109, "search budget of 109 colour tries used up"),
    (110, "search budget of 110 colour tries used up"),
    (111, "no paired star colouring"),
])
def test_a_search_whose_last_try_ends_it_reports_the_budget(budget, note, monkeypatch):
    # the search proves in 110 tries that NO_PAIRED's partition has no
    # paired star colouring; a budget of exactly 110 still ends in the
    # budget note, as its last try leaves no colouring
    tries = _counting_step_test(monkeypatch)
    ppc = pair_partition_coloring(NO_PAIRED)
    with pytest.raises(StarRepairError, match="^no paired star colouring$"):
        repair_bicolored_p4s(NO_PAIRED, ppc)
    assert len(tries) == 110
    tries.clear()
    monkeypatch.setattr(starcolor, "STAR_SEARCH_BUDGET", budget)
    with pytest.raises(StarRepairError, match=f"^{note}$") as info:
        repair_bicolored_p4s(NO_PAIRED, ppc)
    assert len(tries) == min(budget, 110)
    assert (info.value.residual, info.value.colors) == (find_bicolored_p4s(NO_PAIRED, ppc.colors), ppc.colors)


def test_star_coloring_keeps_a_witness_per_stalled_component():
    g = NO_PAIRED
    twice = Graph(14, g.adj + tuple(row << 7 for row in g.adj))
    cert = star_coloring(twice)
    assert verify_star_coloring(twice, cert.colors)
    assert [w["component"] for w in cert.witness] == [list(range(7)), list(range(7, 14))]
    assert all("residual_p4s" in w and "colors_at_failure" in w for w in cert.witness)


# the graphs the former repair loop stalled on (Ezn?, the four stalling
# colourings of test_cli's construction calls at the time, and a 20-vertex
# graph on which the exact search took seconds), one whose partition has no
# paired star colouring, and one whose search uses up its budget: none of
# them is coloured by the exact search
STALLING = [parse_graph6("Ezn?"), parse_graph6("SheHGC@AgA_H?@??_?G?@??COCG??LO?C")] + [
    random_2connected(7 + seed % 6, extra_ears=(7 + seed % 6) // 3, seed=seed) for seed in (1, 3, 4, 6)] + [
    NO_PAIRED, BUDGET_GRAPH]


@pytest.mark.parametrize("g", STALLING, ids=lambda g: f"n{g.n}m{g.m}")
def test_stalled_repairs_need_no_exact_search(g, monkeypatch):
    def refuse(*args):
        raise AssertionError("star_coloring ran the exact colour search")

    monkeypatch.setattr(starcolor, "smallest_coloring", refuse)
    cert = star_coloring(g)
    assert verify_star_coloring(g, cert.colors)
    assert cert.colors_used <= cert.bound == detour_order(g).tau


def test_depth_coloring_is_a_star_coloring_within_tau():
    classes = [from_triangle_mask(n, m) for n in range(1, 7) for m in connected_graphs_upto_iso(n)]
    classes += [from_triangle_mask(7, m) for m in two_connected_graphs_upto_iso(7)]
    assert len(classes) == 611
    for g in classes:
        colors = depth_coloring(g)
        assert verify_star_coloring(g, colors), encode_graph6(g)
        assert len(set(colors)) <= detour_order(g).tau, encode_graph6(g)


def test_depth_coloring_keeps_the_lowest_root_of_fewest_depths():
    # a path on 5 vertices: the middle root gives 3 depths, an end root 5
    assert depth_coloring(path_graph(5)) == (2, 1, 0, 1, 2)
    # on 4 vertices the two middle roots both give 3 depths
    assert depth_coloring(path_graph(4)) == (1, 0, 1, 2)
    with pytest.raises(GraphError):
        depth_coloring(Graph.from_edges(3, [(0, 1)]))


def test_chromatic_chain_on_small_graphs():
    from taupart.multiway import exact_detour_chromatic

    for seed in range(30):
        g = random_graph(6, 0.5, seed=seed)
        chi = exact_detour_chromatic(g, 1)
        star = exact_star_chromatic(g)
        tau = detour_order(g).tau
        assert chi <= star <= tau


@given(st.integers(2, 8), st.floats(0.2, 0.9), st.integers(0, 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_star_coloring_random(n, p, seed):
    g = random_graph(n, p, seed=seed)
    cert = star_coloring(g)
    assert cert.verified
    assert verify_star_coloring(g, cert.colors)
    assert cert.colors_used <= detour_order(g).tau
