"""Star colourings: pairing construction, P4 repair, exact search.

Non-obvious chromatic values below were derived once with a separate
brute-force colourer (all assignments, all P4 quadruples) and frozen.
"""

from __future__ import annotations

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


def test_repair_flips_loose_vertex():
    g = path_graph(4)
    ppc = PairPartitionColoring((ids_to_mask([0, 2]), ids_to_mask([1, 3])),
                                ((0, 1), (2, 3)), (0, 2, 0, 2))
    fixed = repair_bicolored_p4s(g, ppc)
    # 0 and 2 are both loose in their part; the smaller one flips
    assert fixed.colors == (1, 2, 0, 2)
    assert find_bicolored_p4s(g, fixed.colors) == []


def test_repair_swaps_matched_pair():
    g = Graph.from_edges(6, [(0, 1), (2, 3), (0, 4), (2, 4), (2, 5)])
    ppc = PairPartitionColoring((ids_to_mask([0, 1, 2, 3]), ids_to_mask([4, 5])),
                                ((0, 1), (2, 3)), (0, 1, 0, 1, 2, 2))
    assert find_bicolored_p4s(g, ppc.colors) == [(0, 4, 2, 5)]
    fixed = repair_bicolored_p4s(g, ppc)
    # both 0 and 2 are matched inside the part; 0 swaps with its partner 1
    assert fixed.colors == (1, 0, 0, 1, 2, 2)
    assert find_bicolored_p4s(g, fixed.colors) == []


def test_repair_hits_cap_on_a_swap_cycle():
    # second quad (1, 4, 3, 5) holds the swap partner of the first, and the
    # lower-part preference swaps 0 and 1 back and forth until the cap
    g = Graph.from_edges(6, [(0, 1), (2, 3), (0, 4), (2, 4), (2, 5),
                             (1, 4), (3, 4), (3, 5)])
    ppc = PairPartitionColoring((ids_to_mask([0, 1, 2, 3]), ids_to_mask([4, 5])),
                                ((0, 1), (2, 3)), (0, 1, 0, 1, 2, 2))
    with pytest.raises(StarRepairError, match="cap"):
        repair_bicolored_p4s(g, ppc)


def _reference_repair(g, ppc):
    """The repair loop run round by round up to the cap, with no cycle
    detection and its own P4 list: the reference the early stop must match
    exactly."""
    found = set()
    for v, w in g.edges():
        for u in iter_bits(g.adj[v] & ~(1 << w)):
            for z in iter_bits(g.adj[w] & ~(1 << v) & ~(1 << u)):
                found.add(min((u, v, w, z), (z, w, v, u)))
    quads = sorted(found)

    def find_bicolored_p4s(_g, colors):
        return [q for q in quads if len({colors[v] for v in q}) == 2]

    colors = list(ppc.colors)
    parts, pair_colors = ppc.parts, ppc.pair_colors
    part_of = {v: i for i, m in enumerate(parts) for v in iter_bits(m)}
    cap = 2 * g.n * g.n
    for _ in range(cap):
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
        for pi in sorted(groups):
            if len(pair_colors[pi]) != 2:
                continue
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
            break
        else:
            raise StarRepairError(f"no repairable side for bicoloured P4 {quad}", p4s, tuple(colors))
    raise StarRepairError(f"iteration cap {cap} exhausted",
                          find_bicolored_p4s(g, colors), tuple(colors))


def _repair_outcome(repair, g, ppc):
    try:
        return repair(g, ppc)
    except StarRepairError as exc:
        return str(exc), exc.residual, exc.colors


def test_repair_stops_early_with_the_capped_loops_result():
    stalls = 0
    for seed in range(200):
        n = 6 + seed % 11
        g = random_2connected(n, extra_ears=n // 3, seed=seed)
        ppc = pair_partition_coloring(g)
        got = _repair_outcome(repair_bicolored_p4s, g, ppc)
        assert got == _repair_outcome(_reference_repair, g, ppc), seed
        stalls += isinstance(got, tuple)
    # the comparison covers stalled repairs
    assert stalls >= 20


def test_repair_stops_at_first_repeated_colouring(monkeypatch):
    # the graph of test_repair_hits_cap_on_a_swap_cycle: the full loop would
    # scan for P4s in all 2 * 6^2 = 72 rounds
    g = Graph.from_edges(6, [(0, 1), (2, 3), (0, 4), (2, 4), (2, 5),
                             (1, 4), (3, 4), (3, 5)])
    ppc = PairPartitionColoring((ids_to_mask([0, 1, 2, 3]), ids_to_mask([4, 5])),
                                ((0, 1), (2, 3)), (0, 1, 0, 1, 2, 2))
    scans = []

    def counting(graph, colors):
        scans.append(tuple(colors))
        return find_bicolored_p4s(graph, colors)

    monkeypatch.setattr(starcolor, "find_bicolored_p4s", counting)
    with pytest.raises(StarRepairError, match="cap 72") as info:
        repair_bicolored_p4s(g, ppc)
    assert len(scans) <= 6
    monkeypatch.undo()
    with pytest.raises(StarRepairError) as ref:
        _reference_repair(g, ppc)
    assert (info.value.residual, info.value.colors) == (ref.value.residual, ref.value.colors)


def test_repair_of_the_empty_graph_returns_it():
    # no round is allowed (the cap is 0), and none is needed
    ppc = PairPartitionColoring((), (), ())
    assert repair_bicolored_p4s(empty_graph(0), ppc) == ppc


# test_repair_swaps_matched_pair's paired colouring, with one fault each
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


def test_star_coloring_fallback_witness():
    # the one connected graph on <= 6 vertices whose pair colouring resists
    # the local repairs; the depth colouring still fits inside tau colours
    g = parse_graph6("Ezn?")
    cert = star_coloring(g)
    assert cert.verified
    assert cert.witness is not None
    assert "residual_p4s" in cert.witness[0]
    assert cert.colors_used <= cert.bound
    assert "witness" in cert.to_json_dict()


def test_star_coloring_keeps_a_witness_per_stalled_component():
    g = parse_graph6("Ezn?")
    twice = Graph(12, g.adj + tuple(row << 6 for row in g.adj))
    cert = star_coloring(twice)
    assert verify_star_coloring(twice, cert.colors)
    assert [w["component"] for w in cert.witness] == [list(range(6)), list(range(6, 12))]
    assert all("residual_p4s" in w and "colors_at_failure" in w for w in cert.witness)


# every stall these graphs reach is coloured without the exact search: Ezn?,
# the four stalling colourings of test_cli's construction calls, and a
# 20-vertex graph on which that search took seconds
STALLING = [parse_graph6("Ezn?"), parse_graph6("SheHGC@AgA_H?@??_?G?@??COCG??LO?C")] + [
    random_2connected(7 + seed % 6, extra_ears=(7 + seed % 6) // 3, seed=seed) for seed in (1, 3, 4, 6)]


@pytest.mark.parametrize("g", STALLING, ids=lambda g: f"n{g.n}m{g.m}")
def test_stalled_repairs_need_no_exact_search(g, monkeypatch):
    def refuse(*args):
        raise AssertionError("star_coloring ran the exact colour search")

    monkeypatch.setattr(starcolor, "smallest_coloring", refuse)
    cert = star_coloring(g)
    assert cert.witness is not None
    assert verify_star_coloring(g, cert.colors)
    assert cert.colors_used <= cert.bound == detour_order(g).tau


def test_every_stall_is_the_iteration_cap(monkeypatch):
    # a paired colouring is checked once, and a round cannot fail: the only
    # way a repair star_coloring runs can stop short is by cycling to the
    # cap.  45 of the 996 connected classes on 1..7 vertices stall
    reasons = []

    def spy(g, ppc):
        try:
            return repair_bicolored_p4s(g, ppc)
        except StarRepairError as exc:
            reasons.append(str(exc))
            raise

    monkeypatch.setattr(starcolor, "repair_bicolored_p4s", spy)
    for g in [from_triangle_mask(n, m) for n in range(1, 8) for m in connected_graphs_upto_iso(n)]:
        star_coloring(g)
    assert len(reasons) == 45
    for g in STALLING:
        star_coloring(g)
    assert len(reasons) == 45 + len(STALLING)
    assert all(r.startswith("iteration cap ") and r.endswith(" exhausted") for r in reasons)


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
