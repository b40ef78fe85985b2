"""Graph container, graph6 codec, and structure helpers.

The graph6 reference values below were produced by a separate string-based
encoder written directly from the format definition (column-major upper
triangle, 6-bit groups, bytes offset by 63) and are frozen here.
"""

from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taupart.detour import has_path_of_order
from taupart.errors import CapacityError, Graph6Error, GraphError
from taupart.graphs import (
    MAX_VERTICES,
    Graph,
    add_ear,
    blocks,
    closure,
    complete_graph,
    connected_components,
    cycle_graph,
    empty_graph,
    encode_graph6,
    from_triangle_mask,
    ids_to_mask,
    induced_subgraph,
    is_connected,
    iter_bits,
    lift,
    mask_to_ids,
    pair_index,
    parse_graph6,
    path_graph,
    petersen_graph,
    random_2connected,
    random_graph,
    relabel,
    to_dot,
    to_triangle_mask,
    triangle_rows,
)
from taupart.oracle import corpus_graphs, graphs_upto_iso


def reference_g6(n: int, edges) -> str:
    """Independent graph6 encoder used to cross-check the real one."""
    eset = {frozenset(e) for e in edges}
    bits = ""
    for j in range(1, n):
        for i in range(j):
            bits += "1" if frozenset((i, j)) in eset else "0"
    bits += "0" * (-len(bits) % 6)
    if n <= 62:
        out = chr(n + 63)
    else:
        out = chr(126) + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    return out + "".join(chr(int(bits[k:k + 6], 2) + 63) for k in range(0, len(bits), 6))


# string -> (n, sorted edge list), frozen from the reference encoder
KNOWN_G6 = {
    "@": (1, []),
    "Ch": (4, [(0, 1), (1, 2), (2, 3)]),
    "C~": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    "D?{": (5, [(0, 4), (1, 4), (2, 4), (3, 4)]),
    "Dhc": (5, [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]),
    "DxK": (5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]),
    "D~{": (5, [(i, j) for j in range(5) for i in range(j)]),
    "EhEG": (6, [(0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5)]),
    "FhCKG": (7, [(0, 1), (0, 6), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]),
}


def test_parse_known_strings():
    for s, (n, edges) in KNOWN_G6.items():
        g = parse_graph6(s)
        assert g.n == n
        assert sorted(g.edges()) == sorted(edges)


def test_parse_accepts_header():
    g = parse_graph6(">>graph6<<C~")
    assert g.n == 4
    assert g.m == 6


def test_encode_known_strings():
    assert encode_graph6(empty_graph(1)) == "@"
    assert encode_graph6(path_graph(4)) == "Ch"
    assert encode_graph6(complete_graph(4)) == "C~"
    assert encode_graph6(cycle_graph(5)) == "Dhc"
    assert encode_graph6(complete_graph(5)) == "D~{"
    assert encode_graph6(cycle_graph(7)) == "FhCKG"
    assert encode_graph6(petersen_graph()) == "IheA@GUAo"


def test_encode_matches_reference_on_generators():
    for g in (path_graph(6), cycle_graph(8), complete_graph(7),
              petersen_graph(), empty_graph(3), random_graph(11, 0.4, seed=7)):
        assert encode_graph6(g) == reference_g6(g.n, g.edges())


def test_long_form_n63():
    g = empty_graph(63)
    s = encode_graph6(g)
    assert s.startswith("~??~")
    assert len(s) == 4 + (63 * 62 // 2 + 5) // 6
    assert parse_graph6(s) == g


@given(st.integers(1, 12), st.integers(0, 2**31 - 1), st.floats(0.0, 1.0))
@settings(max_examples=150)
def test_roundtrip_and_reference_agree(n, seed, p):
    g = random_graph(n, p, seed=seed)
    s = encode_graph6(g)
    assert s == reference_g6(n, g.edges())
    assert parse_graph6(s) == g


def test_parse_rejects_truncation():
    with pytest.raises(Graph6Error):
        parse_graph6("D?")


def test_parse_reads_the_order_headers_and_their_faults():
    # long form: '~' then three groups; very long form: "~~" then six
    for text, offset in (("~?@", 3), ("~", 1), ("~~?????", 7)):
        with pytest.raises(Graph6Error, match="truncated") as exc:
            parse_graph6(text)
        assert exc.value.offset == offset
    assert parse_graph6("~~?????Dhc") == parse_graph6("Dhc")  # C5 with a very-long-form order
    for text, n in (("~?@@" + "?" * 347, 65), ("~~~~~~~~", (1 << 36) - 1)):
        with pytest.raises(CapacityError) as exc:
            parse_graph6(text)
        assert str(exc.value) == f"graph6 order {n} exceeds the supported maximum of 64"


def test_parse_rejects_trailing_bytes():
    with pytest.raises(Graph6Error, match="trailing"):
        parse_graph6("C~~")


def test_parse_rejects_nonzero_padding():
    # C5 is "Dhc"; 'c' carries group value 36, whose low two bits are padding
    bad = "Dh" + chr((36 | 1) + 63)
    with pytest.raises(Graph6Error, match="padding") as exc:
        parse_graph6(bad)
    assert exc.value.offset == 2
    # long form: 63 vertices give 1953 pairs in 326 groups after the 4-byte
    # order, so the last group, at offset 329, holds 3 padding bits
    good = encode_graph6(empty_graph(63))
    assert len(good) == 330
    with pytest.raises(Graph6Error, match="padding") as exc:
        parse_graph6(good[:-1] + chr(1 + 63))
    assert exc.value.offset == 329


def test_parse_rejects_bad_byte_with_offset():
    # a non-ASCII character must not pass as some byte in 63..126
    for text, offset in (("C" + chr(20), 1), ("C\u00e9", 1), ("\u00e9", 0), ("C\ufffd", 1),
                         ("D" + chr(127) + "c", 1)):
        with pytest.raises(Graph6Error) as exc:
            parse_graph6(text)
        assert exc.value.offset == offset


def test_parse_rejects_empty():
    with pytest.raises(Graph6Error):
        parse_graph6("")


def test_graph_validation():
    with pytest.raises(GraphError):
        Graph(2, (0b10, 0b10))  # self-loop at 1... asymmetric too
    with pytest.raises(GraphError):
        Graph(2, (0b01, 0b00))  # self-loop at 0
    with pytest.raises(GraphError):
        Graph(1, (0, 0))  # adj length mismatch
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 1), (1, 0)])  # duplicate edge
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(CapacityError):
        Graph.from_edges(MAX_VERTICES + 1, [])


# one fault per case, with the exact exception type and message it raises
SINGLE_FAULTS = {
    "negative order": (lambda: Graph(-1, ()), GraphError, "vertex count -1 is negative"),
    "order over the cap": (lambda: Graph(65, (0,) * 65), CapacityError,
                           "graph on 65 vertices exceeds the supported maximum of 64"),
    "neighbour out of range": (lambda: Graph(2, (0b100, 0)), GraphError,
                               "vertex 0 has neighbours outside 0..1"),
    "asymmetric row": (lambda: Graph(2, (0b10, 0)), GraphError, "asymmetric adjacency between 0 and 1"),
    "from_edges negative order": (lambda: Graph.from_edges(-1, []), GraphError,
                                  "vertex count -1 is negative"),
    "from_edges self-loop": (lambda: Graph.from_edges(3, [(0, 1), (1, 1)]), GraphError,
                             "self-loop at vertex 1"),
    "from_edges repeated edge": (lambda: Graph.from_edges(3, [(0, 1), (1, 0)]), GraphError,
                                 "duplicate edge (1, 0)"),
    "from_edges edge out of range": (lambda: Graph.from_edges(3, [(0, 3)]), GraphError,
                                     "edge (0, 3) out of range for n=3"),
    "cycle on 2 vertices": (lambda: cycle_graph(2), GraphError, "cycle needs at least 3 vertices, got 2"),
    "ear endpoint out of range": (lambda: add_ear(cycle_graph(3), 0, 3, 1), GraphError,
                                  "ear endpoints (0, 3) out of range for n=3"),
    "negative ear length": (lambda: add_ear(cycle_graph(3), 0, 1, -1), GraphError,
                            "ear length -1 is negative"),
    "ear past the cap": (lambda: add_ear(cycle_graph(60), 0, 1, 5), CapacityError,
                         "ear would grow the graph to 65 > 64 vertices"),
    "random 2-connected on 2 vertices": (lambda: random_2connected(2), GraphError,
                                         "2-connected graphs need at least 3 vertices, got 2"),
}


@pytest.mark.parametrize("case", list(SINGLE_FAULTS))
def test_a_single_fault_keeps_its_exception_and_message(case):
    build, kind, message = SINGLE_FAULTS[case]
    with pytest.raises(Exception) as exc:
        build()
    assert type(exc.value) is kind
    assert str(exc.value) == message


@pytest.mark.parametrize("n", [500, 2 ** 70])
@pytest.mark.parametrize("build", [
    empty_graph, path_graph, cycle_graph, complete_graph, lambda n: random_graph(n, 0.5),
], ids=["empty", "path", "cycle", "complete", "random"])
def test_a_generator_checks_the_order_before_it_builds_anything(build, n):
    # complete_graph(500) built 124,750 edges before the cap, and cycle_graph(2**70) never returned
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError) as exc:
            build(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == f"graph on {n} vertices exceeds the supported maximum of 64"
    assert peak < 8 << 10, peak


@pytest.mark.parametrize("n", [True, 0.5, "3", None], ids=["bool", "float", "str", "none"])
@pytest.mark.parametrize("build", [
    lambda n: Graph(n, (0,)), empty_graph, path_graph, cycle_graph, complete_graph,
    lambda n: random_graph(n, 0.5), random_2connected,
], ids=["Graph", "empty", "path", "cycle", "complete", "random", "random-2-connected"])
def test_an_order_that_is_not_an_int_is_refused(build, n):
    # True built Graph(n=True, adj=(0,)), 0.5 raised a bare TypeError from
    # the generators, and "3" and None met `<` or `>` (TypeError)
    with pytest.raises(GraphError) as exc:
        build(n)
    assert type(exc.value) is GraphError
    assert str(exc.value) == f"vertex count {n!r} is not an int"


C5 = cycle_graph(5)


@pytest.mark.parametrize("call, message", [
    (lambda: induced_subgraph(C5, [-1]), "vertex ids [-1] are not all ints in 0..4"),
    (lambda: induced_subgraph(C5, [True, 2]), "vertex ids [True, 2] are not all ints in 0..4"),
    (lambda: Graph.from_edges(3, [(0, True)]), "edge (0, True) must join two int vertex ids"),
    (lambda: Graph.from_edges(3, [(0, 0.5)]), "edge (0, 0.5) must join two int vertex ids"),
    (lambda: add_ear(cycle_graph(4), True, 2, 1), "ear arguments (True, 2, 1) must be ints"),
    (lambda: add_ear(cycle_graph(4), 0, 2, 0.5), "ear arguments (0, 2, 0.5) must be ints"),
    (lambda: has_path_of_order(C5, 1.5), "path order 1.5 is not an int"),
    (lambda: has_path_of_order(C5, True), "path order True is not an int"),
    (lambda: has_path_of_order(C5, 0.5), "path order 0.5 is not an int"),
], ids=["negative-id", "bool-id", "bool-endpoint", "float-endpoint", "bool-ear-end", "float-ear-length",
        "float-order", "bool-order", "small-float-order"])
def test_an_id_or_order_that_is_not_an_int_is_refused(call, message):
    # -1 raised "negative shift count" (ValueError), True was read as vertex
    # 1 or as order 1, 0.5 raised a bare TypeError or passed as an order
    with pytest.raises(GraphError) as exc:
        call()
    assert type(exc.value) is GraphError
    assert str(exc.value) == message


@pytest.mark.parametrize("g", [0.5, None, "x"], ids=["float", "none", "str"])
@pytest.mark.parametrize("call", [encode_graph6, blocks], ids=["encode_graph6", "blocks"])
def test_an_argument_that_is_not_a_graph_is_refused(call, g):
    # each raised AttributeError: ... has no attribute 'n'
    with pytest.raises(GraphError) as exc:
        call(g)
    assert str(exc.value) == f"expected a Graph, got {type(g).__name__}"


def test_bit_helpers():
    assert ids_to_mask([0, 2, 5]) == 0b100101
    assert mask_to_ids(0b100101) == [0, 2, 5]
    assert list(iter_bits(0b1010)) == [1, 3]
    assert pair_index(0, 1) == 0
    assert pair_index(1, 2) == 2
    assert pair_index(0, 3) == 3
    # column-major: index of (i, j) is j(j-1)/2 + i
    assert pair_index(2, 4) == 4 * 3 // 2 + 2


def test_generators_shapes():
    assert path_graph(1).m == 0
    assert path_graph(5).m == 4
    assert cycle_graph(3).m == 3
    assert complete_graph(6).m == 15
    pet = petersen_graph()
    assert pet.n == 10
    assert pet.m == 15
    assert all(row.bit_count() == 3 for row in pet.adj)


def test_has_edge():
    g = parse_graph6("DxK")  # bowtie
    assert g.has_edge(3, 4)
    assert not g.has_edge(0, 4)


def test_induced_subgraph_triangle_of_bowtie():
    g = parse_graph6("DxK")
    h, order = induced_subgraph(g, [2, 3, 4])
    assert h == complete_graph(3)
    assert order == [2, 3, 4]


def test_relabel_lift_and_components_agree_on_seeded_subsets():
    for seed in range(30):
        g = random_graph(3 + seed % 9, 0.4, seed=seed)
        for m in random_graph(g.n + 1, 0.5, seed=seed).adj:  # seeded vertex sets
            m &= g.full_mask
            rows, order = relabel(g.adj, m)
            sub, sub_order = induced_subgraph(g, m)
            assert sub_order == order == mask_to_ids(m)
            assert list(sub.adj) == rows
            # lift inverts the relabel, row by row and on the whole set
            assert lift((1 << len(order)) - 1, order) == m
            assert [lift(row, order) for row in rows] == [g.adj[v] & m for v in order]
            comps = connected_components(g, m)
            assert [lift(c, order) for c in connected_components(sub, sub.full_mask)] == comps
            assert sum(c.bit_count() for c in comps) == m.bit_count()
            assert all(closure(g.adj, c & -c, m) == c for c in comps)


def test_triangle_rows_roundtrip():
    for seed in range(40):
        g = random_graph(seed % 12, 0.45, seed=seed)
        mask = to_triangle_mask(g)
        assert mask == sum(1 << pair_index(u, v) for u, v in g.edges())
        assert triangle_rows(g.n, mask) == list(g.adj)
        assert from_triangle_mask(g.n, mask) == g
    with pytest.raises(GraphError):
        from_triangle_mask(4, 1 << 6)  # K4 has pairs 0..5 only


def test_induced_subgraph_mask_and_errors():
    g = cycle_graph(5)
    h, _ = induced_subgraph(g, 0b00111)
    assert sorted(h.edges()) == [(0, 1), (1, 2)]
    with pytest.raises(GraphError):
        induced_subgraph(g, [0, 7])


def test_add_ear_path_and_chord():
    g = add_ear(cycle_graph(3), 0, 1, 2)
    assert g.n == 5
    assert sorted(g.edges()) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (3, 4)]
    h = add_ear(cycle_graph(4), 0, 2, 0)
    assert h.has_edge(0, 2)
    with pytest.raises(GraphError):
        add_ear(cycle_graph(3), 0, 0, 1)
    with pytest.raises(GraphError):
        add_ear(cycle_graph(3), 0, 1, 0)  # chord already present


def test_random_graph_deterministic():
    assert random_graph(9, 0.5, seed=3) == random_graph(9, 0.5, seed=3)
    assert random_graph(9, 0.5, seed=3) != random_graph(9, 0.5, seed=4)


@given(st.integers(3, 14), st.integers(0, 5), st.integers(0, 2**31 - 1))
@settings(max_examples=80)
def test_random_2connected_is_2connected(n, extra, seed):
    from taupart.ears import is_two_connected

    g = random_2connected(n, extra_ears=extra, seed=seed)
    assert g.n == n
    assert is_two_connected(g)
    assert g == random_2connected(n, extra_ears=extra, seed=seed)


def test_connectivity_helpers():
    g = Graph.from_edges(5, [(0, 1), (2, 3)])
    comps = connected_components(g, g.full_mask)
    assert comps == [0b00011, 0b01100, 0b10000]
    assert not is_connected(g)
    assert is_connected(path_graph(4))
    assert closure(g.adj, 1, g.full_mask) == 0b00011
    assert closure(g.adj, 1, 0b11101) == 0b00001  # 1 excluded, so 0 is alone


def test_blocks_bowtie():
    block_list, cuts = blocks(parse_graph6("DxK"))
    masks = sorted(m for m, _ in block_list)
    assert masks == [ids_to_mask([0, 1, 2]), ids_to_mask([2, 3, 4])]
    assert all(not bridge for _, bridge in block_list)
    assert cuts == 1 << 2


def test_blocks_path_is_all_bridges():
    block_list, cuts = blocks(path_graph(4))
    assert sorted(m for m, _ in block_list) == [0b0011, 0b0110, 0b1100]
    assert all(bridge for _, bridge in block_list)
    assert cuts == 0b0110


def test_blocks_cycle_single():
    block_list, cuts = blocks(cycle_graph(5))
    assert block_list == [(0b11111, False)]
    assert cuts == 0


def test_blocks_isolated_vertex():
    g = Graph.from_edges(3, [(0, 1)])
    block_list, cuts = blocks(g)
    assert (0b100, False) in block_list
    assert cuts == 0


def _small_and_random_graphs():
    for n in range(1, 8):
        yield from corpus_graphs(n, graphs_upto_iso(n))
    rng = random.Random(20)
    for seed in range(300):
        n = rng.randint(1, 20)
        yield random_graph(n, rng.choice((1.0, 1.5, 2.0, 3.0)) / n, seed=seed)


def test_blocks_match_their_definitions():
    for g in _small_and_random_graphs():
        block_list, cuts = blocks(g)
        comps = len(connected_components(g, g.full_mask))
        for v in range(g.n):
            # a cut vertex is one whose deletion adds a component
            split = len(connected_components(g, g.full_mask & ~(1 << v))) > comps
            assert bool(cuts >> v & 1) == split, (encode_graph6(g), v)
        masks = [m for m, _ in block_list]
        # the blocks split the edge set exactly, and cover every vertex
        for u, v in g.edges():
            assert sum(m >> u & m >> v & 1 for m in masks) == 1, (encode_graph6(g), u, v)
        assert all(any(m >> v & 1 for m in masks) for v in range(g.n))
        for m, bridge in block_list:
            assert bridge == (m.bit_count() == 2)
            if m.bit_count() == 1:
                assert g.adj[m.bit_length() - 1] == 0
            elif bridge:
                # an edge whose deletion disconnects its ends
                u, v = mask_to_ids(m)
                rows = list(g.adj)
                rows[u] ^= 1 << v
                rows[v] ^= 1 << u
                assert g.has_edge(u, v) and not closure(tuple(rows), 1 << u, g.full_mask) >> v & 1
            else:
                # connected after any one vertex is deleted
                for w in mask_to_ids(m):
                    assert len(connected_components(g, m & ~(1 << w))) == 1, (encode_graph6(g), m, w)


def test_to_dot_smoke():
    s = to_dot(path_graph(3), name="P3")
    assert s.startswith("graph P3 {")
    assert "0 -- 1;" in s and "1 -- 2;" in s
