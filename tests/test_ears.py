"""Ear decompositions of 2-connected graphs."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taupart.ears import (
    Ear,
    EarDecomposition,
    ear_decompose,
    ear_diagnostics,
    ear_levels,
    induces_two_connected,
    is_two_connected,
    relabels_to,
)
from taupart.errors import NotTwoConnectedError
from taupart.graphs import (
    Graph,
    add_ear,
    complete_graph,
    cycle_graph,
    induced_subgraph,
    parse_graph6,
    path_graph,
    petersen_graph,
    random_2connected,
)
from taupart.oracle import corpus_graphs, graphs_upto_iso, two_connected_graphs_upto_iso


def test_cycle_decomposes_to_bare_cycle():
    d = ear_decompose(cycle_graph(5))
    assert sorted(d.base_cycle) == [0, 1, 2, 3, 4]
    assert d.ears == ()
    assert not ear_diagnostics(cycle_graph(5), d)


def test_k4_edge_partition():
    g = complete_graph(4)
    d = ear_decompose(g)
    assert ear_diagnostics(g, d) == []
    # cycle has len(base) edges, each ear r+1; together they partition E
    assert len(d.base_cycle) + sum(e.r + 1 for e in d.ears) == g.m
    assert len(d.ears) == g.m - g.n


def test_is_two_connected():
    assert is_two_connected(cycle_graph(3))
    assert is_two_connected(petersen_graph())
    assert not is_two_connected(path_graph(4))
    assert not is_two_connected(parse_graph6("DxK"))  # bowtie has a cut vertex
    assert not is_two_connected(complete_graph(2))
    assert not is_two_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_the_mask_check_agrees_with_the_induced_subgraph_on_every_small_graph():
    # multiway's chain asks this of its remainders without relabelling them
    checked = 0
    for n in range(1, 7):
        for g in corpus_graphs(n, graphs_upto_iso(n)):
            for mask in range(1 << n):
                assert induces_two_connected(g, mask) == is_two_connected(induced_subgraph(g, mask)[0]), \
                    (g.adj, mask)
                checked += 1
    assert checked == 2 + 2 * 4 + 4 * 8 + 11 * 16 + 34 * 32 + 156 * 64


def test_rejects_cut_vertex_by_name():
    with pytest.raises(NotTwoConnectedError) as exc:
        ear_decompose(path_graph(4))
    assert exc.value.cut_vertex in (1, 2)
    assert str(exc.value.cut_vertex) in str(exc.value)


def test_rejects_disconnected_and_tiny():
    with pytest.raises(NotTwoConnectedError):
        ear_decompose(Graph.from_edges(4, [(0, 1), (2, 3)]))
    with pytest.raises(NotTwoConnectedError):
        ear_decompose(complete_graph(2))
    with pytest.raises(NotTwoConnectedError):
        ear_decompose(Graph.from_edges(1, []))


def test_all_two_connected_up_to_7():
    for n in range(3, 8):
        for g in corpus_graphs(n, two_connected_graphs_upto_iso(n)):
            d = ear_decompose(g)
            assert ear_diagnostics(g, d) == []
            assert len(d.ears) == g.m - g.n
            *_, (h, _, orig) = ear_levels(d)
            assert relabels_to(h, orig, g)


@given(st.integers(3, 12), st.integers(0, 6), st.integers(0, 2**31 - 1))
@settings(max_examples=120, deadline=None)
def test_random_two_connected_decompose(n, extra, seed):
    g = random_2connected(n, extra_ears=extra, seed=seed)
    d = ear_decompose(g)
    assert ear_diagnostics(g, d) == []
    *_, (h, _, orig) = ear_levels(d)
    assert relabels_to(h, orig, g)


def test_reconstruct_relabels_consistently():
    g = petersen_graph()
    d = ear_decompose(g)
    *_, (h, _, orig) = ear_levels(d)
    assert h.n == g.n
    assert sorted(orig) == list(range(g.n))
    relabel = {o: i for i, o in enumerate(orig)}
    assert sorted(h.edges()) == sorted(
        tuple(sorted((relabel[u], relabel[v]))) for u, v in g.edges())


def test_diagnostics_catch_tampering():
    g = complete_graph(4)
    d = ear_decompose(g)
    missing = EarDecomposition(d.base_cycle, d.ears[:-1])
    assert ear_diagnostics(g, missing)
    bad_anchor = EarDecomposition(
        d.base_cycle, (Ear(d.ears[0].x, d.ears[0].x, d.ears[0].internals),) + d.ears[1:])
    assert ear_diagnostics(g, bad_anchor)
    reused = EarDecomposition(
        d.base_cycle, (Ear(d.ears[0].x, d.ears[0].y, (d.base_cycle[0],)),) + d.ears[1:])
    assert ear_diagnostics(g, reused)


def test_ear_levels_add_one_ear_at_a_time():
    g = random_2connected(11, extra_ears=4, seed=3)
    levels = list(ear_levels(ear_decompose(g)))
    assert len(levels) == len(ear_decompose(g).ears) + 1
    h0, ear0, orig0 = levels[0]
    assert ear0 is None and h0 == cycle_graph(len(orig0))
    for (prev, _, orig_prev), (h, ear, orig) in zip(levels, levels[1:]):
        assert h == add_ear(prev, ear.x, ear.y, ear.r)
        assert ear.internals == tuple(range(prev.n, h.n))
        assert orig[:len(orig_prev)] == orig_prev
    assert relabels_to(levels[-1][0], levels[-1][2], g)
