"""Detour order: the subset DP kernels and the DFS cross-check engine."""

from __future__ import annotations

import functools
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import taupart
from taupart import detour
from taupart.detour import (
    DETOUR_DP_MAX_N,
    NUMPY_DP_MIN_K,
    _dp_bits,
    _dp_levels,
    _dp_loop,
    _dp_numpy,
    detour_order,
    detour_order_dfs,
    end_vertices_of_order_paths,
    has_path_of_order,
    paths_of_order_at_least,
    subset_tau_at_most,
    tau_subset,
    vertices_on_every_order_path,
)
from taupart.errors import CapacityError, GraphError
from taupart.graphs import (
    Graph,
    add_ear,
    complete_graph,
    cycle_graph,
    encode_graph6,
    from_triangle_mask,
    ids_to_mask,
    lift,
    parse_graph6,
    path_graph,
    petersen_graph,
    random_2connected,
    random_graph,
    relabel,
)
from taupart.multiway import detour_coloring, t_partition, verify_detour_coloring
from taupart.oracle import graphs_upto_iso, verify_record
from taupart.partition import graph_facts
from taupart.starcolor import star_coloring

BOWTIE = parse_graph6("DxK")


def test_detour_order_families():
    for n in range(1, 7):
        assert detour_order(path_graph(n)).tau == n
        assert detour_order(complete_graph(n)).tau == n
    for n in range(3, 8):
        assert detour_order(cycle_graph(n)).tau == n
    assert detour_order(parse_graph6("D?{")).tau == 3  # star: leaf-centre-leaf
    assert detour_order(BOWTIE).tau == 5


def test_detour_order_petersen():
    assert detour_order(petersen_graph()).tau == 10
    assert detour_order_dfs(petersen_graph()) == 10


def test_every_entry_reads_tau_zero_on_the_empty_graph():
    g = Graph(0, ())
    assert detour_order(g).tau == 0
    assert detour_order_dfs(g) == 0
    assert tau_subset(g, 0) == 0
    assert detour.subset_queries(g).tau(0) == 0
    assert graph_facts(g).tau == 0
    assert has_path_of_order(g, 1) is False
    assert t_partition(g, []) == []
    # the general paths build the certificates the empty graph always had
    for n in (1, 2):
        cert = detour_coloring(g, n).to_json_dict()
        assert cert == {"graph6": "?", "n": n, "colors": [], "colors_used": 0, "bound": 0,
                        "property": "n-detour", "verified": True}
        assert verify_record(cert) == (True, "ok")
    cert = star_coloring(g).to_json_dict()
    assert cert == {"graph6": "?", "n": None, "colors": [], "colors_used": 0, "bound": 0,
                    "property": "star", "verified": True}
    assert verify_record(cert) == (True, "ok")


def test_disconnected_takes_max_over_components():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    assert detour_order(g).tau == 3
    assert detour_order(Graph.from_edges(1, [])).tau == 1


@given(st.integers(1, 10), st.floats(0.0, 1.0), st.integers(0, 2**31 - 1))
@settings(max_examples=200, deadline=None)
@example(0, 0.0, 0)  # the empty graph
@example(1, 0.0, 0)  # K1
def test_dp_matches_dfs(n, p, seed):
    g = random_graph(n, p, seed=seed)
    assert detour_order(g).tau == detour_order_dfs(g)


@given(st.integers(3, 9), st.floats(0.2, 0.9), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_tau_monotone_under_ears(n, p, seed):
    g = random_graph(n, p, seed=seed)
    tau = detour_order(g).tau
    x, y = 0, n - 1
    if not g.has_edge(x, y):
        assert detour_order(add_ear(g, x, y, 0)).tau >= tau
    assert detour_order(add_ear(g, x, y, 1)).tau >= tau


def test_hamiltonian_ends():
    def ends(g):
        return detour.subset_queries(g).hamiltonian_ends()

    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert ends(path_graph(5)) == (5, ids_to_mask([0, 4]))
    assert ends(cycle_graph(5)) == (5, 0b11111)
    assert ends(BOWTIE) == (5, BOWTIE.full_mask & ~(1 << 2))
    assert ends(star) == (3, 0)
    assert ends(Graph.from_edges(0, [])) == (0, 0)  # tau = 0, as tau_subset reads it


def test_tau_subset():
    assert tau_subset(BOWTIE, ids_to_mask([0, 1, 2])) == 3
    assert tau_subset(BOWTIE, ids_to_mask([0, 3])) == 1  # no edge across triangles
    assert tau_subset(BOWTIE, 0) == 0
    assert tau_subset(BOWTIE, BOWTIE.full_mask) == 5


@given(st.integers(1, 8), st.floats(0.0, 1.0), st.integers(0, 2**31 - 1),
       st.integers(0, 255), st.integers(0, 9))
@settings(max_examples=150, deadline=None)
def test_subset_tau_at_most_agrees(n, p, seed, mask_bits, bound):
    g = random_graph(n, p, seed=seed)
    mask = mask_bits & g.full_mask
    assert subset_tau_at_most(g, mask, bound) == (tau_subset(g, mask) <= bound)


def test_no_subset_meets_a_negative_bound():
    # tau of the empty set is 0, so a negative bound fails every mask
    g = path_graph(4)
    for q in (detour.SubsetTable(g), detour.SubsetDPs(g)):
        for mask in (0, 0b1, 0b11, g.full_mask):
            for bound in range(-6, 0):
                assert not q.at_most(mask, bound), (type(q).__name__, mask, bound)
                assert not subset_tau_at_most(g, mask, bound), (mask, bound)


def test_has_path_of_order():
    assert has_path_of_order(path_graph(4), 4)
    assert not has_path_of_order(path_graph(4), 5)
    assert has_path_of_order(BOWTIE, 5)


def test_end_vertices_of_order_paths():
    p4 = path_graph(4)
    assert end_vertices_of_order_paths(p4, 4) == ids_to_mask([0, 3])
    assert end_vertices_of_order_paths(p4, 2) == p4.full_mask
    assert end_vertices_of_order_paths(p4, 5) == 0
    # the cut vertex of the bowtie cannot end a spanning path
    assert end_vertices_of_order_paths(BOWTIE, 5) == ids_to_mask([0, 1, 3, 4])
    assert end_vertices_of_order_paths(BOWTIE, 3, within=0b00111) == 0b00111


def test_paths_of_order_at_least():
    p4 = path_graph(4)
    assert paths_of_order_at_least(p4, 4) == [(0, 1, 2, 3), (3, 2, 1, 0)]
    assert len(paths_of_order_at_least(p4, 3)) == 6
    assert len(paths_of_order_at_least(cycle_graph(4), 4)) == 8
    assert paths_of_order_at_least(p4, 5) == []


def test_paths_respect_within():
    seqs = paths_of_order_at_least(BOWTIE, 3, within=0b00111)
    assert all(set(s) <= {0, 1, 2} for s in seqs)
    assert (0, 1, 2) in seqs


def test_capacity_gate():
    big = random_graph(DETOUR_DP_MAX_N + 1, 0.3, seed=1)
    with pytest.raises(CapacityError):
        detour_order(big)
    # the override on a graph whose DP stays small: C21's subsets with a
    # Hamiltonian path are its arcs
    cycle = cycle_graph(DETOUR_DP_MAX_N + 1)
    assert detour_order(cycle, max_n=cycle.n).tau == cycle.n == detour_order_dfs(cycle)


C21 = cycle_graph(DETOUR_DP_MAX_N + 1)


@pytest.mark.parametrize("call", [
    lambda **kw: taupart.has_path_of_order(C21, 3, **kw),
    lambda **kw: taupart.tau_partition_2connected(C21, taupart.PartitionTarget(10, 11), **kw),
    lambda **kw: taupart.t_partition(C21, (7, 7, 7), **kw),
    lambda **kw: taupart.detour_coloring(C21, 7, **kw),
    lambda **kw: taupart.verify_detour_coloring(C21, [v % 3 for v in range(21)], 1, **kw),
    lambda **kw: taupart.pair_partition_coloring(C21, **kw),
    lambda **kw: taupart.star_coloring(C21, **kw),
], ids=["has_path_of_order", "tau_partition_2connected", "t_partition", "detour_coloring",
        "verify_detour_coloring", "pair_partition_coloring", "star_coloring"])
def test_exponential_entries_refuse_c21_with_the_dp_cap(call):
    # the cap is checked where the graph comes in; the queries below trust it
    with pytest.raises(CapacityError) as exc:
        call()
    assert str(exc.value) == "subset dynamic program over 21 vertices exceeds the cap of 20"
    assert call(max_n=21)


C5_RECORD = taupart.tau_partition(cycle_graph(5), taupart.PartitionTarget(2, 3)).to_json_dict()


@pytest.mark.parametrize("max_n", [0.5, "20", True, 0, -1])
@pytest.mark.parametrize("call", [
    lambda max_n: taupart.tau_partition(cycle_graph(5), taupart.PartitionTarget(2, 3), max_n=max_n),
    lambda max_n: taupart.detour_coloring(cycle_graph(5), 2, max_n=max_n),
    lambda max_n: taupart.verify_record(C5_RECORD, max_n=max_n),
], ids=["tau_partition", "detour_coloring", "verify_record"])
def test_a_cap_that_is_not_an_int_of_at_least_1_is_refused(call, max_n):
    # the CLI's rule for TAUPART_MAX_N, in the one cap check: a wrong cap
    # is the caller's error, never a `capacity:` verdict on the graph
    with pytest.raises(ValueError) as exc:
        call(max_n)
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"max_n must be an integer of at least 1, got {max_n!r}"


def _pairs(result):
    """A kernel result as tau and its deepest level's (mask, ends) pairs,
    sorted."""
    tau, last, ends = result
    return tau, sorted(zip(last, ends))


def test_stopped_loop_returns_level_k():
    # the reference is the DFS path enumerator, which shares nothing with
    # the DP: level k holds the vertex sets of the order-k paths, each with
    # the vertices that end one of them
    for seed in range(40):
        g = random_graph(4 + seed % 7, 0.45, seed=seed)
        levels: dict[int, dict[int, int]] = {}
        for path in paths_of_order_at_least(g, 1):
            level = levels.setdefault(len(path), {})
            mask = ids_to_mask(path)
            level[mask] = level.get(mask, 0) | 1 << path[-1]
        tau = max(levels)
        for k in (*range(1, g.n + 2), None):
            depth = tau if k is None else min(k, tau)
            assert _pairs(_dp_loop(list(g.adj), stop_at=k)) == (depth, sorted(levels[depth].items()))


def _numpy_kernel_cases():
    """60 sparse graphs on 14..18 vertices: 2-connected ones and G(n, p)
    ones, which are often disconnected.  Then the dense ones."""
    for seed in range(30):
        n = 14 + seed % 5
        yield random_2connected(n, extra_ears=seed % 7, seed=seed)
        yield random_graph(n, 2.6 / n, seed=seed)
    yield from _dense_numpy_kernel_cases()


def _dense_numpy_kernel_cases():
    """G(n, 1/2) on 14 and 15 vertices, whose middle levels hold thousands
    of subsets, and the disjoint union of G(7, 1/2) and G(8, 1/2)."""
    yield random_graph(14, 0.5, seed=1)
    yield random_graph(15, 0.5, seed=2)
    left, right = random_graph(7, 0.5, seed=3), random_graph(8, 0.5, seed=4)
    yield Graph.from_edges(15, list(left.edges()) + [(u + 7, v + 7) for u, v in right.edges()])


def _assert_kernels_agree(g, stops):
    ladj = list(g.adj)
    for k in stops:
        assert _pairs(_dp_numpy(ladj, k)) == _pairs(_dp_loop(ladj, k)), (encode_graph6(g), k)


def test_numpy_kernel_matches_the_loop():
    for g in _numpy_kernel_cases():
        _assert_kernels_agree(g, [None])
        tau = detour_order(g).tau
        assert tau == detour_order_dfs(g)
        _, _, ends = _dp_loop(list(g.adj))
        assert detour.subset_queries(g).hamiltonian_ends() == (tau, next(ends) if tau == g.n else 0)


def test_stopped_numpy_kernel_matches_the_loop():
    # an early-exit query on NUMPY_DP_MIN_K or more vertices runs the numpy
    # kernel, which must stop at level k exactly as the loop does
    for g in _numpy_kernel_cases():
        _assert_kernels_agree(g, range(1, g.n + 2))


def test_vertices_on_every_order_path_match_the_path_enumeration():
    # the paths come from the DFS enumerator, which shares nothing with the DP
    rng = random.Random(11)
    graphs = [random_graph(rng.randint(1, 9), rng.uniform(0.2, 0.8), seed=s) for s in range(120)]
    graphs += list(itertools.islice(_numpy_kernel_cases(), 6))
    for g in graphs:
        mask = g.full_mask if g.n >= NUMPY_DP_MIN_K else rng.randrange(1 << g.n)
        common: dict[int, int] = {}
        for path in paths_of_order_at_least(g, 1, within=mask):
            common[len(path)] = common.get(len(path), -1) & ids_to_mask(path)
        for k in range(1, g.n + 2):
            assert vertices_on_every_order_path(g, k, within=mask) == common.get(k), (encode_graph6(g), mask, k)
    with pytest.raises(GraphError):
        vertices_on_every_order_path(path_graph(3), 0)


def _subset_table_cases():
    """Every class on up to 7 vertices, then seeded graphs on 8..13 vertices:
    G(n, p) from sparse to dense, a random forest (m < k), and a disjoint
    union of two random graphs."""
    for n in range(1, 8):
        for mask in graphs_upto_iso(n):
            yield from_triangle_mask(n, mask)
    rng = random.Random(5)
    for n in range(8, 14):
        yield random_graph(n, (0.15, 0.3, 0.5)[n % 3], seed=n)
        yield Graph.from_edges(n, [(v, rng.randrange(v)) for v in range(1, n) if rng.random() < 0.8])
    left, right = random_graph(6, 0.5, seed=1), random_graph(7, 0.4, seed=2)
    yield Graph.from_edges(13, list(left.edges()) + [(u + 6, v + 6) for u, v in right.edges()])


def test_subset_table_matches_the_per_query_loop():
    # the reference runs `_dp_loop` on every mask, relabelled, as the
    # per-query functions do below NUMPY_DP_MIN_K; induced subgraphs that
    # relabel alike share one run
    loop_tau = functools.cache(lambda ladj: _dp_loop(list(ladj))[0])
    for g in _subset_table_cases():
        table = detour.SubsetTable(g)
        ref = [loop_tau(tuple(relabel(g.adj, mask)[0])) for mask in range(1 << g.n)]
        _, _, ends = _dp_loop(list(g.adj))
        assert table.hamiltonian_ends() == (ref[-1], next(ends) if ref[-1] == g.n else 0), encode_graph6(g)
        for mask, tau in enumerate(ref):
            assert table.tau(mask) == tau, (encode_graph6(g), mask)
            for b in range(g.n + 2):
                assert table.at_most(mask, b) == (tau <= b), (encode_graph6(g), mask, b)
            drops = [(v, ref[mask & ~(1 << v)]) for v in range(g.n) if mask >> v & 1]
            for k in range(1, g.n + 2):
                on_every = None if tau < k else sum(1 << v for v, t in drops if t < k)
                assert table.on_every_order_path(k, mask) == on_every, (encode_graph6(g), mask, k)
    assert detour.SubsetTable(path_graph(3)).on_every_order_path(2, 0b111) == 0b010
    assert detour.SubsetTable(Graph.from_edges(0, [])).tau(0) == 0
    with pytest.raises(GraphError):
        detour.SubsetTable(path_graph(3)).on_every_order_path(0, 0b111)


@pytest.mark.parametrize("g", [cycle_graph(NUMPY_DP_MIN_K), random_graph(NUMPY_DP_MIN_K + 1, 0.3, seed=3)],
                         ids=["C14", "random-15"])
def test_a_subset_table_on_numpy_dp_min_k_or_more_vertices_agrees_with_tau_subset(g):
    # subset_queries builds no table this large, but the class is public,
    # and only the bit kernel fills the level bit sets a table reads
    table = detour.SubsetTable(g)
    tau = tau_subset(g, g.full_mask)
    assert table.hamiltonian_ends() == (tau, end_vertices_of_order_paths(g, g.n) if tau == g.n else 0)
    rng = random.Random(g.n)
    for mask in [g.full_mask] + [rng.getrandbits(g.n) for _ in range(200)]:
        assert table.tau(mask) == tau_subset(g, mask), mask
        assert table.at_most(mask, 3) == (tau_subset(g, mask) <= 3), mask


def test_a_full_subset_table_cache_keeps_under_a_mib():
    # 32 tables of dense 13-vertex graphs: tau = 13, so 14 ints of 1 KiB each
    graphs = [random_graph(13, 0.9, seed=s) for s in range(40)]
    assert len(set(graphs)) == 40
    detour._subset_table.cache_clear()
    tracemalloc.start()
    try:
        for g in graphs:
            assert detour.subset_queries(g).tau(g.full_mask) == 13
        kept, _ = tracemalloc.get_traced_memory()
        held = detour._subset_table.cache_info().currsize
    finally:
        tracemalloc.stop()
        detour._subset_table.cache_clear()
    assert held == 32
    assert kept < 1 << 20


def test_early_exit_query_allocates_no_2_to_the_k_table():
    # one path on 2 vertices settles K22 with one colour class of bound 1;
    # a 2^22-entry list would take 32 MiB
    g = complete_graph(22)
    detour_order(cycle_graph(NUMPY_DP_MIN_K))  # numpy loaded before tracing
    tracemalloc.start()
    try:
        assert not verify_detour_coloring(g, [0] * 22, 1, max_n=22)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_loop_kernel_holds_only_the_subsets_it_reaches():
    # stopped at level 2, P13 reaches its 13 vertices and 12 edges; a 2^13
    # list, as the loop once allocated on every call, takes 64 KiB
    ladj = list(path_graph(13).adj)
    tracemalloc.start()
    try:
        tau, last, ends = _dp_loop(ladj, stop_at=2)
        ends = list(ends)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tau, last, ends) == (2, [3 << v for v in range(12)], [3 << v for v in range(12)])
    assert peak < 8 << 10, peak


def test_numpy_kernel_extends_a_wide_level_in_parts(monkeypatch):
    # each part is sorted and reduced before the merge, which must give the
    # one-part result exactly: the same masks, in ascending order, with the
    # same end masks.  The tests above check the one-part result against
    # the loop at every stop.
    cases = ((5, list(itertools.islice(_numpy_kernel_cases(), 10))), (1 << 8, list(_dense_numpy_kernel_cases())))
    for rows, graphs in cases:
        for g in graphs:
            ladj = list(g.adj)
            stops = [*range(1, g.n + 2), None]
            whole = [_dp_numpy(ladj, k) for k in stops]
            assert all(last == sorted(set(last)) for _, last, _ in whole), encode_graph6(g)
            with monkeypatch.context() as m:
                m.setattr(detour, "_NUMPY_DP_ROWS", rows)
                assert [_dp_numpy(ladj, k) for k in stops] == whole, (encode_graph6(g), rows)


def test_numpy_kernel_memory_on_k17():
    # a middle level of K17 holds C(17, 8) = 24,310 subsets, three parts of
    # _NUMPY_DP_ROWS, and each part is reduced before the merge: the run
    # peaks near 5.3 MiB, where merging the parts' unreduced candidates
    # would peak at 14 MiB
    detour_order(cycle_graph(NUMPY_DP_MIN_K))  # numpy loaded before tracing
    ladj = list(complete_graph(17).adj)
    tracemalloc.start()
    try:
        tau, _, _ = _dp_numpy(ladj)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tau == 17
    assert peak < 6 << 20, peak


def _bit_kernel_cases():
    """Every class on up to 7 vertices, then G(n, p) and 2-connected graphs
    on 8..13 vertices, from sparse to dense."""
    for n in range(1, 8):
        for mask in graphs_upto_iso(n):
            yield from_triangle_mask(n, mask)
    for seed in range(16):
        n = 8 + seed % 6
        yield random_graph(n, (0.15, 0.3, 0.55, 0.85)[seed % 4], seed=seed)
        yield random_2connected(n, extra_ears=seed % 9, seed=seed)


def test_bit_kernel_matches_the_loop():
    for g in _bit_kernel_cases():
        ladj = list(g.adj)
        assert _pairs(_dp_bits(ladj)) == _pairs(_dp_loop(ladj)), encode_graph6(g)


def test_dp_levels_picks_the_kernel_from_the_run(monkeypatch):
    ran = []
    for name in ("_dp_loop", "_dp_bits", "_dp_numpy"):
        def spy(*args, _name=name, _real=getattr(detour, name)):
            ran.append(_name)
            return _real(*args)
        monkeypatch.setattr(detour, name, spy)

    def picked(g, stop_at=None, unions=None):
        ran.clear()
        _dp_levels(list(g.adj), stop_at, unions)
        return ran

    petersen = petersen_graph()
    tree = Graph.from_edges(10, [(i, i // 2) for i in range(1, 10)])
    assert picked(petersen) == ["_dp_bits"]
    assert picked(tree) == ["_dp_loop"]
    assert picked(tree, unions=[]) == ["_dp_bits"]
    assert picked(petersen, stop_at=5) == ["_dp_loop"]
    # the threshold the README documents: 14 vertices, early exit or not
    assert picked(complete_graph(13)) == ["_dp_bits"]
    assert picked(complete_graph(13), stop_at=3) == ["_dp_loop"]
    for big in (cycle_graph(14), complete_graph(15)):
        assert picked(big) == ["_dp_numpy"]
        assert picked(big, stop_at=3) == ["_dp_numpy"]


def _listed(result):
    tau, last, ends = result
    return tau, list(last), list(ends)


@functools.cache
def _relabelled_run(kernel, ladj, k):
    """`kernel` run on the rows `ladj` to stop k, listed; the masks whose
    induced subgraphs relabel alike share one run."""
    return _listed(kernel(ladj) if kernel is _dp_bits else kernel(ladj, k))


def _assert_within_matches_the_relabelled_run(g, mask, stops, numpy_stops=None):
    """Each kernel, and `_dp_levels`' dispatch, run on <mask> in g's own ids
    gives the run on <mask> relabelled to 0..k-1, mapped back: the same tau,
    the same masks in the same order, and the same end masks.  The numpy
    kernel runs at `numpy_stops`, all of `stops` when None."""
    ladj, order = relabel(g.adj, mask)
    ladj = tuple(ladj)
    for k in stops:
        runs = [(_dp_loop(g.adj, k, mask), _dp_loop), (_dp_levels(g.adj, k, within=mask), _dp_levels)]
        if mask and (numpy_stops is None or k in numpy_stops):  # it never serves the empty set
            runs.append((_dp_numpy(g.adj, k, mask), _dp_numpy))
        if k is None and mask.bit_count() < NUMPY_DP_MIN_K:
            # `unions` sends the run to the bit kernel whatever its edge count
            runs.append((_dp_levels(g.adj, unions=[], within=mask), _dp_bits))
        for host, kernel in runs:
            tau, last, ends = _relabelled_run(kernel, ladj, k)
            assert _listed(host) == (tau, [lift(m, order) for m in last], [lift(e, order) for e in ends]), (
                encode_graph6(g), mask, k, kernel.__name__)


def test_a_run_within_a_mask_matches_the_relabelled_run():
    # every mask of every class on up to 6 vertices, at every stop; on 6
    # vertices the numpy kernel, whose calls cost the most, runs at the
    # first two levels and at full order
    for n in range(1, 7):
        for tri in graphs_upto_iso(n):
            g = from_triangle_mask(n, tri)
            for mask in range(1 << n):
                _assert_within_matches_the_relabelled_run(g, mask, [*range(1, n + 2), None],
                                                          (1, 2, None) if n == 6 else None)


def test_a_numpy_run_within_a_mask_matches_the_relabelled_run():
    # masks that leave out low ids: on 15 or more vertices the larger ones
    # still hold NUMPY_DP_MIN_K vertices, so the dispatch runs them on the
    # numpy kernel in the host's ids
    rng = random.Random(7)
    wide = 0
    for g in itertools.islice(_numpy_kernel_cases(), 0, 60, 3):
        full = g.full_mask
        masks = [full >> j << j for j in (1, 2, 4)] + [full & ~(1 | 1 << rng.randrange(1, g.n))]
        wide += sum(m.bit_count() >= NUMPY_DP_MIN_K for m in masks)
        for mask in masks:
            _assert_within_matches_the_relabelled_run(g, mask, [1, 2, 5, 9, None])
    assert wide >= 10


def test_a_run_within_the_top_of_p64_reaches_bit_63():
    g = path_graph(64)
    top = ((1 << 20) - 1) << 44
    _assert_within_matches_the_relabelled_run(g, top, [2, 20, None])
    assert _listed(_dp_levels(g.adj, within=top)) == (20, [top], [1 << 44 | 1 << 63])
    assert has_path_of_order(g, 64, max_n=64)
    assert tau_subset(g, top) == 20
    assert end_vertices_of_order_paths(g, 20, top) == 1 << 44 | 1 << 63
    assert vertices_on_every_order_path(g, 20, top) == top


def test_bit_kernel_memory_on_k13():
    # two levels of k ints of 2^k bits, 2 * 13 * 1 KiB, plus a table's 14
    # level ORs of 1 KiB; keeping all tau levels (13 * 13 KiB) fails both
    # bounds, and the loop kernel's dicts of its widest levels peak near 370 KiB
    ladj = list(complete_graph(13).adj)
    for unions, bound in ((None, 64 << 10), ([1], 96 << 10)):
        tracemalloc.start()
        try:
            tau, _, _ = _dp_levels(ladj, unions=unions)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tau == 13
        assert peak < bound, (unions is not None, peak)


SRC = str(Path(__file__).resolve().parent.parent / "src")

# Run in a fresh interpreter, since this one has imported numpy already.
NUMPY_ON_FIRST_USE = f"""
import sys
import taupart.cli
assert "numpy" not in sys.modules, "imported with taupart.cli"
from taupart.detour import detour_order
from taupart.graphs import cycle_graph
assert detour_order(cycle_graph({NUMPY_DP_MIN_K - 1})).tau == {NUMPY_DP_MIN_K - 1}
assert "numpy" not in sys.modules, "imported by a DP below the numpy kernel's threshold"
assert detour_order(cycle_graph({NUMPY_DP_MIN_K})).tau == {NUMPY_DP_MIN_K}
assert "numpy" in sys.modules, "a full-order DP on {NUMPY_DP_MIN_K} vertices did not load numpy"
"""


def test_numpy_loads_on_the_first_numpy_dp():
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", NUMPY_ON_FIRST_USE],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_numpy_kernel_reaches_bit_63():
    # the 2^64-entry list of the loop kernel could not even be allocated
    for g in (path_graph(64), cycle_graph(64)):
        assert detour_order(g, max_n=64).tau == 64 == detour_order_dfs(g)
    assert detour.subset_queries(path_graph(64)).hamiltonian_ends() == (64, 1 | 1 << 63)
