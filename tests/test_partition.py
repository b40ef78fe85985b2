"""Two-part detour partitions: case rules, audits, and the full pipeline."""

from __future__ import annotations

import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taupart.detour import (
    NUMPY_DP_MIN_K,
    detour_order,
    detour_order_dfs,
    end_vertices_of_order_paths,
    subset_tau_at_most,
    tau_subset,
)
from taupart.errors import (CapacityError, CounterexampleError, Graph6Error, GraphError, InternalCheckError,
                            NotTwoConnectedError, TargetError)
from taupart.graphs import (
    Graph,
    add_ear,
    complete_graph,
    connected_components,
    cycle_graph,
    encode_graph6,
    ids_to_mask,
    induced_subgraph,
    is_connected,
    lift,
    mask_to_ids,
    parse_graph6,
    path_graph,
    petersen_graph,
    random_2connected,
    random_graph,
)
from taupart.ears import Ear, EarDecomposition, ear_decompose, ear_levels
from taupart.multiway import t_partition
from taupart.partition import (
    PartitionTarget,
    brute_force_partition,
    choose_subtarget,
    extend_r0,
    extend_r1,
    extend_rge2,
    graph_facts,
    tau_partition,
    tau_partition_2connected,
)


def directed_paths_of_order(edges: set[frozenset], vertices: set[int], k: int) -> list[tuple]:
    """Test-side path enumerator, independent of the package DP."""
    found = []

    def grow(seq):
        if len(seq) >= k:
            found.append(tuple(seq))
        for u in sorted(vertices - set(seq)):
            if frozenset((seq[-1], u)) in edges:
                grow(seq + [u])

    for v in sorted(vertices):
        grow([v])
    return found


def cert_is_valid(g, cert):
    assert cert.part_a & cert.part_b == 0
    assert cert.part_a | cert.part_b == g.full_mask
    assert tau_subset(g, cert.part_a) == cert.tau_a <= cert.a
    assert tau_subset(g, cert.part_b) == cert.tau_b <= cert.b


def test_target_validation():
    with pytest.raises(TargetError):
        PartitionTarget(0, 3)
    with pytest.raises(TargetError):
        PartitionTarget(2, -1)
    # only ints: a float part, or a bool (an int in Python, `true` in JSON)
    for a, b in ((1.5, 1.5), (True, 3), (3, False), (2.0, 3), ("2", 3)):
        with pytest.raises(TargetError):
            PartitionTarget(a, b)
    assert PartitionTarget(2, 3).total == 5


def test_partition_cycle_consecutive():
    along = [3, 6, 0, 5, 1, 4, 2]  # a 7-cycle whose ids do not follow it
    g = Graph.from_edges(7, [(u, along[i - 1]) for i, u in enumerate(along)])
    for a in range(1, 7):
        cert = tau_partition(g, PartitionTarget(a, 7 - a))
        assert cert.method == "base-cycle"
        assert cert.part_b == g.full_mask & ~cert.part_a
        # A is a run of a consecutive vertices of the cycle, so it induces a path
        assert any(cert.part_a == ids_to_mask((along * 2)[s:s + a]) for s in range(7))
        cert_is_valid(g, cert)
        assert (cert.tau_a, cert.tau_b) == (a, 7 - a)
    with pytest.raises(TargetError):
        tau_partition(g, PartitionTarget(3, 3))


def test_choose_subtarget_exhaustive():
    for a in range(1, 7):
        for b in range(1, 7):
            t = PartitionTarget(a, b)
            for tau_sub in range(2, a + b + 1):
                s = choose_subtarget(t, tau_sub)
                assert 1 <= s.a <= a
                assert 1 <= s.b <= b
                assert s.total == tau_sub


def test_choose_subtarget_rejects_out_of_range():
    with pytest.raises(GraphError):
        choose_subtarget(PartitionTarget(2, 2), 1)
    with pytest.raises(InternalCheckError):
        choose_subtarget(PartitionTarget(2, 2), 5)


# --- case rules ------------------------------------------------------------

# P4 0-1-2-3 plus the chord (1, 3); vertex 4 sits in the other part
H_CHORD = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (1, 3)])


def test_chord_straddling_is_noop():
    prior = ids_to_mask([0, 1])
    after, case_tag, migrated = extend_r0(H_CHORD, prior, Ear(1, 3, ()), PartitionTarget(3, 2))
    assert after == prior
    assert case_tag == "1.1"
    assert migrated == 0


def test_chord_same_part_without_overflow_keeps_partition():
    prior = ids_to_mask([0, 1, 4])
    after, case_tag, migrated = extend_r0(H_CHORD, prior, Ear(0, 1, ()), PartitionTarget(3, 2))
    assert after == prior
    assert case_tag == "1.2"
    assert migrated == 0


def test_chord_migration_matches_independent_enumeration():
    # bound 3 overflows: tau({0,1,2,3}) = 4 once the chord is in
    prior = ids_to_mask([0, 1, 2, 3])
    t = PartitionTarget(3, 2)
    after, _, migrated = extend_r0(H_CHORD, prior, Ear(1, 3, ()), t)
    edges = {frozenset(e) for e in H_CHORD.edges()}
    expect = {seq[3] for seq in directed_paths_of_order(edges, {0, 1, 2, 3}, 4)}
    assert expect == {0, 2, 3}  # derived; frozen as a regression anchor
    assert set(mask_to_ids(migrated)) == expect
    assert after == ids_to_mask([1])


def test_chord_migrated_set_is_the_ends_of_order_p_plus_1_paths():
    # extend_r0 migrates the (p+1)-th vertex of every directed path of order
    # >= p+1 in the donor part; it asks the DP for the ends of order-(p+1)
    # paths instead, which must be the same set
    rng = random.Random(7)
    for case in range(400):
        n = rng.randint(2, 8)
        g = random_graph(n, rng.uniform(0.2, 0.7), seed=case)
        mask = rng.randrange(1 << n)
        p = rng.randint(1, 5)
        edges = {frozenset(e) for e in g.edges()}
        expect = {seq[p] for seq in directed_paths_of_order(edges, set(mask_to_ids(mask)), p + 1)}
        got = end_vertices_of_order_paths(g, p + 1, within=mask)
        assert set(mask_to_ids(got)) == expect, (case, n, mask, p)


# C4 plus one internal vertex 4 attached at 0 and 2
H_EAR1 = add_ear(cycle_graph(4), 0, 2, 1)


def test_ear1_same_part_sends_internal_across():
    prior = ids_to_mask([0, 2])
    after, case_tag, _ = extend_r1(H_EAR1, prior, Ear(0, 2, (4,)), PartitionTarget(2, 2))
    assert case_tag == "2.1"
    assert after == ids_to_mask([0, 2])  # 4 joins part B


def test_ear1_split_respects_endpoint_path_rule():
    # 0 already ends the order-2 path 0-1 inside the a-side, so 4 joins b
    prior = ids_to_mask([0, 1])
    after, case_tag, _ = extend_r1(H_EAR1, prior, Ear(0, 2, (4,)), PartitionTarget(2, 2))
    assert case_tag == "2.2"
    assert after == ids_to_mask([0, 1])  # 4 joins part B


def test_ear1_split_joins_a_when_endpoint_is_loose():
    # isolated a-side endpoint: no order-2 path ends at 0, so 4 joins a
    h = add_ear(cycle_graph(4), 0, 2, 1)
    prior = ids_to_mask([0])
    after, case_tag, _ = extend_r1(h, prior, Ear(0, 2, (4,)), PartitionTarget(2, 3))
    assert case_tag == "2.2"
    assert after == ids_to_mask([0, 4])


def test_long_ear_two_colouring():
    h = add_ear(cycle_graph(3), 0, 1, 3)  # internals 3, 4, 5
    prior = ids_to_mask([0, 1])
    after, case_tag, _ = extend_rge2(h, prior, Ear(0, 1, (3, 4, 5)), PartitionTarget(2, 1))
    assert case_tag == "3"
    # first internal opposite x, alternating, last internal opposite y
    assert after == ids_to_mask([0, 1, 4])


def test_long_ear_override_can_pair_up_internals():
    # both endpoints in A and r = 2: the override parks both internals in B,
    # where they are adjacent; the rule itself does not flag this
    h = add_ear(cycle_graph(3), 0, 1, 2)
    prior = ids_to_mask([0, 1])
    after, _, _ = extend_rge2(h, prior, Ear(0, 1, (3, 4)), PartitionTarget(2, 1))
    assert after == ids_to_mask([0, 1])  # part B is {2, 3, 4}
    assert tau_subset(h, h.full_mask & ~after) == 2  # exceeds bound 1; caller must repair


# --- brute force -----------------------------------------------------------

def test_brute_force_finds_deterministic_partition():
    g = complete_graph(4)
    got = brute_force_partition(g, PartitionTarget(2, 2))
    assert got is not None
    a_mask, b_mask = got
    assert tau_subset(g, a_mask) <= 2 and tau_subset(g, b_mask) <= 2
    assert got == brute_force_partition(g, PartitionTarget(2, 2))


def test_brute_force_rejects_bad_total():
    with pytest.raises(TargetError):
        brute_force_partition(complete_graph(3), PartitionTarget(1, 1))


@pytest.mark.parametrize("within", [0b100011, -1, -(1 << 70)], ids=["vertex-5", "minus-1", "minus-2^70"])
def test_brute_force_rejects_a_mask_outside_the_graph(within, count_dps):
    # vertex 5 is not a vertex of C5; a negative mask holds every vertex
    # id above some bit, and never empties in a loop that clears its bits
    with pytest.raises(GraphError) as info:
        brute_force_partition(cycle_graph(5), PartitionTarget(1, 1), within=within)
    assert str(info.value) == f"vertex set {within:#x} not within 0..4"
    assert count_dps == []


@pytest.mark.parametrize("within", [0.5, True], ids=["float", "bool"])
def test_brute_force_rejects_a_mask_that_is_not_an_int(within, count_dps):
    # 0.5 raised a bare TypeError, and True was read as the vertex set {0}
    with pytest.raises(GraphError) as info:
        brute_force_partition(cycle_graph(5), PartitionTarget(1, 1), within=within)
    assert str(info.value) == f"vertex set {within!r} is not an int mask"
    assert count_dps == []


@pytest.mark.parametrize("call, kind, message", [
    (lambda: t_partition(cycle_graph(5), 0.5), TargetError, "tuple target 0.5 must hold integers"),
    (lambda: tau_partition(cycle_graph(5), None), TargetError, "target None is not a PartitionTarget"),
    (lambda: parse_graph6(5), Graph6Error, "graph6 input must be a str, got int (byte 0)"),
    (lambda: parse_graph6(b"Dhc"), Graph6Error, "graph6 input must be a str, got bytes (byte 0)"),
    (lambda: tau_partition_2connected(cycle_graph(5), None), TargetError,
     "target None is not a PartitionTarget"),
    (lambda: tau_partition_2connected(cycle_graph(5), (2, 3)), TargetError,
     "target (2, 3) is not a PartitionTarget"),
    (lambda: brute_force_partition(cycle_graph(5), None), TargetError, "target None is not a PartitionTarget"),
    (lambda: brute_force_partition(cycle_graph(5), (2, 3)), TargetError,
     "target (2, 3) is not a PartitionTarget"),
], ids=["t_partition-float", "tau_partition-none", "parse_graph6-int", "parse_graph6-bytes",
        "tau_partition_2connected-none", "tau_partition_2connected-tuple", "brute_force_partition-none",
        "brute_force_partition-tuple"])
def test_an_argument_of_the_wrong_type_raises_the_documented_error(call, kind, message, count_dps):
    # each raised a bare TypeError or AttributeError
    with pytest.raises(Exception) as exc:
        call()
    assert type(exc.value) is kind
    assert str(exc.value) == message
    assert count_dps == []


def test_brute_force_capacity():
    with pytest.raises(CapacityError):
        brute_force_partition(path_graph(21), PartitionTarget(10, 11))


def test_brute_force_repairs_reuse_the_known_detour_order(monkeypatch):
    from taupart import detour, partition

    k4, tree = complete_graph(4), path_graph(5)
    graph_facts(k4), graph_facts(tree)  # what tau_partition already holds
    # whole-graph taus asked inside brute force; the witnesses and the final
    # check of tau_partition ask the taus of whole level graphs too
    dps, depth = [], []
    real_brute_force, real_tau = partition.brute_force_partition, detour.SubsetTable.tau

    def brute_force(*args, **kwargs):
        depth.append(None)
        try:
            return real_brute_force(*args, **kwargs)
        finally:
            depth.pop()

    def counted(table, mask):
        if depth and mask == (1 << table.n) - 1:
            dps.append(table.n)
        return real_tau(table, mask)
    monkeypatch.setattr(partition, "brute_force_partition", brute_force)
    monkeypatch.setattr(detour.SubsetTable, "tau", counted)
    assert tau_partition(k4, PartitionTarget(3, 1)).method == "fallback"  # a level repair
    assert tau_partition(tree, PartitionTarget(2, 3)).method == "fallback"  # not 2-connected
    assert dps == []
    assert partition.brute_force_partition(k4, PartitionTarget(2, 2)) is not None
    assert dps == [4]  # the public entry checks the sum itself
    with pytest.raises(TargetError):
        brute_force_partition(k4, PartitionTarget(2, 1), tau_g=4)


def _whole_graph_brute_force(g, t):
    """The whole-graph search brute force ran before it split g into
    components: part A by size, then lexicographically, over all of V(g)."""
    full = g.full_mask
    for size in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            part_a = ids_to_mask(combo)
            if subset_tau_at_most(g, part_a, t.a) and subset_tau_at_most(g, full & ~part_a, t.b):
                return part_a, full & ~part_a
    return None


def _disjoint_unions(count: int, seed: int):
    """Disjoint unions of 2-4 small random graphs and at least one isolated
    vertex, n <= 12, with the ids shuffled so the components interleave."""
    rng = random.Random(seed)
    for i in range(count):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 4))]
        while sum(sizes) > 11:
            sizes.pop()
        n = sum(sizes) + rng.randint(1, 12 - sum(sizes))
        perm = list(range(n))
        rng.shuffle(perm)
        edges, offset = [], 0
        for j, k in enumerate(sizes):
            h = random_graph(k, rng.choice((0.5, 0.8, 1.0)), seed=seed + 10 * i + j)
            edges += [(perm[offset + u], perm[offset + v]) for u, v in h.edges()]
            offset += k
        yield Graph.from_edges(n, edges)


def test_brute_force_matches_the_whole_graph_search_on_disconnected_graphs():
    from taupart.oracle import corpus_graphs, graphs_upto_iso

    small = [g for n in range(2, 7) for g in corpus_graphs(n, graphs_upto_iso(n)) if not is_connected(g)]
    assert len(small) == 65
    unions = list(_disjoint_unions(40, seed=14))
    assert all(not is_connected(g) and g.n <= 12 for g in unions)
    targets = 0
    for g in small + unions:
        tau = detour_order(g).tau
        for a in range(1, tau):
            t = PartitionTarget(a, tau - a)
            assert brute_force_partition(g, t) == _whole_graph_brute_force(g, t), (encode_graph6(g), a)
            targets += 1
    assert targets == 250


def test_brute_force_matches_the_whole_graph_search_on_every_small_class():
    from taupart.oracle import corpus_graphs, graphs_upto_iso

    targets = 0
    for n in range(1, 8):
        for g in corpus_graphs(n, graphs_upto_iso(n)):
            tau = tau_subset(g, g.full_mask)
            for a in range(1, tau):
                t = PartitionTarget(a, tau - a)
                assert brute_force_partition(g, t, tau_g=tau) == _whole_graph_brute_force(g, t), \
                    (encode_graph6(g), a)
                targets += 1
    assert targets == 6545


def test_brute_force_matches_the_whole_graph_search_on_random_graphs():
    # sparse graphs on 8-16 vertices, whose largest component often has 14
    # or more vertices and so runs its DPs on the numpy kernel; targets with
    # a <= 3 keep the whole-graph search to small parts
    rng = random.Random(5)
    big_parts = set()  # (size, is the component's lowest id) of parts in numpy-kernel components
    for i in range(36):
        g = random_graph(8 + i % 9, rng.choice((0.15, 0.2, 0.25, 0.3)), seed=rng.randrange(1 << 30))
        tau = tau_subset(g, g.full_mask)
        for a in range(1, min(3, tau - 1) + 1):
            t = PartitionTarget(a, tau - a)
            got = brute_force_partition(g, t, tau_g=tau)
            assert got == _whole_graph_brute_force(g, t), (encode_graph6(g), a)
            for comp in connected_components(g, g.full_mask):
                if comp.bit_count() >= NUMPY_DP_MIN_K:
                    part = got[0] & comp
                    big_parts.add((part.bit_count(), part == comp & -comp))
        # on a vertex subset, in g's own ids, it is the search on the
        # induced subgraph lifted back
        within = g.full_mask & ~(1 << i % g.n)
        sub, order = induced_subgraph(g, within)
        tau = tau_subset(g, within)
        if tau > 1:
            t = PartitionTarget(1, tau - 1)
            expect = brute_force_partition(sub, t)
            got = brute_force_partition(g, t, tau_g=tau, within=within)
            assert got == (expect and tuple(lift(m, order) for m in expect)), encode_graph6(g)
    assert big_parts >= {(1, True), (1, False), (2, False)}


def test_brute_force_answers_a_one_vertex_part_from_one_dp(count_dps):
    g = path_graph(5)  # every path of order 4 holds 1, 2 and 3, and 1 comes first
    assert brute_force_partition(g, PartitionTarget(2, 3), tau_g=5) == (0b00010, 0b11101)
    assert count_dps == [5]  # the subset table of g


def test_brute_force_finds_nothing_when_one_component_has_no_part():
    g = parse_graph6("G~?GW[")  # 2K4: no K4 splits into two independent sets
    t = PartitionTarget(1, 1)
    assert brute_force_partition(g, t, tau_g=2) is None
    assert _whole_graph_brute_force(g, t) is None


def test_brute_force_runs_its_dps_one_component_at_a_time(count_dps):
    # below NUMPY_DP_MIN_K vertices every component reads one table of g
    g = parse_graph6("Hl?GGS?")  # 2C4 + K1
    part_a = ids_to_mask([0, 4])  # the first vertex of each C4
    assert brute_force_partition(g, PartitionTarget(1, 3), tau_g=4) == (part_a, g.full_mask & ~part_a)
    assert count_dps == [9]
    # from there on each DP runs on one component: one per C8 of 2C8
    count_dps.clear()
    g = Graph.from_edges(16, [(i + s, (i + 1) % 8 + s) for s in (0, 8) for i in range(8)])
    part_a = ids_to_mask([0, 8])
    assert brute_force_partition(g, PartitionTarget(1, 7), tau_g=8) == (part_a, g.full_mask & ~part_a)
    assert count_dps == [8, 8]


# --- full pipeline ---------------------------------------------------------

def test_cycle_certificate():
    g = cycle_graph(7)
    cert = tau_partition(g, PartitionTarget(3, 4))
    assert cert.method == "base-cycle"
    assert cert.witnesses == ()
    cert_is_valid(g, cert)


def test_k4_easy_targets_construct():
    g = complete_graph(4)
    for a in (1, 2):
        cert = tau_partition(g, PartitionTarget(a, 4 - a))
        assert cert.method == "constructed"
        assert cert.witnesses == ()
        cert_is_valid(g, cert)


def test_k4_hard_target_falls_back_with_witnesses():
    g = complete_graph(4)
    cert = tau_partition(g, PartitionTarget(3, 1))
    assert cert.method == "fallback"
    cert_is_valid(g, cert)
    kinds = sorted(w.kind for w in cert.witnesses)
    assert kinds == ["bound", "migration-audit", "migration-audit"]
    assert all(w.case_tag == "1.2" for w in cert.witnesses)
    bound = next(w for w in cert.witnesses if w.kind == "bound")
    # the chord migration empties B and re-inflates A to the whole of K4
    assert bound.post_a == (0, 1, 2, 3)
    assert bound.post_b == ()
    assert bound.detail["tau_A"] == 4
    audit = next(w for w in cert.witnesses if w.kind == "migration-audit")
    assert audit.detail["type"] == "adjacency"
    assert audit.detail["q"] == 1


def test_no_level_partition_falls_back_to_the_whole_graph(monkeypatch):
    from taupart import partition
    from taupart.oracle import verify_record

    g, t = complete_graph(4), PartitionTarget(3, 1)
    real = partition.brute_force_partition
    calls = []

    def level_fails(h, tt, **kw):
        calls.append(h is g)
        return real(h, tt, **kw) if h is g else None

    monkeypatch.setattr(partition, "brute_force_partition", level_fails)
    cert = tau_partition(g, t)
    assert calls == [False, True]  # the level repair, then the whole graph
    assert cert.method == "fallback"
    cert_is_valid(g, cert)
    assert verify_record(cert.to_json_dict()) == (True, "ok")
    bound, = (w for w in cert.witnesses if w.kind == "bound")
    missing, = (w for w in cert.witnesses if w.kind == "no-level-partition")
    assert (missing.ear_index, missing.case_tag, missing.level_target) == \
        (bound.ear_index, bound.case_tag, bound.level_target)
    assert (missing.post_a, missing.post_b) == ((), ())

    monkeypatch.setattr(partition, "brute_force_partition", lambda h, tt, **kw: None)
    with pytest.raises(CounterexampleError) as exc:
        tau_partition(g, t)
    assert (exc.value.graph6, exc.value.target) == (encode_graph6(g), (3, 1))


def test_long_ear_gap_instance_currently_constructs():
    # ear endpoints land in different parts of the base split, so the
    # two-colouring dodges the adjacent-internals trap on this graph
    g = add_ear(cycle_graph(3), 0, 1, 2)
    cert = tau_partition(g, PartitionTarget(4, 1))
    assert cert.method == "constructed"
    assert cert.witnesses == ()
    assert [s.case_tag for s in cert.trace] == ["3"]
    cert_is_valid(g, cert)


def test_long_ear_gap_fires_on_wheel_like_graph():
    g = parse_graph6("Efj?")
    tau = detour_order(g).tau
    cert = tau_partition(g, PartitionTarget(tau - 1, 1))
    assert cert.method == "fallback"
    assert any(w.case_tag == "3" and w.kind == "bound" for w in cert.witnesses)
    cert_is_valid(g, cert)


def test_petersen_partitions():
    g = petersen_graph()
    for a in (3, 5):
        cert = tau_partition(g, PartitionTarget(a, 10 - a))
        cert_is_valid(g, cert)


def test_non_2connected_routes_to_brute_force():
    tree = path_graph(5)
    cert = tau_partition(tree, PartitionTarget(2, 3))
    assert cert.method == "fallback"
    cert_is_valid(tree, cert)
    two_comp = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    cert = tau_partition(two_comp, PartitionTarget(1, 2))
    assert cert.method == "fallback"
    cert_is_valid(two_comp, cert)


def test_graph_facts_match_independent_recomputation():
    for g in (petersen_graph(), complete_graph(4), random_2connected(9, extra_ears=3, seed=5)):
        facts = graph_facts(g)
        assert facts.tau == detour_order_dfs(g)
        levels = list(ear_levels(ear_decompose(g)))
        assert facts.graph6 == encode_graph6(g)
        assert facts.levels == tuple(h for h, _, _ in levels)
        assert facts.ears == tuple(e for _, e, _ in levels[1:])
        assert facts.orig_of == levels[-1][2]
        assert facts.taus == tuple(detour_order_dfs(h) for h in facts.levels)
    tree = path_graph(5)
    facts = graph_facts(tree)
    assert (facts.graph6, facts.tau) == (encode_graph6(tree), 5)
    assert facts.levels == facts.ears == facts.orig_of == facts.taus == ()
    with pytest.raises(NotTwoConnectedError):
        tau_partition_2connected(tree, PartitionTarget(2, 3))


def test_graph_facts_check_the_cap_on_every_call():
    g = petersen_graph()
    graph_facts(g)
    with pytest.raises(CapacityError):
        graph_facts(g, max_n=9)
    with pytest.raises(CapacityError):
        tau_partition(g, PartitionTarget(5, 5), max_n=9)


@pytest.mark.parametrize("g, max_n, detail", [
    (cycle_graph(21), None, "subset dynamic program over 21 vertices exceeds the cap of 20"),
    (path_graph(21), None, "subset dynamic program over 21 vertices exceeds the cap of 20"),
    (cycle_graph(8), 7, "subset dynamic program over 8 vertices exceeds the cap of 7"),
    (path_graph(8), 7, "subset dynamic program over 8 vertices exceeds the cap of 7"),
], ids=["C21", "P21", "C8-under-7", "P8-under-7"])
def test_an_oversized_graph_reports_the_cap_of_its_engine(g, max_n, detail):
    # one DP cap for both engines, checked by graph_facts
    with pytest.raises(CapacityError) as exc:
        tau_partition(g, PartitionTarget(1, g.n - 1), max_n=max_n)
    assert str(exc.value) == detail


def test_every_target_shares_one_two_connectivity_check(monkeypatch):
    from taupart import ears, graphs, partition

    calls = []
    real = graphs.blocks
    for module in (ears, graphs):
        monkeypatch.setattr(module, "blocks", lambda g: calls.append(g) or real(g))
    partition._graph_facts.cache_clear()
    g = petersen_graph()
    for a in range(1, 10):
        tau_partition(g, PartitionTarget(a, 10 - a))
    assert calls == [g]  # inside graph_facts' ear decomposition
    # a two-part multiway split reads the same facts
    t_partition(g, (5, 5))
    assert calls == [g]


def test_a_raised_cap_reaches_the_dps_below_the_entry(count_dps):
    from taupart.oracle import verify_record

    g = add_ear(add_ear(cycle_graph(4), 0, 2, 9), 1, 3, 9)
    assert encode_graph6(g) == "Ul_GGC@?G?_@G@O???G?@??C??G??G??C??@C??G"
    assert graph_facts(g, 22).tau == 22
    assert count_dps == [22]  # the top level's Hamiltonian ends, on all of g
    cert = tau_partition(g, PartitionTarget(11, 11), max_n=22)
    assert cert.method == "constructed"
    assert verify_record(cert.to_json_dict(), max_n=22) == (True, "ok")
    with pytest.raises(CapacityError):
        graph_facts(g)
    with pytest.raises(CapacityError):
        tau_partition(g, PartitionTarget(11, 11))


def test_graph_facts_reject_levels_that_do_not_rebuild_the_graph(monkeypatch):
    from taupart import partition

    real = partition.ear_decompose

    def drop_a_chord(g):
        d = real(g)
        i = next(i for i, ear in enumerate(d.ears) if not ear.r)
        return EarDecomposition(d.base_cycle, d.ears[:i] + d.ears[i + 1:])

    monkeypatch.setattr(partition, "ear_decompose", drop_a_chord)
    partition._graph_facts.cache_clear()
    with pytest.raises(InternalCheckError):
        graph_facts(complete_graph(5))


def _wheel(k: int) -> Graph:
    """A hub, vertex k, joined to every vertex of the cycle 0..k-1."""
    return Graph.from_edges(k + 1, [(i, (i + 1) % k) for i in range(k)] + [(i, k) for i in range(k)])


def _k2m(m: int) -> Graph:
    return Graph.from_edges(m + 2, [(i, j) for i in range(2) for j in range(2, m + 2)])


def _level_tau_cases():
    from taupart.oracle import corpus_graphs, two_connected_graphs_upto_iso

    for n in range(3, 8):
        yield from corpus_graphs(n, two_connected_graphs_upto_iso(n))
    for m in range(2, 9):
        yield _k2m(m)
    # levels of 14 or more vertices run the numpy kernel's full-mask lookup
    for seed in range(8):
        yield random_2connected(14 + seed % 4, extra_ears=2 + seed % 5, seed=seed)


def test_level_taus_carry_only_true_hamiltonian_ends():
    from taupart import partition

    big_levels = 0
    for g in _level_tau_cases():
        facts = graph_facts(g)
        taus, carried = partition._level_taus(facts.levels, facts.ears)
        assert taus == facts.taus
        assert facts.tau == taus[-1]
        for h, tau, ends in zip(facts.levels, taus, carried):
            # the ends of paths of order |V(h)|, from an early-exit DP that
            # reads no subset table
            exact_tau, exact_ends = tau_subset(h, h.full_mask), end_vertices_of_order_paths(h, h.n)
            assert tau == exact_tau
            assert ends & ~exact_ends == 0, (encode_graph6(g), h.n)
            assert bool(ends) == (tau == h.n)
            big_levels += h.n >= NUMPY_DP_MIN_K
    assert big_levels >= 8


@pytest.mark.parametrize("g, dps", [
    (_wheel(6), 0), (complete_graph(6), 0), (petersen_graph(), 0), (_k2m(4), 1), (_k2m(6), 3),
], ids=["W6", "K6", "petersen", "K2,4", "K2,6"])
def test_graph_facts_run_a_dp_only_on_unsettled_levels(count_dps, g, dps):
    graph_facts(g)
    assert len(count_dps) == dps


def test_no_full_order_dp_repeats_a_graph(count_dps, monkeypatch):
    # an open level's Hamiltonian ends and its step checks read one subset
    # table, so a graph's facts and all its targets together run each
    # full-order DP once per adjacency list
    from taupart import detour
    from taupart.graphs import relabel
    from taupart.oracle import corpus_graphs, two_connected_graphs_upto_iso

    seen: set[tuple[int, ...]] = set()
    counted = detour._dp_levels

    def once(adj, stop_at=None, unions=None, within=None):
        if stop_at is None:
            ladj = tuple(adj if within is None else relabel(adj, within)[0])
            assert ladj not in seen, (encode_graph6(g), ladj)
            seen.add(ladj)
        return counted(adj, stop_at, unions, within)

    monkeypatch.setattr(detour, "_dp_levels", once)
    for g in corpus_graphs(6, two_connected_graphs_upto_iso(6)) + [_k2m(4), _k2m(6)]:
        seen.clear()
        tau = graph_facts(g).tau
        for a in range(1, tau):
            tau_partition(g, PartitionTarget(a, tau - a))
    assert count_dps


def test_the_final_check_reads_the_top_level_table(count_dps, monkeypatch):
    # the top ear level is g relabelled, so a certificate whose ears all
    # folded in is checked on that level's table, and g gets none
    from taupart import detour

    g = petersen_graph()
    top = graph_facts(g).levels[-1]
    assert g.n < NUMPY_DP_MIN_K and top != g
    built = []
    real = detour.SubsetTable.__init__
    monkeypatch.setattr(detour.SubsetTable, "__init__", lambda self, h: built.append(h) or real(self, h))
    for a in range(1, 7):
        cert = tau_partition_2connected(g, PartitionTarget(a, 10 - a))
        assert cert.method == "constructed"
        assert (cert.tau_a, cert.tau_b) == (tau_subset(g, cert.part_a), tau_subset(g, cert.part_b))
    assert top in built and g not in built


def test_rejects_target_not_summing_to_tau():
    with pytest.raises(TargetError):
        tau_partition(complete_graph(3), PartitionTarget(1, 1))
    with pytest.raises(TargetError):
        tau_partition(cycle_graph(5), PartitionTarget(4, 2))


def test_certificate_json_schema():
    cert = tau_partition(complete_graph(4), PartitionTarget(2, 2))
    d = cert.to_json_dict()
    assert set(d) == {"graph6", "a", "b", "A", "B", "tauA", "tauB", "method", "trace"}
    assert d["graph6"] == "C~"
    assert sorted(d["A"] + d["B"]) == [0, 1, 2, 3]
    assert all(set(s) == {"ear_index", "case", "migrated", "subtarget", "valid_after"}
               for s in d["trace"])
    with_witness = tau_partition(complete_graph(4), PartitionTarget(3, 1))
    dw = with_witness.to_json_dict()
    assert "witnesses" in dw
    assert {w["kind"] for w in dw["witnesses"]} == {"bound", "migration-audit"}


def test_all_two_connected_up_to_6_all_targets():
    from taupart.oracle import corpus_graphs, two_connected_graphs_upto_iso

    for n in range(3, 7):
        for g in corpus_graphs(n, two_connected_graphs_upto_iso(n)):
            tau = detour_order(g).tau
            for a in range(1, tau):
                cert_is_valid(g, tau_partition(g, PartitionTarget(a, tau - a)))



# The digest of every certificate of the small 2-connected classes: each
# target (a, tau - a) of each class with 3 <= n <= 7, 538 graphs and 3,127
# certificates, one sort_keys JSON line each.  It pins parts, traces and
# witnesses alike; a change to the construction's rules re-pins it on purpose.
SMALL_CLASS_CERTIFICATES_SHA256 = "1cc01317521f9d042dd88dd70c1319eee2ca0c4dd843c7faf6a81ee76cee640d"


def test_certificates_of_small_two_connected_classes_are_pinned():
    from taupart.oracle import corpus_graphs, two_connected_graphs_upto_iso

    digest = hashlib.sha256()
    certificates = 0
    for n in range(3, 8):
        for g in corpus_graphs(n, two_connected_graphs_upto_iso(n)):
            tau = graph_facts(g).tau
            for a in range(1, tau):
                cert = tau_partition(g, PartitionTarget(a, tau - a))
                digest.update((json.dumps(cert.to_json_dict(), sort_keys=True) + "\n").encode())
                certificates += 1
    assert certificates == 3127
    assert digest.hexdigest() == SMALL_CLASS_CERTIFICATES_SHA256

@given(st.integers(3, 12), st.integers(0, 4), st.integers(0, 2**31 - 1),
       st.integers(0, 10**6))
@settings(max_examples=120, deadline=None)
def test_random_two_connected_certificates_hold(n, extra, seed, apick):
    g = random_2connected(n, extra_ears=extra, seed=seed)
    tau = detour_order(g).tau
    a = 1 + apick % (tau - 1)
    cert = tau_partition(g, PartitionTarget(a, tau - a))
    assert cert.method in ("base-cycle", "constructed", "fallback")
    cert_is_valid(g, cert)
    assert mask_to_ids(cert.part_a) == sorted(cert.to_json_dict()["A"])
