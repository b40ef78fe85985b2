"""Multiway detour partitions and n-detour colourings."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taupart import multiway, partition
from taupart.detour import NUMPY_DP_MIN_K, detour_order, detour_order_dfs, tau_subset
from taupart.errors import CapacityError, CounterexampleError, GraphError, InternalCheckError, TargetError
from taupart.graphs import (
    complete_graph,
    cycle_graph,
    encode_graph6,
    induced_subgraph,
    lift,
    parse_graph6,
    path_graph,
    petersen_graph,
    random_2connected,
    random_graph,
)
from taupart.multiway import (
    _rebalance,
    class_partition,
    detour_coloring,
    exact_detour_chromatic,
    t_partition,
    verify_detour_coloring,
)
from taupart.oracle import connected_graphs_upto_iso, corpus_graphs
from taupart.partition import PartitionTarget, tau_partition
from taupart.starcolor import verify_star_coloring

BOWTIE = parse_graph6("DxK")


def parts_are_valid(g, entries, masks):
    assert len(masks) == len(entries)
    seen = 0
    for mask, bound in zip(masks, entries):
        assert mask & seen == 0
        seen |= mask
        assert tau_subset(g, mask) <= bound
    assert seen == g.full_mask


def test_three_way_cycle():
    parts_are_valid(cycle_graph(6), (2, 2, 2), t_partition(cycle_graph(6), (2, 2, 2)))


def test_singleton_parts_of_k4():
    parts_are_valid(complete_graph(4), (1, 1, 1, 1),
                    t_partition(complete_graph(4), (1, 1, 1, 1)))


def test_single_part_is_identity():
    g = BOWTIE
    masks = t_partition(g, (5,))
    assert masks == [g.full_mask]


def test_rebalancing_can_empty_a_part():
    # two independent sets cover the star, so the third entry shrinks to zero
    star = parse_graph6("D?{")
    masks = t_partition(star, (1, 1, 1))
    parts_are_valid(star, (1, 1, 1), masks)
    assert masks.count(0) == 1


def test_entries_must_be_positive_and_sum_to_tau():
    with pytest.raises(TargetError):
        t_partition(cycle_graph(6), (2, 2, 1))
    with pytest.raises(TargetError):
        t_partition(cycle_graph(6), (6, 0))
    with pytest.raises(TargetError):
        t_partition(cycle_graph(6), ())
    # the empty tuple is the empty graph's target; anywhere else its sum is wrong
    with pytest.raises(TargetError, match=r"^tuple target \[\] sums to 0, detour order is 5$"):
        t_partition(cycle_graph(5), [])


def test_a_tuple_target_sum_too_long_to_print_is_a_target_error(int_str_limit):
    big = int("9" * int_str_limit)
    with pytest.raises(TargetError, match=r"sums to a number too long to print, detour order is 6$"):
        t_partition(cycle_graph(6), (big, big))


def test_entries_must_be_integers():
    # int() would have read (2.9, 2.9) as (2, 2), a valid target of C4
    for parts in ((2.9, 2.9), (1.5, 2.5), (2.0, 2.0), (True,) * 4, (2, "2")):
        with pytest.raises(TargetError):
            t_partition(cycle_graph(4), parts)


def test_split_reuses_the_taus_it_already_holds(count_dps):
    # each remainder's tau comes from the step that cut it off, and every
    # remainder is a mask of g.  Petersen's first step is the ear
    # construction: five level tables and one early-exit DP for a fold
    # step's migration.  Each later remainder is not 2-connected, so brute
    # force partitions it in place on g's own table: no remainder gets a
    # graph, facts or a table
    g = petersen_graph()
    masks = t_partition(g, (2,) * 5)
    assert count_dps == [9, 9, 10, 10, 4, 10, 10]
    parts_are_valid(g, (2,) * 5, masks)


def test_a_two_connected_remainder_gets_a_graph_of_its_own(count_dps):
    # C6 plus the chord (1, 4): the first step's ear construction reads one
    # level table and leaves the 4-cycle {1, 2, 3, 4}, which is 2-connected,
    # so its step runs the ear construction on a graph of its own (the
    # base cycle's table).  Each step checks its own parts, so g gets no
    # table
    g = parse_graph6("EhUG")
    assert g.edges() == [(0, 1), (0, 5), (1, 2), (1, 4), (2, 3), (3, 4), (4, 5)]
    masks = t_partition(g, (2, 2, 2))
    assert count_dps == [6, 4]
    assert masks == [0b100001, 0b010010, 0b001100]
    parts_are_valid(g, (2, 2, 2), masks)


def test_the_class_partition_meets_every_bound_on_every_small_class():
    # each part is checked once, by the step of the split that cut it off;
    # here the DFS engine, which shares no code with those steps, checks
    # every part of every connected class with n <= 7 at every class bound
    for k in range(1, 8):
        for g in corpus_graphs(k, connected_graphs_upto_iso(k)):
            tau = detour_order_dfs(g)
            for n in range(1, tau + 1):
                budgets, masks = class_partition(g, n)
                assert len(budgets) == -(-tau // n) and sum(budgets) == tau
                assert set(budgets[:-1]) <= {n} and len(masks) == len(budgets)
                # masks whose bit counts add up to g.n sum to V(g) only if disjoint
                assert sum(masks) == g.full_mask and sum(m.bit_count() for m in masks) == g.n
                for m, b in zip(masks, budgets):
                    assert detour_order_dfs(induced_subgraph(g, m)[0]) <= b, (encode_graph6(g), n)


@pytest.mark.parametrize("fake, error, detail", [
    (lambda within: None, CounterexampleError, "no (2, {b}) partition exists"),
    (lambda within: (within, 0), InternalCheckError, "certified partition fails its own bounds on {g6}"),
], ids=["no-partition", "part-over-bound"])
def test_a_failed_remainder_step_names_the_remainder(fake, error, detail, monkeypatch):
    # Petersen's second remainder is not 2-connected, so brute force
    # partitions it in place; a failure there names the remainder's own
    # graph6, encoded only on that path
    g = petersen_graph()
    remainder = g.full_mask & ~t_partition(g, (2,) * 5)[0]
    g6, b = encode_graph6(induced_subgraph(g, remainder)[0]), tau_subset(g, remainder) - 2
    real = partition.brute_force_partition

    def in_chain_fails(h, t, within=None, **kw):
        return real(h, t, within=within, **kw) if within is None else fake(within)

    monkeypatch.setattr(partition, "brute_force_partition", in_chain_fails)
    with pytest.raises(error, match=f"^{re.escape(detail.format(b=b, g6=g6))}$") as exc:
        t_partition(g, (2,) * 5)
    if error is CounterexampleError:
        assert (exc.value.graph6, exc.value.target) == (g6, (2, b))


def _reference_split(g, parts):
    """The chain as it was first written: each remainder relabelled into a
    graph of its own and partitioned by tau_partition."""
    if g.n == 0:
        return [0] * len(parts)
    total = sum(parts)
    if parts[0] == total:
        return [g.full_mask] + [0] * (len(parts) - 1)
    cert = tau_partition(g, PartitionTarget(parts[0], total - parts[0]))
    sub, order = induced_subgraph(g, cert.part_b)
    rest = _rebalance(parts[1:], cert.tau_b)
    return [cert.part_a] + [lift(m, order) for m in _reference_split(sub, rest)]


def _composition(total, pick):
    """A composition of total into positive parts, chosen by pick."""
    entries = []
    while total:
        step = 1 + pick % total
        pick //= total
        entries.append(step)
        total -= step
    return entries


@pytest.mark.parametrize("n, seed", [(14, 3), (15, 8), (16, 501)])
def test_the_chain_matches_one_graph_per_remainder_across_the_table_switch(n, seed, monkeypatch):
    # from NUMPY_DP_MIN_K vertices on, the first remainder below it becomes
    # a graph of its own, whose table the rest of the chain reads
    g = random_2connected(n, extra_ears=3, seed=seed)
    tau = detour_order(g).tau
    switches = []
    real = multiway.induced_subgraph

    def spy(h, mask):
        if h.n >= NUMPY_DP_MIN_K > mask.bit_count():
            switches.append(mask)
        return real(h, mask)

    monkeypatch.setattr(multiway, "induced_subgraph", spy)
    for k in (2, 3):
        parts = [k] * (tau // k) + [tau % k] * (tau % k > 0)
        assert t_partition(g, parts) == _reference_split(g, parts)
    assert switches


def test_partition_order_is_deterministic():
    assert t_partition(BOWTIE, (2, 2, 1)) == t_partition(BOWTIE, (2, 2, 1))


@given(st.integers(1, 13), st.floats(0.1, 0.9), st.integers(0, 2**31 - 1),
       st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_random_multiway_partitions_hold(n, p, seed, pick):
    # valid, and the masks of the chain with one graph per remainder
    g = random_graph(n, p, seed=seed)
    entries = _composition(detour_order(g).tau, pick)
    masks = t_partition(g, tuple(entries))
    parts_are_valid(g, entries, masks)
    assert masks == _reference_split(g, entries)


def test_verify_detour_coloring():
    g = cycle_graph(5)
    assert verify_detour_coloring(g, [0, 1, 0, 1, 1], 2)
    assert not verify_detour_coloring(g, [0, 0, 0, 1, 1], 2)  # class {0,1,2} has a P3
    with pytest.raises(GraphError):
        verify_detour_coloring(g, [0, 1, 0], 2)


@pytest.mark.parametrize("color", [0.5, True, "1"], ids=["float", "bool", "str"])
def test_both_verifiers_refuse_a_colour_that_is_not_an_int(color):
    colors = [0, color, 1]
    with pytest.raises(GraphError, match="non-negative colour to every vertex"):
        verify_detour_coloring(path_graph(3), colors, 1)
    with pytest.raises(GraphError, match="non-negative colour to every vertex"):
        verify_star_coloring(path_graph(3), colors)


def test_detour_coloring_certificates():
    for g, n in ((cycle_graph(5), 2), (complete_graph(4), 2), (petersen_graph(), 5),
                 (BOWTIE, 1), (path_graph(6), 3)):
        cert = detour_coloring(g, n)
        tau = detour_order(g).tau
        assert cert.bound == -(-tau // n)
        assert cert.colors_used <= cert.bound
        assert cert.verified
        assert cert.property == "n-detour"
        assert verify_detour_coloring(g, cert.colors, n)


def test_detour_coloring_json_schema():
    d = detour_coloring(cycle_graph(5), 2).to_json_dict()
    assert set(d) == {"graph6", "n", "colors", "colors_used", "bound", "property", "verified"}
    assert d["graph6"] == "Dhc"
    assert d["property"] == "n-detour"


def test_detour_coloring_rejects_bad_n():
    with pytest.raises(TargetError):
        detour_coloring(cycle_graph(5), 0)


@pytest.mark.parametrize("n, message", [
    (2.5, "class bound n=2.5 must be a positive integer"),
    (True, "class bound n=True must be a positive integer"),
    ("2", "class bound n='2' must be a positive integer"),
    (0, "class bound n=0 must be positive"),
    (-1, "class bound n=-1 must be positive"),
])
def test_every_detour_colouring_entry_needs_a_positive_int_class_bound(n, message):
    # a bound of 2.5 would ask for a path of order 3.5, so a class of
    # detour order 3 would pass; True would pass as 1
    g = path_graph(3)
    for call in (lambda: verify_detour_coloring(g, [0, 0, 0], n), lambda: detour_coloring(g, n),
                 lambda: exact_detour_chromatic(g, n)):
        with pytest.raises(TargetError) as info:
            call()
        assert str(info.value) == message


def test_exact_detour_chromatic_known_values():
    assert exact_detour_chromatic(cycle_graph(5), 2) == 2
    assert exact_detour_chromatic(cycle_graph(7), 2) == 2
    assert exact_detour_chromatic(complete_graph(4), 2) == 2
    assert exact_detour_chromatic(complete_graph(4), 3) == 2
    assert exact_detour_chromatic(cycle_graph(6), 3) == 2


def test_exact_with_n1_is_chromatic_number():
    assert exact_detour_chromatic(cycle_graph(5), 1) == 3
    assert exact_detour_chromatic(complete_graph(4), 1) == 4
    assert exact_detour_chromatic(path_graph(4), 1) == 2


def test_exact_with_large_n_is_one():
    assert exact_detour_chromatic(cycle_graph(5), 5) == 1
    assert exact_detour_chromatic(BOWTIE, 9) == 1


@given(st.integers(1, 7), st.floats(0.1, 0.9), st.integers(0, 2**31 - 1),
       st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_exact_never_exceeds_constructive_bound(n, p, seed, nn):
    g = random_graph(n, p, seed=seed)
    tau = detour_order(g).tau
    exact = exact_detour_chromatic(g, nn)
    assert exact <= -(-tau // nn)
    cert = detour_coloring(g, nn)
    assert exact <= cert.colors_used


def test_verify_detour_coloring_holds_the_dp_cap():
    k21 = complete_graph(21)
    with pytest.raises(CapacityError) as exc:
        verify_detour_coloring(k21, [0] * 21, 1)
    assert str(exc.value) == "subset dynamic program over 21 vertices exceeds the cap of 20"
    assert verify_detour_coloring(k21, [0] * 21, 1, max_n=21) is False
