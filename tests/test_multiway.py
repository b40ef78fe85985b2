"""Multiway detour partitions and n-detour colourings."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taupart.detour import detour_order, tau_subset
from taupart.errors import CapacityError, GraphError, TargetError
from taupart.graphs import (
    complete_graph,
    cycle_graph,
    parse_graph6,
    path_graph,
    petersen_graph,
    random_graph,
)
from taupart.multiway import (
    detour_coloring,
    exact_detour_chromatic,
    t_partition,
    verify_detour_coloring,
)
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
    # each remainder's tau comes from the certificate that cut it off, and a
    # remainder that is not 2-connected checks its target sum against it.
    # Below NUMPY_DP_MIN_K vertices every part check reads its graph's
    # subset table: one DP per graph queried, one early-exit DP for a fold
    # step's migration
    g = petersen_graph()
    masks = t_partition(g, (2,) * 5)
    assert len(count_dps) == 9
    parts_are_valid(g, (2,) * 5, masks)


def test_partition_order_is_deterministic():
    assert t_partition(BOWTIE, (2, 2, 1)) == t_partition(BOWTIE, (2, 2, 1))


@given(st.integers(1, 9), st.floats(0.1, 0.9), st.integers(0, 2**31 - 1),
       st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_random_multiway_partitions_hold(n, p, seed, pick):
    g = random_graph(n, p, seed=seed)
    tau = detour_order(g).tau
    # random composition of tau
    entries = []
    rem = tau
    while rem:
        step = 1 + pick % rem
        pick //= max(rem, 1)
        entries.append(step)
        rem -= step
    parts_are_valid(g, entries, t_partition(g, tuple(entries)))


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
