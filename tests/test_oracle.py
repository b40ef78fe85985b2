"""Certificate verification, sweeps, and isomorphism-class corpora.

The class counts pinned below are the published sequences for graphs,
connected graphs and 2-connected graphs up to isomorphism.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taupart import oracle, partition
from taupart.detour import detour_order_dfs
from taupart.ears import is_two_connected
from taupart.errors import CapacityError, CounterexampleError, GraphError, TargetError
from taupart.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    encode_graph6,
    from_triangle_mask,
    is_connected,
    pair_index,
    parse_graph6,
    path_graph,
    petersen_graph,
    to_triangle_mask,
)
from taupart.multiway import detour_coloring
from taupart.oracle import (
    canonical_forms,
    connected_graphs_upto_iso,
    corpus_graphs,
    graphs_upto_iso,
    sweep_bounds,
    sweep_ppc,
    two_connected_graphs_upto_iso,
    verify_coloring_record,
    verify_partition_record,
    verify_record,
)
from taupart.partition import PartitionTarget, tau_partition
from taupart.starcolor import star_coloring


def test_class_counts_all_graphs():
    assert [len(graphs_upto_iso(n)) for n in range(1, 9)] == [1, 2, 4, 11, 34, 156, 1044, 12346]


def test_class_counts_connected():
    assert [len(connected_graphs_upto_iso(n)) for n in range(1, 9)] == [
        1, 1, 2, 6, 21, 112, 853, 11117]


def test_class_counts_two_connected():
    assert [len(two_connected_graphs_upto_iso(n)) for n in range(3, 9)] == [1, 3, 10, 56, 468, 7123]


@pytest.mark.parametrize("n, error, message", [
    (2, GraphError, "2-connected graphs need at least 3 vertices, got 2"),
    (65, CapacityError, "graph on 65 vertices exceeds the supported maximum of 64"),
])
def test_two_connected_enumeration_refuses_an_order_before_enumerating(n, error, message, monkeypatch):
    def refuse(order):
        raise AssertionError(f"enumerated the connected classes on {order} vertices")

    monkeypatch.setattr(oracle, "connected_graphs_upto_iso", refuse)
    with pytest.raises(error) as info:
        two_connected_graphs_upto_iso.__wrapped__(n)
    assert str(info.value) == message


# SHA-256 of each class list (its masks in decimal, comma-joined), recorded
# when canonical forms were still minimised over all n! relabellings (n <= 7)
# and when every augmentation of every smaller class was still
# canonicalised (n = 8): the refinement search and the minimum-degree rule
# must reproduce every representative and their order.
CLASS_LIST_DIGESTS = {
    graphs_upto_iso: {
        1: "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
        2: "83b97b859aa5f81b2f0f86ba2a675efaf515ad2d5e2b8652cf2de7e1c2267350",
        3: "e07a92fb5aaa979553ff4952bd4597b190f6f37b327b065caeb0272ef00c4a82",
        4: "ee8879922ff2981c1ef94a44feef8f72d7beb0c9cad9d539f0d678d3877a7d26",
        5: "92c2b3d1c584d2f0669963008afd7bb79a0681db4bd98acf595a4dfb16d63df6",
        6: "995555965de9494ff13be62e028482bc78db6d92f400fc8304bc44cfd92b4609",
        7: "cb0450eee4c3f597f4eb71166861586c9206aa5166d274300f16003ec6288482",
        8: "fd9bc0ba447767cbcad7b315e31b56ad5b4d64c1bf07eec287675d4ce2b877b3",
    },
    connected_graphs_upto_iso: {
        1: "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
        2: "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
        3: "adc0d2b391a5218d93c900f87226ce222fca03d61ee5537620d45450d86a10ea",
        4: "e5bdfdbb43507245672404702913a3137cb70bbb65053d9ad5eb23617e7ea6d0",
        5: "d8a8c53243f494448a1e75380c2ded0eb83a0241b40cd54e57c1eb832e9311bc",
        6: "b77180fea051a59feed36d2053fee1d8a88396cb610f11fb4008a16914b34980",
        7: "436de30d73f530b9cd7fea571b560f599871f5c5e00cd6cd17a90942b1b2b4c1",
        8: "72a0057df9e55b0e936e3b53acabe9626e2190e8250ec4f99ee748f4e0504646",
    },
    two_connected_graphs_upto_iso: {
        3: "7902699be42c8a8e46fbbb4501726517e86b22c56a189f7625a6da49081b2451",
        4: "4c7a9c48c2accb8b14573f2742ab2ed80f1e9e59a54a776663f5961b6ad95446",
        5: "8da66b962c7dfe3fbee5cfd7d0c0852ed19cff0d7c8b0d8b68b207cf7f82e558",
        6: "565c8af8ceaca7743e776884bf9f65e7379f68850f0d68c3861019add19aaa37",
        7: "5f42acf3763c10be3c760f98ef89ffc4f101748007a4affd94b8c7cf9b1440ac",
        8: "84cee41fd609e921b4736b9c32cca8fefd4bb371d88076fc5c5c7180406f502f",
    },
}


@pytest.mark.parametrize("enumerate_classes", list(CLASS_LIST_DIGESTS),
                         ids=lambda f: f.__name__)
def test_class_lists_are_pinned(enumerate_classes):
    digests = {n: hashlib.sha256(",".join(map(str, enumerate_classes(n))).encode()).hexdigest()
               for n in CLASS_LIST_DIGESTS[enumerate_classes]}
    assert digests == CLASS_LIST_DIGESTS[enumerate_classes]


def test_class_enumerators_return_one_cached_tuple():
    for enumerate_classes in (graphs_upto_iso, connected_graphs_upto_iso, two_connected_graphs_upto_iso):
        first = enumerate_classes(4)
        assert isinstance(first, tuple)
        assert enumerate_classes(4) is first


def permute_mask(n: int, mask: int, perm: list[int]) -> int:
    out = 0
    for j in range(n):
        for i in range(j):
            if mask >> pair_index(i, j) & 1:
                a, b = perm[i], perm[j]
                out |= 1 << pair_index(min(a, b), max(a, b))
    return out


def test_canonical_form_is_permutation_invariant():
    rng = random.Random(5)
    for g in (petersen_graph(), cycle_graph(6), complete_graph(5), path_graph(7)):
        n = min(g.n, 7)
        sub = from_triangle_mask(n, to_triangle_mask(g) & ((1 << (n * (n - 1) // 2)) - 1))
        base = to_triangle_mask(sub)
        perm = list(range(n))
        rng.shuffle(perm)
        shuffled = permute_mask(n, base, perm)
        assert canonical_forms(n, [base]) == canonical_forms(n, [shuffled])


def brute_force_canonical_forms(n: int, masks) -> list[int]:
    """Minimum of permute_mask over every permutation of 0..n-1.

    permute_mask moves each edge bit on its own, so the image of a mask is
    the sum of the images of its bits: one table of bit images per
    permutation relabels all the masks at once.
    """
    pairs = [(i, j) for j in range(n) for i in range(j)]  # pair_index order
    images = np.array([[1 << pair_index(p[i], p[j]) for i, j in pairs]
                       for p in permutations(range(n))], dtype=np.int64)
    bits = np.array([[m >> k & 1 for k in range(len(pairs))] for m in masks], dtype=np.int64)
    return [int(x) for x in (bits @ images.T).min(axis=1)]


def test_brute_force_reference_agrees_with_permute_mask():
    rng = random.Random(3)
    mask = rng.getrandbits(15)
    assert brute_force_canonical_forms(6, [mask]) == [
        min(permute_mask(6, mask, list(p)) for p in permutations(range(6)))]


def enumerator_candidates(monkeypatch, n: int) -> list[list[int]]:
    """The candidate lists the enumerators canonicalise for order n."""
    calls = []
    real = oracle.canonical_forms

    def record(order, masks):
        masks = list(masks)
        if order == n:  # not a smaller order filled in on the way
            calls.append(masks)
        return real(order, masks)
    monkeypatch.setattr(oracle, "canonical_forms", record)
    for enumerate_classes in (graphs_upto_iso, two_connected_graphs_upto_iso):
        if n >= 3 or enumerate_classes is not two_connected_graphs_upto_iso:
            enumerate_classes.__wrapped__(n)  # uncached: the body runs again
    monkeypatch.undo()
    return calls


# Candidates canonicalised per order: graphs_upto_iso's, then
# two_connected_graphs_upto_iso's.  Every admitted augmentation would give
# 1,665 and 21,384 2-connected candidates at 7 and 8; one per orbit of the
# parent's automorphisms leaves these, and a generator the search stops
# reporting raises them.
CANDIDATE_COUNTS = {2: [2], 3: [4, 1], 4: [11, 3], 5: [37, 11], 6: [184, 70],
                    7: [1401, 714], 8: [18272, 11999]}


@pytest.mark.parametrize("n", range(2, 9))
def test_enumerators_canonicalise_only_minimum_degree_augmentations(monkeypatch, n):
    calls = enumerator_candidates(monkeypatch, n)
    assert [len(cands) for cands in calls] == CANDIDATE_COUNTS[n]
    for cands in calls:
        for m in cands:
            degrees = [row.bit_count() for row in from_triangle_mask(n, m).adj]
            assert degrees[n - 1] == min(degrees), (n, m)


@pytest.mark.parametrize("n", range(2, 7))
def test_canonical_forms_match_brute_force_on_enumerator_candidates(monkeypatch, n):
    masks = sorted({m for cands in enumerator_candidates(monkeypatch, n) for m in cands})
    assert canonical_forms(n, masks) == brute_force_canonical_forms(n, masks)


@pytest.mark.parametrize("n", range(2, 8))
def test_one_augmentation_per_orbit_reaches_every_class(n):
    # every neighbourhood of a new vertex of minimum degree, with no orbit
    # step, decided on the grown graph itself
    base = (n - 1) * (n - 2) // 2
    every, two_connected = [], []
    for pm in graphs_upto_iso(n - 1):
        parent_connected = is_connected(from_triangle_mask(n - 1, pm))
        for hood in range(1 << (n - 1)):
            grown = pm | hood << base
            g = from_triangle_mask(n, grown)
            degrees = [row.bit_count() for row in g.adj]
            if degrees[n - 1] == min(degrees):
                every.append(grown)
                if parent_connected and is_two_connected(g):
                    two_connected.append(grown)
    assert sorted(set(canonical_forms(n, every))) == list(graphs_upto_iso(n))
    if n >= 3:
        assert sorted(set(canonical_forms(n, two_connected))) == list(two_connected_graphs_upto_iso(n))


@pytest.mark.parametrize("mask", [1 << 3, 1 << 5, -1])
def test_canonical_forms_rejects_a_mask_that_names_no_graph(mask):
    # bits past the last pair were ignored: [1 << 5, -1] gave [0, 7]
    with pytest.raises(GraphError, match=r"is not a set of the 3 pairs of n=3"):
        canonical_forms(3, [mask])


def wheel_graph(rim: int) -> Graph:
    spokes = [(v, rim) for v in range(rim)]
    return Graph.from_edges(rim + 1, cycle_graph(rim).edges() + spokes)


def complete_bipartite_graph(p: int, q: int) -> Graph:
    return Graph.from_edges(p + q, [(u, p + v) for u in range(p) for v in range(q)])


SPECIAL_7 = {
    "K7": complete_graph(7), "empty7": empty_graph(7), "C7": cycle_graph(7),
    "K3,4": complete_bipartite_graph(3, 4), "K1,6": complete_bipartite_graph(1, 6),
    "W6": wheel_graph(6),
}


def test_canonical_forms_match_brute_force_at_seven():
    rng = random.Random(7)
    masks = [to_triangle_mask(g) for g in SPECIAL_7.values()]
    for _ in range(40):
        density = rng.choice((0.2, 0.4, 0.6, 0.8))
        masks.append(sum(1 << k for k in range(21) if rng.random() < density))
    for _ in range(10):  # relabelled copies of the special graphs
        perm = list(range(7))
        rng.shuffle(perm)
        masks.append(permute_mask(7, to_triangle_mask(rng.choice(list(SPECIAL_7.values()))), perm))
    assert canonical_forms(7, masks) == brute_force_canonical_forms(7, masks)


class SearchBudget(Exception):
    pass


def search_calls(n: int, mask: int, budget: int = 100) -> int:
    """Calls of the refinement search for one mask; SearchBudget once they
    exceed `budget`, so a search gone exponential fails fast."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is search_code:
            calls += 1
            if calls > budget:
                raise SearchBudget(f"more than {budget} search calls")
    search_code = next(c for c in oracle._canonical_form.__code__.co_consts
                       if getattr(c, "co_name", None) == "search")
    sys.setprofile(profile)
    try:
        oracle._canonical_form(n, mask)
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("n", [7, 12])
def test_twin_rule_keeps_symmetric_searches_small(n):
    # every vertex of K_n and of the empty graph, and every leaf of a star,
    # is a twin of the others: one branch per level, so one search call
    for g in (complete_graph(n), empty_graph(n), complete_bipartite_graph(1, n - 1)):
        assert search_calls(n, to_triangle_mask(g)) == 1


def test_search_stays_small_on_the_seven_vertex_specials():
    for name, g in SPECIAL_7.items():
        assert search_calls(7, to_triangle_mask(g), budget=50) <= 50, name


def generated_group(n: int, generators) -> set[tuple[int, ...]]:
    group = {tuple(range(n))}
    frontier = list(group)
    for p in frontier:  # grows as new products are found
        for s in generators:
            q = tuple(s[p[v]] for v in range(n))
            if q not in group:
                group.add(q)
                frontier.append(q)
    return group


def brute_force_automorphisms(n: int, masks) -> list[set[tuple[int, ...]]]:
    """For each mask, every permutation p with permute_mask(n, mask, p) ==
    mask, by the bit image tables of brute_force_canonical_forms."""
    pairs = [(i, j) for j in range(n) for i in range(j)]
    perms = list(permutations(range(n)))
    images = np.array([[1 << pair_index(*sorted((p[i], p[j]))) for i, j in pairs] for p in perms],
                      dtype=np.int64).reshape(len(perms), len(pairs))
    bits = np.array([[m >> k & 1 for k in range(len(pairs))] for m in masks],
                    dtype=np.int64).reshape(len(masks), len(pairs))
    return [{p for p, image in zip(perms, row) if image == m}
            for m, row in zip(masks, bits @ images.T)]


def test_reported_automorphisms_preserve_adjacency():
    classes = [(n, m) for n in range(1, 8) for m in graphs_upto_iso(n)]
    specials = [(7, to_triangle_mask(g)) for g in SPECIAL_7.values()]
    for n, mask in classes + specials:
        for p in oracle._canonical_form(n, mask)[1]:
            assert sorted(p) == list(range(n)) and permute_mask(n, mask, list(p)) == mask, (n, mask, p)


def test_reported_automorphisms_generate_the_whole_group():
    # a subgroup would still be sound, but would canonicalise more candidates
    corpora = [(n, graphs_upto_iso(n)) for n in range(1, 7)]
    for n, masks in corpora + [(7, [to_triangle_mask(g) for g in SPECIAL_7.values()])]:
        for mask, group in zip(masks, brute_force_automorphisms(n, masks), strict=True):
            assert generated_group(n, oracle._canonical_form(n, mask)[1]) == group, (n, mask)


def test_two_connected_filter_matches_is_two_connected():
    for n in range(1, 7):
        base = n * (n - 1) // 2
        for pm in connected_graphs_upto_iso(n):
            h = from_triangle_mask(n, pm)
            expected = [hood for hood in range(1 << n)
                        if is_two_connected(from_triangle_mask(n + 1, pm | hood << base))]
            assert oracle._two_connected_hoods(h, range(1 << n)) == expected, (n, pm)


def test_corpus_members_decode():
    gs = corpus_graphs(4, two_connected_graphs_upto_iso(4))
    assert sorted(g.m for g in gs) == [4, 5, 6]  # C4, diamond, K4


# --- record verification ----------------------------------------------------

def good_partition_record():
    return tau_partition(complete_graph(4), PartitionTarget(2, 2)).to_json_dict()


def test_verify_partition_record_accepts_genuine():
    ok, msg = verify_partition_record(good_partition_record())
    assert ok, msg


def test_verify_partition_record_rejects_tampering():
    rec = good_partition_record()
    rec["tauA"] = 1
    ok, msg = verify_partition_record(rec)
    assert not ok and "tauA" in msg

    rec = good_partition_record()
    rec["A"] = rec["A"] + rec["B"][:1]
    ok, msg = verify_partition_record(rec)
    assert not ok and "overlap" in msg

    rec = good_partition_record()
    rec["B"] = rec["B"][:-1]
    ok, msg = verify_partition_record(rec)
    assert not ok and "cover" in msg

    rec = good_partition_record()
    rec["A"] = [99] + rec["A"][1:]
    ok, _ = verify_partition_record(rec)
    assert not ok

    rec = good_partition_record()
    rec["a"], rec["b"] = 3, 2
    ok, msg = verify_partition_record(rec)
    assert not ok and "detour order" in msg

    rec = good_partition_record()
    del rec["method"]
    ok, msg = verify_partition_record(rec)
    assert not ok and "method" in msg


# Both records passed every check before: a vertex listed twice inside one
# part overlaps nothing and still covers, and a target part of 0 was never
# compared with anything but the detour order.
@pytest.mark.parametrize("edit, detail", [
    ({"A": [0, 4, 0]}, "a vertex is listed twice in one part"),
    ({"a": 0, "b": 5, "A": [], "B": [0, 1, 2, 3, 4], "tauA": 0, "tauB": 5},
     "target (0, 5) must have positive parts"),
], ids=["repeated-vertex", "empty-part"])
def test_verify_partition_record_rejects_what_the_builder_never_emits(edit, detail):
    rec = tau_partition(parse_graph6("Dhc"), PartitionTarget(2, 3)).to_json_dict()
    assert rec["A"] == [0, 4] and verify_partition_record(rec) == (True, "ok")
    assert verify_partition_record({**rec, **edit}) == (False, detail)


def test_verify_partition_record_checks_bounds_not_labels():
    # a violated bound must fail even if the recorded taus agree
    g = cycle_graph(5)
    rec = tau_partition(g, PartitionTarget(2, 3)).to_json_dict()
    rec["A"], rec["B"] = [0, 1, 2], [3, 4]
    rec["tauA"], rec["tauB"] = 3, 2
    ok, msg = verify_partition_record(rec)
    assert not ok


def test_verify_coloring_record():
    rec = detour_coloring(cycle_graph(5), 2).to_json_dict()
    ok, msg = verify_coloring_record(rec)
    assert ok, msg

    bad = dict(rec, colors=[0, 0, 0, 1, 1])
    ok, _ = verify_coloring_record(bad)
    assert not ok

    bad = dict(rec, bound=99)
    ok, msg = verify_coloring_record(bad)
    assert not ok and "bound" in msg

    bad = dict(rec, colors_used=rec["colors_used"] + 1)
    ok, _ = verify_coloring_record(bad)
    assert not ok

    for flag in (False, "no", [0]):  # only JSON true marks a certificate verified
        ok, msg = verify_coloring_record(dict(rec, verified=flag))
        assert (ok, msg) == (False, "certificate is not marked verified")

    proper = detour_coloring(cycle_graph(5), 1).to_json_dict()
    assert verify_coloring_record(proper)[0]
    ok, msg = verify_coloring_record(dict(proper, n=True))  # JSON true is no class bound
    assert not ok and msg.startswith("schema:")


# The first failing check names each record.  The property and its class
# bound, the colour list, the recorded colour count and the verified flag
# are checked before any DP; the star or class check, the recorded bound
# and the count against it after tau(g).  An n-detour colouring of the
# empty graph is read by its recorded counts alone.
C5_COLOURING = {"graph6": "Dhc", "n": 2, "colors": [0, 2, 1, 2, 0], "colors_used": 3, "bound": 3,
                "property": "n-detour", "verified": True}
DXK_STAR = {"graph6": "DxK", "n": None, "colors": [2, 3, 0, 2, 3], "colors_used": 3, "bound": 5,
            "property": "star", "verified": True}
COLOURS = "schema: colouring must assign a non-negative colour to every vertex"


@pytest.mark.parametrize("rec, detail", [
    ({**C5_COLOURING, "property": "acyclic", "colors": [0] * 6}, "schema: unknown property 'acyclic'"),
    ({**C5_COLOURING, "n": 0, "colors": [0] * 6, "bound": 99},
     "schema: n-detour certificate needs a positive n, got 0"),
    ({**C5_COLOURING, "n": True, "colors": [-1]}, "schema: n-detour certificate needs a positive n, got True"),
    ({**C5_COLOURING, "colors": [0, 2, 1, 2, -1], "colors_used": 9, "bound": 99}, COLOURS),
    ({**C5_COLOURING, "colors": [0] * 5, "colors_used": 1, "bound": 99}, "a colour class has detour order above 2"),
    ({**DXK_STAR, "colors": [0, 1, 0, 1, 2], "colors_used": 3, "bound": 99}, "colouring is not a star colouring"),
    ({**C5_COLOURING, "colors": [0] * 5, "colors_used": 9, "bound": 99, "verified": False},
     "recorded colors_used 9 != recomputed 1"),
    ({**DXK_STAR, "colors": [0, 1, 0, 1, 2], "colors_used": 9, "bound": 99}, "recorded colors_used 9 != recomputed 3"),
    ({**C5_COLOURING, "colors": [0] * 5, "colors_used": 1, "bound": 99, "verified": False},
     "certificate is not marked verified"),
    ({**DXK_STAR, "colors": [0, 1, 0, 1, 2], "colors_used": 3, "verified": False}, "certificate is not marked verified"),
    ({**C5_COLOURING, "colors_used": 9, "bound": 99, "verified": False}, "recorded colors_used 9 != recomputed 3"),
    ({**C5_COLOURING, "bound": 99, "verified": False}, "certificate is not marked verified"),
    ({**C5_COLOURING, "graph6": "?", "colors": [0], "colors_used": 1, "bound": 0}, "1 colours exceed the bound 0"),
    ({**C5_COLOURING, "graph6": "?", "colors": [-1, 3], "colors_used": 2, "bound": 5},
     "recorded bound 5 != recomputed 0"),
    ({**DXK_STAR, "graph6": "?", "colors": [0], "colors_used": 1, "bound": 0}, COLOURS),
], ids=["property-and-colours", "n-and-colours", "true-n", "colours-and-counts", "class-and-counts",
        "star-and-counts", "count-and-class", "count-and-star", "flag-and-class", "flag-and-star", "count-and-bound",
        "bound-and-flag", "empty-n-detour", "empty-n-detour-bad-colours", "empty-star"])
def test_a_colouring_record_with_several_faults_reports_the_first(rec, detail):
    assert verify_coloring_record(C5_COLOURING) == verify_coloring_record(DXK_STAR) == (True, "ok")
    assert verify_coloring_record(rec) == (False, detail)


def test_an_out_of_range_colouring_is_rejected_before_any_dp(count_dps):
    rec = detour_coloring(cycle_graph(20), 10).to_json_dict()
    assert verify_record(rec) == (True, "ok")
    count_dps.clear()
    for colors in (rec["colors"] + [0], [-1] + rec["colors"][1:]):
        assert verify_record({**rec, "colors": colors}) == (False, COLOURS)
    assert count_dps == []


@pytest.mark.parametrize("fault", ["count", "flag"])
@pytest.mark.parametrize("build", [star_coloring, lambda g: detour_coloring(g, 10)], ids=["star", "n-detour"])
def test_a_wrong_count_or_flag_is_rejected_before_any_dp(build, fault, count_dps):
    rec = build(cycle_graph(20)).to_json_dict()
    assert verify_record(rec) == (True, "ok")
    count_dps.clear()
    used = rec["colors_used"]
    if fault == "count":
        bad, detail = {**rec, "colors_used": used + 1}, f"recorded colors_used {used + 1} != recomputed {used}"
    else:
        bad, detail = {**rec, "verified": False}, "certificate is not marked verified"
    assert verify_record(bad) == (False, detail)
    assert count_dps == []


def test_verify_star_record():
    rec = star_coloring(parse_graph6("DxK")).to_json_dict()
    ok, msg = verify_coloring_record(rec)
    assert ok, msg
    bad = dict(rec, colors=[0, 1, 0, 1, 2])  # bicoloured path across the cut
    ok, _ = verify_coloring_record(bad)
    assert not ok


def test_verification_never_reads_the_construction_cache():
    g = petersen_graph()
    rec = tau_partition(g, PartitionTarget(4, 6)).to_json_dict()
    colouring = detour_coloring(g, 3).to_json_dict()
    before = partition._graph_facts.cache_info()
    assert verify_record(rec)[0]
    assert verify_record(colouring)[0]
    ok, msg = verify_record(dict(rec, tauA=rec["tauA"] + 1))
    assert not ok and "tauA" in msg
    assert partition._graph_facts.cache_info() == before


def test_a_wrong_subset_table_moves_no_verdict(monkeypatch):
    # the verifier runs its own DPs; were it to read the construction's
    # subset tables, the wrong answers patched in below would accept the
    # tampered parts and colourings
    from taupart import detour
    from taupart.graphs import random_2connected
    from taupart.multiway import verify_detour_coloring

    records, colourings = [], []
    for g in (petersen_graph(), parse_graph6("DxK"), random_2connected(12, extra_ears=3, seed=4)):
        assert g.n < detour.NUMPY_DP_MIN_K
        tau = detour.tau_subset(g, g.full_mask)
        rec = tau_partition(g, PartitionTarget(2, tau - 2)).to_json_dict()
        records.append(rec)
        for v in range(g.n):  # each vertex moved to the other part
            records.append(dict(rec, A=sorted(set(rec["A"]) ^ {v}), B=sorted(set(rec["B"]) ^ {v})))
        records.append(dict(rec, b=rec["b"] + 1))
        colourings += [(g, detour_coloring(g, 2).colors), (g, [0] * g.n), (g, [v % 2 for v in range(g.n)])]

    def verdicts():
        return ([verify_partition_record(r) for r in records],
                [verify_detour_coloring(g, colors, 2) for g, colors in colourings])

    before = verdicts()
    assert {ok for ok, _ in before[0]} == {True, False} and set(before[1]) == {True, False}
    monkeypatch.setattr(detour.SubsetTable, "tau", lambda self, mask: 0)
    monkeypatch.setattr(detour.SubsetTable, "at_most", lambda self, mask, bound: True)
    monkeypatch.setattr(detour.SubsetTable, "on_every_order_path", lambda self, k, mask: 0)
    assert verdicts() == before


def test_verify_record_dispatch():
    assert verify_record(good_partition_record())[0]
    assert verify_record(detour_coloring(cycle_graph(5), 2).to_json_dict())[0]
    ok, msg = verify_record({"nonsense": 1})
    assert not ok


def test_verify_record_holds_the_dp_cap():
    c21 = cycle_graph(21)  # one over the default cap, with a cheap DP
    rec = tau_partition(c21, PartitionTarget(10, 11), max_n=21).to_json_dict()
    colouring = detour_coloring(c21, 7, max_n=21).to_json_dict()
    for r in (rec, colouring):
        ok, msg = verify_record(r)
        assert not ok
        assert msg == "capacity: subset dynamic program over 21 vertices exceeds the cap of 20"
        assert verify_record(r, max_n=21) == (True, "ok")
    ok, msg = verify_record(rec, max_n=5)
    assert not ok and msg.startswith("capacity:")


# --- admission: keys, field types, graph6, cap ------------------------------

C5_PARTITION = {"graph6": "Dhc", "a": 2, "b": 3, "A": [0, 4], "B": [1, 2, 3], "tauA": 2, "tauB": 3,
                "method": "constructed", "trace": []}
C21 = encode_graph6(cycle_graph(21))  # one over the default cap
OVER_CAP = "capacity: subset dynamic program over 21 vertices exceeds the cap of 20"
TRUNCATED_C21 = "schema: truncated edge data for n=21 (byte 1)"


def _without(rec: dict, key: str) -> dict:
    return {k: v for k, v in rec.items() if k != key}


# Each record has two faults, and the one that admission meets first names
# it: required keys, then field types, then the graph6 parse, then the cap,
# and only then the checks of the record's kind.
TWO_FAULTS = [
    pytest.param({**_without(C5_PARTITION, "method"), "a": "2"}, "schema: missing key 'method'",
                 id="partition-key-and-type"),
    pytest.param({**C5_PARTITION, "tauB": 3.0, "graph6": "Dh"}, "schema: 'tauB' must be an integer, got float",
                 id="partition-type-and-graph6"),
    pytest.param({**C5_PARTITION, "graph6": "T"}, TRUNCATED_C21, id="partition-graph6-and-cap"),
    pytest.param({**C5_PARTITION, "graph6": C21, "A": [0, 99]}, OVER_CAP, id="partition-cap-and-ids"),
    pytest.param({**_without(C5_COLOURING, "property"), "colors_used": "3"}, "schema: missing key 'property'",
                 id="colouring-key-and-type"),
    pytest.param({**C5_COLOURING, "bound": None, "graph6": "Dh"},
                 "schema: 'bound' must be an integer, got NoneType", id="colouring-type-and-graph6"),
    pytest.param({**C5_COLOURING, "graph6": "T"}, TRUNCATED_C21, id="colouring-graph6-and-cap"),
    pytest.param({**C5_COLOURING, "graph6": C21, "colors": [-1] * 5}, OVER_CAP, id="colouring-cap-and-colours"),
    pytest.param({**DXK_STAR, "graph6": C21, "property": "acyclic"}, OVER_CAP, id="star-cap-and-property"),
]


@pytest.mark.parametrize("rec, detail", TWO_FAULTS)
def test_admission_reports_the_first_of_two_faults(rec, detail):
    assert verify_record(C5_PARTITION) == (True, "ok")
    assert verify_record(rec) == (False, detail)


def test_a_shared_whole_tau_keeps_the_two_fault_details():
    # each faulty record comes twice after a good one on C5, so its second
    # check admits it from the string the first one parsed, or failed to
    whole_tau = oracle.WholeGraphTau()
    for param in TWO_FAULTS:
        rec, detail = param.values
        assert verify_record(C5_PARTITION, whole_tau=whole_tau) == (True, "ok")
        for _ in range(2):
            assert verify_record(rec, whole_tau=whole_tau) == (False, detail), param.id


@pytest.fixture
def parsed(monkeypatch):
    """The graph6 strings the verifier parses during the test, in order."""
    strings: list[str] = []
    real = oracle.parse_graph6
    monkeypatch.setattr(oracle, "parse_graph6", lambda s: strings.append(s) or real(s))
    return strings


def test_a_run_of_records_on_one_graph6_string_parses_it_once(parsed, count_dps):
    g = cycle_graph(5)
    records = [tau_partition(g, PartitionTarget(a, 5 - a)).to_json_dict() for a in range(1, 5)]
    records += [C5_PARTITION, C5_COLOURING]
    assert {r["graph6"] for r in records} == {"Dhc"}
    whole_tau = oracle.WholeGraphTau()
    count_dps.clear()
    assert [verify_record(r, whole_tau=whole_tau) for r in records] == [(True, "ok")] * 6
    assert parsed == ["Dhc"]
    # tau(C5) is one of the DPs on five vertices; no part or class holds all five
    assert count_dps.count(5) == 1


def test_a_changed_graph6_string_parses_again(parsed, count_dps):
    whole_tau = oracle.WholeGraphTau()
    for rec in (C5_PARTITION, DXK_STAR, DXK_STAR, C5_PARTITION):
        assert verify_record(rec, whole_tau=whole_tau) == (True, "ok")
    assert parsed == ["Dhc", "DxK", "Dhc"]
    # the same graph under the graph6 header: a new string, parsed, but
    # tau(C5) is kept, as the graph it gives equals the held one
    count_dps.clear()
    assert verify_record({**C5_PARTITION, "graph6": ">>graph6<<Dhc"}, whole_tau=whole_tau) == (True, "ok")
    assert parsed[-1] == ">>graph6<<Dhc" and len(parsed) == 4
    assert 5 not in count_dps
    # a cap fault still comes from each record, however its string was parsed
    for max_n in (20, 4, 20):
        ok, detail = verify_record(C5_PARTITION, max_n=max_n, whole_tau=whole_tau)
        assert ok == (max_n == 20) and (ok or detail.startswith("capacity:"))
    assert len(parsed) == 5


def test_a_target_sum_too_long_to_print_is_still_a_verdict(int_str_limit):
    big = int("9" * int_str_limit)  # printable, but big + big has one digit more
    assert verify_record({**C5_PARTITION, "a": big, "b": big}) == (
        False, f"target ({big}, {big}) sums to a number too long to print, detour order is 5")


# the largest ints json.loads returns have this many digits
LONG_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 4300)() or 4300
LONG_INTS = st.builds(lambda sign, digit: sign * int(str(digit) * LONG_DIGITS),
                      st.sampled_from([1, -1]), st.integers(1, 9))
INTS = st.integers(-3, 25) | st.integers() | LONG_INTS | st.booleans() | st.floats()
JSON_VALUES = st.recursive(
    st.none() | INTS | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=6)
FIELD_VALUES = {"graph6": st.sampled_from(["Dhc", "DxK", "?", "@", "T", C21]) | st.text(max_size=8)}
for key in ("a", "b", "tauA", "tauB", "colors_used", "bound", "n"):
    FIELD_VALUES[key] = INTS
for key in ("A", "B", "colors"):
    FIELD_VALUES[key] = st.lists(INTS, max_size=6)


@st.composite
def json_records(draw):
    """What json.loads may return for a certificate line: mostly a genuine
    record with up to three keys dropped or set to other JSON values,
    sometimes any JSON value at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON_VALUES)
    rec = dict(draw(st.sampled_from([C5_PARTITION, C5_COLOURING, DXK_STAR])))
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(sorted({*rec, *FIELD_VALUES, "verified", "property"})))
        if key in rec and draw(st.booleans()):
            del rec[key]
        else:
            rec[key] = draw(FIELD_VALUES.get(key, JSON_VALUES) | JSON_VALUES)
    return rec


@settings(max_examples=300, deadline=None)
@given(rec=json_records())
@example(rec={**C5_PARTITION, "a": int("9" * LONG_DIGITS), "b": int("9" * LONG_DIGITS)})
@example(rec={**C5_PARTITION, "a": 10 ** (LONG_DIGITS - 1)})  # the longest int json.loads reads
def test_verify_record_gives_a_verdict_for_any_json_record(rec):
    ok, detail = verify_record(rec, max_n=20)
    assert type(ok) is bool and isinstance(detail, str)
    assert ok == (detail == "ok")


def test_a_sweep_checks_every_certificate_against_the_cross_checked_tau(count_dps):
    g = corpus_graphs(7, two_connected_graphs_upto_iso(7))[200]
    tau = detour_order_dfs(g)
    for a in range(1, tau):  # the construction's facts and tables, made before counting
        tau_partition(g, PartitionTarget(a, tau - a))
    count_dps.clear()
    rep = sweep_ppc([g], deterministic=True)
    assert len(rep.records) == tau - 1 >= 4 and all(r["verified"] for r in rep.records)
    # no part holds all 7 vertices: the one DP on 7 is the cross-check's
    assert count_dps.count(7) == 1


def test_a_sweep_cross_checks_the_empty_graph_and_counts_it_constructed(monkeypatch):
    calls = []

    def spy(g):
        calls.append(g)
        return detour_order_dfs(g)

    monkeypatch.setattr(oracle, "detour_order_dfs", spy)
    rep = sweep_ppc([Graph(0, ())], deterministic=True)
    assert calls == [Graph(0, ())]
    assert rep.counts["constructed"] == 1 and rep.records == []


def test_sweep_passes_its_cap_to_the_verifier():
    rep = sweep_ppc([cycle_graph(21)], max_n=21, deterministic=True)
    assert rep.counts["constructed"] == 1
    assert len(rep.records) == 20 and all(r["verified"] for r in rep.records)


# --- sweeps ------------------------------------------------------------------

def test_sweep_ppc_small_connected():
    gs = []
    for n in range(1, 6):
        gs.extend(corpus_graphs(n, connected_graphs_upto_iso(n)))
    rep = sweep_ppc(gs, corpus="connected<=5")
    assert rep.graphs == 31
    assert sum(rep.counts.values()) == 31
    assert rep.counts["error"] == 0
    assert rep.counterexamples == 0
    assert all(r.get("verified") for r in rep.records if "verified" in r)


def test_sweep_ppc_deterministic_json():
    gs = corpus_graphs(4, connected_graphs_upto_iso(4))
    lines1 = sweep_ppc(gs, corpus="c4", deterministic=True).to_json_lines()
    lines2 = sweep_ppc(gs, corpus="c4", deterministic=True).to_json_lines()
    assert lines1 == lines2
    assert all("runtime_ms" not in json.loads(line) for line in lines1)
    with_timing = sweep_ppc(gs, corpus="c4").to_json_lines()
    assert any("runtime_ms" in line for line in with_timing)


def test_sweep_ppc_rows_of_every_kind(monkeypatch):
    # a certificate row per target, one counterexample row, one target-error
    # row and one capacity row, each after the rows its graph already wrote
    c6, k5 = cycle_graph(6), complete_graph(5)
    real = oracle.tau_partition

    def partition_or_fail(g, t, max_n=None):
        if g == c6 and (t.a, t.b) == (2, 4):
            raise CounterexampleError("no (2, 4) partition exists", encode_graph6(g), (2, 4))
        if g == k5 and (t.a, t.b) == (3, 2):
            raise TargetError("refused (3, 2)")
        return real(g, t, max_n=max_n)

    monkeypatch.setattr(oracle, "tau_partition", partition_or_fail)
    graphs = [c6, k5, path_graph(4), cycle_graph(21)]
    rep = sweep_ppc(graphs, deterministic=True)
    assert rep.to_json_lines() == [
        '{"a": 1, "b": 5, "graph6": "EhEG", "method": "base-cycle", "n": 6, "verified": true, "witnesses": 0}',
        '{"counterexample": true, "graph6": "EhEG", "target": [2, 4]}',
        '{"a": 1, "b": 4, "graph6": "D~{", "method": "constructed", "n": 5, "verified": true, "witnesses": 0}',
        '{"a": 2, "b": 3, "graph6": "D~{", "method": "constructed", "n": 5, "verified": true, "witnesses": 0}',
        '{"error": "refused (3, 2)", "graph6": "D~{"}',
        '{"a": 1, "b": 3, "graph6": "Ch", "method": "fallback", "n": 4, "verified": true, "witnesses": 0}',
        '{"a": 2, "b": 2, "graph6": "Ch", "method": "fallback", "n": 4, "verified": true, "witnesses": 0}',
        '{"a": 3, "b": 1, "graph6": "Ch", "method": "fallback", "n": 4, "verified": true, "witnesses": 0}',
        '{"error": "subset dynamic program over 21 vertices exceeds the cap of 20", '
        '"graph6": "ThCGGC@?G?_@?@??_?G?@??C??G??G??E??@"}',
        '{"corpus": "", "counts": {"constructed": 0, "counterexample": 1, "error": 2, "fallback": 1, '
        '"witness": 0}, "graphs": 4, "summary": true, "witnesses": 0}',
    ]
    assert rep.over_cap is True and len(rep.witnesses) == 0 and rep.max_runtime_ms is None
    timed = sweep_ppc(graphs)
    assert [{k: v for k, v in rec.items() if k != "runtime_ms"} for rec in timed.records] == rep.records
    for rec in timed.records:
        assert ("runtime_ms" in rec) == ("verified" in rec), rec
    assert timed.max_runtime_ms >= max(rec["runtime_ms"] for rec in timed.records if "runtime_ms" in rec)


def test_sweep_bounds_small():
    gs = []
    for n in range(1, 6):
        gs.extend(corpus_graphs(n, connected_graphs_upto_iso(n)))
    rep = sweep_bounds(gs, corpus="connected<=5")
    assert rep.counts == {"ok": 31, "violation": 0, "error": 0}
    summary = rep.summary_dict()
    assert summary["graphs"] == 31
    assert summary["counts"]["violation"] == 0


def test_sweep_bounds_reports_a_graph_over_the_exact_search_cap_as_one_error_row():
    c15, c4 = cycle_graph(15), cycle_graph(4)
    rep = sweep_bounds([c15, c4], deterministic=True)
    c15_rows = [rec for rec in rep.records if rec["graph6"] == encode_graph6(c15)]
    assert c15_rows == [{"graph6": encode_graph6(c15),
                         "error": "exact search over 15 vertices exceeds the cap of 14"}]
    assert rep.counts == {"ok": 1, "violation": 0, "error": 1}
    assert rep.over_cap is True


def test_sweep_records_round_trip_through_verifier():
    gs = corpus_graphs(5, two_connected_graphs_upto_iso(5))
    rep = sweep_ppc(gs, corpus="2c5")
    for rec in rep.records:
        if "a" in rec:
            g = parse_graph6(rec["graph6"])
            cert = tau_partition(g, PartitionTarget(rec["a"], rec["b"]))
            assert verify_record(cert.to_json_dict())[0]
