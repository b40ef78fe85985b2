"""Certificate verification, sweeps, and isomorphism-class corpora.

The class counts pinned below are the published sequences for graphs,
connected graphs, 2-connected graphs, and trees up to isomorphism.
"""

from __future__ import annotations

import json
import random

from taupart import partition
from taupart.graphs import (
    complete_graph,
    cycle_graph,
    encode_graph6,
    from_triangle_mask,
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
    trees_upto_iso,
    two_connected_graphs_upto_iso,
    verify_coloring_record,
    verify_partition_record,
    verify_record,
)
from taupart.partition import PartitionTarget, tau_partition
from taupart.starcolor import star_coloring


def test_class_counts_all_graphs():
    assert [len(graphs_upto_iso(n)) for n in range(1, 8)] == [1, 2, 4, 11, 34, 156, 1044]


def test_class_counts_connected():
    assert [len(connected_graphs_upto_iso(n)) for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]


def test_class_counts_two_connected():
    assert [len(two_connected_graphs_upto_iso(n)) for n in range(3, 8)] == [1, 3, 10, 56, 468]


def test_class_counts_trees():
    assert [len(trees_upto_iso(n)) for n in range(1, 9)] == [1, 1, 1, 2, 3, 6, 11, 23]


def test_class_enumerators_return_fresh_lists():
    for enumerate_classes, n in ((graphs_upto_iso, 4), (connected_graphs_upto_iso, 4),
                                 (two_connected_graphs_upto_iso, 4), (trees_upto_iso, 5)):
        first = enumerate_classes(n)
        expected = list(first)
        first.clear()
        assert enumerate_classes(n) == expected
        assert enumerate_classes(n) is not enumerate_classes(n)


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


def test_sweep_bounds_small():
    gs = []
    for n in range(1, 6):
        gs.extend(corpus_graphs(n, connected_graphs_upto_iso(n)))
    rep = sweep_bounds(gs, corpus="connected<=5")
    assert rep.counts == {"ok": 31, "violation": 0, "error": 0}
    summary = rep.summary_dict()
    assert summary["graphs"] == 31
    assert summary["counts"]["violation"] == 0


def test_sweep_records_round_trip_through_verifier():
    gs = corpus_graphs(5, two_connected_graphs_upto_iso(5))
    rep = sweep_ppc(gs, corpus="2c5")
    for rec in rep.records:
        if "a" in rec:
            g = parse_graph6(rec["graph6"])
            cert = tau_partition(g, PartitionTarget(rec["a"], rec["b"]))
            assert verify_record(cert.to_json_dict())[0]
